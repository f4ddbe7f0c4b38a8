"""Spans and counts taken from outside the program, by wrapping layers.

The benchmark drives the program only through its campaign entry points
and observes each layer by replacing that layer's public functions with
timing wrappers for the length of a run.  Functions are rebound in
every ``repro`` module that holds them by name (``runner``,
``scenarios.campaign`` and ``faults.campaign`` import ``boot``,
``resume_boot``, ``record_plan`` ... directly), and methods are patched
on their class.  ``IOBus.read_port`` runs millions of times a run, so
the hardware layer is counted, never timed.

A :class:`Tracer` built with ``full=False`` installs only the
``record_plan`` wrapper: the checkpoint plan is recorded lazily inside a
campaign's first item, and the untimed runs need its duration to count
it as set-up.  It runs once per campaign, so it costs nothing
measurable.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from measure import Span

clock = time.perf_counter


class Tracer:
    def __init__(self, full: bool):
        self.full = full
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._item: int | None = None
        self._undo: list = []
        #: id(wrapper) -> (wrapper, the function it replaced)
        self._rebound: dict = {}

    # -- spans -----------------------------------------------------------

    def open(self, name: str, item: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent].item
        self.spans.append(Span(name, clock(), parent=parent, item=item))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, note: str = "") -> Span:
        span = self.spans[index]
        span.end = clock()
        span.note = note
        # Spans nest strictly (one thread), so the closed span is on top.
        while self._stack and self._stack.pop() != index:
            pass
        return span

    def item(self, index: int) -> None:
        """Progress callback boundary: close the last item, open ``index``."""
        self.end_item()
        self._item = self.open("item", item=index)

    def end_item(self) -> None:
        if self._item is not None:
            self.close(self._item)
            self._item = None

    @property
    def depth(self) -> int:
        """How many spans are open."""
        return len(self._stack)

    def unwind(self, depth: int) -> None:
        """Close every span opened above stack ``depth`` (after a raise)."""
        self.end_item()
        while len(self._stack) > depth:
            self.close(self._stack[-1], note="unwound")

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.item, s.note]
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(body))

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    @staticmethod
    def _modules():
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` in every ``repro`` module holding it."""
        self._rebound[id(replacement)] = (replacement, original)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _patch(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        # A module imported while installed bound the wrappers too, so
        # every module is scanned, not only those rebound at install.
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper, original = self._rebound.get(id(value), (None, None))
                if wrapper is value:
                    setattr(module, attr, original)
        self._rebound.clear()
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _timed(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                tracer.close(index, note=type(error).__name__)
                raise
            span = tracer.close(index)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        # Import every module that binds a wrapped function by name first,
        # so the rebinding below reaches all of them.
        import repro.engine.core  # noqa: F401
        import repro.faults.campaign  # noqa: F401
        import repro.mutation.runner  # noqa: F401
        import repro.scenarios.corpus  # noqa: F401
        from repro.kernel import checkpoint

        self._rebind(
            checkpoint.record_plan,
            self._timed("kernel.record_plan", checkpoint.record_plan),
        )
        if self.full:
            self._install_layers()

    def _install_layers(self) -> None:
        from repro.devil.incremental import SpecCampaignCompiler
        from repro.diagnostics import CompileError
        from repro.hw.bus import IOBus
        from repro.hw.ide import IdeController
        from repro.hw.machine import Machine
        from repro.kernel import checkpoint, kernel
        from repro.kernel.outcomes import BootOutcome
        from repro.minic.incremental import CampaignCompiler
        from repro.mutation import generator, sampling
        from repro.scenarios import campaign as scenario_campaign
        from repro.scenarios.generator import ScriptedBus

        counts = self.counts

        def booted(span, args, kwargs, report):
            counts["kernel.steps"] += report.steps
            if report.outcome is BootOutcome.INFINITE_LOOP:
                span.note = "budget"

        def resumed(span, args, kwargs, report):
            start = args[1] if len(args) > 1 else kwargs["checkpoint"]
            counts["kernel.steps"] += report.steps - start.steps
            if report.outcome is BootOutcome.INFINITE_LOOP:
                span.note = "budget"

        self._rebind(kernel.boot, self._timed("kernel.boot", kernel.boot, booted))
        self._rebind(
            scenario_campaign.scenario_boot,
            self._timed("kernel.boot", scenario_campaign.scenario_boot, booted),
        )
        self._rebind(
            checkpoint.resume_boot,
            self._timed("kernel.resume_boot", checkpoint.resume_boot, resumed),
        )
        self._rebind(
            checkpoint.checkpoint_for_mutant,
            self._timed(
                "kernel.checkpoint_for_mutant", checkpoint.checkpoint_for_mutant
            ),
        )

        def enumerated(span, args, kwargs, mutants):
            counts["mutation.enumerated"] += len(mutants)

        for fn in (generator.enumerate_c_mutants, generator.enumerate_devil_mutants):
            self._rebind(fn, self._timed("mutation.enumerate", fn, enumerated))

        def sampled(span, args, kwargs, mutants):
            counts["mutation.sampled"] += len(mutants)

        self._rebind(
            sampling.sample_mutants,
            self._timed("mutation.sample", sampling.sample_mutants, sampled),
        )

        compile_variant = CampaignCompiler.compile_variant

        def compile_wrapper(compiler, text):
            index = self.open("minic.compile_variant")
            try:
                return compile_variant(compiler, text)
            except CompileError:
                counts["minic.compile_rejects"] += 1
                raise
            finally:
                self.close(index)

        self._patch(CampaignCompiler, "compile_variant", compile_wrapper)

        def checked(span, args, kwargs, errors):
            if errors:
                counts["devil.rejects"] += 1

        self._patch(
            SpecCampaignCompiler,
            "errors_for_variant",
            self._timed(
                "devil.check_variant", SpecCampaignCompiler.errors_for_variant, checked
            ),
        )
        self._patch(
            Machine, "restore", self._timed("hw.machine_restore", Machine.restore)
        )
        self._install_port_counters(IOBus, IdeController, ScriptedBus)

    def _install_port_counters(self, IOBus, IdeController, ScriptedBus) -> None:
        counts = self.counts

        def counted(method, key):
            @functools.wraps(method)
            def wrapper(*args):
                counts[key] += 1
                return method(*args)

            return wrapper

        for cls in (IOBus, ScriptedBus):
            self._patch(cls, "read_port", counted(cls.read_port, "hw.port_reads"))
            self._patch(cls, "write_port", counted(cls.write_port, "hw.port_writes"))

        bulk_read = IOBus.bulk_read_port
        bulk_write = IOBus.bulk_write_port

        def bulk_read_wrapper(bus, address, size, count):
            values = bulk_read(bus, address, size, count)
            if values is not None:
                counts["hw.port_reads"] += count
            return values

        def bulk_write_wrapper(bus, address, values, size):
            done = bulk_write(bus, address, values, size)
            if done:
                counts["hw.port_writes"] += len(values)
            return done

        self._patch(IOBus, "bulk_read_port", bulk_read_wrapper)
        self._patch(IOBus, "bulk_write_port", bulk_write_wrapper)

        # Hot IDE ports publish direct read handlers that the bus and the
        # source backend call without going through ``read_port``.
        handler_factory = IdeController.port_read_handler

        def handler_wrapper(device, address):
            handler = handler_factory(device, address)
            if handler is None:
                return None
            return counted(handler, "hw.port_reads")

        self._patch(IdeController, "port_read_handler", handler_wrapper)
