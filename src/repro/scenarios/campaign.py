"""Scenario mutation campaigns: generated drivers as campaign targets.

A scenario campaign is the driver campaign kind
(`repro.mutation.runner.DriverCampaign`) with three parts swapped —
:class:`ScenarioCampaign` overrides the machine, the boot function and
the checkpoint harness, and inherits mutant enumeration, seeded
sampling, incremental compilation, checkpointed resume and every
evaluation path (serial, ``workers=N``, engine, daemon):

* a scenario "machine" is :class:`ScenarioMachine` — the deterministic
  :class:`~repro.scenarios.generator.ScriptedBus` plus trivially
  snapshottable read/write history;
* the "boot sequence" is :class:`ScenarioSequence` — one driver call
  (``run(3, 11)``, the differential harness's invocation) as a
  resumable state machine with the same surface
  `repro.kernel.kernel.BootSequence` exposes to the checkpoint
  recorder;
* classification maps the same exceptions to the same outcome taxonomy
  (`repro.kernel.outcomes`), with a completed run reporting its return
  value and an I/O digest in the detail string so byte-identity
  assertions cover the device interaction too.

The checkpoint machinery (`repro.kernel.checkpoint`) is reused whole
through its ``harness_factory`` seam, so generated programs get the
same record/resume treatment — sub-call snapshots, divergence mapping,
portable plans — as the bundled drivers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.campaign import (
    ProgressFn,
    Request,
    resolve_checkpointing,
    run_campaign,
)
from repro.kernel.kernel import DEFAULT_BACKEND
from repro.kernel.outcomes import BootOutcome, BootReport
from repro.minic import SourceFile, compile_program
from repro.minic.compile import interpreter_for
from repro.minic.errors import (
    DevilAssertion,
    InterpreterBug,
    KernelPanic,
    MachineFault,
    StepBudgetExceeded,
)
from repro.minic.incremental import CampaignCompiler
from repro.mutation.generator import enumerate_c_mutants
from repro.mutation.runner import CampaignResult, DriverCampaign, build_c_pools
from repro.mutation.sampling import DEFAULT_SEED
from repro.mutation.tagging import Region
from repro.scenarios.generator import ScriptedBus

#: The scenario entry point and its arguments — the differential
#: harness's historical invocation, kept so generated programs exercise
#: both parameters.
RUN_ENTRY = "run"
RUN_ARGS = (3, 11)


class ScenarioMachine:
    """The scripted device behind a scenario, with machine-shaped seams.

    Exposes exactly what the campaign and checkpoint layers need from
    `repro.hw.machine.Machine`: a ``bus`` for the interpreter,
    ``snapshot()``/``restore()`` (the bus history is plain data), and
    ``disk_diff()`` (always empty — scenarios have no disk).
    """

    def __init__(self, bus_seed: int):
        self.bus_seed = bus_seed
        self.bus = ScriptedBus(bus_seed)

    def snapshot(self) -> tuple:
        return (self.bus.count, tuple(self.bus.writes))

    #: The loop watch's machine capture: the bus history is all there is.
    loop_state = snapshot

    def restore(self, snapshot: tuple) -> None:
        count, writes = snapshot
        self.bus.count = count
        self.bus.writes = list(writes)

    def disk_diff(self) -> list:
        return []

    def io_digest(self) -> int:
        """Content digest of the device interaction (reads + writes)."""
        return zlib.crc32(
            repr((self.bus.count, tuple(self.bus.writes))).encode()
        )


class ScenarioSequence:
    """One scenario run as a resumable, call-indexed state machine.

    The same surface :class:`repro.kernel.kernel.BootSequence` offers
    the checkpoint recorder — ``call_index``, ``done``, ``step()``,
    ``run()``, ``snapshot_state()``/``restore_state()`` — over a single
    driver call.  A restored mid-call snapshot re-enters through the
    interpreter's pending-resume protocol, exactly like the kernel's
    re-entrant call sites.
    """

    _STATE_FIELDS = ("call_index", "phase", "result")

    def __init__(self, interp, machine: ScenarioMachine):
        self.interp = interp
        self.machine = machine
        self.call_index = 0
        self.phase = "run"
        self.result = 0

    def snapshot_state(self) -> dict:
        return {name: getattr(self, name) for name in self._STATE_FIELDS}

    def restore_state(self, state: dict) -> None:
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def run(self) -> None:
        while self.phase != "done":
            self.step()

    def step(self) -> None:
        if self.phase != "run":
            raise KernelPanic(
                f"scenario sequence re-entered in phase {self.phase!r}"
            )
        interp = self.interp
        if not interp.has_function(RUN_ENTRY):
            raise KernelPanic(
                f"scenario: driver lacks required entry {RUN_ENTRY!r}"
            )
        if interp.has_pending_resume():
            pending = interp.pending_call_name()
            if pending != RUN_ENTRY:
                raise InterpreterBug(
                    f"scenario resume expected pending {RUN_ENTRY!r}, "
                    f"found {pending!r}"
                )
            value = interp.resume_in_flight()
        else:
            value = interp.call(RUN_ENTRY, *RUN_ARGS)
        self.result = int(value) if value is not None else 0
        self.call_index += 1
        self.phase = "done"


def scenario_harness(interp, machine: ScenarioMachine):
    """The ``harness_factory`` for `repro.kernel.checkpoint`.

    Returns ``(sequence, classifier)``: the scenario sequence over
    ``interp`` and a classifier mapping the run to the standard outcome
    taxonomy — same exception precedence as
    `repro.kernel.kernel.classify_run`, with damage assessment replaced
    by the completed run's ``ret``/``io`` detail (scenarios have no
    filesystem, and the detail makes device-interaction divergence
    visible to byte-identity assertions).

    One scenario-only addition: an ``unbound identifier``
    `InterpreterBug` classifies as ``CRASH``.  A mutant identifier swap
    can reference a variable whose declaration a ``switch`` dispatch
    jumped over — statically in scope (so the mutant compiles), never
    bound at run time.  That is undefined behaviour in the *mutant*, the
    same class as the null dereferences `MachineFault` covers, and every
    backend raises it with an identical message, so the report stays
    byte-identical across backends and cold/checkpointed boots.  Any
    other `InterpreterBug` still propagates: those are harness bugs and
    must stay loud.
    """
    sequence = ScenarioSequence(interp, machine)

    def classifier(run, machine, interp) -> BootReport:
        try:
            run()
        except DevilAssertion as event:
            outcome, detail = BootOutcome.RUN_TIME_CHECK, str(event)
        except KernelPanic as event:
            outcome, detail = BootOutcome.HALT, str(event)
        except MachineFault as event:
            outcome, detail = BootOutcome.CRASH, str(event)
        except StepBudgetExceeded as event:
            outcome, detail = BootOutcome.INFINITE_LOOP, str(event)
        except InterpreterBug as event:
            if not str(event).startswith("unbound identifier"):
                raise
            outcome, detail = BootOutcome.CRASH, str(event)
        else:
            outcome = BootOutcome.BOOT
            detail = f"ret {sequence.result}; io {machine.io_digest():#010x}"
        return BootReport(
            outcome=outcome,
            detail=detail,
            steps=interp.steps,
            coverage=set(interp.coverage),
            log=list(interp.log),
            disk_diff=machine.disk_diff(),
            steps_jumped=interp.steps_jumped,
        )

    return sequence, classifier


def scenario_boot(
    program,
    machine: ScenarioMachine,
    step_budget: int,
    backend: str | None = None,
) -> BootReport:
    """Run one scenario program cold and classify, like `repro.kernel.boot`."""
    interp_class = interpreter_for(backend or DEFAULT_BACKEND)
    interp = interp_class(
        program, machine.bus, step_budget=step_budget, defer_globals=True
    )
    interp.arm_loop_watch(machine.loop_state)
    sequence, classifier = scenario_harness(interp, machine)

    def run() -> None:
        interp.initialize_globals()
        sequence.run()

    return classifier(run, machine, interp)


# -- the campaign kind ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRequest(Request):
    """One generated-scenario mutation campaign as a request.

    ``scenario`` is the frozen :class:`~repro.scenarios.corpus.Scenario`
    itself — hashable and picklable, so a hand-edited scenario reaches
    every worker and the daemon intact — or a stable corpus id
    (``"polling-003"``), which :meth:`resolved` materialises.
    Checkpoint fields resolve from the environment exactly like
    `repro.mutation.runner.CampaignRequest`.
    """

    kind: ClassVar[str] = "scenario"

    scenario: object
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    backend: str | None = None
    compile_cache: bool = True
    boot_checkpoint: bool | None = None
    granularity: str | None = None
    step_budget: int | None = None

    def resolved(self) -> "ScenarioRequest":
        scenario = self.scenario
        if isinstance(scenario, str):
            from repro.scenarios.corpus import scenario_from_id

            scenario = scenario_from_id(scenario)
        checkpoint, granularity = resolve_checkpointing(
            self.boot_checkpoint, self.granularity
        )
        return replace(
            self,
            scenario=scenario,
            boot_checkpoint=checkpoint,
            granularity=granularity,
        )


class ScenarioCampaign(DriverCampaign):
    """Scenario mutants: the driver kind on a :class:`ScenarioMachine`,
    booted by :func:`scenario_boot` under :func:`scenario_harness`."""

    request_type = ScenarioRequest
    harness = staticmethod(scenario_harness)

    @classmethod
    def build(cls, key, plan_path=None) -> "ScenarioCampaign":
        """Enumerate and baseline-run one scenario."""
        from repro.scenarios.corpus import DEFAULT_SCENARIO_BUDGET

        scenario = key.scenario
        files = [SourceFile(scenario.filename, scenario.source)]
        pools = build_c_pools(files, {}, scenario.filename)
        compiler = (
            CampaignCompiler(scenario.filename, scenario.source, {})
            if key.compile_cache
            else None
        )
        mutants = enumerate_c_mutants(
            scenario.source,
            scenario.filename,
            pools,
            include_registry={},
            # Generated drivers carry no `/* HW-BEGIN */` tags: the whole
            # program is hardware-interaction code, so the whole source is
            # the mutation region.
            regions=[Region(0, len(scenario.source))],
            compiler=compiler,
        )
        # Fixed budget (not derived from measured baseline steps) so every
        # process derives the identical plan fingerprint from the spec.
        budget = key.step_budget or DEFAULT_SCENARIO_BUDGET
        baseline = scenario_boot(
            compile_program(files),
            ScenarioMachine(scenario.bus_seed),
            step_budget=budget,
            backend=key.backend,
        )
        if baseline.outcome is not BootOutcome.BOOT:
            raise RuntimeError(
                f"baseline scenario {scenario.scenario_id} does not run "
                f"cleanly: {baseline}"
            )
        return cls(
            key, plan_path, source=scenario.source, filename=scenario.filename,
            registry={}, mutants=mutants, compiler=compiler,
            clean_steps=baseline.steps, budget=budget,
        )

    @property
    def plan_budget(self) -> int:
        return self.budget

    def new_machine(self) -> ScenarioMachine:
        return ScenarioMachine(self.key.scenario.bus_seed)

    def cold_boot(self, program, machine, step_budget, backend):
        return scenario_boot(
            program, machine, step_budget=step_budget, backend=backend
        )

    @property
    def label(self) -> str:
        # The same label on every path, so engine and daemon results
        # compare byte-identical to serial ones.
        return f"scenario:{self.key.scenario.scenario_id}"


def run_scenario_campaign(
    scenario,
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    progress: ProgressFn | None = None,
    workers: int = 1,
    backend: str | None = None,
    compile_cache: bool = True,
    boot_checkpoint: bool | None = None,
    checkpoint_granularity: str | None = None,
    engine=None,
) -> CampaignResult:
    """Mutation campaign against one scenario (object or stable id).

    The same knobs and guarantees as
    `repro.mutation.runner.run_driver_campaign`: ``workers=N`` runs on a
    throwaway engine and merges by mutant index (identical to serial),
    checkpoint options resolve from the same environment variables, and
    ``engine=`` routes the campaign through a warm `repro.engine.Engine`.
    The result's ``driver`` label is ``"scenario:<id>"`` on every path.
    """
    request = ScenarioRequest(
        scenario=scenario,
        fraction=fraction,
        seed=seed,
        backend=backend,
        compile_cache=compile_cache,
        boot_checkpoint=boot_checkpoint,
        granularity=checkpoint_granularity,
        step_budget=step_budget,
    )
    return run_campaign(ScenarioCampaign, request, progress, workers, engine)
