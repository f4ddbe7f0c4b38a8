"""Scenario mutation campaigns: generated drivers as campaign targets.

This module mirrors `repro.mutation.runner` construct for construct —
mutant enumeration, seeded sampling, incremental compilation,
cross-mutant boot checkpointing, serial and process-pool evaluation,
and the warm-engine seam — with the kernel boot harness swapped for the
scenario harness:

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
from dataclasses import dataclass

from repro.diagnostics import CompileError
from repro.kernel.checkpoint import (
    CheckpointPlan,
    changed_lines_of,
    checkpoint_for_mutant,
    load_plan,
    record_plan,
    resume_boot,
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
from repro.mutation.model import Mutant
from repro.mutation.runner import (
    CampaignResult,
    MutantResult,
    ProgressFn,
    _merge_stats,
    _pool_context,
    _stats_delta,
    build_c_pools,
    resolve_checkpoint_options,
)
from repro.mutation.sampling import DEFAULT_SEED, sample_mutants
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


# -- campaign setup ------------------------------------------------------------


@dataclass
class ScenarioContext:
    """Per-process scenario evaluation state (mirrors ``_EvalContext``)."""

    scenario: object
    budget: int
    backend: str | None
    compiler: CampaignCompiler | None
    checkpoint: bool = False
    granularity: str = "subcall"
    plan_path: str | None = None
    granularity_pinned: bool = False
    _plan: CheckpointPlan | None = None
    _machine: ScenarioMachine | None = None
    _pristine: object = None

    @property
    def source(self) -> str:
        return self.scenario.source

    @property
    def driver_filename(self) -> str:
        return self.scenario.filename

    @classmethod
    def build(
        cls,
        scenario,
        budget: int,
        backend: str | None,
        compile_cache: bool,
        checkpoint: bool = False,
        granularity: str = "subcall",
        compiler: CampaignCompiler | None = None,
        plan_path: str | None = None,
        granularity_pinned: bool = False,
    ) -> "ScenarioContext":
        if compile_cache and compiler is None:
            compiler = CampaignCompiler(scenario.filename, scenario.source, {})
        if not compile_cache:
            compiler = None
        return cls(
            scenario=scenario,
            budget=budget,
            backend=backend,
            compiler=compiler,
            checkpoint=checkpoint,
            granularity=granularity,
            plan_path=plan_path,
            granularity_pinned=granularity_pinned,
        )

    def ensure_plan(self) -> CheckpointPlan:
        if self._plan is None:
            self._machine = ScenarioMachine(self.scenario.bus_seed)
            self._pristine = self._machine.snapshot()
            if self.plan_path is not None:
                self._plan = load_plan(
                    self.plan_path,
                    source=self.scenario.source,
                    driver_filename=self.scenario.filename,
                    granularity=(
                        self.granularity if self.granularity_pinned else None
                    ),
                    step_budget=self.budget,
                )
                self.granularity = self._plan.granularity
            else:
                if self.compiler is not None:
                    baseline = self.compiler.baseline_program
                else:
                    baseline = compile_program(
                        [
                            SourceFile(
                                self.scenario.filename, self.scenario.source
                            )
                        ]
                    )
                self._plan = record_plan(
                    baseline,
                    self._machine,
                    self.budget,
                    backend=self.backend,
                    granularity=self.granularity,
                    harness_factory=scenario_harness,
                )
            if self._plan.report.outcome is not BootOutcome.BOOT:
                raise RuntimeError(
                    "scenario checkpoint recording requires a clean "
                    f"baseline run: {self._plan.report}"
                )
        return self._plan

    def stats_view(self) -> dict | None:
        """Current checkpoint counters, or ``None`` before any boot."""
        return dict(self._plan.stats) if self._plan is not None else None


@dataclass
class ScenarioSetup:
    """The deterministic front half of one scenario campaign.

    Everything up to enumeration, sampling and the baseline run —
    derived from ``(scenario_id, fraction, seed)`` alone, so every
    process (serial runner, pool worker, engine worker, daemon) sees
    the identical ``tested`` list.
    """

    scenario: object
    fraction: float
    seed: int
    driver_filename: str
    source: str
    mutants: list[Mutant]
    tested: list[Mutant]
    clean_steps: int
    budget: int
    compiler: CampaignCompiler | None = None

    @property
    def enumerated(self) -> int:
        return len(self.mutants)


def prepare_scenario_campaign(
    scenario,
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    backend: str | None = None,
    compile_cache: bool = True,
) -> ScenarioSetup:
    """Enumerate, sample and baseline-run one scenario campaign."""
    from repro.scenarios.corpus import DEFAULT_SCENARIO_BUDGET

    files = [SourceFile(scenario.filename, scenario.source)]
    pools = build_c_pools(files, {}, scenario.filename)
    compiler = (
        CampaignCompiler(scenario.filename, scenario.source, {})
        if compile_cache
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
    tested = sample_mutants(mutants, fraction, seed)
    # Fixed budget (not derived from measured baseline steps) so every
    # process derives the identical plan fingerprint from the spec.
    budget = step_budget or DEFAULT_SCENARIO_BUDGET
    baseline = scenario_boot(
        compile_program(files),
        ScenarioMachine(scenario.bus_seed),
        step_budget=budget,
        backend=backend,
    )
    if baseline.outcome is not BootOutcome.BOOT:
        raise RuntimeError(
            f"baseline scenario {scenario.scenario_id} does not run "
            f"cleanly: {baseline}"
        )
    return ScenarioSetup(
        scenario=scenario,
        fraction=fraction,
        seed=seed,
        driver_filename=scenario.filename,
        source=scenario.source,
        mutants=mutants,
        tested=tested,
        clean_steps=baseline.steps,
        budget=budget,
        compiler=compiler,
    )


# -- evaluation ----------------------------------------------------------------


def scenario_run_one(mutant: Mutant, context: ScenarioContext) -> MutantResult:
    """One mutant through the scenario harness (mirrors ``_run_one``)."""
    mutated = mutant.apply(context.scenario.source)
    try:
        if context.compiler is not None:
            program = context.compiler.compile_variant(mutated)
        else:
            program = compile_program(
                [SourceFile(context.scenario.filename, mutated)]
            )
    except CompileError as error:
        return MutantResult(
            mutant=mutant,
            outcome=BootOutcome.COMPILE_CHECK,
            detail=error.diagnostics[0].code if error.diagnostics else "error",
        )
    if context.checkpoint:
        report = _checkpointed_scenario_boot(program, mutant, context)
    else:
        report = scenario_boot(
            program,
            ScenarioMachine(context.scenario.bus_seed),
            step_budget=context.budget,
            backend=context.backend,
        )
    outcome = report.outcome
    if outcome is BootOutcome.BOOT:
        site_line = (mutant.site.file, mutant.site.line)
        if site_line not in report.coverage:
            outcome = BootOutcome.DEAD_CODE
    return MutantResult(mutant=mutant, outcome=outcome, detail=report.detail)


def _checkpointed_scenario_boot(
    program, mutant: Mutant, context: ScenarioContext
) -> BootReport:
    """Run a mutant from the deepest provably-safe checkpoint.

    Same decision procedure and fidelity argument as the driver
    runner's ``_checkpointed_boot``: resumption restores the exact
    bus-history/interpreter/sequence state the mutant itself would
    reach, cold runs reinstate the pristine machine snapshot, and boots
    run on the ``hybrid`` backend unless the campaign pinned ``tree``.
    """
    plan = context.ensure_plan()
    machine = context._machine
    checkpoint = None
    lines = changed_lines_of(mutant.site, mutant.replacement)
    if lines is not None:
        checkpoint = checkpoint_for_mutant(plan, lines)
    backend = "hybrid" if context.backend != "tree" else "tree"
    if checkpoint is not None:
        plan.stats["resumed"] += 1
        if checkpoint.subcall:
            plan.stats["resumed_subcall"] += 1
        plan.stats["steps_skipped"] += checkpoint.steps
        return resume_boot(
            program,
            checkpoint,
            machine,
            context.budget,
            backend=backend,
            harness_factory=scenario_harness,
        )
    plan.stats["cold"] += 1
    machine.restore(context._pristine)
    return scenario_boot(
        program, machine, step_budget=context.budget, backend=backend
    )


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
    `repro.mutation.runner.run_driver_campaign`: ``workers=N`` merges
    by mutant index (identical to serial), checkpoint options resolve
    from the same environment variables, and ``engine=`` routes the
    campaign through a warm `repro.engine.Engine` as a
    ``ScenarioRequest``.  The result's ``driver`` label is
    ``"scenario:<id>"`` on every path, so engine/daemon results compare
    byte-identical to serial ones.
    """
    if isinstance(scenario, str):
        from repro.scenarios.corpus import scenario_from_id

        scenario = scenario_from_id(scenario)
    if engine is not None:
        from repro.engine.state import ScenarioRequest

        return engine.run_scenario_campaign(
            ScenarioRequest(
                scenario_id=scenario.scenario_id,
                fraction=fraction,
                seed=seed,
                backend=backend,
                compile_cache=compile_cache,
                boot_checkpoint=boot_checkpoint,
                granularity=checkpoint_granularity,
                step_budget=step_budget,
            ),
            progress=progress,
        )
    boot_checkpoint, checkpoint_granularity, granularity_pinned = (
        resolve_checkpoint_options(boot_checkpoint, checkpoint_granularity)
    )
    setup = prepare_scenario_campaign(
        scenario,
        fraction,
        seed,
        step_budget=step_budget,
        backend=backend,
        compile_cache=compile_cache,
    )
    campaign = CampaignResult(
        driver=f"scenario:{scenario.scenario_id}",
        enumerated=setup.enumerated,
        clean_steps=setup.clean_steps,
        step_budget=setup.budget,
    )
    indices = list(range(len(setup.tested)))
    if workers > 1 and len(indices) > 1:
        campaign.results, campaign.checkpoint_stats = (
            _evaluate_scenario_parallel(
                setup,
                indices,
                backend,
                compile_cache,
                boot_checkpoint,
                checkpoint_granularity,
                granularity_pinned,
                workers,
                progress,
            )
        )
        return campaign
    context = ScenarioContext.build(
        setup.scenario,
        setup.budget,
        backend,
        compile_cache,
        checkpoint=boot_checkpoint,
        granularity=checkpoint_granularity,
        compiler=setup.compiler,
        granularity_pinned=granularity_pinned,
    )
    results = []
    for done, index in enumerate(indices):
        if progress is not None:
            progress(done, len(indices))
        results.append(scenario_run_one(setup.tested[index], context))
    campaign.results, campaign.checkpoint_stats = results, context.stats_view()
    return campaign


# -- parallel evaluation -------------------------------------------------------

#: Per-process scenario context, built once by the pool initialiser.
_WORKER_CONTEXT: ScenarioContext | None = None


def _worker_init(
    scenario,
    budget: int,
    backend: str | None,
    compile_cache: bool,
    checkpoint: bool,
    granularity: str,
    plan_path: str | None,
    granularity_pinned: bool,
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ScenarioContext.build(
        scenario,
        budget,
        backend,
        compile_cache,
        checkpoint=checkpoint,
        granularity=granularity,
        plan_path=plan_path,
        granularity_pinned=granularity_pinned,
    )


def _worker_eval(
    item: tuple[int, Mutant],
) -> tuple[int, MutantResult, dict | None]:
    index, mutant = item
    context = _WORKER_CONTEXT
    assert context is not None
    before = context.stats_view()
    result = scenario_run_one(mutant, context)
    return index, result, _stats_delta(before, context.stats_view())


def _evaluate_scenario_parallel(
    setup: ScenarioSetup,
    indices: list[int],
    backend: str | None,
    compile_cache: bool,
    boot_checkpoint: bool,
    checkpoint_granularity: str,
    granularity_pinned: bool,
    workers: int,
    progress: ProgressFn | None,
) -> tuple[list[MutantResult], dict | None]:
    """Pool evaluation merging by index (mirrors ``_evaluate_parallel``).

    The frozen :class:`~repro.scenarios.corpus.Scenario` (plain
    str/int fields) ships through the pool initialiser, so spawn-start
    workers rebuild the identical context without re-running the
    generator's acceptance gate.
    """
    context = _pool_context()
    worker_count = min(workers, len(indices))
    chunksize = max(1, len(indices) // (worker_count * 8))
    slots = {index: slot for slot, index in enumerate(indices)}
    results: list[MutantResult | None] = [None] * len(indices)
    stats: dict | None = None
    with context.Pool(
        worker_count,
        initializer=_worker_init,
        initargs=(
            setup.scenario,
            setup.budget,
            backend,
            compile_cache,
            boot_checkpoint,
            checkpoint_granularity,
            None,
            granularity_pinned,
        ),
    ) as pool:
        completed = 0
        for index, result, delta in pool.imap_unordered(
            _worker_eval,
            [(index, setup.tested[index]) for index in indices],
            chunksize=chunksize,
        ):
            results[slots[index]] = result
            stats = _merge_stats(stats, delta)
            if progress is not None:
                progress(completed, len(indices))
            completed += 1
    assert all(result is not None for result in results)
    return results, stats  # type: ignore[return-value]
