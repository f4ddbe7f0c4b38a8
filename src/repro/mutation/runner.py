"""Campaign runner: compile and boot every mutant, classify outcomes.

``run_driver_campaign`` reproduces the paper's §4.2 experiment for either
driver; ``run_devil_campaign`` reproduces §4.1 for a specification.  Each
is one campaign kind of `repro.campaign` — :class:`DriverCampaign` and
:class:`DevilCampaign` — so a campaign is deterministic under a seed on
every path: serial, ``workers=N`` (a throwaway `repro.engine.Engine`
whose workers inherit the state built here) or ``engine=``.

Per-mutant cost is kept low by two campaign-scoped optimisations, both
individually defeatable for reference runs:

* ``compile_cache=True`` routes compilation through
  :class:`repro.minic.incremental.CampaignCompiler`, which re-lexes and
  re-parses only the mutated declaration(s) of the driver file;
* ``backend`` selects the mini-C execution backend (default: the
  closure-compiled fast path; ``"source"`` is the still-faster
  source-emitting codegen backend, ``"tree"`` the reference walker).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.campaign import (
    CampaignKind,
    ProgressFn,
    Request,
    resolve_checkpointing,
    run_campaign,
)
from repro.devil.compiler import CheckedSpec, compile_spec, parse_spec, spec_errors
from repro.devil.incremental import SpecCampaignCompiler
from repro.devil.types import EnumType
from repro.diagnostics import CompileError
from repro.drivers import (
    assemble_c_program,
    assemble_cdevil_program,
)
from repro.hw.machine import standard_pc
from repro.kernel.checkpoint import (
    changed_lines_of,
    checkpoint_for_mutant,
    load_plan,
    record_plan,
    resume_boot,
    save_plan,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.minic import ast as c_ast
from repro.minic.incremental import CampaignCompiler
from repro.minic.program import SourceFile, compile_program
from repro.minic.sema import BUILTIN_SIGNATURES
from repro.mutation.c_ops import IdentifierPools
from repro.mutation.generator import enumerate_c_mutants, enumerate_devil_mutants
from repro.mutation.model import Mutant
from repro.mutation.sampling import DEFAULT_SEED, sample_mutants
from repro.mutation.tagging import api_call_regions
from repro.specs import load_spec_source


@dataclass
class MutantResult:
    mutant: Mutant
    outcome: BootOutcome
    detail: str = ""


@dataclass
class CampaignResult:
    """Aggregated results of one driver campaign (a Table 3/4 run)."""

    driver: str
    enumerated: int
    results: list[MutantResult] = field(default_factory=list)
    clean_steps: int = 0
    step_budget: int = 0
    #: Boot-checkpointing diagnostics (checkpointed runs, serial or
    #: parallel — per-item counter deltas sum to the serial totals):
    #: resumed/cold boot counts, the sub-call resume subset, and total
    #: clean-prefix steps skipped.
    checkpoint_stats: dict | None = None
    #: Engine-supervision quarantine records
    #: (`repro.engine.supervision.QuarantineRecord`): mutants whose
    #: evaluation repeatably killed a fresh worker, reported as
    #: ``WORKER_CRASH`` rows in ``results``.  Always ``()`` for serial
    #: runs (the mutant executes in-process there).
    quarantine: tuple = ()

    @property
    def tested(self) -> int:
        return len(self.results)

    def count(self, outcome: BootOutcome) -> int:
        return sum(1 for r in self.results if r.outcome is outcome)

    def sites(self, outcome: BootOutcome) -> int:
        return len(
            {r.mutant.site.key for r in self.results if r.outcome is outcome}
        )

    def fraction(self, outcome: BootOutcome) -> float:
        return self.count(outcome) / self.tested if self.tested else 0.0

    def detected_fraction(self) -> float:
        """Compile-time + run-time checks, the paper's headline metric."""
        detected = self.count(BootOutcome.COMPILE_CHECK) + self.count(
            BootOutcome.RUN_TIME_CHECK
        )
        return detected / self.tested if self.tested else 0.0


@dataclass
class DevilCampaignResult:
    """One row of Table 2."""

    spec_name: str
    lines: int
    sites: int
    enumerated: int
    results: list[MutantResult] = field(default_factory=list)
    #: Engine-supervision quarantine records (see ``CampaignResult``).
    quarantine: tuple = ()

    @property
    def tested(self) -> int:
        return len(self.results)

    @property
    def detected(self) -> int:
        return sum(
            1 for r in self.results if r.outcome is BootOutcome.COMPILE_CHECK
        )

    @property
    def detected_fraction(self) -> float:
        return self.detected / self.tested if self.tested else 0.0


# -- identifier pool construction ---------------------------------------------


def build_c_pools(
    program_files: list[SourceFile],
    include_registry: dict[str, str],
    driver_filename: str,
    api_spec: CheckedSpec | None = None,
    api_prefix: str = "",
) -> IdentifierPools:
    """Same-file identifier classes, per the paper's replacement rule."""
    pools = IdentifierPools()
    program = compile_program(program_files, include_registry)

    for decl in program.unit.decls:
        in_driver = decl.location.filename == driver_filename
        if isinstance(decl, c_ast.FuncDecl):
            if in_driver:
                pools.functions.add(decl.name)
                for param in decl.params:
                    if param.name:
                        pools.variables.add(param.name)
                if decl.body is not None:
                    _collect_locals(decl.body, pools.variables)
        elif isinstance(decl, c_ast.GlobalDecl) and in_driver:
            pools.variables.add(decl.name)

    # Builtins called from the driver join the function pool ("defined"
    # by the kernel environment headers).
    driver_text = next(
        f.text for f in program_files if f.name == driver_filename
    )
    for name in BUILTIN_SIGNATURES:
        if name in ("dil_panic",):
            continue
        if f"{name}(" in driver_text:
            pools.functions.add(name)

    for line in driver_text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#define"):
            parts = stripped.split(None, 2)
            if len(parts) >= 2:
                pools.macros.add(parts[1].split("(")[0])

    if api_spec is not None:
        pools.api_classes.update(cdevil_api_pools(api_spec, api_prefix))
    return pools


def _collect_locals(stmt: c_ast.Stmt, into: set[str]) -> None:
    if isinstance(stmt, c_ast.LocalDecl):
        into.add(stmt.name)
    elif isinstance(stmt, c_ast.Block):
        for inner in stmt.statements:
            _collect_locals(inner, into)
    elif isinstance(stmt, c_ast.If):
        for inner in (stmt.then, stmt.otherwise):
            if inner is not None:
                _collect_locals(inner, into)
    elif isinstance(stmt, (c_ast.While, c_ast.DoWhile)):
        if stmt.body is not None:
            _collect_locals(stmt.body, into)
    elif isinstance(stmt, c_ast.For):
        for inner in (stmt.init, stmt.body):
            if inner is not None:
                _collect_locals(inner, into)
    elif isinstance(stmt, c_ast.Switch):
        for group in stmt.groups:
            for inner in group.body:
                _collect_locals(inner, into)


def stub_call_names(spec: CheckedSpec, prefix: str = "") -> frozenset[str]:
    """Every callable the Devil compiler generates (stub-call anchors)."""

    def named(base: str) -> str:
        return f"{prefix}_{base}" if prefix else base

    names = {named("devil_init"), "dil_eq", "dil_assert"}
    for variable in spec.variables.values():
        if variable.writable:
            names.add(named(f"set_{variable.name}"))
        if variable.readable and not variable.private:
            names.add(named(f"get_{variable.name}"))
        if "write trigger" in variable.decl.attributes:
            names.add(named(f"trigger_{variable.name}"))
        if "read trigger" in variable.decl.attributes:
            names.add(named(f"latch_{variable.name}"))
    return frozenset(names)


def cdevil_api_pools(
    spec: CheckedSpec, prefix: str = ""
) -> dict[str, frozenset[str]]:
    """Generated-interface identifier classes (paper §3.3).

    Set functions form one class, get functions another, and the typed
    interface *values* (enum constants) a third spanning all enum types —
    confusing two constants of different types is exactly the inattention
    error the debug stubs are built to catch.
    """

    def named(base: str) -> str:
        return f"{prefix}_{base}" if prefix else base

    setters = set()
    getters = set()
    constants = set()
    for variable in spec.variables.values():
        if variable.writable:
            setters.add(named(f"set_{variable.name}"))
        if variable.readable and not variable.private:
            getters.add(named(f"get_{variable.name}"))
        if isinstance(variable.devil_type, EnumType):
            for member in variable.devil_type.members:
                constants.add(member.name)
    classes: dict[str, frozenset[str]] = {}
    for pool in (frozenset(setters), frozenset(getters), frozenset(constants)):
        for name in pool:
            classes[name] = pool
    return classes


# -- checkpointed boots ----------------------------------------------------------


def resume_or_boot(
    program, plan, checkpoint, machine, pristine, budget, backend,
    cold_boot, harness_factory=None,
):
    """Boot from ``checkpoint``, or cold from the ``pristine`` snapshot.

    The one checkpointed boot every kind uses.  Both branches equal a
    cold boot of ``program`` on a fresh machine: a resume restores the
    exact state the run itself reaches at that boundary
    (`repro.kernel.checkpoint`), and the pristine snapshot is observably
    a fresh machine.  Boots run on the ``hybrid`` backend (equal to every
    backend, per the differential suite) unless the campaign asked for
    the ``tree`` reference outright.  The plan's counters record which
    branch ran.
    """
    backend = "tree" if backend == "tree" else "hybrid"
    stats = plan.stats
    if checkpoint is not None:
        stats["resumed"] += 1
        if checkpoint.subcall:
            stats["resumed_subcall"] += 1
        stats["steps_skipped"] += checkpoint.steps
        return resume_boot(
            program, checkpoint, machine, budget, backend=backend,
            harness_factory=harness_factory,
        )
    stats["cold"] += 1
    machine.restore(pristine)
    return cold_boot(program, machine, step_budget=budget, backend=backend)


# -- driver campaigns -------------------------------------------------------------


def assemble_driver(
    driver: str, mode: str = "debug"
) -> tuple[list[SourceFile], dict[str, str], str]:
    """One campaign driver's sources: ``(files, registry, driver_filename)``.

    The shared front door for everything that boots a campaign driver —
    the mutation runner below and the environment-fault campaigns
    (`repro.faults`), which perturb the *hardware* under the unmutated
    driver instead of the source.
    """
    if driver == "c":
        files, registry = assemble_c_program()
    elif driver == "cdevil":
        files, registry = assemble_cdevil_program(mode=mode)
    else:
        raise ValueError(f"unknown driver {driver!r}")
    return files, registry, files[0].name


@dataclass(frozen=True)
class CampaignRequest(Request):
    """One driver mutation campaign (Tables 3/4) as a request.

    ``boot_checkpoint=None`` and ``granularity=None`` resolve from the
    environment exactly like ``run_driver_campaign``;
    :meth:`resolved` pins them to concrete values.
    """

    kind: ClassVar[str] = "driver"

    driver: str = "c"
    mode: str = "debug"
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    backend: str | None = None
    compile_cache: bool = True
    boot_checkpoint: bool | None = None
    granularity: str | None = None
    step_budget: int | None = None

    def resolved(self) -> "CampaignRequest":
        checkpoint, granularity = resolve_checkpointing(
            self.boot_checkpoint, self.granularity
        )
        return replace(
            self, boot_checkpoint=checkpoint, granularity=granularity
        )


class MutantKind(CampaignKind):
    """The mutant kinds' shared draw, row type and item identity."""

    result_type = MutantResult

    def draw(self, fraction, seed) -> list:
        return sample_mutants(self.mutants, fraction, seed)

    def describe(self, item) -> str:
        return item.mutant_id


class DriverCampaign(MutantKind):
    """Driver mutants: mutate the source, compile, boot, classify.

    The warm state is the enumerated population, the incremental
    compiler, the clean baseline's step count and budget and — for
    checkpointed campaigns, built on first use — the checkpoint plan
    with one reusable machine and its pristine snapshot.
    :class:`repro.scenarios.campaign.ScenarioCampaign` is this kind with
    another machine, boot function and harness.
    """

    request_type = CampaignRequest
    #: ``harness_factory`` for `repro.kernel.checkpoint` (``None``: the
    #: kernel boot sequence).
    harness = None
    #: The step budget the checkpoint plan is recorded under.
    plan_budget = DEFAULT_STEP_BUDGET

    def __init__(
        self, key, plan_path, *, source, filename, registry, mutants,
        compiler, clean_steps, budget,
    ):
        super().__init__(key)
        self.plan_path = plan_path
        self.source = source
        self.filename = filename
        self.registry = registry
        self.mutants = mutants
        self.compiler = compiler
        self.clean_steps = clean_steps
        self.budget = budget
        self._machine = None
        self._pristine = None
        if plan_path is not None:
            self.plan  # a shipped plan loads with the rest of the state

    @classmethod
    def build(cls, key, plan_path=None) -> "DriverCampaign":
        """Assemble, enumerate and baseline-boot one driver."""
        files, registry, filename = assemble_driver(key.driver, key.mode)
        regions = None
        if key.driver == "c":
            pools = build_c_pools(files, registry, filename)
        else:
            spec = compile_spec(load_spec_source("ide_piix4"))
            pools = build_c_pools(files, registry, filename, api_spec=spec)
            # Paper §3.3: CDevil mutations target the stub call sites.
            regions = api_call_regions(files[0].text, stub_call_names(spec))
        source = files[0].text
        # One incremental compiler serves the enumeration gate and every
        # evaluation after it.
        compiler = (
            CampaignCompiler(filename, source, registry)
            if key.compile_cache
            else None
        )
        mutants = enumerate_c_mutants(
            source, filename, pools, include_registry=registry,
            regions=regions, compiler=compiler,
        )
        # Baseline: the unmutated driver must boot cleanly.
        baseline = boot(
            compile_program(files, registry),
            standard_pc(),
            backend=key.backend,
        )
        if baseline.outcome is not BootOutcome.BOOT:
            raise RuntimeError(
                f"baseline {key.driver} driver does not boot cleanly: "
                f"{baseline}"
            )
        return cls(
            key, plan_path, source=source, filename=filename,
            registry=registry, mutants=mutants, compiler=compiler,
            clean_steps=baseline.steps,
            budget=key.step_budget
            or max(1_000_000, baseline.steps * 6 + 200_000),
        )

    @property
    def enumerated(self) -> int:
        return len(self.mutants)

    # -- the machine, its boot function and the checkpoint plan ----------

    def new_machine(self):
        return standard_pc(with_busmouse=False)

    def cold_boot(self, program, machine, step_budget, backend):
        return boot(program, machine, step_budget=step_budget, backend=backend)

    @property
    def plan(self):
        """The checkpoint plan, recorded (or loaded) on first use."""
        if self._plan is None:
            machine = self.new_machine()
            self._machine, self._pristine = machine, machine.snapshot()
            if self.plan_path is not None:
                plan = load_plan(
                    self.plan_path,
                    source=self.source,
                    driver_filename=self.filename,
                    granularity=self.key.granularity,
                    step_budget=self.plan_budget,
                )
            else:
                plan = record_plan(
                    self.compiler.baseline_program
                    if self.compiler is not None
                    else self.compile(self.source),
                    machine,
                    self.plan_budget,
                    backend=self.key.backend,
                    granularity=self.key.granularity,
                    harness_factory=self.harness,
                )
            if plan.report.outcome is not BootOutcome.BOOT:
                raise RuntimeError(
                    "checkpoint recording requires a clean baseline boot: "
                    f"{plan.report}"
                )
            self._plan = plan
        return self._plan

    def portable_plan(self, path) -> str | None:
        if not self.key.boot_checkpoint:
            return None
        if self.plan_path is not None:
            return self.plan_path
        save_plan(self.plan, path, self.source, self.filename)
        return path

    # -- one mutant --------------------------------------------------------

    def compile(self, text: str):
        if self.compiler is not None:
            return self.compiler.compile_variant(text)
        return compile_program([SourceFile(self.filename, text)], self.registry)

    def run_mutant(self, program, mutant: Mutant):
        """Boot a compiled mutant: from the deepest provably safe
        checkpoint when checkpointing, else cold on a fresh machine."""
        if not self.key.boot_checkpoint:
            return self.cold_boot(
                program, self.new_machine(), self.budget, self.key.backend
            )
        plan = self.plan
        lines = changed_lines_of(mutant.site, mutant.replacement)
        checkpoint = (
            checkpoint_for_mutant(plan, lines) if lines is not None else None
        )
        return resume_or_boot(
            program, plan, checkpoint, self._machine, self._pristine,
            self.budget, self.key.backend, self.cold_boot, self.harness,
        )

    def classify(self, mutant: Mutant) -> MutantResult:
        try:
            program = self.compile(mutant.apply(self.source))
        except CompileError as error:
            return MutantResult(
                mutant=mutant,
                outcome=BootOutcome.COMPILE_CHECK,
                detail=error.diagnostics[0].code if error.diagnostics else "error",
            )
        report = self.run_mutant(program, mutant)
        outcome = report.outcome
        if outcome is BootOutcome.BOOT:
            site_line = (mutant.site.file, mutant.site.line)
            if site_line not in report.coverage:
                outcome = BootOutcome.DEAD_CODE
        return MutantResult(mutant=mutant, outcome=outcome, detail=report.detail)

    @property
    def label(self) -> str:
        return self.key.driver

    def assemble(self, request, results, stats, quarantine) -> CampaignResult:
        return CampaignResult(
            driver=self.label,
            enumerated=self.enumerated,
            results=results,
            clean_steps=self.clean_steps,
            step_budget=self.budget,
            checkpoint_stats=stats,
            quarantine=quarantine,
        )


def run_driver_campaign(
    driver: str = "c",
    mode: str = "debug",
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    step_budget: int | None = None,
    progress: ProgressFn | None = None,
    workers: int = 1,
    backend: str | None = None,
    compile_cache: bool = True,
    boot_checkpoint: bool | None = None,
    checkpoint_granularity: str | None = None,
    shard: tuple[int, int] | None = None,
    checkpoint_plan: str | None = None,
    engine=None,
) -> CampaignResult:
    """Mutation campaign against a driver (Table 3: "c"; Table 4: "cdevil").

    ``workers`` > 1 evaluates mutants on a throwaway
    `repro.engine.Engine`; results merge by mutant index, so the outcome
    is identical to a serial run.  ``backend``/``compile_cache`` select
    the execution backend and the incremental compiler (defaults: fast
    paths).  ``boot_checkpoint`` starts each mutant from the deepest
    boot checkpoint provably before its first divergent step instead of
    from power-on (bit-identical outcomes; default: the
    ``REPRO_BOOT_CHECKPOINT`` environment variable).
    ``checkpoint_granularity`` selects ``"subcall"`` (the default:
    resume inside driver calls too) or ``"call"`` (call boundaries
    only); the ``REPRO_CHECKPOINT_GRANULARITY`` environment variable
    overrides the default.

    ``shard=(shard_index, shard_count)`` restricts evaluation to that
    shard's deterministic slice of the sampled mutants (see
    `repro.campaign.shard_indices`); the result then holds only the
    shard's ``results``, in sampled order — `repro.distributed` merges
    shards back into the full campaign.  ``checkpoint_plan`` names a
    portable plan file (`repro.kernel.checkpoint.save_plan`) to load
    instead of recording the instrumented clean boot; it implies
    ``boot_checkpoint=True``.

    ``engine`` routes the campaign through a warm `repro.engine.Engine`
    instead of building its state here — identical results, with the
    fixed setup cost amortised across every campaign the engine serves;
    ``workers`` is then the engine's affair, and ``shard`` and
    ``checkpoint_plan`` (per-process seams) are rejected.
    """
    if engine is not None:
        if shard is not None:
            raise ValueError("engine and shard are mutually exclusive")
        if checkpoint_plan is not None:
            raise ValueError(
                "engine and checkpoint_plan are mutually exclusive"
            )
    boot_checkpoint, checkpoint_granularity = resolve_checkpointing(
        boot_checkpoint, checkpoint_granularity, checkpoint_plan
    )
    request = CampaignRequest(
        driver=driver,
        mode=mode,
        fraction=fraction,
        seed=seed,
        backend=backend,
        compile_cache=compile_cache,
        boot_checkpoint=boot_checkpoint,
        granularity=checkpoint_granularity,
        step_budget=step_budget,
    )
    return run_campaign(
        DriverCampaign, request, progress, workers, engine, shard,
        checkpoint_plan,
    )


# -- Devil specification campaigns ----------------------------------------------


@dataclass(frozen=True)
class SpecRequest(Request):
    """One Devil specification campaign (a Table 2 row) as a request."""

    kind: ClassVar[str] = "devil"

    spec_name: str
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    compile_cache: bool = True


class DevilCampaign(MutantKind):
    """Devil spec mutants: a mutant is detected iff the checker rejects it."""

    request_type = SpecRequest

    def __init__(self, key, source, compiler, mutants):
        super().__init__(key)
        self.source = source
        self.compiler = compiler
        self.mutants = mutants

    @classmethod
    def build(cls, key, plan_path=None) -> "DevilCampaign":
        source = load_spec_source(key.spec_name)
        device = parse_spec(source, key.spec_name)
        # The unmutated spec must be accepted.
        compile_spec(source, key.spec_name)
        compiler = (
            SpecCampaignCompiler(source, key.spec_name)
            if key.compile_cache
            else None
        )
        mutants = enumerate_devil_mutants(
            source, device, key.spec_name, compiler=compiler
        )
        return cls(key, source, compiler, mutants)

    def classify(self, mutant: Mutant) -> MutantResult:
        mutated = mutant.apply(self.source)
        if self.compiler is not None:
            errors = self.compiler.errors_for_variant(mutated)
        else:
            errors = spec_errors(mutated, self.key.spec_name)
        outcome = BootOutcome.COMPILE_CHECK if errors else BootOutcome.BOOT
        detail = errors[0].code if errors else "accepted"
        return MutantResult(mutant=mutant, outcome=outcome, detail=detail)

    def assemble(self, request, results, stats, quarantine):
        return DevilCampaignResult(
            spec_name=self.key.spec_name,
            lines=count_code_lines(self.source),
            sites=len({m.site.key for m in self.mutants}),
            enumerated=len(self.mutants),
            results=results,
            quarantine=quarantine,
        )


def run_devil_campaign(
    spec_name: str,
    fraction: float = 1.0,
    seed: int = DEFAULT_SEED,
    progress: ProgressFn | None = None,
    compile_cache: bool = True,
) -> DevilCampaignResult:
    """Mutation campaign against a bundled Devil spec (one Table 2 row).

    ``compile_cache`` routes variant checking through
    :class:`repro.devil.incremental.SpecCampaignCompiler`, which
    re-lexes only the mutated line and re-parses only the mutated
    declaration(s); campaign results are identical to the from-scratch
    ``spec_errors`` pipeline (``compile_cache=False``).
    """
    request = SpecRequest(
        spec_name=spec_name,
        fraction=fraction,
        seed=seed,
        compile_cache=compile_cache,
    )
    return run_campaign(DevilCampaign, request, progress)


def count_code_lines(source: str) -> int:
    """Non-blank, non-comment-only lines (the paper's spec line counts)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count
