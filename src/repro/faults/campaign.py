"""Environment-fault campaigns: perturb the hardware, not the source.

``run_fault_campaign`` is `repro.mutation.runner.run_driver_campaign`'s
sibling for the interface's other side: instead of mutating driver
source, it boots the *unmutated* driver against hardware that lies —
register bit-flips, stuck/floating bus reads, delayed or dropped status
transitions, byte-swapped DMA, torn sector writes — and classifies each
run with the same outcome taxonomy (`repro.kernel.outcomes`).
:class:`FaultCampaign` is the campaign kind (`repro.campaign`) behind
it, so faults run on every path a driver campaign does.

The checkpoint machinery is reused as the injection harness.  One
instrumented clean boot (`repro.kernel.checkpoint.record_plan`) runs
with the counting :class:`~repro.faults.injector.FaultInjector` armed
and attached as a machine device, which yields three things at once:

* the **checkpoint plan** — every snapshot now embeds the injector's
  per-port access counters at that instant (the injector snapshots like
  any stateful device);
* the **access profile** the seeded fault plan is sampled from
  (`repro.faults.plan`);
* the **clean baseline** the step budget derives from.

Each fault run then restores the deepest checkpoint whose recorded
counters have not yet reached the fault's trigger index and runs the
boot remainder with the fault armed (``injection="cold"`` forces
pristine-snapshot boots instead).  Because triggers are absolute access
indices and restores reinstate the counters, a restored-then-perturbed
run classifies identically to a cold perturbed run — asserted by tests,
serial, under ``workers=N`` and on a warm `repro.engine.Engine`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.campaign import CampaignKind, ProgressFn, Request, run_campaign
from repro.kernel.checkpoint import (
    BootCheckpoint,
    CheckpointPlan,
    GRANULARITIES,
    granularity_from_env,
    record_plan,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET, boot
from repro.kernel.outcomes import BootOutcome
from repro.hw.machine import standard_pc
from repro.minic.program import compile_program
from repro.mutation.runner import assemble_driver, resume_or_boot
from repro.mutation.sampling import DEFAULT_SEED
from repro.faults.injector import Fault, FaultInjector
from repro.faults.plan import (
    build_fault_plan,
    dimensions_from_env,
    profile_from,
)

#: ``"checkpoint"`` (resume from recorded snapshots — the default) or
#: ``"cold"`` (boot every fault from the pristine snapshot).  Outcomes
#: are identical either way; checkpointed runs just skip the shared
#: clean prefix.
INJECTION_ENV = "REPRO_FAULT_INJECTION"

INJECTIONS = ("checkpoint", "cold")


def injection_from_env(default: str = "checkpoint") -> str:
    value = os.environ.get(INJECTION_ENV, "") or default
    if value not in INJECTIONS:
        raise ValueError(
            f"unknown fault injection mode {value!r}; "
            f"available: {', '.join(INJECTIONS)}"
        )
    return value


@dataclass
class FaultResult:
    fault: Fault
    outcome: BootOutcome
    detail: str = ""


@dataclass
class FaultCampaignResult:
    """Aggregated results of one environment-fault campaign."""

    driver: str
    mode: str
    seed: int
    per_dimension: int
    injection: str
    granularity: str
    dimensions: tuple[str, ...]
    clean_steps: int = 0
    step_budget: int = 0
    results: list[FaultResult] = field(default_factory=list)
    #: Same counters as driver campaigns: resumed/cold boots, the
    #: sub-call resume subset, and clean-prefix steps skipped.
    checkpoint_stats: dict | None = None
    #: Engine-supervision quarantine records
    #: (`repro.engine.supervision.QuarantineRecord`); ``()`` for serial
    #: runs.
    quarantine: tuple = ()

    @property
    def tested(self) -> int:
        return len(self.results)

    def count(self, outcome: BootOutcome, dimension: str | None = None) -> int:
        return sum(
            1
            for r in self.results
            if r.outcome is outcome
            and (dimension is None or r.fault.dimension == dimension)
        )

    def by_dimension(self) -> dict[str, list[FaultResult]]:
        grouped: dict[str, list[FaultResult]] = {
            dimension: [] for dimension in self.dimensions
        }
        for result in self.results:
            grouped.setdefault(result.fault.dimension, []).append(result)
        return grouped

    def survived_fraction(self, dimension: str | None = None) -> float:
        tested = sum(
            1
            for r in self.results
            if dimension is None or r.fault.dimension == dimension
        )
        return self.count(BootOutcome.BOOT, dimension) / tested if tested else 0.0


def checkpoint_for_fault(
    plan: CheckpointPlan, fault: Fault, injector_slot: int = 0
) -> BootCheckpoint | None:
    """Deepest checkpoint taken before the fault's trigger access.

    Each checkpoint's machine snapshot carries the injector's counters
    at that instant (``extras[injector_slot]``); the deepest one whose
    count on the fault's channel is still ``<= fault.index`` precedes
    the first perturbed access, so the prefix up to it is bit-identical
    between the faulted run and the recorded clean boot.
    """
    best: BootCheckpoint | None = None
    for checkpoint in plan.checkpoints:  # counters are monotonic
        counters = checkpoint.machine.extras[injector_slot]
        if fault.channel == "read":
            seen = counters["reads"].get(fault.port, 0)
        elif fault.channel == "write":
            seen = counters["writes"].get(fault.port, 0)
        else:
            seen = counters["disk_writes"]
        if seen <= fault.index:
            best = checkpoint
        else:
            break
    return best


@dataclass(frozen=True)
class FaultRequest(Request):
    """One environment-fault campaign as a request.

    The warm state is the armed instrumented clean boot — the checkpoint
    plan with embedded injector counters plus the access profile; the
    sampling fields are ``(seed, per_dimension, dimensions)``.
    ``injection``/``granularity``/``dimensions`` default from the same
    environment variables ``run_fault_campaign`` honours;
    :meth:`resolved` pins them.
    """

    kind: ClassVar[str] = "fault"
    SAMPLING: ClassVar[tuple[str, ...]] = (
        "seed", "per_dimension", "dimensions",
    )

    driver: str = "c"
    mode: str = "debug"
    seed: int = DEFAULT_SEED
    per_dimension: int = 8
    dimensions: tuple[str, ...] | None = None
    injection: str | None = None
    backend: str | None = None
    granularity: str | None = None
    step_budget: int | None = None

    def resolved(self) -> "FaultRequest":
        injection = self.injection or injection_from_env()
        if injection not in INJECTIONS:
            raise ValueError(
                f"unknown fault injection mode {injection!r}; "
                f"available: {', '.join(INJECTIONS)}"
            )
        granularity = self.granularity or granularity_from_env()
        if granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {granularity!r}")
        dimensions = self.dimensions
        if dimensions is None:
            dimensions = dimensions_from_env()
        return replace(
            self,
            injection=injection,
            granularity=granularity,
            dimensions=tuple(dimensions),
        )


class FaultCampaign(CampaignKind):
    """Environment faults: the unmutated driver on hardware that lies.

    The warm state is built eagerly (and deterministically — every
    process that builds the same key records the identical plan and
    profile), then reused for every fault of every campaign.
    """

    request_type = FaultRequest
    result_type = FaultResult

    def __init__(
        self, key, *, program, machine, injector, pristine, plan, profile,
        budget,
    ):
        super().__init__(key)
        self.program = program
        self.machine = machine
        self.injector = injector
        self.pristine = pristine
        self._plan = plan
        self.profile = profile
        self.budget = budget

    @classmethod
    def build(cls, key, plan_path=None) -> "FaultCampaign":
        """Record the armed clean boot: plan + profile + budget."""
        files, registry, _ = assemble_driver(key.driver, key.mode)
        program = compile_program(files, registry)
        machine = standard_pc(with_busmouse=False)
        injector = FaultInjector()
        machine.attach(injector)  # extras[0]: counters ride every snapshot
        injector.arm(machine)
        pristine = machine.snapshot()
        plan = record_plan(
            program,
            machine,
            DEFAULT_STEP_BUDGET,
            backend=key.backend,
            granularity=key.granularity,
        )
        if plan.report.outcome is not BootOutcome.BOOT:
            raise RuntimeError(
                "fault campaigns require a clean baseline boot: "
                f"{plan.report}"
            )
        return cls(
            key, program=program, machine=machine, injector=injector,
            pristine=pristine, plan=plan,
            profile=profile_from(injector, machine),
            budget=key.step_budget or max(
                1_000_000, plan.report.steps * 6 + 200_000
            ),
        )

    @property
    def clean_steps(self) -> int:
        return self._plan.report.steps

    def draw(self, seed, per_dimension, dimensions) -> list[Fault]:
        return build_fault_plan(
            self.profile, seed, per_dimension=per_dimension,
            dimensions=dimensions,
        )

    def classify(self, fault: Fault) -> FaultResult:
        """One fault through a restored-or-cold boot, classified."""
        checkpoint = None
        if self.key.injection == "checkpoint":
            checkpoint = checkpoint_for_fault(self._plan, fault)
        self.injector.set_faults((fault,))
        try:
            report = resume_or_boot(
                self.program, self._plan, checkpoint, self.machine,
                self.pristine, self.budget, self.key.backend, boot,
            )
        finally:
            fired = self.injector.fired
            self.injector.clear_faults()
        # Triggers are sampled inside the clean boot's access profile
        # and the prefix up to the trigger is fault-free, so the
        # trigger access always happens — a fault that never fired
        # means the counter/checkpoint bookkeeping broke.
        assert fired >= 1, f"fault never fired: {fault}"
        return FaultResult(
            fault=fault, outcome=report.outcome, detail=report.detail
        )

    def describe(self, fault: Fault) -> str:
        return (
            f"{fault.dimension}@{fault.channel}:{fault.port}"
            f"#{fault.index}+{fault.count}"
        )

    def assemble(self, request, results, stats, quarantine):
        return FaultCampaignResult(
            driver=self.key.driver,
            mode=self.key.mode,
            seed=request.seed,
            per_dimension=request.per_dimension,
            injection=self.key.injection,
            granularity=self.key.granularity,
            dimensions=tuple(request.dimensions),
            clean_steps=self.clean_steps,
            step_budget=self.budget,
            results=results,
            checkpoint_stats=stats,
            quarantine=quarantine,
        )


def run_fault_campaign(
    driver: str = "c",
    mode: str = "debug",
    seed: int = DEFAULT_SEED,
    per_dimension: int = 8,
    dimensions=None,
    injection: str | None = None,
    backend: str | None = None,
    checkpoint_granularity: str | None = None,
    step_budget: int | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
    engine=None,
) -> FaultCampaignResult:
    """Environment-fault campaign against a driver's hardware interface.

    Samples ``per_dimension`` seeded faults per dimension from the clean
    boot's access profile (`repro.faults.plan`) and classifies each
    perturbed boot with the standard outcome taxonomy.  Deterministic:
    the same ``(driver, mode, seed, per_dimension, dimensions)`` produce
    the identical result — serial, ``workers=N`` (a throwaway engine,
    merged by fault index) or ``engine=`` (a warm `repro.engine.Engine`;
    ``workers`` is then the engine's affair).

    ``injection`` selects ``"checkpoint"`` (resume each fault from the
    deepest recorded snapshot before its trigger — the default) or
    ``"cold"`` (pristine-snapshot boots); outcomes are identical, per
    the absolute-trigger argument in `repro.faults.injector`.  Defaults
    resolve from ``REPRO_FAULT_INJECTION``, ``REPRO_FAULT_DIMENSIONS``
    and ``REPRO_CHECKPOINT_GRANULARITY``.
    """
    request = FaultRequest(
        driver=driver,
        mode=mode,
        seed=seed,
        per_dimension=per_dimension,
        dimensions=None if dimensions is None else tuple(dimensions),
        injection=injection,
        backend=backend,
        granularity=checkpoint_granularity,
        step_budget=step_budget,
    )
    return run_campaign(FaultCampaign, request, progress, workers, engine)
