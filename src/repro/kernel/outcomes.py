"""Outcome classes of a mutant run (paper §4.2, cases 1-7 + compile time).

Classification precedence: compile beats run; within a run the first
terminating event wins; damage is assessed only for completed boots and
dead code only for undamaged completed boots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class BootOutcome(enum.Enum):
    #: The front end rejected the mutant (Devil checker or mini-C sema).
    COMPILE_CHECK = "compile-time check"
    #: Case 1 — a Devil debug assertion fired; source line reported.
    RUN_TIME_CHECK = "run-time check"
    #: Case 2 — boot was clean and the mutated line never executed.
    DEAD_CODE = "dead code"
    #: Case 3 — boot completed, mutation executed, nothing visible: the
    #: worst case (a latent bug).
    BOOT = "boot"
    #: Case 4 — machine-level fault, nothing printed.
    CRASH = "crash"
    #: Case 5 — the watchdog expired.
    INFINITE_LOOP = "infinite loop"
    #: Case 6 — kernel panic with a message.
    HALT = "halt"
    #: Case 7 — boot completed but the disk was altered.
    DAMAGED_BOOT = "damaged boot"
    #: Not one of the paper's cases: the evaluation *harness* died.  A
    #: mutant whose lease repeatably kills a fresh engine worker is
    #: quarantined by `repro.engine` supervision and reported with this
    #: outcome instead of aborting the campaign.  Serial runs never
    #: produce it (the mutant executes in the classifying process).
    WORKER_CRASH = "worker crash"

    def __str__(self) -> str:
        return self.value


#: Outcomes that count as "detected" in the paper's headline numbers.
DETECTED_OUTCOMES = frozenset(
    {BootOutcome.COMPILE_CHECK, BootOutcome.RUN_TIME_CHECK}
)

#: Outcomes where the developer at least knows something is wrong.
OBSERVABLE_OUTCOMES = frozenset(
    {
        BootOutcome.COMPILE_CHECK,
        BootOutcome.RUN_TIME_CHECK,
        BootOutcome.CRASH,
        BootOutcome.INFINITE_LOOP,
        BootOutcome.HALT,
        BootOutcome.DAMAGED_BOOT,
    }
)


@dataclass
class BootReport:
    """Everything observed while booting one kernel."""

    outcome: BootOutcome
    detail: str = ""
    steps: int = 0
    coverage: set[tuple[str, int]] = field(default_factory=set)
    log: list[str] = field(default_factory=list)
    disk_diff: list[int] = field(default_factory=list)
    #: Steps the loop watch jumped instead of executing
    #: (`repro.minic.loopwatch`).  Telemetry: already counted in
    #: ``steps``, left out of equality, and left out of pickles while
    #: zero, so plans and shard files keep their bytes.
    steps_jumped: int = field(default=0, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if not state.get("steps_jumped"):
            state.pop("steps_jumped", None)
        return state

    @property
    def completed(self) -> bool:
        return self.outcome in (BootOutcome.BOOT, BootOutcome.DAMAGED_BOOT)

    def __str__(self) -> str:
        detail = f" ({self.detail})" if self.detail else ""
        return f"{self.outcome}{detail}"
