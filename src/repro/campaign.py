"""The campaign-kind protocol: one interface behind every campaign kind.

The reproduction runs four kinds of campaign — driver mutants (Tables
3/4, `repro.mutation.runner`), Devil specification mutants (Table 2,
same module), generated scenarios (`repro.scenarios.campaign`) and
environment faults (`repro.faults.campaign`).  Each kind is one
:class:`CampaignKind` subclass whose instance *is* the kind's warm
state, and every evaluation path drives the same five operations:

1. ``build(key, plan_path)`` — the warm state for one warm key (the
   request with its sampling fields cleared, :meth:`Request.warm_key`):
   sources, the enumerated population, the compiled baseline and, for
   checkpointed kinds, the recorded or loaded checkpoint plan;
2. ``tested(sample)`` — the sampled items for one request's sampling
   fields, e.g. ``(fraction, seed)``;
3. ``evaluate(item)`` — ``(result, stats delta)`` for one item;
4. ``crash_result(item, kind, attempts)`` — the ``WORKER_CRASH`` row the
   engine's supervisor puts in place of a quarantined item;
5. ``assemble(request, results, stats, quarantine)`` — the result object.

:func:`run_campaign` is the body of every ``run_*_campaign`` entry
point: it builds the state once, then either loops over the sampled
items in-process or, for ``workers=N``, hands the built state to a
throwaway `repro.engine.Engine` whose forked workers inherit it.  The
engine, its daemon and the shard runner drive the same five operations,
so every path produces the serial result by construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, ClassVar

from repro.kernel.checkpoint import (
    GRANULARITIES,
    checkpointing_enabled_by_env,
    granularity_from_env,
    pinned_granularity,
    read_plan_header,
)
from repro.kernel.outcomes import BootOutcome

ProgressFn = Callable[[int, int], None]


class Request:
    """Base of the frozen request dataclasses, one per campaign kind.

    ``kind`` names the kind; ``SAMPLING`` lists the fields that pick
    items out of the warm population.  Every other field identifies the
    warm state, so requests differing only in sampling fields share it.
    """

    kind: ClassVar[str]
    SAMPLING: ClassVar[tuple[str, ...]] = ("fraction", "seed")

    def resolved(self):
        """A copy with every environment-defaulted field made concrete."""
        return self

    def warm_key(self):
        """The hashable identity of this request's warm state."""
        return replace(self.resolved(), **dict.fromkeys(self.SAMPLING))

    @property
    def sample(self) -> tuple:
        return tuple(getattr(self, name) for name in self.SAMPLING)


def resolve_checkpointing(
    boot_checkpoint: bool | None,
    granularity: str | None,
    plan_path=None,
) -> tuple[bool, str]:
    """A campaign's checkpoint knobs, resolved against the environment.

    The environment is consulted only for a knob left unset, and the
    granularity variable only when checkpointing is on, so a stale
    ``REPRO_CHECKPOINT_*`` value cannot abort a cold campaign.  A plan
    file implies checkpointing and fixes the granularity to the one it
    recorded; a pinned granularity (explicit, or an environment
    override) must match it.
    """
    if plan_path is not None:
        if boot_checkpoint is False:
            raise ValueError("checkpoint_plan given but boot_checkpoint=False")
        recorded = read_plan_header(plan_path)["granularity"]
        pinned = pinned_granularity(granularity)
        if pinned is not None and pinned != recorded:
            raise ValueError(
                f"plan {plan_path} records granularity {recorded!r}, "
                f"campaign requires {pinned!r} — re-record the plan for "
                "this campaign"
            )
        return True, recorded
    if boot_checkpoint is None:
        boot_checkpoint = checkpointing_enabled_by_env()
    if granularity is None:
        granularity = granularity_from_env() if boot_checkpoint else "subcall"
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    return boot_checkpoint, granularity


def shard_indices(total: int, shard_index: int, shard_count: int) -> range:
    """The sampled-item indices shard ``shard_index`` evaluates.

    The index space ``range(total)`` is partitioned by stride —
    ``range(shard_index, total, shard_count)`` — so the union over all
    shards covers every index exactly once, every shard's share differs
    in size by at most one, and a shard needs nothing but its own
    coordinates to know its slice.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count {shard_count} must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index {shard_index} outside [0, {shard_count})"
        )
    return range(shard_index, total, shard_count)


def stats_delta(before: dict | None, after: dict | None) -> dict | None:
    """One item's increment of the checkpoint counters (``None`` when
    the item never booted, e.g. a compile-time detection)."""
    if after is None:
        return None
    if before is None:
        return dict(after)
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    return delta if any(delta.values()) else None


def merge_stats(total: dict | None, delta: dict | None) -> dict | None:
    if delta is None:
        return total
    if total is None:
        total = {}
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value
    return total


class CampaignKind:
    """One campaign kind's warm state and its five operations.

    Subclasses implement :meth:`build`, :meth:`draw` (the uncached
    sampling behind :meth:`tested`), :meth:`classify` (one item to its
    result row), :meth:`describe` and :meth:`assemble`.  A kind with a
    checkpoint plan keeps it in ``_plan`` so :meth:`evaluate` reports
    its counter deltas.
    """

    #: The request type the kind serves.
    request_type: ClassVar[type]
    #: The row type of the result object: ``(item, outcome, detail)``.
    result_type: ClassVar[type]

    _plan = None

    def __init__(self, key):
        self.key = key
        self._samples: dict = {}

    @classmethod
    def build(cls, key, plan_path=None) -> "CampaignKind":
        raise NotImplementedError

    def portable_plan(self, path) -> str | None:
        """A plan file workers built after the fork can load instead of
        recording their own, or ``None`` when the kind ships none."""
        return None

    def draw(self, *sample) -> list:
        raise NotImplementedError

    def tested(self, sample: tuple) -> list:
        """The sampled items for ``sample`` (cached: workers draw once)."""
        if sample not in self._samples:
            self._samples[sample] = self.draw(*sample)
        return self._samples[sample]

    def classify(self, item):
        raise NotImplementedError

    def evaluate(self, item) -> tuple[object, dict | None]:
        before = None if self._plan is None else dict(self._plan.stats)
        result = self.classify(item)
        after = None if self._plan is None else dict(self._plan.stats)
        return result, stats_delta(before, after)

    def crash_result(self, item, kind: str, attempts: int):
        if kind == "hang":
            detail = (
                f"quarantined: wedged {attempts} fresh workers past "
                "the lease timeout"
            )
        else:
            detail = f"quarantined: crashed {attempts} fresh workers"
        return self.result_type(item, BootOutcome.WORKER_CRASH, detail)

    def describe(self, item) -> str:
        """Human identity of one item, for quarantine records."""
        raise NotImplementedError

    def assemble(self, request, results: list, stats, quarantine: tuple):
        raise NotImplementedError


def run_campaign(
    kind: type[CampaignKind],
    request: Request,
    progress: ProgressFn | None = None,
    workers: int = 1,
    engine=None,
    shard: tuple[int, int] | None = None,
    plan_path=None,
):
    """Run one campaign of ``kind``: serial, ``workers=N`` or ``engine=``."""
    if engine is not None:
        return engine.submit(request, progress=progress)
    request = request.resolved()
    state = kind.build(request.warm_key(), plan_path)
    return evaluate_campaign(
        state, request, progress, workers, shard, plan_path
    )


def evaluate_campaign(
    state: CampaignKind,
    request: Request,
    progress: ProgressFn | None = None,
    workers: int = 1,
    shard: tuple[int, int] | None = None,
    plan_path=None,
):
    """Evaluate ``request`` against a built ``state``.

    Results come back in sampled order with the summed counter deltas —
    the same merge the engine performs, so both agree on every field.
    ``workers`` > 1 hands ``state`` to a throwaway engine before it
    forks, so nothing is built twice.
    """
    if workers > 1:
        from repro.engine.core import Engine

        engine = Engine(workers=workers)
        engine.adopt(state, plan_path)
        with engine:
            return engine.submit(
                request, progress=progress, shard=shard, plan_path=plan_path
            )
    tested = state.tested(request.sample)
    indices = range(len(tested)) if shard is None else shard_indices(
        len(tested), *shard
    )
    results = []
    stats = None
    for done, index in enumerate(indices):
        if progress is not None:
            progress(done, len(indices))
        result, delta = state.evaluate(tested[index])
        results.append(result)
        stats = merge_stats(stats, delta)
    return state.assemble(request, results, stats, ())
