"""The four benchmark workloads and the campaign calls they time.

A run repeats one *unit* of work several times.  The unit is made from
the seed and is the same in every repeat: the same campaigns classify
the same items in the same order.  Each repeat pays its own set-up
(entry-point set-up up to the first item, checkpoint-plan recording,
corpus generation, engine start and warm-up) and then classifies the
unit's items in a timed region.  Each end-to-end metric is computed per
repeat and reported as the median over the repeats.

Times are reported at nominal host speed.  The timed region is cut
into *blocks*: ``BLOCK_ITEMS`` consecutive items of one campaign on the
serial workloads, one whole submission on the engine.  Right before
each block and after the last one the benchmark times a fixed
calibration kernel (`measure.calibrate`), outside the blocks' own time,
and scales each block's time by the mean of the two kernel times that
bracket it (`measure.host_factor`).  The shared host's CPUs change speed
by up to 1.7x from second to second and drift over minutes; a block and
the kernel next to it run at the same speed, so the scaled time stays
put.  A slower program makes the block slower and leaves the kernel as
it was, so it still reads slower.  Serial workloads run pinned to one
CPU, so that a block and its calibrations share it; the engine's
workers use every CPU, so its calibrations cover every CPU.

The work per run is fixed by ``--seconds`` (``repeats`` below), so two
commits measured with the same settings classify the same items.  See
README.md for why each workload exists.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import reference
from measure import (
    CALIBRATION_NOMINAL_S,
    calibrate,
    child_pids,
    host_factor,
    peak_rss_mb,
    percentile,
)
from reference import items_of
from tracer import clock

#: Fewest repeats of a run; shorter runs shrink the unit instead.
MIN_REPEATS = 2
#: Items per block of a serial campaign (0.15-0.5 s of work).
BLOCK_ITEMS = 128
#: Engine results between two calibrations of the client (about 0.4 s).
SUBMIT_CALIBRATE_EVERY = 128

#: table3-c: the unit is stride slice ``seed % C_STRIDE`` of the whole
#: Table 3 population (8660 mutants).  A stride slice of the
#: enumeration order splits every site's mutants evenly, so the
#: budget-bound share varies far less between seeds than in a random
#: sample of the same size.
C_STRIDE = 8
#: corpus: one campaign per scenario of the scale-8 corpus.
CORPUS_FRACTION = 0.2
#: table2-devil: the five specs of Table 2.
DEVIL_FRACTION = 0.25
#: engine-mixed: a round starts an engine, warms it with one small
#: submission of each kind and then submits ENGINE_PAIRS timed
#: (driver, fault) pairs.  A timed driver campaign is a random sample,
#: so its budget-bound share varies with the seed; a large sample keeps
#: that variation small.  ENGINE_SETUP_ROUNDS more rounds only set up,
#: so that ``setup_s`` is a median of several samples.
ENGINE_PAIRS = 1
ENGINE_C_FRACTION = 0.3
ENGINE_SETUP_ROUNDS = 3
ENGINE_WARM_C_FRACTION = 0.005
FAULTS_PER_DIMENSION = 8
ENGINE_WORKERS = 2


def fault_plans(seed: int) -> list[tuple[int, int]]:
    """``(seed, per_dimension)`` of every fault campaign engine-mixed runs:
    the warm-up plan, then the timed ones."""
    return [(seed, 1)] + [
        (seed + k, FAULTS_PER_DIMENSION) for k in range(1, ENGINE_PAIRS + 1)
    ]


# -- timing records --------------------------------------------------------------


@dataclass
class CampaignTiming:
    kind: str
    called: float
    returned: float
    items: int
    #: Untimed part of the call: before its first item, plus any
    #: checkpoint-plan recording that happened inside an item.
    setup_s: float
    timed_s: float
    #: Per-item latency samples, seconds.
    latencies: list[float]
    #: Calibration kernel seconds measured right before each block and
    #: after the last one: block ``k`` lies between ``k`` and ``k + 1``.
    #: An engine submission is one block, calibrated before, during and
    #: after.
    calibrations: list[float] = field(default_factory=list)
    #: Serial campaigns: each item's share of ``timed_s`` (the gap to
    #: the next progress callback).  Empty on the engine.
    gaps: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.returned - self.called

    def blocks(self) -> list[tuple[float, list[float]]]:
        """``(seconds, item latencies)`` of each block at nominal host
        speed, in item order."""
        if not self.gaps:  # an engine submission: one block
            factor = host_factor(statistics.fmean(self.calibrations))
            return [(self.timed_s * factor, [x * factor for x in self.latencies])]
        raw = [
            (sum(self.gaps[i:i + BLOCK_ITEMS]), self.gaps[i:i + BLOCK_ITEMS])
            for i in range(0, len(self.gaps), BLOCK_ITEMS)
        ]
        scaled = []
        for k, (seconds, latencies) in enumerate(raw):
            factor = host_factor(
                (self.calibrations[k] + self.calibrations[k + 1]) / 2.0
            )
            scaled.append((seconds * factor, [x * factor for x in latencies]))
        return scaled

    def scaled_wall(self) -> float:
        """Call-to-return seconds at nominal host speed."""
        return self.setup_s * host_factor(self.calibrations[0]) + sum(
            seconds for seconds, _ in self.blocks()
        )


@dataclass
class Pass:
    """One repeat of a workload's unit."""

    extra_setup_s: float = 0.0
    campaigns: list[CampaignTiming] = field(default_factory=list)
    #: Engine rounds: per-round details for the per-layer metrics.
    engine: dict = field(default_factory=dict)
    #: Calibration kernel seconds measured right before the repeat.
    calibration: float = CALIBRATION_NOMINAL_S

    @property
    def setup_s(self) -> float:
        """Set-up time of the repeat at nominal host speed."""
        return self.extra_setup_s * host_factor(self.calibration) + sum(
            c.setup_s * host_factor(c.calibrations[0]) for c in self.campaigns
        )


class Recorder:
    """Calls campaign entry points, timing them through their callbacks."""

    def __init__(self, tracer, check, expected: dict, calibrate=calibrate):
        self.tracer = tracer
        self.check = check
        self.expected = expected
        #: How host speed is measured next to each block.
        self.calibrate = calibrate
        #: ``(kind, result)`` of every campaign that returned.
        self.results: list = []

    def _finish(self, kind, result) -> None:
        self.check.compare(items_of(result), self.expected)
        self.results.append((kind, result))

    def serial(self, label: str, kind: str, call) -> CampaignTiming | None:
        """Time ``call(progress)``; items are the gaps between callbacks."""
        tracer = self.tracer
        stamps: list[float] = []
        #: When each item started: its callback's stamp, or the end of
        #: the calibration that callback ran.
        starts: list[float] = []
        calibrations: list[float] = []

        def progress(done, total):
            stamps.append(clock())
            if len(stamps) % BLOCK_ITEMS == 1:
                if tracer.full:
                    tracer.end_item()
                calibrations.append(self.calibrate())
            starts.append(clock())
            if tracer.full:
                tracer.item(done)

        depth = tracer.depth
        mark = len(tracer.spans)
        campaign_span = tracer.open(f"campaign.{kind}") if tracer.full else None
        called = clock()
        try:
            result = call(progress)
        except Exception as error:  # a failed campaign is a failed item
            tracer.unwind(depth)
            self.check.raised(label, error)
            return None
        returned = clock()
        tracer.end_item()
        calibrations.append(self.calibrate())
        if campaign_span is not None:
            tracer.close(campaign_span)
        self._finish(kind, result)
        if not stamps:
            return CampaignTiming(
                kind, called, returned, 0, returned - called, 0.0, [],
                calibrations * 2,
            )
        gaps = [end - start for start, end in zip(starts, stamps[1:] + [returned])]
        plan_s = 0.0
        for span in tracer.spans[mark:]:
            if span.name == "kernel.record_plan" and span.start >= starts[0]:
                plan_s += span.duration
                for i in range(len(starts) - 1, -1, -1):
                    if starts[i] <= span.start:
                        gaps[i] -= span.duration
                        break
        return CampaignTiming(
            kind,
            called,
            returned,
            len(result.results),
            stamps[0] - called + plan_s,
            sum(gaps),
            gaps,
            calibrations,
            gaps,
        )

    def submit(self, label: str, kind: str, call) -> CampaignTiming | None:
        """Time ``call(on_result)`` against an engine: items are the
        delays from submission to each result's arrival.

        The client also calibrates every ``SUBMIT_CALIBRATE_EVERY``
        results, on whichever CPU it wakes on, so that a long submission
        is scaled by the host speed over its whole length.  The time
        those calibrations take is left out of the submission's.
        """
        arrivals: list[float] = []
        calibrations = [self.calibrate()]
        paused = 0.0

        def on_result(index, result):
            nonlocal paused
            arrivals.append(clock() - paused)
            if len(arrivals) % SUBMIT_CALIBRATE_EVERY == 0:
                started = clock()
                calibrations.append(calibrate())
                paused += clock() - started

        span = self.tracer.open(f"engine.submit.{kind}") if self.tracer.full else None
        called = clock()
        try:
            result = call(on_result)
        except Exception as error:
            if span is not None:
                self.tracer.close(span, note="raised")
            self.check.raised(label, error)
            return None
        returned = clock()
        if span is not None:
            self.tracer.close(span)
        calibrations.append(self.calibrate())
        self._finish(kind, result)
        return CampaignTiming(
            kind,
            called,
            returned,
            len(result.results),
            0.0,
            returned - called - paused,
            [t - called for t in arrivals],
            calibrations,
        )


# -- the workloads ---------------------------------------------------------------


@dataclass
class Workload:
    name: str
    seed: int
    seconds: float

    #: Seconds one repeat of the full-size unit takes on the 2-vCPU
    #: development host; sets how many repeats fit in ``seconds``.
    unit_s = 4.0

    @property
    def repeats(self) -> int:
        return max(MIN_REPEATS, round(self.seconds / self.unit_s))

    @property
    def scale(self) -> float:
        """Unit size: 1, or less when ``seconds`` cannot hold
        ``MIN_REPEATS`` full units (quick checks and tests)."""
        return min(1.0, self.seconds / (MIN_REPEATS * self.unit_s))

    def plan(self) -> list[dict]:
        """The campaigns whose reference outcomes the run needs."""
        raise NotImplementedError

    def run_pass(self, recorder: Recorder, index: int) -> Pass:
        """Repeat ``index`` of the unit."""
        raise NotImplementedError

    @property
    def workers_effective(self) -> int | None:
        """Engine workers the run can actually use; ``None``: no engine."""
        return None

    #: Serial workloads run pinned to one CPU and calibrate on it.
    serial = True
    #: Repeats after the timed ones that only pay the set-up.
    setup_rounds = 0

    def serial_equivalent(self, recorder: Recorder) -> float:
        """Wall time of the unit's timed requests served in-process
        (engine only)."""
        raise NotImplementedError


class Table3C(Workload):
    """Serial checkpointed C-driver campaign over one stride slice."""

    unit_s = 7.0

    @property
    def shard(self) -> tuple[int, int]:
        stride = max(C_STRIDE, round(C_STRIDE / self.scale))
        return (self.seed % stride, stride)

    def plan(self):
        return [{"kind": "driver", "fraction": 1.0, "seed": self.seed,
                 "shard": list(self.shard)}]

    def run_pass(self, recorder, index):
        from repro.mutation.runner import run_driver_campaign

        timing = recorder.serial(
            f"c shard {self.shard}",
            "driver",
            lambda progress: run_driver_campaign(
                "c", fraction=1.0, seed=self.seed, shard=self.shard,
                boot_checkpoint=True, progress=progress,
            ),
        )
        return Pass(campaigns=[timing] if timing else [])


class Corpus(Workload):
    """Serial checkpointed campaigns over the scale-8 scenario corpus."""

    unit_s = 3.5

    @property
    def fraction(self) -> float:
        return CORPUS_FRACTION * self.scale

    def plan(self):
        from repro.scenarios.corpus import generate_corpus

        return [
            {"kind": "scenario", "scenario": s.scenario_id,
             "fraction": self.fraction, "seed": self.seed}
            for s in generate_corpus(reference.CORPUS_SCALE)
        ]

    def run_pass(self, recorder, index):
        from repro.scenarios.campaign import run_scenario_campaign
        from repro.scenarios.corpus import generate_corpus

        started = clock()
        corpus = generate_corpus(reference.CORPUS_SCALE)
        result = Pass(extra_setup_s=clock() - started)
        for scenario in corpus:
            timing = recorder.serial(
                scenario.scenario_id,
                "scenario",
                lambda progress: run_scenario_campaign(
                    scenario, fraction=self.fraction, seed=self.seed,
                    boot_checkpoint=True, progress=progress,
                ),
            )
            if timing:
                result.campaigns.append(timing)
        return result


class Table2Devil(Workload):
    """The five Devil spec campaigns of Table 2."""

    unit_s = 6.5

    @property
    def fraction(self) -> float:
        return DEVIL_FRACTION * self.scale

    def plan(self):
        from repro.specs import spec_names

        return [
            {"kind": "devil", "spec": name, "fraction": self.fraction,
             "seed": self.seed}
            for name in spec_names()
        ]

    def run_pass(self, recorder, index):
        from repro.mutation.runner import run_devil_campaign
        from repro.specs import spec_names

        result = Pass()
        for name in spec_names():
            timing = recorder.serial(
                name,
                "devil",
                lambda progress: run_devil_campaign(
                    name, fraction=self.fraction, seed=self.seed,
                    progress=progress,
                ),
            )
            if timing:
                result.campaigns.append(timing)
        return result


class EngineMixed(Workload):
    """One warm engine per repeat; one client alternating driver and
    fault campaigns."""

    unit_s = 10.0
    setup_rounds = ENGINE_SETUP_ROUNDS
    #: The workers use every CPU, so each calibration covers all of them.
    serial = False

    @property
    def workers_effective(self) -> int:
        from env import usable_cores

        return min(ENGINE_WORKERS, usable_cores())

    def requests(self):
        """``(kind, request)`` pairs: the warm-up pair, then the timed list."""
        from repro.engine.state import CampaignRequest, FaultRequest
        from repro.faults.injector import DIMENSIONS

        pairs = []
        for k, (seed, per_dimension) in enumerate(fault_plans(self.seed)):
            fraction = ENGINE_C_FRACTION * self.scale if k else ENGINE_WARM_C_FRACTION
            pairs.append(("driver", CampaignRequest(
                driver="c", fraction=fraction, seed=seed, boot_checkpoint=True,
            )))
            pairs.append(("fault", FaultRequest(
                driver="c", seed=seed, per_dimension=per_dimension,
                dimensions=DIMENSIONS, injection="checkpoint",
            )))
        return pairs

    def plan(self):
        plan = []
        for kind, request in self.requests():
            if kind == "driver":
                plan.append({"kind": "driver", "fraction": request.fraction,
                             "seed": request.seed})
            else:
                plan.append({"kind": "fault", "seed": request.seed,
                             "per_dimension": request.per_dimension})
        return plan

    @staticmethod
    def _call(engine, kind, request):
        if kind == "driver":
            return lambda on_result: engine.run_campaign(request, on_result=on_result)
        return lambda on_result: engine.run_fault_campaign(request, on_result=on_result)

    def run_pass(self, recorder, index):
        from repro.engine import Engine

        tracer = recorder.tracer
        result = Pass()
        engine = Engine(workers=self.workers_effective)
        try:
            span = tracer.open("engine.start") if tracer.full else None
            started = clock()
            engine.start()
            result.engine["start_s"] = clock() - started
            if span is not None:
                tracer.close(span)
            result.extra_setup_s += result.engine["start_s"]
            requests = self.requests()
            if index >= self.repeats:  # a set-up-only round
                requests = requests[:2]
            for position, (kind, request) in enumerate(requests):
                timing = recorder.submit(
                    f"repeat {index} {kind} seed {request.seed}",
                    kind,
                    self._call(engine, kind, request),
                )
                if timing is None:
                    continue
                if position < 2:  # the untimed warm-up pair
                    if position == 0:
                        result.engine["first_submit_s"] = timing.wall_s
                    result.extra_setup_s += timing.wall_s
                else:
                    result.campaigns.append(timing)
            result.engine["quarantined"] = len(engine.quarantine)
            result.engine["rss_mb"] = peak_rss_mb(child_pids())
        finally:
            engine.close()
        return result

    def serial_equivalent(self, recorder):
        from repro.faults.campaign import run_fault_campaign
        from repro.mutation.runner import run_driver_campaign

        started = clock()
        for kind, request in self.requests()[2:]:
            if kind == "driver":
                campaign = run_driver_campaign(
                    "c", fraction=request.fraction, seed=request.seed,
                    boot_checkpoint=True,
                )
            else:
                campaign = run_fault_campaign(
                    "c", seed=request.seed, per_dimension=request.per_dimension,
                    dimensions=request.dimensions, injection="checkpoint",
                )
            recorder.check.compare(items_of(campaign), recorder.expected)
        return clock() - started


WORKLOAD_CLASSES = {
    "table3-c": Table3C,
    "corpus": Corpus,
    "table2-devil": Table2Devil,
    "engine-mixed": EngineMixed,
}
WORKLOADS = tuple(WORKLOAD_CLASSES)


def make(name: str, seed: int, seconds: float) -> Workload:
    return WORKLOAD_CLASSES[name](name, seed, seconds)


# -- aggregation -----------------------------------------------------------------


def repeat_metrics(repeat: Pass) -> dict[str, float]:
    """The end-to-end metrics of one repeat, at nominal host speed."""
    blocks = [block for c in repeat.campaigns for block in c.blocks()]
    timed_s = sum(seconds for seconds, _ in blocks)
    latencies_ms = [x * 1000.0 for _, latencies in blocks for x in latencies]
    walls = [c.scaled_wall() for c in repeat.campaigns]
    return {
        "items_per_s": sum(c.items for c in repeat.campaigns) / timed_s if timed_s else 0.0,
        "item_p50_ms": percentile(latencies_ms, 50) if latencies_ms else 0.0,
        "item_p95_ms": percentile(latencies_ms, 95) if latencies_ms else 0.0,
        "campaign_p50_s": statistics.median(walls) if walls else 0.0,
    }


def end_to_end(passes: list[Pass], rss_mb: float) -> dict[str, float]:
    """The user-visible metrics of one run: each the median over the
    run's repeats, at nominal host speed (``setup_s`` also over the
    set-up-only rounds)."""
    per_repeat = [repeat_metrics(p) for p in passes if p.campaigns]
    metrics = {
        name: statistics.median(m[name] for m in per_repeat) if per_repeat else 0.0
        for name in ("items_per_s", "item_p50_ms", "item_p95_ms", "campaign_p50_s")
    }
    metrics["setup_s"] = statistics.median(p.setup_s for p in passes)
    metrics["peak_rss_mb"] = rss_mb
    return metrics
