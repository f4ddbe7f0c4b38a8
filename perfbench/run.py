"""Campaign benchmark: run one workload once and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload table3-c --seed 4136 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, timed at nominal host
speed (`workloads`); ``--trace 1`` runs the workload untraced and then
traced, prints the per-layer metrics and writes the spans to
``.perfbench/``.  Every classified item is checked against the
reference outcomes (`reference.py`).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the full report (host, host
speed, sample counts, mismatches).  The exit code is 0 for
a correct run, 1 for a run with failed items and 2 when the program is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile

import reference
import workloads
from env import (
    DEFAULT_SEED,
    OUT_DIR,
    TMP_DIR,
    ProgramMissing,
    ensure_program,
    host_metadata,
)
from measure import (
    calibrate,
    calibrate_each_cpu,
    median,
    peak_rss_mb,
    percentile,
    pinned_to_one_cpu,
    samples_beyond,
    self_times,
    tail_percentile,
)
from tracer import Tracer

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "campaign_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "minic.compile_variant.calls": "count",
    "minic.compile_variant.s": "s",
    "minic.compile_variant.p50_us": "us",
    "minic.compile_rejects": "count",
    "kernel.budget_bound.calls": "count",
    "kernel.budget_bound.s": "s",
    "kernel.resume_boot.calls": "count",
    "kernel.resume_boot.s": "s",
    "kernel.boot.calls": "count",
    "kernel.boot.s": "s",
    "kernel.steps": "count",
    "kernel.steps_per_s": "1/s",
    "kernel.resumed_fraction": "ratio",
    "kernel.steps_skipped": "count",
    "kernel.record_plan.s": "s",
    "kernel.item_self_s": "s",
    "mutation.enumerate_s": "s",
    "mutation.enumerated": "count",
    "mutation.sampled": "count",
    "hw.port_reads": "count",
    "hw.port_writes": "count",
    "hw.reads_per_step": "reads/step",
    "hw.machine_restore.calls": "count",
    "hw.machine_restore.s": "s",
    "devil.check_variant.calls": "count",
    "devil.check_variant.s": "s",
    "devil.check_variant.p50_us": "us",
    "devil.rejects": "count",
    "faults.resumed_fraction": "ratio",
    "faults.steps_skipped": "count",
    "engine.start_s": "s",
    "engine.first_submit_s": "s",
    "engine.driver_submit.p50_s": "s",
    "engine.fault_submit.p50_s": "s",
    "engine.result_gap.p95_ms": "ms",
    "engine.quarantined": "count",
    "engine.workers_effective": "count",
    "engine.speedup_vs_serial": "ratio",
    "trace.overhead": "ratio",
}

#: Per-layer counts that must repeat exactly between two traced runs of
#: the same code (``check_counts.py``); only these may back a claim.
STABLE_COUNTS = (
    "kernel.steps",
    "hw.port_reads",
    "kernel.resumed_fraction",
    "minic.compile_rejects",
    "devil.rejects",
)


def measure(workload, expected: dict, check, full: bool):
    """Run every repeat of ``workload`` under a fresh tracer."""
    tracer = Tracer(full)
    host_speed = calibrate if workload.serial else calibrate_each_cpu
    recorder = workloads.Recorder(tracer, check, expected, host_speed)
    passes = []
    pinned = pinned_to_one_cpu() if workload.serial else contextlib.nullcontext()
    with pinned, tracer:
        for index in range(workload.repeats + workload.setup_rounds):
            calibration = host_speed()
            passes.append(workload.run_pass(recorder, index))
            passes[-1].calibration = calibration
    return passes, tracer, recorder


def run_rss(passes) -> float:
    """Peak memory of the run: this process, plus engine workers."""
    return max(
        [peak_rss_mb()] + [p.engine["rss_mb"] for p in passes if "rss_mb" in p.engine]
    )


def summed_stats(results, kinds) -> dict:
    total: dict = {}
    for kind, campaign in results:
        if kind in kinds and campaign.checkpoint_stats:
            for key, value in campaign.checkpoint_stats.items():
                total[key] = total.get(key, 0) + value
    return total


def resumed_fraction(stats: dict) -> float:
    boots = stats.get("resumed", 0) + stats.get("cold", 0)
    return stats.get("resumed", 0) / boots if boots else 0.0


def layer_metrics(tracer, recorder, passes, workload, overhead, speedup) -> dict:
    spans: dict = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)

    def calls(name):
        return len(spans.get(name, ()))

    def seconds(name):
        return sum(s.duration for s in spans.get(name, ()))

    def p50_us(name):
        return median([s.duration * 1e6 for s in spans.get(name, ())])

    counts = tracer.counts
    boots = spans.get("kernel.boot", []) + spans.get("kernel.resume_boot", [])
    budget = [s for s in boots if s.note == "budget"]
    boot_s = seconds("kernel.boot") + seconds("kernel.resume_boot")
    steps = counts["kernel.steps"]
    mutant_stats = summed_stats(recorder.results, ("driver", "scenario"))
    fault_stats = summed_stats(recorder.results, ("fault",))
    items = [i for i, s in enumerate(tracer.spans) if s.name == "item"]
    own = self_times(tracer.spans) if items else []

    timed = [c for p in passes for c in p.campaigns]
    gaps_ms = []
    for campaign in timed:
        arrivals = sorted(campaign.latencies)
        gaps_ms += [(b - a) * 1000.0 for a, b in zip(arrivals, arrivals[1:])]

    def engine_median(key):
        return median([p.engine[key] for p in passes if key in p.engine])

    def submit_p50(kind):
        return median([c.wall_s for c in timed if c.kind == kind])

    engine = workload.workers_effective is not None
    return {
        "minic.compile_variant.calls": calls("minic.compile_variant"),
        "minic.compile_variant.s": seconds("minic.compile_variant"),
        "minic.compile_variant.p50_us": p50_us("minic.compile_variant"),
        "minic.compile_rejects": counts["minic.compile_rejects"],
        "kernel.budget_bound.calls": len(budget),
        "kernel.budget_bound.s": sum(s.duration for s in budget),
        "kernel.resume_boot.calls": calls("kernel.resume_boot"),
        "kernel.resume_boot.s": seconds("kernel.resume_boot"),
        "kernel.boot.calls": calls("kernel.boot"),
        "kernel.boot.s": seconds("kernel.boot"),
        "kernel.steps": steps,
        "kernel.steps_per_s": steps / boot_s if boot_s else 0.0,
        "kernel.resumed_fraction": resumed_fraction(mutant_stats),
        "kernel.steps_skipped": mutant_stats.get("steps_skipped", 0),
        "kernel.record_plan.s": seconds("kernel.record_plan"),
        "kernel.item_self_s": sum(own[i] for i in items),
        "mutation.enumerate_s": seconds("mutation.enumerate"),
        "mutation.enumerated": counts["mutation.enumerated"],
        "mutation.sampled": counts["mutation.sampled"],
        "hw.port_reads": counts["hw.port_reads"],
        "hw.port_writes": counts["hw.port_writes"],
        "hw.reads_per_step": counts["hw.port_reads"] / steps if steps else 0.0,
        "hw.machine_restore.calls": calls("hw.machine_restore"),
        "hw.machine_restore.s": seconds("hw.machine_restore"),
        "devil.check_variant.calls": calls("devil.check_variant"),
        "devil.check_variant.s": seconds("devil.check_variant"),
        "devil.check_variant.p50_us": p50_us("devil.check_variant"),
        "devil.rejects": counts["devil.rejects"],
        "faults.resumed_fraction": resumed_fraction(fault_stats),
        "faults.steps_skipped": fault_stats.get("steps_skipped", 0),
        "engine.start_s": engine_median("start_s"),
        "engine.first_submit_s": engine_median("first_submit_s"),
        "engine.driver_submit.p50_s": submit_p50("driver") if engine else 0.0,
        "engine.fault_submit.p50_s": submit_p50("fault") if engine else 0.0,
        "engine.result_gap.p95_ms": (
            percentile(gaps_ms, 95) if engine and gaps_ms else 0.0
        ),
        "engine.quarantined": sum(p.engine.get("quarantined", 0) for p in passes),
        "engine.workers_effective": workload.workers_effective or 0,
        "engine.speedup_vs_serial": speedup,
        "trace.overhead": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_program()
    except ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(TMP_DIR)

    workload = workloads.make(args.workload, args.seed, args.seconds)
    host = host_metadata(args.seed, workload.workers_effective)
    expected = reference.fetch_expected(workload.plan())
    check = reference.Check()
    passes, _, _ = measure(workload, expected["rows"], check, full=False)
    e2e = workloads.end_to_end(passes, run_rss(passes))
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "repeats": workload.repeats,
        "setup_rounds": workload.setup_rounds,
        "setup_samples_s": [p.setup_s for p in passes],
        "latency_samples": sum(len(c.latencies) for c in passes[0].campaigns),
        "references_computed": len(expected["computed"]),
    }
    timed = [c for p in passes for c in p.campaigns]
    calibrations = sorted(x * 1e3 for c in timed for x in c.calibrations)
    report["pinned_to_one_cpu"] = workload.serial
    report["calibration_ms"] = {
        "min": calibrations[0], "median": median(calibrations), "max": calibrations[-1],
    } if calibrations else {}
    raw_s = sum(c.timed_s for c in timed)
    report["unscaled_items_per_s"] = sum(c.items for c in timed) / raw_s if raw_s else 0.0
    count = report["latency_samples"]
    report["tail_percentile"] = tail_percentile(count)
    report["p95_samples_beyond"] = samples_beyond(count, 95.0)
    if args.trace:
        traced, tracer, recorder = measure(workload, expected["rows"], check, full=True)
        traced_e2e = workloads.end_to_end(traced, 0.0)
        overhead = (
            e2e["items_per_s"] / traced_e2e["items_per_s"]
            if traced_e2e["items_per_s"]
            else 0.0
        )
        speedup = 0.0
        if workload.workers_effective is not None:
            engine_s = sum(c.wall_s for c in passes[0].campaigns)
            serial_s = workload.serial_equivalent(recorder)
            speedup = serial_s / engine_s if engine_s else 0.0
        values = layer_metrics(tracer, recorder, traced, workload, overhead, speedup)
        units = PER_LAYER
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path)
    else:
        values, units = e2e, END_TO_END
    correct = check.failed == 0 and check.attempted > 0
    report["error_rate"] = check.error_rate
    report["mismatches"] = check.mismatches
    report["metrics"] = values
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
