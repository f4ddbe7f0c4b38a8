"""Tests of the benchmark's own code (not collected by the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from env import ensure_program

ensure_program()

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    Span,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent


# -- percentile rule -------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(200, 95.0) == 10
    assert samples_beyond(199, 95.0) == 9
    assert samples_beyond(100, 50.0) == 50


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 0) == 1
    assert percentile([1, 2, 3, 4, 5], 100) == 5
    assert percentile([10], 95) == 10


# -- span self time --------------------------------------------------------------


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("item", 0.0, 10.0),
        Span("compile", 1.0, 3.0, parent=0),
        Span("boot", 5.0, 9.0, parent=0),
        Span("restore", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_clips_and_merges_child_intervals():
    spans = [
        Span("item", 0.0, 4.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 6.0, parent=0),  # overlaps a and outlives the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_items_split_at_progress_boundaries():
    tracer = Tracer(full=False)
    campaign = tracer.open("campaign")
    tracer.item(0)
    child = tracer.open("boot")
    tracer.close(child)
    tracer.item(1)
    tracer.end_item()
    tracer.close(campaign)
    names = [(s.name, s.parent, s.item) for s in tracer.spans]
    assert names == [
        ("campaign", -1, None),
        ("item", 0, 0),
        ("boot", 1, 0),
        ("item", 0, 1),
    ]
    own = self_times(tracer.spans)
    assert own[1] == pytest.approx(tracer.spans[1].duration - tracer.spans[2].duration)


def test_tracer_uninstall_restores_every_binding():
    from repro.kernel import checkpoint
    from repro.mutation import runner
    from repro.hw.bus import IOBus

    originals = (checkpoint.record_plan, runner.resume_boot, IOBus.read_port)
    with Tracer(full=True):
        assert runner.record_plan is not originals[0]
        assert runner.resume_boot is not originals[1]
        assert IOBus.read_port is not originals[2]
    assert (checkpoint.record_plan, runner.resume_boot, IOBus.read_port) == originals


# -- nominal host speed and repeats ---------------------------------------------


NOMINAL = workloads.CALIBRATION_NOMINAL_S


def _serial(gaps, calibrations, setup_s=0.0):
    return workloads.CampaignTiming(
        "driver", 0.0, setup_s + sum(gaps), len(gaps), setup_s, sum(gaps),
        list(gaps), list(calibrations), list(gaps),
    )


def test_block_time_scales_by_the_calibrations_around_it(monkeypatch):
    monkeypatch.setattr(workloads, "BLOCK_ITEMS", 2)
    # Block 0 ran at half nominal speed, block 1 at nominal speed.
    campaign = _serial([0.2, 0.2, 0.1], [2 * NOMINAL, 2 * NOMINAL, NOMINAL])
    blocks = campaign.blocks()
    assert [seconds for seconds, _ in blocks] == pytest.approx([0.2, 0.1 / 1.5])
    assert blocks[0][1] == pytest.approx([0.1, 0.1])


def test_end_to_end_reports_the_median_repeat(monkeypatch):
    monkeypatch.setattr(workloads, "BLOCK_ITEMS", 2)
    calm = [NOMINAL] * 3
    repeats = [
        workloads.Pass(campaigns=[_serial([0.1, 0.1, 0.1, 0.1], calm, 0.5)]),
        workloads.Pass(campaigns=[_serial([0.9, 0.9, 0.1, 0.1], calm, 0.7)]),
        workloads.Pass(campaigns=[_serial([0.2, 0.2, 0.2, 0.2], calm, 0.6)]),
    ]
    metrics = workloads.end_to_end(repeats, 40.0)
    assert metrics["items_per_s"] == pytest.approx(4 / 0.8)
    assert metrics["item_p50_ms"] == pytest.approx(200.0)
    assert metrics["item_p95_ms"] == pytest.approx(200.0)
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert metrics["campaign_p50_s"] == pytest.approx(0.6 + 0.8)
    assert metrics["peak_rss_mb"] == 40.0


def test_slower_program_reads_slower_at_any_host_speed(monkeypatch):
    monkeypatch.setattr(workloads, "BLOCK_ITEMS", 2)
    # The host runs at half speed: calibrations and items both take twice
    # as long, so the scaled result is the nominal one.
    fast = [workloads.Pass(campaigns=[_serial([0.1, 0.1], [NOMINAL] * 2)])]
    slow_host = [
        workloads.Pass(campaigns=[_serial([0.2, 0.2], [2 * NOMINAL] * 2)])
    ]
    slow_program = [workloads.Pass(campaigns=[_serial([0.2, 0.2], [NOMINAL] * 2)])]

    def rate(passes):
        return workloads.end_to_end(passes, 0.0)["items_per_s"]

    assert rate(slow_host) == pytest.approx(rate(fast))
    assert rate(slow_program) == pytest.approx(rate(fast) / 2)


def test_calibrate_each_cpu_restores_the_affinity():
    import os

    from measure import calibrate_each_cpu, pinned_to_one_cpu

    before = os.sched_getaffinity(0)
    assert calibrate_each_cpu(samples=1) > 0
    with pinned_to_one_cpu() as cpu:
        assert os.sched_getaffinity(0) == {cpu}
    assert os.sched_getaffinity(0) == before


# -- the reference comparison ----------------------------------------------------


def test_check_counts_differing_and_unknown_items():
    check = reference.Check()
    expected = {"a": ["boot", "accepted"], "b": ["crash", "x"]}
    check.compare([("a", "boot", "accepted")], expected)
    assert (check.attempted, check.failed) == (1, 0)
    check.compare([("b", "crash", "y"), ("c", "boot", "")], expected)
    assert (check.attempted, check.failed) == (3, 2)
    assert check.error_rate == pytest.approx(2 / 3)
    check.raised("campaign", RuntimeError("boom"))
    assert (check.attempted, check.failed) == (4, 3)


def _corrupt_devil_table(directory: Path) -> None:
    """Copy the devil table with every accepted mutant marked rejected."""
    body = json.loads(gzip.decompress(reference.table_path("devil").read_bytes()))
    for key, (outcome, detail) in body["rows"].items():
        if detail == "accepted":
            body["rows"][key] = ["compile-time check", "corrupted"]
    directory.mkdir(exist_ok=True)
    reference.table_path("devil", directory).write_bytes(
        gzip.compress(json.dumps(body).encode())
    )


def test_corrupted_reference_row_fails_the_run(tmp_path, monkeypatch, capsys):
    _corrupt_devil_table(tmp_path)
    monkeypatch.setattr(
        reference,
        "fetch_expected",
        lambda plan: reference.expected_rows(plan, tmp_path),
    )
    status = run.main(["--workload", "table2-devil", "--seconds", "0.4"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_pinned_reference_passes_the_same_run(capsys):
    status = run.main(["--workload", "table2-devil", "--seconds", "0.4"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_stale_table_is_recomputed_in_reference_configuration(tmp_path):
    body = json.loads(gzip.decompress(reference.table_path("faults").read_bytes()))
    body["digest"] = "stale"
    reference.table_path("faults", tmp_path).write_bytes(
        gzip.compress(json.dumps(body).encode())
    )
    plan = [{"kind": "fault", "seed": 4136, "per_dimension": 1}]
    result = reference.expected_rows(plan, tmp_path)
    assert result["computed"] == plan
    assert len(result["rows"]) == 7  # one fault per dimension


def test_plans_cover_every_campaign_kind():
    for name in workloads.WORKLOADS:
        plan = workloads.make(name, 4136, 10).plan()
        assert plan and all(s["kind"] in reference.TABLE_OF for s in plan)


# -- BENCHMARK.json and the command line -------------------------------------------


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3-c",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
