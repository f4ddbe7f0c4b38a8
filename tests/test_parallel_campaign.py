"""Determinism of the parallel campaign runner.

``run_driver_campaign(workers=N)`` must reproduce the serial campaign
result for any worker count: results merge by mutant index and every
mutant evaluation is independent, so the paper's tables cannot depend on
scheduling.  ``workers=N`` runs on a throwaway `repro.engine.Engine`;
its ``spawn`` start path is covered by
``tests/test_engine.py::test_engine_spawn_start_method``.
"""

import pytest

from repro.mutation.runner import run_driver_campaign


def _view(campaign):
    return [
        (r.mutant.site.key, r.mutant.replacement, r.outcome, r.detail)
        for r in campaign.results
    ]


def test_workers_two_equals_serial_fixed_seed():
    serial = run_driver_campaign("c", fraction=0.01, seed=4136)
    parallel = run_driver_campaign("c", fraction=0.01, seed=4136, workers=2)
    assert _view(parallel) == _view(serial)
    assert parallel.enumerated == serial.enumerated
    assert parallel.step_budget == serial.step_budget


def test_worker_count_does_not_change_results():
    two = run_driver_campaign("c", fraction=0.008, seed=5, workers=2)
    three = run_driver_campaign("c", fraction=0.008, seed=5, workers=3)
    assert _view(two) == _view(three)


def test_progress_reports_all_mutants():
    seen = []
    run_driver_campaign(
        "c",
        fraction=0.005,
        seed=2,
        workers=2,
        progress=lambda done, total: seen.append((done, total)),
    )
    assert len(seen) == len({i for i, _ in seen})
    assert seen and all(total == len(seen) for _, total in seen)


@pytest.mark.slow
def test_cdevil_parallel_equals_serial():
    serial = run_driver_campaign("cdevil", fraction=0.05, seed=4136)
    parallel = run_driver_campaign("cdevil", fraction=0.05, seed=4136, workers=2)
    assert _view(parallel) == _view(serial)
