"""Count stability: two traced runs of the same code must count alike.

Runs ``run.py --trace 1`` twice per workload at the same seed and
compares the counts in ``run.STABLE_COUNTS`` for exact equality.  Only a
count that repeats exactly may back a performance claim.  Run from the
repository root::

    python3 perfbench/check_counts.py [--workload table3-c ...] [--seconds 20]

Exits 1 if any count differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from env import DEFAULT_SEED
from run import STABLE_COUNTS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in STABLE_COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    stable = True
    for workload in args.workload or WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in STABLE_COUNTS:
            same = first[name] == second[name]
            stable &= same
            print(
                f"{workload:14} {name:26} {first[name]!r:>14} "
                f"{second[name]!r:>14} {'ok' if same else 'DIFFERS'}"
            )
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
