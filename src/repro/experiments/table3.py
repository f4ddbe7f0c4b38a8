"""Table 3 — mutations on the C code of the IDE driver (paper §4.2).

Every mutant of the tagged hardware-operating regions of the original C
driver is compiled; survivors are booted on the simulated PIIX4 machine
and classified into the paper's outcome classes.

Run with ``python -m repro.experiments.table3`` (``--fraction 0.25`` for
the paper's sampled methodology).
"""

from __future__ import annotations

import argparse

from repro.experiments.driver_tables import render_campaign
from repro.kernel.outcomes import BootOutcome
from repro.mutation.runner import CampaignResult, run_driver_campaign

#: The paper's Table 3 percentages.
PAPER_TABLE3 = {
    BootOutcome.COMPILE_CHECK: 26.7,
    BootOutcome.CRASH: 2.9,
    BootOutcome.INFINITE_LOOP: 11.2,
    BootOutcome.HALT: 21.5,
    BootOutcome.DAMAGED_BOOT: 2.9,
    BootOutcome.BOOT: 34.7,
}


def run(
    fraction: float = 1.0,
    seed: int = 4136,
    progress=None,
    shards: int = 1,
    engine: int = 0,
) -> CampaignResult:
    """The Table 3 campaign; ``shards``/``engine`` parallelise it.

    Sharded runs fan out over local processes through
    `repro.distributed` (one shard per process, checkpoint plan recorded
    once) and merge to the identical ``CampaignResult`` — the route to
    full-fraction reproductions that outgrow one host.  ``engine`` > 0
    instead runs the campaign on a warm `repro.engine.Engine` with that
    many workers (work-stealing over the mutant index space, result
    identical to serial).  ``progress`` is per-mutant and forwarded on
    the serial and engine paths; shard processes report completion per
    shard file, not per mutant, so the shard path does not forward it.
    """
    if shards > 1 and engine:
        raise ValueError("shards and engine are mutually exclusive")
    if engine:
        return run_driver_campaign(
            "c", fraction=fraction, seed=seed, workers=engine,
            progress=progress,
        )
    if shards > 1:
        from repro.distributed import sharded_campaign

        return sharded_campaign(
            "c", fraction=fraction, seed=seed, shard_count=shards
        )
    return run_driver_campaign(
        "c", fraction=fraction, seed=seed, progress=progress
    )


def render(result: CampaignResult) -> str:
    return render_campaign(
        result, "Table 3: mutations on C code (original IDE driver)", PAPER_TABLE3
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # Campaign flags default to None so --from-shards can refuse them:
    # the shard files fix the campaign parameters, and silently printing
    # a table for different flags would misattribute the result.
    parser.add_argument("--fraction", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run the campaign as N local shard processes (plan "
        "recorded once; merged result identical to --shards 1)",
    )
    parser.add_argument(
        "--engine",
        type=int,
        default=None,
        metavar="WORKERS",
        help="run the campaign on a warm engine with N workers "
        "(work-stealing; result identical to the serial run)",
    )
    parser.add_argument(
        "--from-shards",
        nargs="+",
        default=None,
        metavar="SHARD_FILE",
        help="skip running: merge these shard-result files "
        "(written by `python -m repro.distributed run-shard`)",
    )
    args = parser.parse_args(argv)
    if args.shards and args.engine:
        parser.error("--shards and --engine are mutually exclusive")
    if args.from_shards:
        if (args.fraction, args.seed, args.shards, args.engine) != (
            None, None, None, None,
        ):
            parser.error(
                "--from-shards merges pre-computed results; "
                "--fraction/--seed/--shards belong to the run that "
                "produced them"
            )
        from repro.distributed import merge_shard_files

        result = merge_shard_files(args.from_shards)
        if result.driver != "c":
            parser.error(
                f"shard files hold a {result.driver!r} campaign, "
                "not Table 3's C driver"
            )
    else:
        result = run(
            fraction=0.25 if args.fraction is None else args.fraction,
            seed=4136 if args.seed is None else args.seed,
            shards=args.shards or 1,
            engine=args.engine or 0,
        )
    print(render(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
