"""Pinned reference outcomes and the check of measured items against them.

Every classified item of a benchmark run is compared with the outcome
the *reference configuration* gives it, never with the configuration
under test:

* driver and scenario mutants: a cold tree-walker boot of a
  from-scratch compile (``backend="tree", boot_checkpoint=False,
  compile_cache=False``);
* Devil spec mutants: the from-scratch checker (``compile_cache=False``);
* environment faults: a cold perturbed tree-walker boot
  (``injection="cold", backend="tree"``).

Mutant tables cover the whole enumerated population, so they serve every
``--seed`` (a seed only picks a sample).  The fault table covers the
fault plans of the default seed; other seeds are computed in the
reference configuration before timing.  A table whose program digest no
longer matches the sources is stale and is recomputed the same way.

Regenerate every table (about 12 minutes on a 2-core host; run from
the repository root)::

    python3 perfbench/reference.py

or one of them with ``--table c-driver|corpus|devil|faults``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from env import BENCH_DIR, ensure_program

TABLE_DIR = BENCH_DIR / "reference"
TABLES = ("c-driver", "corpus", "devil", "faults")
#: The generated corpus the ``corpus`` workload runs.
CORPUS_SCALE = 8
#: Mismatches kept verbatim for the report.
KEEP_MISMATCHES = 5


# -- item identity -------------------------------------------------------------


def mutant_key(mutant) -> str:
    return mutant.mutant_id


def fault_key(fault) -> str:
    return (
        f"{fault.dimension}/{fault.channel}/{fault.port}/{fault.index}/"
        f"{fault.count}/{fault.bit}/{fault.value}"
    )


def items_of(campaign) -> list[tuple[str, str, str]]:
    """``(key, outcome, detail)`` for every classified item of a campaign."""
    items = []
    for row in campaign.results:
        mutant = getattr(row, "mutant", None)
        key = mutant_key(mutant) if mutant is not None else fault_key(row.fault)
        items.append((key, str(row.outcome), row.detail))
    return items


def rows_of(campaign) -> dict[str, list[str]]:
    return {key: [outcome, detail] for key, outcome, detail in items_of(campaign)}


# -- program digests -----------------------------------------------------------


def _sha(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def c_driver_digest() -> str:
    from repro.drivers import assemble_c_program

    files, registry = assemble_c_program()
    return _sha(
        [f.text for f in files] + [registry[name] for name in sorted(registry)]
    )


def corpus_digest() -> str:
    from repro.scenarios.corpus import generate_corpus, manifest_digest

    return manifest_digest(generate_corpus(CORPUS_SCALE))


def devil_digest() -> str:
    from repro.specs import load_spec_source, spec_names

    return _sha(load_spec_source(name) for name in spec_names())


DIGESTS = {
    "c-driver": c_driver_digest,
    "corpus": corpus_digest,
    "devil": devil_digest,
    "faults": c_driver_digest,
}


# -- reference-configuration campaigns -----------------------------------------


def driver_campaign(fraction: float, seed: int, shard=None):
    from repro.mutation.runner import run_driver_campaign

    return run_driver_campaign(
        "c", fraction=fraction, seed=seed, shard=shard, backend="tree",
        compile_cache=False, boot_checkpoint=False,
    )


def scenario_campaign(scenario, fraction: float, seed: int):
    from repro.scenarios.campaign import run_scenario_campaign

    return run_scenario_campaign(
        scenario, fraction=fraction, seed=seed, backend="tree",
        compile_cache=False, boot_checkpoint=False,
    )


def devil_campaign(spec_name: str, fraction: float, seed: int):
    from repro.mutation.runner import run_devil_campaign

    return run_devil_campaign(
        spec_name, fraction=fraction, seed=seed, compile_cache=False
    )


def fault_campaign(seed: int, per_dimension: int):
    from repro.faults.campaign import run_fault_campaign
    from repro.faults.injector import DIMENSIONS

    return run_fault_campaign(
        "c", seed=seed, per_dimension=per_dimension, dimensions=DIMENSIONS,
        injection="cold", backend="tree",
    )


# -- pinned tables -------------------------------------------------------------


@dataclass
class Table:
    name: str
    digest: str
    config: str
    #: Fault table only: the ``[seed, per_dimension]`` plans it holds.
    covers: list = field(default_factory=list)
    rows: dict = field(default_factory=dict)

    @property
    def path(self) -> Path:
        return table_path(self.name)

    def save(self) -> None:
        TABLE_DIR.mkdir(exist_ok=True)
        body = {
            "table": self.name,
            "config": self.config,
            "regenerate": f"python3 perfbench/reference.py --table {self.name}",
            "digest": self.digest,
            "covers": self.covers,
            "rows": self.rows,
        }
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        # mtime=0: regenerating identical rows gives an identical file.
        self.path.write_bytes(gzip.compress(text.encode("utf-8"), 9, mtime=0))


def table_path(name: str, directory: Path = TABLE_DIR) -> Path:
    return directory / f"{name}.json.gz"


def load_table(name: str, directory: Path = TABLE_DIR) -> Table | None:
    """The pinned table, or ``None`` if it is absent or stale."""
    path = table_path(name, directory)
    if not path.is_file():
        return None
    body = json.loads(gzip.decompress(path.read_bytes()))
    if body["digest"] != DIGESTS[name]():
        return None
    return Table(
        name=name,
        digest=body["digest"],
        config=body["config"],
        covers=body["covers"],
        rows=body["rows"],
    )


# -- the check -----------------------------------------------------------------


@dataclass
class Check:
    """Running count of items compared with the reference."""

    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.mismatches) < KEEP_MISMATCHES:
            self.mismatches.append(what)

    def compare(self, items, expected: dict) -> None:
        """Count one campaign's items; a differing or unknown one fails."""
        for key, outcome, detail in items:
            self.attempted += 1
            want = expected.get(key)
            if want is None:
                self._fail(f"{key}: no reference row")
            elif (outcome, detail) != tuple(want):
                self._fail(f"{key}: got {outcome!r}/{detail!r}, want {want!r}")

    def raised(self, label: str, error: BaseException) -> None:
        """A campaign that raised counts as one attempted, failed item."""
        self.attempted += 1
        self._fail(f"{label}: raised {type(error).__name__}: {error}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- regeneration --------------------------------------------------------------


#: The reference configuration of each campaign kind, as recorded in a table.
CONFIG_OF = {
    "driver": "run_driver_campaign('c', backend='tree', compile_cache=False, boot_checkpoint=False)",
    "scenario": "run_scenario_campaign(backend='tree', compile_cache=False, boot_checkpoint=False)",
    "devil": "run_devil_campaign(compile_cache=False)",
    "fault": "run_fault_campaign('c', injection='cold', backend='tree')",
}


def population(name: str) -> list[dict]:
    """The campaigns whose rows make up pinned table ``name``."""
    if name == "c-driver":
        return [{"kind": "driver", "fraction": 1.0, "seed": 0}]
    if name == "corpus":
        from repro.scenarios.corpus import generate_corpus

        return [
            {"kind": "scenario", "scenario": s.scenario_id, "fraction": 1.0, "seed": 0}
            for s in generate_corpus(CORPUS_SCALE)
        ]
    if name == "devil":
        from repro.specs import spec_names

        return [
            {"kind": "devil", "spec": spec, "fraction": 1.0, "seed": 0}
            for spec in spec_names()
        ]
    if name == "faults":
        from env import DEFAULT_SEED
        from workloads import fault_plans

        return [
            {"kind": "fault", "seed": seed, "per_dimension": per_dimension}
            for seed, per_dimension in fault_plans(DEFAULT_SEED)
        ]
    raise ValueError(f"unknown table {name!r}; known: {', '.join(TABLES)}")


def regenerate(name: str) -> Table:
    started = time.perf_counter()
    plan = population(name)
    rows: dict = {}
    for spec in plan:
        rows.update(rows_of(compute(spec)))
    covers = (
        [[spec["seed"], spec["per_dimension"]] for spec in plan]
        if name == "faults"
        else []
    )
    table = Table(name, DIGESTS[name](), CONFIG_OF[plan[0]["kind"]], covers, rows)
    table.save()
    print(
        f"{name}: {len(rows)} rows in {time.perf_counter() - started:.1f} s "
        f"-> {table.path}",
        flush=True,
    )
    return table


# -- reference rows for one run's plan -----------------------------------------

#: Which pinned table holds each campaign kind of a workload plan.
TABLE_OF = {
    "driver": "c-driver",
    "scenario": "corpus",
    "devil": "devil",
    "fault": "faults",
}


def compute(spec: dict):
    """Run one planned campaign in the reference configuration."""
    kind = spec["kind"]
    if kind == "driver":
        shard = tuple(spec["shard"]) if spec.get("shard") else None
        return driver_campaign(spec["fraction"], spec["seed"], shard)
    if kind == "scenario":
        return scenario_campaign(spec["scenario"], spec["fraction"], spec["seed"])
    if kind == "devil":
        return devil_campaign(spec["spec"], spec["fraction"], spec["seed"])
    if kind == "fault":
        return fault_campaign(spec["seed"], spec["per_dimension"])
    raise ValueError(f"unknown campaign kind {kind!r}")


def expected_rows(plan: list[dict], directory: Path = TABLE_DIR) -> dict:
    """Reference rows for every campaign of ``plan``.

    Pinned rows where a fresh table covers the campaign; otherwise the
    campaign runs here, in the reference configuration.
    """
    tables: dict = {}
    rows: dict = {}
    computed = []
    for spec in plan:
        name = TABLE_OF[spec["kind"]]
        if name not in tables:
            tables[name] = load_table(name, directory)
            if tables[name] is not None:
                rows.update(tables[name].rows)
        table = tables[name]
        covered = table is not None and (
            name != "faults"
            or [spec["seed"], spec["per_dimension"]] in table.covers
        )
        if not covered:
            rows.update(rows_of(compute(spec)))
            computed.append(spec)
    return {"rows": rows, "computed": computed}


def fetch_expected(plan: list[dict]) -> dict:
    """:func:`expected_rows` in a child process.

    Loading tables and computing uncovered campaigns would otherwise
    warm the program's caches and grow the memory of the process being
    measured.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--expect"],
        input=json.dumps(plan),
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"reference computation failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--table", action="append", choices=TABLES,
        help="table to regenerate (repeatable; default: all)",
    )
    parser.add_argument(
        "--expect", action="store_true",
        help="read a workload plan (JSON) on stdin, print its reference rows",
    )
    args = parser.parse_args(argv)
    ensure_program()
    if args.expect:
        json.dump(expected_rows(json.load(sys.stdin)), sys.stdout)
        return 0
    for name in args.table or TABLES:
        regenerate(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
