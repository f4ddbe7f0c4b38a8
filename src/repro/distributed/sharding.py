"""Deterministic shard planning for distributed mutation campaigns.

A campaign's sampled mutant list is a pure function of
``(driver, mode, fraction, seed)`` — enumeration walks the baseline
source deterministically and sampling is seeded
(`repro.mutation.sampling`).  Sharding therefore needs **no
coordinator**: every shard re-derives the identical ``tested`` list and
takes its own stride of the index space,
``range(shard_index, total, shard_count)``
(`repro.campaign.shard_indices`).  The union of all strides
covers every sampled index exactly once, so merging shard results by
index reconstructs the serial campaign bit for bit.

:class:`ShardSpec` carries one shard's full identity: the campaign
parameters every shard must agree on, plus this shard's coordinates.
:func:`plan_shards` expands a campaign into its shard specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.campaign import shard_indices  # re-exported  # noqa: F401
from repro.mutation.sampling import DEFAULT_SEED

DRIVERS = ("c", "cdevil")
MODES = ("debug", "production")


@dataclass(frozen=True)
class ShardSpec:
    """One shard of one campaign: shared parameters + this shard's slot.

    The campaign-defining fields (everything except ``shard_index``)
    must be identical across a campaign's shards — the merge step
    refuses mixed results (`repro.distributed.shards`).  ``backend`` /
    ``compile_cache`` / ``boot_checkpoint`` are execution knobs rather
    than sampling inputs, but they are part of the spec because a merge
    of shards run under different configurations would not be a
    reproduction of any single serial run.
    """

    driver: str = "c"
    mode: str = "debug"
    fraction: float = 1.0
    seed: int = DEFAULT_SEED
    shard_index: int = 0
    shard_count: int = 1
    backend: str | None = None
    compile_cache: bool = True
    #: ``None``: resolve from ``REPRO_BOOT_CHECKPOINT`` at run time,
    #: exactly like ``run_driver_campaign``.
    boot_checkpoint: bool | None = None
    #: ``None``: adopt the plan file's granularity (or the environment /
    #: default resolution when recording in-process).
    checkpoint_granularity: str | None = None
    step_budget: int | None = None

    def validate(self) -> None:
        if self.driver not in DRIVERS:
            raise ValueError(f"unknown driver {self.driver!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction {self.fraction} outside (0, 1]")
        if self.shard_count < 1:
            raise ValueError(f"shard_count {self.shard_count} must be >= 1")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index {self.shard_index} outside "
                f"[0, {self.shard_count})"
            )

    def indices(self, total: int) -> range:
        """This shard's slice of the sampled index space ``range(total)``."""
        return shard_indices(total, self.shard_index, self.shard_count)


def plan_shards(shard_count: int, **campaign) -> list[ShardSpec]:
    """The :class:`ShardSpec` for every shard of one campaign.

    ``campaign`` takes any :class:`ShardSpec` field except the shard
    coordinates.  Each returned spec is self-sufficient: handing spec
    ``i`` to ``repro.distributed.run_shard`` on any host reproduces
    shard ``i`` of the serial campaign.
    """
    for key in ("shard_index", "shard_count"):
        if key in campaign:
            raise ValueError(f"{key} is derived; pass shard_count positionally")
    base = ShardSpec(shard_count=shard_count, **campaign)
    specs = [
        replace(base, shard_index=index) for index in range(shard_count)
    ]
    for spec in specs:
        spec.validate()
    return specs
