"""Warm campaign engine: persistent workers serving campaign requests.

The batch pipeline (`repro.mutation.runner`, `repro.distributed`) pays
its fixed costs — program assembly, mutant enumeration, baseline boot,
checkpoint-plan recording — once per OS process, which is once per
campaign (or worse, once per shard).  This package moves those costs to
*process-pool lifetime*: an :class:`Engine` forks a worker pool once
with the warm state resident, then evaluates any number of campaign
requests against it, dealing the sampled mutant index space out as
work-stealing leases (`repro.engine.scheduler`).  Results are
byte-identical to the serial runner for any worker count and any steal
schedule, because evaluation reuses the serial code paths and the merge
is keyed by sampled index (`repro.engine.state`).  The engine knows no
campaign kind by name: every kind implements the five operations of
`repro.campaign`, and one lookup maps a request to its kind.  It is also
the only parallel executor — ``workers=N`` on the campaign entry points
runs on a throwaway engine.

Front ends, closest-first:

* ``Engine`` — in-process;
* ``run_driver_campaign(engine=...)`` / ``workers=N`` — the classic
  entry point, engine-backed (likewise
  ``repro.faults.run_fault_campaign`` and
  ``repro.scenarios.run_scenario_campaign``);
* ``EngineClient`` ↔ ``python -m repro.engine serve`` — a Unix-socket
  daemon (`repro.engine.daemon`) whose warm state outlives submitting
  processes.
"""

from repro.engine.core import Engine, EngineError
from repro.engine.daemon import CampaignFailedError, EngineClient, serve
from repro.engine.scheduler import (
    LeaseEvent,
    StealScheduler,
    default_lease_size,
)
from repro.engine.state import (
    CampaignRequest,
    FaultRequest,
    ScenarioRequest,
    SpecRequest,
)
from repro.engine.supervision import QuarantineRecord, SupervisionPolicy

__all__ = [
    "CampaignFailedError",
    "CampaignRequest",
    "Engine",
    "EngineClient",
    "EngineError",
    "FaultRequest",
    "LeaseEvent",
    "QuarantineRecord",
    "ScenarioRequest",
    "SpecRequest",
    "StealScheduler",
    "SupervisionPolicy",
    "default_lease_size",
    "serve",
]
