"""Campaign requests and the one lookup from a request to its kind.

Each campaign kind (`repro.campaign`) ships its own frozen request
type — :class:`CampaignRequest` for driver campaigns (Tables 3/4),
:class:`SpecRequest` for Devil specification campaigns (Table 2 rows),
:class:`ScenarioRequest` for generated scenarios and
:class:`FaultRequest` for environment faults.  A request splits into
two parts with very different costs:

* the **warm key** (``request.warm_key()``) — the resolved request with
  its sampling fields cleared.  It determines the expensive resident
  state: assembled sources, the enumerated population, the compiled
  baseline, the incremental compiler and, for checkpointed campaigns,
  the recorded plan with its pristine machine snapshot;
* the **sample** (``request.sample``, e.g. ``(fraction, seed)``) — cheap
  to apply to the already-built population.

Two campaigns whose requests share a warm key — any sample, submitted
at any time — reuse the same resident state, which is the entire point
of the engine: the fixed cost is paid once per key per process
lifetime, not once per campaign per OS process.  The resident state is
the kind's own object, so a warm evaluation *is* the serial evaluation.
"""

from __future__ import annotations

from repro.campaign import CampaignKind
from repro.faults.campaign import FaultCampaign, FaultRequest
from repro.mutation.runner import (
    CampaignRequest,
    DevilCampaign,
    DriverCampaign,
    SpecRequest,
)
from repro.scenarios.campaign import ScenarioCampaign, ScenarioRequest

#: Request type -> campaign kind: the engine's only per-kind knowledge.
KINDS: dict[type, type[CampaignKind]] = {
    kind.request_type: kind
    for kind in (DriverCampaign, DevilCampaign, ScenarioCampaign, FaultCampaign)
}


def kind_of(request) -> type[CampaignKind]:
    """The campaign kind serving ``request`` (a request or a warm key)."""
    try:
        return KINDS[type(request)]
    except KeyError:
        raise TypeError(
            f"not a campaign request: {type(request).__name__}"
        ) from None


__all__ = [
    "CampaignRequest",
    "FaultRequest",
    "KINDS",
    "ScenarioRequest",
    "SpecRequest",
    "kind_of",
]
