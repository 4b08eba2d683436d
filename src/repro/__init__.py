"""repro — Reliable Unicasting in Faulty Hypercubes Using Safety Levels.

A full reproduction of Jie Wu's safety-level unicasting system
(ICPP 1995 / IEEE Transactions on Computers, Feb 1997):

* :mod:`repro.core` — hypercube & generalized-hypercube topologies, fault
  models, oracle connectivity;
* :mod:`repro.simcore` — the message-passing multicomputer simulator the
  protocols run on;
* :mod:`repro.safety` — safety levels (Definition 1), the distributed GS
  algorithm, the competing Lee–Hayes / Wu–Fernandez safe-node definitions,
  EGS for link faults, generalized-hypercube levels;
* :mod:`repro.routing` — the safety-level unicast (optimal / suboptimal /
  detected-failure) and every baseline router;
* :mod:`repro.broadcast` — the safety-level broadcast extension;
* :mod:`repro.chaos` — seeded mid-flight fault injection (chaos plans,
  controller, run invariants) for the resilient unicast harness;
* :mod:`repro.analysis` — experiment harness regenerating each paper
  table/figure, behind one :class:`~repro.analysis.ExperimentSpec`
  registry;
* :mod:`repro.campaign` — declarative fault-campaign DSE: factorial
  designs, resumable checkpointed runs, response-surface fits, and
  adversarial search for routability-breaking fault sets (the top-level
  name ``repro.campaign`` is the facade *verb* running one; the
  subpackage stays importable as ``from repro.campaign import ...``);
* :mod:`repro.obs` — metrics + structured JSONL run telemetry;
* :mod:`repro.results` — the result protocol every outcome object shares;
* :mod:`repro.api` — the one-stop facade over all of the above;
* :mod:`repro.instances` — the exact instances drawn in the paper's
  figures.

Quickstart::

    import repro

    levels = repro.compute_levels(4, ["0011", "0100", "0110", "1001"])
    result = repro.route(levels, "1110", "0001")
    print(result.summary())

The deep imports (``repro.routing.route_unicast`` and friends) remain
public and stable.
"""

from . import (
    analysis,
    api,
    broadcast,
    # The campaign subpackage is imported eagerly so it lands in
    # sys.modules *before* the facade rebinds the top-level name
    # ``repro.campaign`` to the callable verb below — after this,
    # ``from repro.campaign import CampaignSpec`` and
    # ``repro.campaign(spec)`` both work.
    campaign,
    chaos,
    core,
    instances,
    obs,
    results,
    routing,
    safety,
    simcore,
    viz,
)
from .api import (
    campaign,
    campaign_report,
    compute_levels,
    confirm_break,
    record_run,
    resume_campaign,
    route,
    route_batch,
    route_resilient,
    stats,
    sweep,
)
from .core import FaultSet, GeneralizedHypercube, Hypercube
from .results import ResultLike
from .routing import RouteResult, RouteStatus, SourceCondition
from .safety import SafetyLevels

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "api",
    "broadcast",
    "chaos",
    "core",
    "instances",
    "obs",
    "results",
    "routing",
    "safety",
    "simcore",
    "viz",
    "FaultSet",
    "GeneralizedHypercube",
    "Hypercube",
    "RouteResult",
    "RouteStatus",
    "SourceCondition",
    "ResultLike",
    "SafetyLevels",
    "compute_levels",
    "route",
    "route_batch",
    "route_resilient",
    "sweep",
    "record_run",
    "stats",
    "campaign",
    "resume_campaign",
    "campaign_report",
    "confirm_break",
    "__version__",
]
