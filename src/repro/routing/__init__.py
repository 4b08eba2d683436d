"""Routing layer: the paper's safety-level unicast plus all baselines.

Entry points:

* :func:`route_unicast` — the Section 3.2 algorithm as a fast deterministic
  walk over a :class:`~repro.safety.SafetyLevels` assignment.
* :func:`route_unicast_distributed` — the same protocol executed by node
  processes on the simulator.
* :func:`check_feasibility` — the source-side C1/C2/C3 tests alone.
* :func:`route_unicast_batch` — the same algorithm vectorized over whole
  (trials × pairs) route matrices, bit-identical to the scalar walk and
  to :func:`check_feasibility` (see :mod:`repro.routing.batch`).
* :func:`route_unicast_resilient` — the distributed protocol hardened
  with hop ACKs, retries, and reconvergence for mid-flight faults (see
  :mod:`repro.routing.resilient` and the chaos harness).
* :func:`route_unicast_with_links` — the Section 4.1 variant over EGS.
* :func:`route_gh_unicast` — the Section 4.2 variant for generalized cubes.
* :mod:`repro.routing.baselines` — oracle, sidetracking, DFS, progressive,
  and safe-node routers for the comparison experiments.
"""

from . import navigation
from .adaptive import AdaptiveRouteOutcome, route_unicast_adaptive
from .batch import BatchRouteResult, route_unicast_batch
from .baselines import (
    route_chiu_wu_style,
    route_dfs,
    route_lee_hayes,
    route_oracle,
    route_progressive,
    route_sidetrack,
)
from .distributed import UnicastProcess, route_unicast_distributed
from .generalized import route_gh_unicast
from .gh_distributed import route_gh_unicast_distributed
from .link_fault_distributed import route_unicast_with_links_distributed
from .link_fault_routing import route_unicast_with_links
from .multicast import (
    MulticastResult,
    multicast_greedy_tree,
    multicast_separate,
)
from .resilient import (
    AttemptRecord,
    ResilientResult,
    ResilientUnicastProcess,
    route_unicast_resilient,
)
from .result import RouteResult, RouteStatus, SourceCondition
from .safety_unicast import Feasibility, check_feasibility, route_unicast
from .validation import assert_compliant, audit_route, audit_theorem3

__all__ = [
    "navigation",
    "AdaptiveRouteOutcome",
    "route_unicast_adaptive",
    "route_chiu_wu_style",
    "route_dfs",
    "route_lee_hayes",
    "route_oracle",
    "route_progressive",
    "route_sidetrack",
    "UnicastProcess",
    "route_unicast_distributed",
    "AttemptRecord",
    "ResilientResult",
    "ResilientUnicastProcess",
    "route_unicast_resilient",
    "route_gh_unicast",
    "route_gh_unicast_distributed",
    "route_unicast_with_links",
    "route_unicast_with_links_distributed",
    "MulticastResult",
    "multicast_greedy_tree",
    "multicast_separate",
    "RouteResult",
    "RouteStatus",
    "SourceCondition",
    "Feasibility",
    "check_feasibility",
    "route_unicast",
    "BatchRouteResult",
    "route_unicast_batch",
    "assert_compliant",
    "audit_route",
    "audit_theorem3",
]
