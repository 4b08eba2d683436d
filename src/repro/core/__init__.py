"""Core substrate: addresses, topologies, faults, oracle connectivity.

Everything above this layer (safety levels, routing, the simulator) treats
these as the ground the system stands on.  Nothing here knows about safety
levels or routing.
"""

from . import bits
from .disjoint_paths import (
    count_optimal_paths,
    disjoint_optimal_paths,
    verify_node_disjoint,
)
from .faults import FaultSet, normalize_link
from .fault_models import (
    FaultEvent,
    FaultSchedule,
    clustered_node_faults,
    isolating_faults,
    mixed_faults,
    random_fault_schedule,
    subcube_faults,
    uniform_link_faults,
    uniform_node_faults,
)
from .generalized import GeneralizedHypercube
from .hypercube import Hypercube, neighbor_table
from .partition import (
    UNREACHABLE,
    bfs_distances,
    component_of,
    components,
    is_connected,
    path_is_fault_free,
    reachable_set,
    same_component,
    shortest_path,
)
from .topology import Topology

__all__ = [
    "bits",
    "count_optimal_paths",
    "disjoint_optimal_paths",
    "verify_node_disjoint",
    "FaultSet",
    "normalize_link",
    "FaultEvent",
    "FaultSchedule",
    "clustered_node_faults",
    "isolating_faults",
    "mixed_faults",
    "random_fault_schedule",
    "subcube_faults",
    "uniform_link_faults",
    "uniform_node_faults",
    "GeneralizedHypercube",
    "Hypercube",
    "neighbor_table",
    "Topology",
    "UNREACHABLE",
    "bfs_distances",
    "component_of",
    "components",
    "is_connected",
    "path_is_fault_free",
    "reachable_set",
    "same_component",
    "shortest_path",
]
