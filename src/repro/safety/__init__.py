"""Safety-level machinery: Definition 1 and its rivals, GS/EGS, GH levels.

The central objects:

* :class:`SafetyLevels` — the unique Definition-1 assignment for a faulty
  binary cube (vectorized fixed point).
* :func:`run_gs` — the same assignment produced by the *distributed* GS
  protocol on the simulator, with round/message accounting.
* :func:`lee_hayes_safe` / :func:`wu_fernandez_safe` — the competing
  safe-node definitions (Definitions 2 and 3).
* :class:`ExtendedSafetyLevels` — the Section 4.1 two-view assignment for
  cubes with faulty links.
* :class:`GhSafetyLevels` — the Section 4.2 assignment for generalized
  hypercubes.
"""

from .generalized import (
    GhSafetyLevels,
    compute_gh_safety_levels,
    gh_levels_with_rounds,
)
from .dynamic import (
    DynamicLevelTracker,
    DynamicRunResult,
    IncrementalLevelView,
)
from .egs_distributed import EgsProcess, EgsRun, run_egs
from .gh_distributed import GhGsRun, GhStatusProcess, run_gh_gs
from .gs_async import AsyncGsProcess, AsyncGsRun, run_gs_async
from .gs import (
    GsProcess,
    GsRun,
    compute_levels_with_rounds,
    run_gs,
    stabilization_rounds_batch,
    stabilization_rounds_fast,
)
from .incremental import DeltaStats, IncrementalLevelEngine
from .levels import (
    LevelsWorkspace,
    SafetyLevels,
    compute_safety_levels,
    compute_safety_levels_async,
    compute_safety_levels_batch,
    level_from_sorted,
    level_of_node,
    verify_fixed_point,
)
from .link_faults import ExtendedSafetyLevels, compute_extended_levels
from .properties import (
    SafeSetComparison,
    gh_theorem2_violations,
    property2_violations,
    safe_set_chain,
    theorem2_violations,
)
from .safe_nodes import SafeNodeResult, lee_hayes_safe, wu_fernandez_safe

__all__ = [
    "DynamicLevelTracker",
    "DynamicRunResult",
    "IncrementalLevelView",
    "EgsProcess",
    "EgsRun",
    "run_egs",
    "GhGsRun",
    "GhStatusProcess",
    "run_gh_gs",
    "GhSafetyLevels",
    "compute_gh_safety_levels",
    "gh_levels_with_rounds",
    "AsyncGsProcess",
    "AsyncGsRun",
    "run_gs_async",
    "GsProcess",
    "GsRun",
    "compute_levels_with_rounds",
    "run_gs",
    "stabilization_rounds_batch",
    "stabilization_rounds_fast",
    "DeltaStats",
    "IncrementalLevelEngine",
    "LevelsWorkspace",
    "SafetyLevels",
    "compute_safety_levels",
    "compute_safety_levels_async",
    "compute_safety_levels_batch",
    "level_from_sorted",
    "level_of_node",
    "verify_fixed_point",
    "ExtendedSafetyLevels",
    "compute_extended_levels",
    "SafeSetComparison",
    "property2_violations",
    "gh_theorem2_violations",
    "safe_set_chain",
    "theorem2_violations",
    "SafeNodeResult",
    "lee_hayes_safe",
    "wu_fernandez_safe",
]
