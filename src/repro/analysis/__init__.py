"""Experiment harness: one runner per paper table/figure plus extensions.

See DESIGN.md's per-experiment index (E1–E12) for the mapping from paper
artifacts to the functions exported here.
"""

from .ablation import gs_policy_table, tie_break_table
from .chaos_experiment import (
    CHAOS_PROFILES,
    chaos_records,
    chaos_sweep,
    chaos_table,
)
from .connectivity import (
    connectivity_threshold_holds,
    disconnection_probability_table,
)
from .conservatism import conservatism_table, reach_radii, reach_radius
from .contention import (
    contention_table,
    make_oracle_policy,
    make_safety_policy,
    make_sidetrack_policy,
)
from .multicast_experiment import multicast_table
from .reporting import load_payload, save_artifact, to_payload
from .volume import route_volume_words, volume_table
from .worstcase import find_slow_instance, isolation_cascade_instance
from .scorecard import ScoreLine, render_scorecard, scorecard
from .sensitivity import FAULT_MODELS, sensitivity_table
from .significance import (
    PairedOutcomes,
    collect_paired_outcomes,
    paired_delivery_test,
    paired_detour_test,
    significance_table,
)
from .dynamic import (
    dynamic_policy_table,
    route_with_stale_levels,
)
from .traffic import LoadStats, measure_link_load, traffic_table
from .comparison import (
    DEFAULT_ROUTERS,
    make_router,
    RouterScore,
    compare_routers,
    comparison_table,
)
from .disconnected import (
    DisconnectedStats,
    disconnected_sweep,
    disconnected_table,
)
from .experiments import (
    REGISTRY,
    ExperimentSpec,
    RunContext,
    broadcast_table,
    fig1_report,
    fig3_report,
    fig4_report,
    fig5_report,
    get_experiment,
    iter_experiments,
    register,
)
from .montecarlo import Summary, iter_trial_rngs, summarize, trial_rngs
from .sweep import (
    JOBS_ENV_VAR,
    TrialChunk,
    chunk_trials,
    map_trials,
    resolve_jobs,
    run_sweep,
)
from .rounds import (
    RoundsPoint,
    fig2_series,
    rounds_comparison_table,
    rounds_vs_faults,
)
from .routability import RoutabilityRow, routability_sweep, routability_table
from .safe_sets import safe_set_sweep_table, section23_table
from .tables import Series, Table

__all__ = [
    "gs_policy_table",
    "tie_break_table",
    "CHAOS_PROFILES",
    "chaos_records",
    "chaos_sweep",
    "chaos_table",
    "connectivity_threshold_holds",
    "disconnection_probability_table",
    "conservatism_table",
    "reach_radii",
    "reach_radius",
    "contention_table",
    "make_oracle_policy",
    "make_safety_policy",
    "make_sidetrack_policy",
    "multicast_table",
    "load_payload",
    "save_artifact",
    "to_payload",
    "find_slow_instance",
    "isolation_cascade_instance",
    "route_volume_words",
    "volume_table",
    "FAULT_MODELS",
    "sensitivity_table",
    "ScoreLine",
    "render_scorecard",
    "scorecard",
    "PairedOutcomes",
    "collect_paired_outcomes",
    "paired_delivery_test",
    "paired_detour_test",
    "significance_table",
    "dynamic_policy_table",
    "route_with_stale_levels",
    "LoadStats",
    "measure_link_load",
    "traffic_table",
    "DEFAULT_ROUTERS",
    "make_router",
    "RouterScore",
    "compare_routers",
    "comparison_table",
    "DisconnectedStats",
    "disconnected_sweep",
    "disconnected_table",
    "broadcast_table",
    "REGISTRY",
    "ExperimentSpec",
    "RunContext",
    "register",
    "get_experiment",
    "iter_experiments",
    "fig1_report",
    "fig3_report",
    "fig4_report",
    "fig5_report",
    "Summary",
    "summarize",
    "iter_trial_rngs",
    "trial_rngs",
    "JOBS_ENV_VAR",
    "TrialChunk",
    "chunk_trials",
    "map_trials",
    "resolve_jobs",
    "run_sweep",
    "RoundsPoint",
    "fig2_series",
    "rounds_comparison_table",
    "rounds_vs_faults",
    "RoutabilityRow",
    "routability_sweep",
    "routability_table",
    "safe_set_sweep_table",
    "section23_table",
    "Series",
    "Table",
]
