"""The unified experiment registry plus the per-figure walk-throughs.

Two things live here:

* the per-figure reports (E1, E4, E5, E6) and the broadcast table (E11) —
  printable reproductions generated by the actual algorithms (nothing
  hard-coded except the instance and the expected values being checked
  against);
* the **experiment registry**: every ``repro.analysis`` experiment is
  declared as an :class:`ExperimentSpec` and invoked through the one
  signature ``spec.run(*, trials, seed, jobs, recorder, quick)``.  The
  CLI, the campaign runner (:mod:`repro.campaign`) and programmatic
  callers all drive experiments only through this interface, so flags
  mean the same thing everywhere: ``trials`` overrides the declared
  quick/full default, ``seed`` reaches runners that take one (``None``
  means each experiment's canonical published seed), ``jobs`` fans
  Monte-Carlo sweeps out deterministically, and ``recorder`` installs a
  :class:`repro.obs.RunRecorder` as the ambient telemetry sink for the
  duration of the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..broadcast import (
    broadcast_binomial,
    broadcast_flooding,
    broadcast_safety_binomial,
    broadcast_safety_binomial_patched,
)
from ..core import partition
from ..core.fault_models import uniform_node_faults
from ..core.hypercube import Hypercube
from ..instances import (
    FIG1_EXPECTED_LEVELS,
    FIG3_EXPECTED_LEVELS,
    fig1_instance,
    fig3_instance,
    fig4_instance,
    fig5_instance,
)
from ..routing import (
    check_feasibility,
    route_gh_unicast,
    route_unicast,
    route_unicast_with_links,
)
from ..safety import (
    GhSafetyLevels,
    SafetyLevels,
    compute_extended_levels,
    lee_hayes_safe,
    run_gs,
    wu_fernandez_safe,
)
from .montecarlo import summarize
from .sweep import map_trials
from .tables import Table

__all__ = [
    "fig1_report",
    "fig3_report",
    "fig4_report",
    "fig5_report",
    "broadcast_table",
    "RunContext",
    "ExperimentSpec",
    "REGISTRY",
    "register",
    "get_experiment",
    "iter_experiments",
]


def fig1_report() -> str:
    """E1: Fig. 1 safety levels plus the two Section 3.2 unicasts."""
    topo, faults = fig1_instance()
    sl = SafetyLevels.compute(topo, faults)
    gs = run_gs(topo, faults)
    lines = [
        "E1 / Fig. 1 — four-cube with faults "
        f"{faults.describe(topo)}",
        "",
        sl.render(),
        "",
        f"distributed GS stabilized in round {gs.stabilization_round} "
        f"(paper: stable after two rounds) using {gs.messages_sent} messages",
        "",
    ]
    mismatches = [
        a for a, expected in FIG1_EXPECTED_LEVELS.items()
        if sl.level(topo.parse_node(a)) != expected
    ]
    lines.append(
        "levels match the paper figure: "
        + ("yes" if not mismatches else f"NO, differs at {mismatches}")
    )
    for s, d in (("1110", "0001"), ("0001", "1100")):
        res = route_unicast(sl, topo.parse_node(s), topo.parse_node(d))
        lines.append(res.describe(topo.format_node))
    return "\n".join(lines)


def fig3_report() -> str:
    """E4: the disconnected four-cube — deliveries, clean aborts, Thm 4."""
    topo, faults = fig3_instance()
    sl = SafetyLevels.compute(topo, faults)
    comps = partition.components(topo, faults)
    lines = [
        f"E4 / Fig. 3 — disconnected four-cube, {faults.describe(topo)}",
        "",
        sl.render(),
        "",
        "components: "
        + " / ".join(
            "{" + ", ".join(topo.format_node(v) for v in comp) + "}"
            for comp in comps
        ),
        "",
    ]
    for s, d in (("0101", "0000"), ("0111", "1011"), ("0111", "1110")):
        res = route_unicast(sl, topo.parse_node(s), topo.parse_node(d))
        lines.append(res.describe(topo.format_node))
    # Every unicast initiated at the marooned node must be infeasible.
    marooned = topo.parse_node("1110")
    all_fail = all(
        not check_feasibility(sl, marooned, d).feasible
        for d in topo.iter_nodes()
        if d != marooned and not faults.is_node_faulty(d)
    )
    lines.append(
        f"all unicasts from 1110 detected infeasible at the source: "
        f"{'yes' if all_fail else 'NO'}"
    )
    lines.append(
        "Theorem 4 — safe sets on this disconnected cube: "
        f"Lee-Hayes={lee_hayes_safe(topo, faults).num_safe}, "
        f"Wu-Fernandez={wu_fernandez_safe(topo, faults).num_safe} "
        "(both must be 0)"
    )
    mismatches = [
        a for a, expected in FIG3_EXPECTED_LEVELS.items()
        if sl.level(topo.parse_node(a)) != expected
    ]
    lines.append(
        "levels match the recorded assignment: "
        + ("yes" if not mismatches else f"NO, differs at {mismatches}")
    )
    return "\n".join(lines)


def fig4_report() -> str:
    """E5: node+link faults — EGS two views and the suboptimal route."""
    topo, faults = fig4_instance()
    ext = compute_extended_levels(topo, faults)
    lines = [
        f"E5 / Fig. 4 — four-cube with {faults.describe(topo)}",
        "",
        ext.render(),
        "",
        f"S_self(1000) = {ext.own_level(topo.parse_node('1000'))} "
        "(paper: 1-safe)",
        f"S_self(1001) = {ext.own_level(topo.parse_node('1001'))} "
        "(paper: 2-safe)",
        f"S(1111) = {ext.own_level(topo.parse_node('1111'))} (paper: 4)",
    ]
    res = route_unicast_with_links(
        ext, topo.parse_node("1101"), topo.parse_node("1000")
    )
    lines.append(res.describe(topo.format_node))
    lines.append(
        "paper route 1101 -> 1111 -> 1011 -> 1010 -> 1000 reproduced: "
        + ("yes" if [topo.format_node(v) for v in res.path]
           == ["1101", "1111", "1011", "1010", "1000"] else "NO")
    )
    return "\n".join(lines)


def fig5_report() -> str:
    """E6: the 2x3x2 generalized hypercube walk-through."""
    gh, faults = fig5_instance()
    sl = GhSafetyLevels.compute(gh, faults)
    lines = [
        f"E6 / Fig. 5 — GH(2x3x2) with {faults.describe(gh)}",
        "",
        sl.render(),
        "",
        f"safe nodes: "
        + "{" + ", ".join(sorted(gh.format_node(v)
                                 for v in sl.safe_set())) + "}"
        + f" (paper: four safe nodes)",
        f"S(110) = {sl.level(gh.parse_node('110'))} "
        "(paper: 1, ineligible for the 010 -> 101 unicast)",
        f"011 faulty: {faults.is_node_faulty(gh.parse_node('011'))} "
        "(paper: the dimension-0 neighbor of 010 is faulty)",
    ]
    res = route_gh_unicast(sl, gh.parse_node("010"), gh.parse_node("101"))
    lines.append(res.describe(gh.format_node))
    lines.append(
        "paper route 010 -> 000 -> 001 -> 101 reproduced: "
        + ("yes" if [gh.format_node(v) for v in res.path]
           == ["010", "000", "001", "101"] else "NO")
    )
    return "\n".join(lines)


#: Broadcast scheme keys in table-column order.
_BROADCAST_KEYS = ("flood", "bin", "sb", "sbp")


def _broadcast_trial(rng, n: int, num_faults: int):
    """One E11 trial: ``{scheme: (coverage, messages)}`` for each strategy.

    Module level so the sweep engine can fan trials out to pool workers.
    """
    topo = Hypercube(n)
    faults = uniform_node_faults(topo, num_faults, rng)
    sl = SafetyLevels.compute(topo, faults)
    alive = faults.nonfaulty_nodes(topo)
    source = alive[int(rng.integers(len(alive)))]
    out = {}
    for key, result in (
        ("flood", broadcast_flooding(topo, faults, source)),
        ("bin", broadcast_binomial(topo, faults, source)),
        ("sb", broadcast_safety_binomial(sl, source)),
        ("sbp", broadcast_safety_binomial_patched(sl, source, 2)),
    ):
        out[key] = (result.coverage_fraction(topo, faults), result.messages)
    return out


def broadcast_table(
    n: int = 7,
    fault_counts: Sequence[int] = (0, 2, 4, 6, 10, 16),
    trials: int = 60,
    seed: int = 41,
    jobs: int | None = None,
) -> Table:
    """E11: broadcast strategies — coverage vs message cost."""
    table = Table(
        caption=f"E11 — broadcast extension, Q{n}, {trials} trials/row: "
                "coverage of reachable nodes vs messages",
        headers=["faults", "flood cov%", "flood msgs",
                 "binomial cov%", "binomial msgs",
                 "safety-binomial cov%", "safety msgs",
                 "patched(2) cov%", "patched msgs"],
    )
    for f in fault_counts:
        per_trial = map_trials(_broadcast_trial, seed + f, trials,
                               jobs=jobs, args=(n, f))
        cov = {key: [t[key][0] for t in per_trial]
               for key in _BROADCAST_KEYS}
        msg = {key: [t[key][1] for t in per_trial]
               for key in _BROADCAST_KEYS}
        table.add_row(
            f,
            100 * summarize(cov["flood"]).mean, summarize(msg["flood"]).mean,
            100 * summarize(cov["bin"]).mean, summarize(msg["bin"]).mean,
            100 * summarize(cov["sb"]).mean, summarize(msg["sb"]).mean,
            100 * summarize(cov["sbp"]).mean, summarize(msg["sbp"]).mean,
        )
    return table


# -- the unified experiment registry ----------------------------------------


@dataclass(frozen=True)
class RunContext:
    """What a runner receives: the shared flags, with trials resolved.

    ``trials`` is the explicit override if given, else the experiment's
    declared quick/full default (``None`` for experiments without a trial
    knob).  ``seed`` is ``None`` unless the caller asked to depart from
    the experiment's canonical published seed.  ``jobs`` is already in
    force via the sweep engine's environment knob when the runner starts;
    it is surfaced here for runners that pass an explicit ``jobs=``
    argument down.  ``recorder`` (if any) is also already installed as
    the ambient :mod:`repro.obs` recorder.
    """

    quick: bool = False
    trials: Optional[int] = None
    seed: Optional[int] = None
    jobs: Optional[int] = None
    recorder: Optional[Any] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: name -> runner -> default trial counts."""

    name: str
    description: str
    runner: Callable[[RunContext], str]
    quick_trials: Optional[int] = None
    full_trials: Optional[int] = None

    @property
    def flags(self) -> Tuple[str, ...]:
        """The CLI flags this experiment accepts (``repro list`` prints
        these).  Every experiment shares the observability and execution
        flags; the trial knob appears only when the experiment has one."""
        out = ["--quick"]
        if self.full_trials is not None:
            out.append("--trials N")
        out.extend(["--jobs N", "--seed N", "--metrics-out PATH",
                    "--save DIR"])
        return tuple(out)

    def resolve_trials(self, quick: bool,
                       trials: Optional[int]) -> Optional[int]:
        if trials is not None:
            return trials
        return self.quick_trials if quick else self.full_trials

    def run(self, *, trials: Optional[int] = None,
            seed: Optional[int] = None, jobs: Optional[int] = None,
            recorder: Optional[Any] = None, quick: bool = False) -> str:
        """Execute the runner under the shared-flag contract.

        The signature every caller — CLI, campaign runner, notebooks —
        goes through.  ``jobs`` is installed as the sweep engine's
        environment knob for the duration (so it reaches every
        ``map_trials`` call, not just runners with a ``jobs=``
        parameter); ``recorder`` becomes the ambient telemetry sink.
        """
        ctx = RunContext(quick=quick,
                         trials=self.resolve_trials(quick, trials),
                         seed=seed, jobs=jobs, recorder=recorder)
        from ..obs.instruments import set_recorder
        from .sweep import JOBS_ENV_VAR

        previous_jobs = os.environ.get(JOBS_ENV_VAR)
        previous_recorder = None
        if jobs is not None:
            os.environ[JOBS_ENV_VAR] = str(int(jobs))
        if recorder is not None:
            previous_recorder = set_recorder(recorder)
        try:
            return self.runner(ctx)
        finally:
            if recorder is not None:
                set_recorder(previous_recorder)
            if jobs is not None:
                if previous_jobs is None:
                    os.environ.pop(JOBS_ENV_VAR, None)
                else:
                    os.environ[JOBS_ENV_VAR] = previous_jobs


#: The experiment registry: name -> :class:`ExperimentSpec`.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(name: str, description: str, quick: Optional[int] = None,
             full: Optional[int] = None):
    """Declare one experiment; decorates a ``runner(ctx) -> str``."""

    def deco(fn: Callable[[RunContext], str]) -> Callable[[RunContext], str]:
        if name in REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        REGISTRY[name] = ExperimentSpec(name=name, description=description,
                                        runner=fn, quick_trials=quick,
                                        full_trials=full)
        return fn

    return deco


def get_experiment(name: str) -> ExperimentSpec:
    """Look one experiment up, with a helpful error for unknown names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: "
            f"{', '.join(sorted(REGISTRY))}") from None


def iter_experiments() -> Iterator[ExperimentSpec]:
    """Registered experiments in name order."""
    for name in sorted(REGISTRY):
        yield REGISTRY[name]


# -- the experiments --------------------------------------------------------


@register("fig1", "Fig. 1 safety levels + Section 3.2 unicasts (E1)")
def _fig1(ctx: RunContext) -> str:
    return fig1_report()


@register("fig2", "Fig. 2 average GS rounds vs faults, 7-cubes (E2)",
          quick=100, full=1000)
def _fig2(ctx: RunContext) -> str:
    from .rounds import fig2_series

    counts = list(range(1, 15 if ctx.quick else 41))
    return fig2_series(trials=ctx.trials, fault_counts=counts).render(
        extra_labels=["max_rounds"]
    )


@register("fig3", "Fig. 3 disconnected cube + Theorem 4 (E4)")
def _fig3(ctx: RunContext) -> str:
    return fig3_report()


@register("fig4", "Fig. 4 node+link faults, EGS routing (E5)")
def _fig4(ctx: RunContext) -> str:
    return fig4_report()


@register("fig5", "Fig. 5 generalized hypercube routing (E6)")
def _fig5(ctx: RunContext) -> str:
    return fig5_report()


@register("safesets", "Section 2.3 safe-set comparison (E3)",
          quick=50, full=200)
def _safesets(ctx: RunContext) -> str:
    from .safe_sets import safe_set_sweep_table, section23_table

    return "\n\n".join([
        section23_table().render(),
        safe_set_sweep_table(trials=ctx.trials).render(),
    ])


@register("routability", "unicast guarantee sweep (E7)", quick=40, full=200)
def _routability(ctx: RunContext) -> str:
    from .routability import routability_table

    return routability_table(trials=ctx.trials).render()


@register("rounds-compare", "GS vs LH vs WF rounds (E8)", quick=60, full=300)
def _rounds_compare(ctx: RunContext) -> str:
    from .rounds import rounds_comparison_table

    dims = (4, 5, 6) if ctx.quick else (4, 5, 6, 7, 8)
    return rounds_comparison_table(dims=dims, trials=ctx.trials).render()


@register("compare", "router shoot-out (E9)", quick=15, full=60)
def _compare(ctx: RunContext) -> str:
    from .comparison import comparison_table

    tables = comparison_table(trials=ctx.trials)
    return "\n\n".join(tbl.render() for tbl in tables)


@register("disconnected", "disconnected-cube sweep (E10)", quick=40, full=150)
def _disconnected(ctx: RunContext) -> str:
    from .disconnected import disconnected_table

    dims = (4, 5) if ctx.quick else (4, 5, 6, 7)
    return disconnected_table(dims=dims, trials=ctx.trials).render()


@register("broadcast", "broadcast extension (E11)", quick=20, full=60)
def _broadcast(ctx: RunContext) -> str:
    return broadcast_table(trials=ctx.trials).render()


@register("ablation", "tie-break + GS policy ablations (E12)",
          quick=20, full=60)
def _ablation(ctx: RunContext) -> str:
    from .ablation import gs_policy_table, tie_break_table

    return "\n\n".join([
        tie_break_table(trials=ctx.trials).render(),
        gs_policy_table(trials=max(5, ctx.trials // 3)).render(),
    ])


@register("dynamic", "dynamic fault maintenance policies (E13)",
          quick=4, full=10)
def _dynamic(ctx: RunContext) -> str:
    from .dynamic import dynamic_policy_table

    horizon = 15 if ctx.quick else 40
    return dynamic_policy_table(trials=ctx.trials, horizon=horizon).render()


@register("conservatism", "safety level vs exact reach radius (E14)",
          quick=10, full=40)
def _conservatism(ctx: RunContext) -> str:
    from .conservatism import conservatism_table

    return conservatism_table(trials=ctx.trials).render()


@register("traffic", "link-load distribution across schemes (E15)",
          quick=3, full=10)
def _traffic(ctx: RunContext) -> str:
    from .traffic import traffic_table

    return traffic_table(batches=ctx.trials).render()


@register("contention", "latency under link contention (E16)",
          quick=3, full=6)
def _contention(ctx: RunContext) -> str:
    from .contention import contention_table

    loads = (16, 64) if ctx.quick else (16, 64, 256)
    return contention_table(trials=ctx.trials, loads=loads).render()


@register("sensitivity", "fault-distribution sensitivity (E17)",
          quick=20, full=60)
def _sensitivity(ctx: RunContext) -> str:
    from .sensitivity import sensitivity_table

    return sensitivity_table(trials=ctx.trials).render()


@register("multicast", "multicast tree vs separate unicasts (E18)",
          quick=10, full=30)
def _multicast(ctx: RunContext) -> str:
    from .multicast_experiment import multicast_table

    return multicast_table(trials=ctx.trials).render()


@register("worstcase", "tightness of the n-1 round bound (E19)")
def _worstcase(ctx: RunContext) -> str:
    from ..safety import stabilization_rounds_fast
    from .worstcase import find_slow_instance, isolation_cascade_instance

    table = Table(
        caption="E19 — Property 1's n-1 bound is tight: the isolation "
                "cascade meets it exactly; hill-climbing search approaches "
                "it from random starts",
        headers=["n", "bound n-1", "cascade rounds", "search rounds"],
    )
    dims = (4, 5, 6) if ctx.quick else (4, 5, 6, 7, 8)
    restarts = 2 if ctx.quick else 4
    for n in dims:
        topo, faults = isolation_cascade_instance(n)
        cascade = stabilization_rounds_fast(topo, faults)
        _f, searched = find_slow_instance(n, n, rng=n, restarts=restarts,
                                          steps_per_restart=120)
        table.add_row(n, n - 1, cascade, searched)
    return table.render()


@register("significance", "paired significance tests for E9 (E9b)",
          quick=15, full=40)
def _significance(ctx: RunContext) -> str:
    from .significance import significance_table

    return significance_table(trials=ctx.trials).render()


@register("volume", "message volume: the history tax (E9c)",
          quick=15, full=40)
def _volume(ctx: RunContext) -> str:
    from .volume import volume_table

    return volume_table(trials=ctx.trials).render()


@register("connectivity", "disconnection probability vs fault count (E20)",
          quick=60, full=300)
def _connectivity(ctx: RunContext) -> str:
    from .connectivity import disconnection_probability_table

    return disconnection_probability_table(trials=ctx.trials).render()


@register("chaos", "resilient delivery under mid-flight faults (E21)",
          quick=25, full=120)
def _chaos(ctx: RunContext) -> str:
    from .chaos_experiment import chaos_table

    n = 4 if ctx.quick else 5
    return chaos_table(trials=ctx.trials, n=n,
                       seed=ctx.seed if ctx.seed is not None else 0).render()


@register("failover", "self-healing shard failover soak (E23)")
def _failover(ctx: RunContext) -> str:
    from .failover_soak import run_failover_soak

    report = run_failover_soak(quick=ctx.quick)
    table = Table(
        caption="E23 — chaos-driven shard failover under open-loop load "
                f"({report['requests']} requests at "
                f"{report['offered_rps']:.0f} rps over "
                f"{report['shards']} shards): every accepted request "
                f"answered exactly once (lost={report['lost']}, "
                f"duplicates={report['duplicates']}, "
                f"disrupted={report['disrupted']}); post-failover routing "
                f"bit-identical to the offline kernel on "
                f"{report['verified_routes']} journal-recovered routes; "
                f"steady p99 {report['steady_p99_ms']:.1f} ms, recovery "
                f"p99 {report['recovery_p99_ms']:.1f} ms (ceiling "
                f"{report['recovery_ceiling_ms']:.0f} ms)",
        headers=["shard", "detected", "tenants moved", "epochs replayed",
                 "failover ms"],
    )
    for kill in report["kills"]:
        table.add_row(kill["shard"], kill["detected"],
                      kill["tenants_moved"], kill["epochs_replayed"],
                      kill["failover_ms"])
    return table.render()


@register("scorecard", "one-pass PASS/FAIL check of every headline claim")
def _scorecard(ctx: RunContext) -> str:
    from .scorecard import render_scorecard, scorecard

    return render_scorecard(scorecard())
