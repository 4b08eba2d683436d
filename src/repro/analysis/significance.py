"""Statistical backing for the E9 comparisons.

The comparison tables report rates; this module says whether differences
are *real*.  All routers run on identical (instance, pair) workloads, so
the natural tests are paired:

* :func:`paired_delivery_test` — exact binomial sign test on discordant
  pairs (scheme A delivered, B did not, and vice versa),
* :func:`paired_detour_test` — Wilcoxon signed-rank on per-pair detours
  restricted to pairs both schemes delivered,
* :func:`significance_table` — runs both for a set of scheme pairs and
  prints effect sizes with p-values.

scipy provides the distributions.  It is imported on the first call of
:func:`paired_delivery_test` or :func:`paired_detour_test`, not with this
module: ``import repro`` loads this module, and the kernels and the
service never need scipy.  Everything stays seeded and paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import partition
from ..core.fault_models import uniform_node_faults
from ..core.hypercube import Hypercube
from .comparison import _make_router
from .montecarlo import iter_trial_rngs
from .tables import Table

__all__ = [
    "PairedOutcomes",
    "collect_paired_outcomes",
    "paired_delivery_test",
    "paired_detour_test",
    "significance_table",
]


@dataclass
class PairedOutcomes:
    """Per-(instance, pair) outcomes for two schemes on shared workloads."""

    scheme_a: str
    scheme_b: str
    #: Delivery indicator per attempt, aligned across schemes.
    delivered_a: List[bool]
    delivered_b: List[bool]
    #: Detours for attempts *both* schemes delivered.
    detours_a: List[int]
    detours_b: List[int]


def collect_paired_outcomes(
    scheme_a: str,
    scheme_b: str,
    n: int = 7,
    num_faults: int = 14,
    trials: int = 40,
    pairs_per_trial: int = 8,
    seed: int = 131,
) -> PairedOutcomes:
    """Run both schemes over identical seeded workloads."""
    topo = Hypercube(n)
    out = PairedOutcomes(scheme_a=scheme_a, scheme_b=scheme_b,
                         delivered_a=[], delivered_b=[],
                         detours_a=[], detours_b=[])
    for rng in iter_trial_rngs(seed, trials):
        faults = uniform_node_faults(topo, num_faults, rng)
        router_a = _make_router(scheme_a, topo, faults)
        router_b = _make_router(scheme_b, topo, faults)
        alive = faults.nonfaulty_nodes(topo)
        for _ in range(pairs_per_trial):
            i, j = rng.choice(len(alive), size=2, replace=False)
            s, d = alive[int(i)], alive[int(j)]
            if not partition.same_component(topo, faults, s, d):
                continue
            res_a = router_a(s, d, rng)
            res_b = router_b(s, d, rng)
            out.delivered_a.append(res_a.delivered)
            out.delivered_b.append(res_b.delivered)
            if res_a.delivered and res_b.delivered:
                assert res_a.detour is not None and res_b.detour is not None
                out.detours_a.append(res_a.detour)
                out.detours_b.append(res_b.detour)
    return out


def paired_delivery_test(outcomes: PairedOutcomes) -> Tuple[int, int, float]:
    """Exact sign test on discordant delivery outcomes.

    Returns ``(a_only, b_only, p_value)`` where ``a_only`` counts attempts
    only scheme A delivered.  Under the null (no difference) discordant
    attempts split 50/50; the p-value is the two-sided exact binomial.
    """
    a_only = sum(1 for a, b in zip(outcomes.delivered_a,
                                   outcomes.delivered_b) if a and not b)
    b_only = sum(1 for a, b in zip(outcomes.delivered_a,
                                   outcomes.delivered_b) if b and not a)
    discordant = a_only + b_only
    if discordant == 0:
        return a_only, b_only, 1.0
    from scipy import stats

    p = stats.binomtest(a_only, discordant, 0.5).pvalue
    return a_only, b_only, float(p)


def paired_detour_test(outcomes: PairedOutcomes) -> Tuple[float, float]:
    """Wilcoxon signed-rank test on per-pair detours (both-delivered).

    Returns ``(mean_difference, p_value)``; p = 1 when every difference is
    zero (the test is undefined there, and there is nothing to detect).
    """
    a = np.asarray(outcomes.detours_a)
    b = np.asarray(outcomes.detours_b)
    if a.size == 0:
        return 0.0, 1.0
    diff = a - b
    mean_diff = float(diff.mean())
    if not diff.any():
        return mean_diff, 1.0
    from scipy import stats

    res = stats.wilcoxon(a, b, zero_method="wilcox")
    return mean_diff, float(res.pvalue)


def significance_table(
    baseline: str = "safety-level",
    rivals: Sequence[str] = ("sidetrack", "dfs-backtrack", "lee-hayes"),
    n: int = 7,
    num_faults: int = 14,
    trials: int = 40,
    pairs_per_trial: int = 8,
    seed: int = 131,
) -> Table:
    """Paired significance tests of the baseline against each rival."""
    table = Table(
        caption=f"E9b — paired significance vs {baseline}, Q{n}, "
                f"{num_faults} faults ({trials} fault sets x "
                f"{pairs_per_trial} pairs; sign test on deliveries, "
                "Wilcoxon on detours)",
        headers=["rival", "base-only", "rival-only", "delivery p",
                 "mean detour diff", "detour p"],
        float_digits=4,
    )
    for rival in rivals:
        outcomes = collect_paired_outcomes(
            baseline, rival, n=n, num_faults=num_faults, trials=trials,
            pairs_per_trial=pairs_per_trial, seed=seed)
        a_only, b_only, p_del = paired_delivery_test(outcomes)
        mean_diff, p_det = paired_detour_test(outcomes)
        table.add_row(rival, a_only, b_only, p_del, mean_diff, p_det)
    return table
