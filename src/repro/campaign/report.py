"""Campaign reporting: Markdown decision support + fit telemetry.

``render_report`` is a pure function of a campaign directory's contents
(pinned spec + checkpointed cells): the same completed campaign always
renders byte-identical Markdown, which is what the resume/`--jobs`
equivalence tests pin down.  The report has four sections:

1. header — campaign identity, design shape, completion state;
2. the cell table — every finished design point's aggregate responses;
3. fitted response surfaces (:mod:`repro.campaign.surface`);
4. a ranked decision-support table: per (dim, fault_model, chaos)
   scenario, policies ordered by a documented weighted score
   (delivery dominates; detour and retry costs discount it).

When an ambient/passed recorder is active, each fit is also emitted as a
``campaign_fit`` JSONL event through the standard observability hook.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.instruments import record, set_recorder
from .runner import CHECKPOINT_FILE, RESULTS_FILE, SPEC_FILE, _read_checkpoint
from .spec import CampaignSpec
from .surface import fit_surfaces

__all__ = ["render_report", "rank_policies", "POLICY_SCORE_WEIGHTS"]

#: Weighted-sum MCDM score: delivery dominates, path and retry overheads
#: discount it.  Score = w_d·delivery − w_h·mean_detour − w_r·mean_retries.
POLICY_SCORE_WEIGHTS: Dict[str, float] = {
    "delivery": 1.0,
    "detour": 0.02,
    "retries": 0.05,
}


def _fmt(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "—"
    return f"{value:.{digits}f}"


def rank_policies(
    lines: Sequence[Dict[str, Any]],
) -> List[Tuple[Tuple[int, str, str], List[Tuple[str, float, float]]]]:
    """Ranked policies per (dim, fault_model, chaos) scenario.

    Returns ``[(scenario, [(policy, score, mean_delivery), ...]), ...]``
    with scenarios sorted and policies scored by
    :data:`POLICY_SCORE_WEIGHTS` averaged over the scenario's fault
    counts, best first (ties broken by policy name for determinism).
    """
    buckets: Dict[Tuple[int, str, str],
                  Dict[str, List[Dict[str, Any]]]] = {}
    for line in lines:
        f = line["factors"]
        scenario = (int(f["dim"]), str(f["fault_model"]), str(f["chaos"]))
        buckets.setdefault(scenario, {}).setdefault(
            str(f["policy"]), []).append(line["responses"])

    w = POLICY_SCORE_WEIGHTS
    ranked = []
    for scenario in sorted(buckets):
        rows = []
        for policy, cells in sorted(buckets[scenario].items()):
            delivery = sum(c["delivery_rate"] for c in cells) / len(cells)
            detours = [c["mean_detour"] for c in cells
                       if c.get("mean_detour") is not None]
            retries = [c["mean_retries"] for c in cells
                       if c.get("mean_retries") is not None]
            score = (w["delivery"] * delivery
                     - w["detour"] * (sum(detours) / len(detours)
                                      if detours else 0.0)
                     - w["retries"] * (sum(retries) / len(retries)
                                       if retries else 0.0))
            rows.append((policy, round(score, 6), round(delivery, 6)))
        rows.sort(key=lambda r: (-r[1], r[0]))
        ranked.append((scenario, rows))
    return ranked


def _load_campaign_dir(
    path: Path,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """(pinned spec payload, finished cell lines in design order)."""
    spec_path = path / SPEC_FILE
    if not spec_path.exists():
        raise FileNotFoundError(
            f"{path} is not a campaign directory (no {SPEC_FILE})")
    pinned = json.loads(spec_path.read_text(encoding="utf-8"))
    results_path = path / RESULTS_FILE
    if results_path.exists():
        lines = [json.loads(line) for line in
                 results_path.read_text(encoding="utf-8").splitlines()
                 if line.strip()]
    else:
        done = _read_checkpoint(path / CHECKPOINT_FILE)
        lines = [done[index] for index in sorted(done)]
    return pinned, lines


def render_report(
    path: Union[str, Path],
    *,
    recorder: Optional[Any] = None,
) -> str:
    """Render the campaign's Markdown report from its directory.

    Works on finished *and* interrupted campaigns: an incomplete one is
    rendered from whatever cells the checkpoint holds, behind an explicit
    banner, so progress can be inspected mid-flight.
    """
    out = Path(path)
    pinned, lines = _load_campaign_dir(out)
    spec = CampaignSpec.from_dict(pinned["spec"])
    from .design import build_design  # cycle-free late import

    total = len(build_design(spec))
    fits = fit_surfaces(lines)

    if recorder is not None:
        previous = set_recorder(recorder)
    try:
        for fit in fits:
            record("campaign_fit", campaign=spec.name, **fit.to_dict())
    finally:
        if recorder is not None:
            set_recorder(previous)

    md: List[str] = []
    md.append(f"# Campaign report: {spec.name}")
    md.append("")
    md.append(f"- spec digest: `{pinned['digest']}`")
    md.append(f"- design: {spec.design} "
              f"({len(lines)}/{total} cells finished), "
              f"{spec.trials} trials/cell, seed {spec.seed}")
    md.append(f"- factors: dims={list(spec.dims)}, "
              f"fault_models={list(spec.fault_models)}, "
              f"fault_counts={list(spec.fault_counts)}, "
              f"chaos={list(spec.chaos_profiles)}, "
              f"policies={list(spec.policies)}")
    if len(lines) < total:
        md.append("")
        md.append(f"> **INCOMPLETE** — {total - len(lines)} cells pending; "
                  f"resume with `repro campaign resume {out}`.")
    md.append("")

    md.append("## Cells")
    md.append("")
    md.append("| cell | delivery | mean hops | detour | retries | latency |")
    md.append("|---|---|---|---|---|---|")
    for line in lines:
        r = line["responses"]
        md.append(
            f"| `{line['cell_id']}` | {_fmt(r['delivery_rate'])} "
            f"| {_fmt(r.get('mean_hops'))} | {_fmt(r.get('mean_detour'))} "
            f"| {_fmt(r.get('mean_retries'))} "
            f"| {_fmt(r.get('mean_latency'))} |")
    md.append("")

    if fits:
        md.append("## Response surfaces (vs fault count)")
        md.append("")
        md.append("| group | response | model | r² |")
        md.append("|---|---|---|---|")
        for fit in fits:
            group = (f"q{fit.dim}/{fit.fault_model}"
                     f"/chaos.{fit.chaos}/{fit.policy}")
            md.append(f"| `{group}` | {fit.response} | "
                      f"`{fit.equation()}` | {fit.r2:.3f} |")
        md.append("")

    ranked = rank_policies(lines)
    if ranked:
        md.append("## Decision support: policy ranking")
        md.append("")
        md.append(f"Score = {POLICY_SCORE_WEIGHTS['delivery']}·delivery − "
                  f"{POLICY_SCORE_WEIGHTS['detour']}·detour − "
                  f"{POLICY_SCORE_WEIGHTS['retries']}·retries, averaged "
                  "over the scenario's fault counts.")
        md.append("")
        md.append("| scenario | rank | policy | score | delivery |")
        md.append("|---|---|---|---|---|")
        for (dim, model, chaos), rows in ranked:
            scenario = f"q{dim}/{model}/chaos.{chaos}"
            for position, (policy, score, delivery) in enumerate(rows, 1):
                md.append(f"| `{scenario}` | {position} | {policy} "
                          f"| {score:.3f} | {delivery:.3f} |")
        md.append("")
        best = {scenario: rows[0][0] for scenario, rows in ranked if rows}
        if len(set(best.values())) == 1:
            md.append(f"**Recommendation:** `{next(iter(best.values()))}` "
                      "leads every scenario.")
        else:
            parts = [f"`{policy}` for q{dim}/{model}/chaos.{chaos}"
                     for (dim, model, chaos), policy in sorted(best.items())]
            md.append("**Recommendation:** " + "; ".join(parts) + ".")
        md.append("")

    return "\n".join(md)
