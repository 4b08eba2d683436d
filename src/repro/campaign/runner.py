"""Resumable campaign execution: design cells -> checkpointed results.

The runner walks the design in full-factorial order and evaluates each
cell as one seeded Monte-Carlo sweep.  Three properties are load-bearing:

* **Unified invocation.**  Every cell is wrapped in an ad-hoc
  :class:`~repro.analysis.experiments.ExperimentSpec` and executed through
  ``ExperimentSpec.run(trials=..., jobs=..., recorder=...)`` — the same
  interface the CLI drives registered experiments through — so worker
  count and telemetry plumbing have exactly one implementation.
* **Byte-identical determinism.**  A cell's trial stream depends only on
  the campaign seed and the cell's full-factorial index (via
  :meth:`Cell.seed`), and trials run through
  :func:`~repro.analysis.sweep.map_trials`; aggregates are computed in
  trial order from rounded floats.  Serial and ``--jobs N`` runs — and
  any interleaving of interrupt/resume — therefore produce the same
  ``results.jsonl`` and ``report.md`` bytes.
* **Crash-safe resume.**  Completed cells append one canonical-JSON line
  to ``cells.jsonl`` (the checkpoint); a torn final line from a killed
  run is detected and ignored.  ``resume_campaign`` reloads the pinned
  spec from ``spec.json``, refuses digest mismatches, and re-runs only
  the missing cells.

Campaign directory layout::

    spec.json      pinned spec + digest (written once)
    cells.jsonl    append-only checkpoint, one line per finished cell
    results.jsonl  deterministic merged results in design order (on completion)
    report.md      rendered decision-support report (on completion)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis.experiments import ExperimentSpec
from ..analysis.sweep import map_trials
from ..chaos import LinkKill, random_chaos_plan
from ..core.fault_models import uniform_link_faults, uniform_node_faults
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube
from ..obs.instruments import record
from ..routing.baselines.dfs_backtrack import route_dfs
from ..routing.baselines.oracle import route_oracle
from ..routing.link_fault_routing import route_unicast_with_links
from ..routing.resilient import route_unicast_resilient
from ..routing.safety_unicast import route_unicast
from ..safety.levels import SafetyLevels
from ..safety.link_faults import compute_extended_levels
from .design import Cell, build_design
from .spec import CampaignSpec, spec_digest

__all__ = [
    "CampaignResult",
    "run_campaign",
    "resume_campaign",
]

SPEC_FILE = "spec.json"
CHECKPOINT_FILE = "cells.jsonl"
RESULTS_FILE = "results.jsonl"
REPORT_FILE = "report.md"


# -- per-trial evaluation -----------------------------------------------------

def _draw_faults(topo: Hypercube, model: str, count: int, rng,
                 exclude: Tuple[int, int]) -> FaultSet:
    """The cell's static fault pattern; source/dest stay alive."""
    if model == "node":
        return uniform_node_faults(topo, count, rng, exclude=exclude)
    if model == "link":
        return uniform_link_faults(topo, count, rng)
    if model == "mixed":
        # Half/half (nodes rounded up), node part drawn first so link
        # candidates connect survivors only — every link fault effective.
        node_count = count - count // 2
        nodes = uniform_node_faults(topo, node_count, rng,
                                    exclude=exclude).nodes
        candidates = [(a, b) for a, b in topo.edges()
                      if a not in nodes and b not in nodes]
        link_count = count // 2
        if link_count > len(candidates):
            raise ValueError(
                f"{link_count} link faults do not fit next to "
                f"{node_count} node faults in Q{topo.dimension}")
        idx = (rng.choice(len(candidates), size=link_count, replace=False)
               if link_count else [])
        return FaultSet(nodes=nodes, links=[candidates[int(i)] for i in idx])
    raise ValueError(f"unknown fault model {model!r}")


def _split_kills(profile: str, kills: int) -> Tuple[int, int]:
    """``(node_kills, link_kills)`` for a chaos profile's kill budget."""
    if profile in ("", "none"):
        return 0, 0
    if profile == "node":
        return kills, 0
    if profile == "link":
        return 0, kills
    if profile == "mixed":
        return kills - kills // 2, kills // 2
    raise ValueError(f"unknown chaos profile {profile!r}")


def _resilient_record(topo: Hypercube, faults: FaultSet, source: int,
                      dest: int, chaos: str, chaos_kills: int,
                      rng) -> Dict[str, Any]:
    """One hardened-protocol delivery; static link faults become tick-0
    link kills so the ACK/retry machinery reroutes around them (its level
    tables are node-based, mirroring the paper's Section 4.1 split)."""
    static = FaultSet(nodes=faults.nodes)
    sl = SafetyLevels.compute(topo, static)
    pre = tuple(LinkKill(u, v, time=0) for u, v in sorted(faults.links))
    node_kills, link_kills = _split_kills(chaos, chaos_kills)
    plan = None
    if pre or node_kills or link_kills:
        # Draw against the *full* fault set so random targets never
        # collide with the statically declared links, then fold those
        # links in as immediate kills.
        plan = random_chaos_plan(
            topo, faults, rng,
            node_kills=node_kills, link_kills=link_kills,
            horizon=4 * topo.dimension, exclude=(source, dest))
        plan = dc_replace(plan, link_kills=pre + plan.link_kills)
    result, _net = route_unicast_resilient(sl, source, dest,
                                           plan=plan, rng=rng)
    return {
        "source": source,
        "dest": dest,
        "hamming": result.hamming,
        "delivered": bool(result.delivered),
        "status": result.status,
        "condition": result.stage,
        "hops": result.hops,
        "retries": result.retries,
        "latency": result.latency,
    }


def _cell_trial(rng, dim: int, fault_model: str, fault_count: int,
                chaos: str, policy: str, chaos_kills: int) -> Dict[str, Any]:
    """One seeded scenario of a cell -> canonical flat record
    (module-level so it pickles into spawn workers)."""
    topo = Hypercube(dim)
    source = int(rng.integers(topo.num_nodes))
    dest = int(rng.integers(topo.num_nodes - 1))
    if dest >= source:
        dest += 1
    faults = _draw_faults(topo, fault_model, fault_count, rng,
                          (source, dest))
    if policy == "resilient":
        return _resilient_record(topo, faults, source, dest,
                                 chaos, chaos_kills, rng)
    if policy == "safety":
        if faults.links:
            res = route_unicast_with_links(
                compute_extended_levels(topo, faults), source, dest)
        else:
            res = route_unicast(SafetyLevels.compute(topo, faults),
                                source, dest)
    elif policy == "dfs":
        res = route_dfs(topo, faults, source, dest)
    elif policy == "oracle":
        res = route_oracle(topo, faults, source, dest)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    delivered = bool(res.delivered)
    return {
        "source": source,
        "dest": dest,
        "hamming": res.hamming,
        "delivered": delivered,
        "status": res.status.value,
        "condition": res.condition.value,
        "hops": res.hops if delivered else None,
        "retries": 0,
        "latency": res.hops if delivered else None,
    }


def _aggregate(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic cell responses from the ordered trial records."""
    trials = len(records)
    delivered = [r for r in records if r["delivered"]]

    def mean(values: List[float]) -> Optional[float]:
        return round(sum(values) / len(values), 6) if values else None

    conditions: Dict[str, int] = {}
    for r in records:
        conditions[r["condition"]] = conditions.get(r["condition"], 0) + 1
    hops = [r["hops"] for r in delivered if r["hops"] is not None]
    return {
        "trials": trials,
        "delivered": len(delivered),
        "delivery_rate": round(len(delivered) / trials, 6),
        "mean_hops": mean(hops),
        "mean_detour": mean([r["hops"] - r["hamming"] for r in delivered
                             if r["hops"] is not None]),
        "mean_retries": mean([r["retries"] for r in records]),
        "mean_latency": mean([r["latency"] for r in delivered
                              if r["latency"] is not None]),
        "conditions": {k: conditions[k] for k in sorted(conditions)},
    }


# -- cell execution through the unified experiment interface ------------------

def _evaluate_cell(cell: Cell, spec: CampaignSpec, jobs: Optional[int],
                   recorder: Optional[Any]) -> Dict[str, Any]:
    """Run one cell through ``ExperimentSpec.run`` and return responses."""
    box: Dict[str, Any] = {}
    cell_seed = cell.seed(spec.seed)

    def _runner(ctx) -> str:
        trials = ctx.trials if ctx.trials is not None else spec.trials
        records = map_trials(
            _cell_trial, cell_seed, trials,
            args=(cell.dim, cell.fault_model, cell.faults, cell.chaos,
                  cell.policy, spec.chaos_kills))
        responses = _aggregate(records)
        event = {"campaign": spec.name, "cell_id": cell.cell_id,
                 "index": cell.index}
        event.update(cell.factors())
        event.update({k: v for k, v in responses.items() if v is not None})
        record("campaign_cell", **event)
        box["responses"] = responses
        return (f"{cell.cell_id}: delivery "
                f"{responses['delivery_rate']:.3f} over {trials} trials")

    exp = ExperimentSpec(
        name=f"campaign:{cell.cell_id}",
        description=f"campaign cell {cell.cell_id}",
        runner=_runner,
        quick_trials=min(spec.trials, 5),
        full_trials=spec.trials,
    )
    exp.run(trials=spec.trials, jobs=jobs, recorder=recorder)
    return box["responses"]


# -- checkpointing ------------------------------------------------------------

def _canonical_line(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _read_checkpoint(path: Path) -> Dict[int, Dict[str, Any]]:
    """Completed cells by full-factorial index; a torn tail is ignored."""
    done: Dict[int, Dict[str, Any]] = {}
    if not path.exists():
        return done
    lines = path.read_text(encoding="utf-8").splitlines()
    for pos, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if pos == len(lines) - 1:
                break  # torn final line from a killed run
            raise ValueError(
                f"{path}: corrupt checkpoint line {pos + 1}")
        done[int(payload["index"])] = payload
    return done


# -- the campaign itself ------------------------------------------------------

@dataclass(frozen=True)
class CampaignResult:
    """What one ``run_campaign``/``resume_campaign`` invocation did."""

    spec: CampaignSpec
    out_dir: Path
    digest: str
    cells_total: int
    cells_run: int
    cells_skipped: int
    complete: bool
    results_path: Optional[Path] = None
    report_path: Optional[Path] = None

    def summary(self) -> str:
        state = "complete" if self.complete else "incomplete"
        lines = [
            f"campaign {self.spec.name!r} [{self.digest[:12]}] {state}:",
            f"  cells: {self.cells_total} total, {self.cells_run} run now, "
            f"{self.cells_skipped} already checkpointed",
            f"  out:   {self.out_dir}",
        ]
        if self.results_path is not None:
            lines.append(f"  results: {self.results_path}")
        if self.report_path is not None:
            lines.append(f"  report:  {self.report_path}")
        if not self.complete:
            lines.append("  resume with: repro campaign resume "
                         f"{self.out_dir}")
        return "\n".join(lines)


def run_campaign(
    spec: CampaignSpec,
    out_dir: Optional[Union[str, Path]] = None,
    *,
    jobs: Optional[int] = None,
    recorder: Optional[Any] = None,
    max_cells: Optional[int] = None,
) -> CampaignResult:
    """Execute (or continue) a campaign, checkpointing each cell.

    ``max_cells`` bounds how many *new* cells this invocation evaluates —
    the knob the interrupt/resume tests and the CI smoke job use to stop
    a campaign mid-flight deterministically.
    """
    out = Path(out_dir) if out_dir is not None else Path(spec.resolved_out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = spec_digest(spec)

    spec_path = out / SPEC_FILE
    if spec_path.exists():
        pinned = json.loads(spec_path.read_text(encoding="utf-8"))
        if pinned.get("digest") != digest:
            raise ValueError(
                f"{out} holds campaign {pinned.get('digest', '?')[:12]}, "
                f"refusing to mix in {digest[:12]}; use a fresh directory")
    else:
        spec_path.write_text(
            json.dumps({"digest": digest, "spec": spec.to_dict()},
                       sort_keys=True, indent=2) + "\n",
            encoding="utf-8")

    design = build_design(spec)
    checkpoint_path = out / CHECKPOINT_FILE
    done = _read_checkpoint(checkpoint_path)
    skipped = len([c for c in design if c.index in done])

    ran = 0
    with open(checkpoint_path, "a", encoding="utf-8") as checkpoint:
        for cell in design:
            if cell.index in done:
                continue
            if max_cells is not None and ran >= max_cells:
                break
            responses = _evaluate_cell(cell, spec, jobs, recorder)
            payload = {
                "index": cell.index,
                "cell_id": cell.cell_id,
                "factors": cell.factors(),
                "seed": cell.seed(spec.seed),
                "responses": responses,
            }
            checkpoint.write(_canonical_line(payload) + "\n")
            checkpoint.flush()
            done[cell.index] = payload
            ran += 1

    complete = all(cell.index in done for cell in design)
    results_path = report_path = None
    if complete:
        results_path = out / RESULTS_FILE
        ordered = [done[cell.index] for cell in design]
        results_path.write_text(
            "".join(_canonical_line(p) + "\n" for p in ordered),
            encoding="utf-8")
        from .report import render_report  # cycle-free late import
        report_path = out / REPORT_FILE
        report_path.write_text(render_report(out, recorder=recorder),
                               encoding="utf-8")
    return CampaignResult(
        spec=spec, out_dir=out, digest=digest,
        cells_total=len(design), cells_run=ran, cells_skipped=skipped,
        complete=complete, results_path=results_path,
        report_path=report_path)


def resume_campaign(
    path: Union[str, Path],
    *,
    jobs: Optional[int] = None,
    recorder: Optional[Any] = None,
    max_cells: Optional[int] = None,
) -> CampaignResult:
    """Continue the campaign pinned in ``path``'s ``spec.json``."""
    out = Path(path)
    spec_path = out / SPEC_FILE
    if not spec_path.exists():
        raise FileNotFoundError(
            f"{out} is not a campaign directory (no {SPEC_FILE})")
    pinned = json.loads(spec_path.read_text(encoding="utf-8"))
    spec = CampaignSpec.from_dict(pinned["spec"])
    if spec_digest(spec) != pinned["digest"]:
        raise ValueError(
            f"{spec_path} digest mismatch: the pinned spec was edited")
    return run_campaign(spec, out_dir=out, jobs=jobs, recorder=recorder,
                        max_cells=max_cells)
