"""repro.api — the one-stop facade over the package's core flows.

Four verbs cover the workflow the rest of the package elaborates::

    import repro

    levels = repro.api.compute_levels(4, ["0011", "0100", "0110", "1001"])
    result = repro.api.route(levels, "1110", "0001")      # RouteResult
    with repro.api.record_run("run.jsonl") as (reg, rec):
        outcomes = repro.api.sweep(my_trial_fn, trials=1000, seed=7)
    print(repro.api.stats("run.jsonl").gs_rounds_mean)

Each facade function is a thin, friendlier wrapper over the canonical
implementation (node addresses accepted as binary strings, fault sets
buildable from addresses, telemetry switched on in one line); the
underlying entry points remain public and stable, so code that outgrows
the facade drops down without rewriting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple, Union

from .core.faults import FaultSet
from .core.hypercube import Hypercube
from .obs.instruments import observed
from .obs.runstats import RunStats, summarize_run
from .routing.batch import BatchRouteResult, route_unicast_batch
from .routing.resilient import ResilientResult, route_unicast_resilient
from .routing.result import RouteResult
from .routing.safety_unicast import route_unicast
from .safety.levels import SafetyLevels
from .analysis.sweep import map_trials

__all__ = ["compute_levels", "route", "route_batch", "route_resilient",
           "sweep", "record_run", "stats",
           "campaign", "resume_campaign", "campaign_report",
           "confirm_break"]

NodeSpec = Union[int, str]
FaultSpec = Union[FaultSet, Iterable[Union[int, str]], None]


def _as_topo(topo: Union[Hypercube, int]) -> Hypercube:
    return topo if isinstance(topo, Hypercube) else Hypercube(int(topo))


def _as_node(topo: Hypercube, node: NodeSpec) -> int:
    return topo.parse_node(node) if isinstance(node, str) else int(node)


def _as_faults(topo: Hypercube, faults: FaultSpec) -> FaultSet:
    if faults is None:
        return FaultSet()
    if isinstance(faults, FaultSet):
        return faults
    items = list(faults)
    if any(isinstance(f, str) for f in items):
        return FaultSet.from_addresses(topo, [str(f) for f in items])
    return FaultSet(frozenset(int(f) for f in items))


def compute_levels(topo: Union[Hypercube, int],
                   faults: FaultSpec = None) -> SafetyLevels:
    """The cube's safety-level assignment (Definition 1 fixed point).

    ``topo`` is a :class:`Hypercube` or just its dimension; ``faults`` a
    :class:`FaultSet`, an iterable of node ids or binary address strings,
    or ``None`` for a fault-free cube.
    """
    cube = _as_topo(topo)
    return SafetyLevels.compute(cube, _as_faults(cube, faults))


def route(levels: SafetyLevels, source: NodeSpec, dest: NodeSpec,
          **kwargs: Any) -> RouteResult:
    """One safety-level unicast; endpoints accept ints or address strings.

    Extra keyword arguments (``tie_break``, ``rng``) pass through to
    :func:`repro.routing.route_unicast`.
    """
    topo = levels.topo
    return route_unicast(levels, _as_node(topo, source),
                         _as_node(topo, dest), **kwargs)


def route_batch(levels: SafetyLevels, sources: Sequence[NodeSpec],
                dests: Sequence[NodeSpec], **kwargs: Any) -> BatchRouteResult:
    """Route many pairs over one assignment with the batched kernel.

    ``sources``/``dests`` are equal-length sequences of ints or address
    strings; extra keyword arguments (``tie_break``, ``return_paths``)
    pass through to :func:`repro.routing.route_unicast_batch`, the
    vectorized walk.  Every route's outcome is bit-identical to calling
    :func:`route` pair by pair.  Only the deterministic tie-breaks batch:
    route ``tie_break="random"`` pair by pair with :func:`route`, which
    takes the generator.
    """
    topo = levels.topo
    srcs = [_as_node(topo, s) for s in sources]
    dsts = [_as_node(topo, d) for d in dests]
    return route_unicast_batch(topo, levels, srcs, dsts, **kwargs)


def route_resilient(levels: SafetyLevels, source: NodeSpec, dest: NodeSpec,
                    **kwargs: Any) -> ResilientResult:
    """One hardened unicast (hop ACKs, retries, chaos injection).

    Endpoints accept ints or address strings; extra keyword arguments
    (``plan``, ``tie_break``, ``rng``, ``strict``, retry knobs) pass
    through to :func:`repro.routing.route_unicast_resilient`.  Returns
    the :class:`~repro.routing.resilient.ResilientResult` alone — use
    the underlying entry point when the simulated network is needed too.
    """
    topo = levels.topo
    result, _net = route_unicast_resilient(
        levels, _as_node(topo, source), _as_node(topo, dest), **kwargs)
    return result


def sweep(trial_fn: Callable[..., Any], trials: int, *, seed: int = 0,
          jobs: Optional[int] = None, args: Tuple[Any, ...] = ()) -> list:
    """Run ``trial_fn(rng, *args)`` over seeded Monte-Carlo trials.

    Deterministic for any worker count; ``trial_fn`` must be a module-level
    callable when ``jobs > 1`` (it is pickled into spawn workers).  This is
    :func:`repro.analysis.sweep.map_trials` under its workflow name — use
    :func:`repro.analysis.sweep.run_sweep` directly for chunk-batched
    kernels.
    """
    return map_trials(trial_fn, seed, trials, jobs=jobs, args=args)


def record_run(path: Union[str, Path], tool: str = "repro.api",
               config: Optional[dict] = None):
    """Context manager: metrics + JSONL telemetry for the enclosed block.

    Yields ``(registry, recorder)``; on exit a final counter snapshot and
    the ``run_end`` envelope are appended and the previous observability
    state is restored.  Shorthand for :func:`repro.obs.observed`.
    """
    return observed(path, tool=tool, config=config)


def stats(path: Union[str, Path]) -> RunStats:
    """Validate and aggregate a recorded run (see ``repro stats``)."""
    return summarize_run(path)


CampaignSpecLike = Union["CampaignSpec", dict, str, Path]


def _as_campaign_spec(spec: CampaignSpecLike) -> "CampaignSpec":
    """Coerce a spec object, plain dict, or TOML/JSON path into a spec —
    the :data:`FaultSpec`-style convention applied to campaigns."""
    from .campaign import CampaignSpec, load_spec

    if isinstance(spec, CampaignSpec):
        return spec
    if isinstance(spec, dict):
        return CampaignSpec.from_dict(spec)
    return load_spec(spec)


def campaign(spec: CampaignSpecLike, **kwargs: Any):
    """Run a fault campaign (factorial DSE over the routing suite).

    ``spec`` is a :class:`~repro.campaign.CampaignSpec`, a plain dict of
    its fields, or the path to a TOML/JSON spec file.  Keyword arguments
    (``out_dir``, ``jobs``, ``recorder``, ``max_cells``) pass through to
    :func:`repro.campaign.run_campaign`; returns its
    :class:`~repro.campaign.CampaignResult`.
    """
    from .campaign import run_campaign

    return run_campaign(_as_campaign_spec(spec), **kwargs)


def resume_campaign(path: Union[str, Path], **kwargs: Any):
    """Continue the interrupted campaign checkpointed in ``path``.

    Finished cells are skipped; the merged results and report are
    byte-identical to an uninterrupted run.
    """
    from .campaign import resume_campaign as _resume

    return _resume(path, **kwargs)


def campaign_report(path: Union[str, Path]) -> str:
    """Render a campaign directory's Markdown decision-support report."""
    from .campaign import render_report

    return render_report(path)


def confirm_break(topo: Union[Hypercube, int], faults: FaultSpec,
                  source: NodeSpec, dest: NodeSpec):
    """Check a claimed C1–C3-breaking (faults, source, dest) instance.

    Accepts the facade's usual coercions (dimension or cube, address
    strings or ints); returns ``(confirmed, issues)`` from
    :func:`repro.campaign.confirm_break`.
    """
    from .campaign import confirm_break as _confirm

    cube = _as_topo(topo)
    return _confirm(cube, _as_faults(cube, faults),
                    _as_node(cube, source), _as_node(cube, dest))
