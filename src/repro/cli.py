"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.cli list
    python -m repro.cli fig1
    python -m repro.cli fig2 --trials 500
    python -m repro.cli fig2 --jobs 4 --metrics-out run.jsonl
    python -m repro.cli stats run.jsonl
    python -m repro.cli all --quick
    python -m repro.cli serve --dim 8 --faults 20 --port 7429
    python -m repro.cli campaign run spec.toml --out runs/c1 --jobs 4
    python -m repro.cli campaign resume runs/c1
    python -m repro.cli campaign report runs/c1

Every experiment is seeded; rerunning a command reproduces its output
bit-for-bit.  ``--quick`` shrinks trial counts for smoke runs.  ``--jobs``
fans Monte-Carlo trials out over worker processes (equivalent to setting
``REPRO_JOBS``); the sweep engine guarantees results do not depend on the
worker count.  ``--metrics-out PATH`` records the run's telemetry — a
provenance manifest, per-attempt routing outcomes, kernel batches, sweep
throughput and a final counter snapshot — as schema-versioned JSONL
(see :mod:`repro.obs`); ``stats PATH`` folds such a file back into the
run's headline numbers offline.

Experiments live in the declarative registry of
:mod:`repro.analysis.experiments`: each entry binds a name to a
description, a runner and its default trial counts, and every entry runs
through the one ``ExperimentSpec.run(*, trials, seed, jobs, recorder,
quick)`` signature.  ``list`` enumerates the registry with each entry's
description and accepted flags.  ``campaign`` drives the fault-campaign
DSE engine (:mod:`repro.campaign`) over that same interface.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List

from . import obs
from .analysis import experiments as _experiments
from .analysis.experiments import (
    ExperimentSpec,
    REGISTRY,
    RunContext,
    register,
)
from .analysis.sweep import JOBS_ENV_VAR

__all__ = ["main", "RunContext", "ExperimentSpec", "REGISTRY", "register"]


# -- commands ---------------------------------------------------------------


def _cmd_list() -> int:
    """Enumerate the unified registry: description + accepted flags."""
    try:
        width = max(len(name) for name in REGISTRY)
        for exp in _experiments.iter_experiments():
            print(f"{exp.name:<{width}}  {exp.description}")
            trials = (
                f"trials default {exp.full_trials} "
                f"(quick {exp.quick_trials}); "
                if exp.full_trials is not None else ""
            )
            print(f"{'':<{width}}  {trials}flags: {', '.join(exp.flags)}")
    except BrokenPipeError:  # piped into head/less that quit early
        pass
    return 0


def _cmd_stats(path: str) -> int:
    try:
        stats = obs.summarize_run(path)
    except FileNotFoundError:
        print(f"stats: no such file: {path}", file=sys.stderr)
        return 1
    except obs.SchemaError as exc:
        print(f"stats: {path} failed schema validation: {exc}",
              file=sys.stderr)
        return 1
    print(obs.render_stats(stats))
    return 0


def _run_experiments(names: List[str], args: argparse.Namespace,
                     recorder) -> None:
    for name in names:
        exp = REGISTRY[name]
        start = time.perf_counter()
        output = exp.run(quick=args.quick, trials=args.trials,
                         seed=args.seed, recorder=recorder)
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.emit("experiment", name=name,
                          elapsed_s=round(elapsed, 6), status="ok")
        print(f"### {name} — {exp.description}")
        print(output)
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        print()
        if args.save:
            from pathlib import Path

            out_dir = Path(args.save)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.txt").write_text(output + "\n")


def _cmd_serve(argv: List[str]) -> int:
    """``repro serve``: bind the routing service's TCP front-end.

    Both modes serve a :class:`~repro.service.ShardRouter`.  By default
    it holds one cube as tenant ``default`` on one shard, and sessions
    start bound to it.  With ``--shards N`` and one or more ``--tenant
    name:dim[:faults]`` specs, clients bind a tenant first (a ``TENANT``
    frame, or a ``tenant <name>`` line).  Both modes speak the binary
    wire protocol and the line protocol on one port, auto-detected per
    connection from its first byte.
    """
    import asyncio
    import contextlib
    import signal

    import numpy as np

    from .core.faults import FaultSet
    from .service import ServiceConfig, ShardRouter
    from .service.server import serve_forever

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve micro-batched unicast routing over TCP "
                    "(binary wire frames or '<src> <dst>' lines, "
                    "auto-detected; 'fault add <node>...' bumps the "
                    "epoch live).",
    )
    parser.add_argument("--dim", type=int, default=8,
                        help="hypercube dimension (default 8)")
    parser.add_argument("--faults", type=int, default=0,
                        help="seed this many random faulty nodes at start")
    parser.add_argument("--fault-nodes", type=int, nargs="*", default=None,
                        help="explicit initial faulty node ids "
                             "(overrides --faults)")
    parser.add_argument("--seed", type=int, default=0,
                        help="rng seed for --faults (default 0)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7429)
    parser.add_argument("--max-batch", type=int,
                        default=ServiceConfig.max_batch,
                        help="row cap of one kernel call; a tenant runs "
                             "one call at a time and coalesces what "
                             "queues behind it, up to this many rows "
                             "(default %(default)s)")
    parser.add_argument("--window-us", type=int,
                        default=ServiceConfig.window_us,
                        help="how long a single route's window "
                             "gathers others to batch with; blocks skip "
                             "it (default %(default)s)")
    parser.add_argument("--shards", type=int, default=0,
                        help="serve this many shards of --tenant cubes "
                             "instead of one --dim cube as tenant "
                             "'default' (requires --tenant)")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME:DIM[:FAULTS]",
                        help="register a tenant cube on the shard router "
                             "(repeatable); FAULTS random faulty nodes "
                             "are seeded from --seed")
    parser.add_argument("--duration", type=float, default=None,
                        help="serve for this many seconds, then exit "
                             "cleanly (default: until SIGINT/SIGTERM)")
    parser.add_argument("--auto-failover", action="store_true",
                        help="sharded mode: run a heartbeat failure "
                             "detector and automatically re-place "
                             "tenants off dead shards (journal-exact "
                             "epoch recovery)")
    parser.add_argument("--probe-interval-ms", type=float, default=50.0,
                        help="failure-detector heartbeat period "
                             "(default 50 ms; needs --auto-failover)")
    parser.add_argument("--suspect-after", type=int, default=2,
                        help="missed probes before a shard turns "
                             "SUSPECT (default 2)")
    parser.add_argument("--dead-after", type=int, default=5,
                        help="missed probes before a SUSPECT shard is "
                             "declared DEAD and failed over (default 5)")
    parser.add_argument("--max-tenant-inflight", type=int, default=0,
                        help="admission control: shed (E_OVERLOAD) "
                             "requests past this many in flight per "
                             "tenant (0 = unlimited)")
    args = parser.parse_args(argv)

    def _seeded_faults(dim: int, count: int, salt: int) -> FaultSet:
        if not count:
            return FaultSet()
        rng = np.random.default_rng(args.seed + salt)
        return FaultSet(nodes=rng.choice(
            1 << dim, size=count, replace=False).tolist())

    if args.shards and not args.tenant:
        parser.error("--shards requires at least one --tenant spec")
    if args.tenant and not args.shards:
        parser.error("--tenant requires --shards")
    if args.auto_failover and not args.shards:
        parser.error("--auto-failover requires --shards")

    tenants = []  # (name, dimension, initial faults)
    for i, spec in enumerate(args.tenant):
        fields = spec.split(":")
        if len(fields) not in (2, 3):
            parser.error(f"bad --tenant spec {spec!r} "
                         "(want NAME:DIM[:FAULTS])")
        dim = int(fields[1])
        tenants.append((fields[0], dim, _seeded_faults(
            dim, int(fields[2]) if len(fields) == 3 else 0, salt=i + 1)))
    if not args.shards:
        # One cube: a one-shard router holding tenant "default", which
        # every session starts bound to.
        tenants = [("default", args.dim,
                    FaultSet(nodes=args.fault_nodes)
                    if args.fault_nodes is not None
                    else _seeded_faults(args.dim, args.faults, salt=0))]

    async def run() -> None:
        from .service import FailureDetector, HealthConfig

        async with ShardRouter(shards=args.shards or 1,
                               max_batch=args.max_batch,
                               window_us=args.window_us,
                               auto_failover=args.auto_failover,
                               max_tenant_inflight=(
                                   args.max_tenant_inflight or None),
                               ) as router:
            for name, dim, tenant_faults in tenants:
                sid = await router.add_tenant(name, dimension=dim,
                                              faults=tenant_faults)
                if args.shards:
                    print(f"repro serve: tenant {name!r} (Q{dim}, "
                          f"{len(tenant_faults.nodes)} faults) -> "
                          f"shard {sid}", flush=True)
            if args.shards:
                bound = None
                banner = (
                    f"repro serve: {len(tenants)} tenants over "
                    f"{args.shards} shards on {args.host}:{args.port} "
                    "(backend=inline"
                    + (f", failover on, probes every "
                       f"{args.probe_interval_ms:g} ms"
                       if args.auto_failover else "") + ")")
            else:
                bound = "default"
                banner = (
                    f"repro serve: Q{args.dim} with "
                    f"{len(tenants[0][2].nodes)} faults on "
                    f"{args.host}:{args.port} (backend=inline, epoch "
                    f"{router.service_of(bound).epochs.current.epoch})")
            detector = FailureDetector(router, HealthConfig(
                interval_s=args.probe_interval_ms / 1e3,
                suspect_after=args.suspect_after,
                dead_after=args.dead_after)) \
                if args.auto_failover else contextlib.nullcontext()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
            async with detector:
                ready = asyncio.Event()
                server = asyncio.ensure_future(serve_forever(
                    router, host=args.host, port=args.port, ready=ready,
                    duration_s=args.duration, tenant=bound))
                await ready.wait()
                print(banner, flush=True)
                stopper = asyncio.ensure_future(stop.wait())
                await asyncio.wait({server, stopper},
                                   return_when=asyncio.FIRST_COMPLETED)
                server.cancel()
                stopper.cancel()
                for task in (server, stopper):
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass
        # async-with close() drained every tenant's queued routes.

    asyncio.run(run())
    print("repro serve: shut down cleanly (every queued route answered)",
          flush=True)
    return 0


def _cmd_campaign(argv: List[str]) -> int:
    """``repro campaign``: the fault-campaign DSE engine.

    Subcommands: ``run SPEC --out DIR`` executes a declarative campaign
    (TOML/JSON spec) cell by cell with per-cell checkpointing; ``resume
    DIR`` continues an interrupted campaign, skipping finished cells (the
    merged output is byte-identical to an uninterrupted run); ``report
    DIR`` re-renders the decision-support report; ``adversarial`` runs
    the evolutionary search for a minimal fault set that breaks C1–C3
    routability.
    """
    from .campaign import (
        adversarial_search,
        load_spec,
        render_report,
        resume_campaign,
        run_campaign,
    )

    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Declarative fault-campaign design-space exploration "
                    "(factorial designs over fault model x intensity x "
                    "chaos profile x routing policy).",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p_run = sub.add_parser("run", help="execute a campaign spec")
    p_run.add_argument("spec", help="TOML or JSON campaign spec file")
    p_run.add_argument("--out", default=None,
                       help="campaign directory (default: the spec's "
                            "out_dir, else campaign_<name>)")
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--metrics-out", default=None,
                       help="record campaign telemetry (JSONL) to PATH")
    p_run.add_argument("--max-cells", type=int, default=None,
                       help="stop after this many cells (for testing "
                            "resume; the checkpoint keeps the rest)")

    p_resume = sub.add_parser("resume", help="continue an interrupted run")
    p_resume.add_argument("dir", help="campaign directory")
    p_resume.add_argument("--jobs", type=int, default=None)
    p_resume.add_argument("--metrics-out", default=None)

    p_report = sub.add_parser("report", help="re-render the report")
    p_report.add_argument("dir", help="campaign directory")

    p_adv = sub.add_parser("adversarial",
                           help="evolve a minimal routability-breaking "
                                "fault set")
    p_adv.add_argument("--dim", type=int, default=6)
    p_adv.add_argument("--max-faults", type=int, default=None,
                       help="fault budget (default: the dimension)")
    p_adv.add_argument("--seed", type=int, default=0)
    p_adv.add_argument("--generations", type=int, default=40)

    args = parser.parse_args(argv)

    if args.action == "run":
        spec = load_spec(args.spec)
        if args.metrics_out:
            config = {"command": "campaign run", "spec": spec.to_dict(),
                      "jobs": args.jobs, "max_cells": args.max_cells}
            with obs.observed(args.metrics_out, tool="repro.cli",
                              config=config) as (_registry, recorder):
                result = run_campaign(spec, out_dir=args.out,
                                      jobs=args.jobs, recorder=recorder,
                                      max_cells=args.max_cells)
        else:
            result = run_campaign(spec, out_dir=args.out, jobs=args.jobs,
                                  max_cells=args.max_cells)
        print(result.summary())
        return 0 if result.complete else 3
    if args.action == "resume":
        if args.metrics_out:
            config = {"command": "campaign resume", "dir": args.dir,
                      "jobs": args.jobs}
            with obs.observed(args.metrics_out, tool="repro.cli",
                              config=config) as (_registry, recorder):
                result = resume_campaign(args.dir, jobs=args.jobs,
                                         recorder=recorder)
        else:
            result = resume_campaign(args.dir, jobs=args.jobs)
        print(result.summary())
        return 0 if result.complete else 3
    if args.action == "report":
        print(render_report(args.dir))
        return 0
    if args.action == "adversarial":
        found = adversarial_search(args.dim, max_faults=args.max_faults,
                                   seed=args.seed,
                                   generations=args.generations)
        print(found.describe())
        return 0 if found.confirmed else 1
    parser.error(f"unknown campaign action {args.action!r}")
    return 2


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Service commands take their own flag sets, so they dispatch before
    # the experiment parser (whose positional 'command' stays closed).
    if argv and argv[0] == "serve":
        return _cmd_serve(list(argv[1:]))
    if argv and argv[0] == "campaign":
        return _cmd_campaign(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "command",
        choices=sorted(REGISTRY) + ["all", "list", "stats"],
        help="experiment id (see DESIGN.md), 'all', 'list', or "
             "'stats RUN.jsonl' ('serve' runs the routing service, "
             "'campaign' the DSE engine; see 'repro campaign --help')",
    )
    parser.add_argument("path", nargs="?", default=None,
                        help="run file for the stats command")
    parser.add_argument("--quick", action="store_true",
                        help="reduced trial counts for a fast smoke run")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the per-experiment trial count")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for Monte-Carlo sweeps "
                             f"(default: ${JOBS_ENV_VAR} or serial); "
                             "results are identical for any value")
    parser.add_argument("--seed", type=int, default=None,
                        help="override an experiment's canonical seed "
                             "(experiments that ignore it keep their "
                             "published numbers)")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write each experiment's output to "
                             "DIR/<name>.txt")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="record run telemetry (schema-versioned JSONL) "
                             "to PATH; read it back with 'stats PATH'")
    args = parser.parse_args(argv)

    if args.command == "stats":
        if args.path is None:
            parser.error("stats requires a run file: repro stats RUN.jsonl")
        return _cmd_stats(args.path)
    if args.path is not None:
        parser.error(f"unexpected argument {args.path!r} "
                     f"(only the stats command takes a path)")

    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        # The sweep engine resolves this env knob wherever a runner does
        # not take an explicit jobs argument, so one flag covers them all.
        os.environ[JOBS_ENV_VAR] = str(args.jobs)

    if args.command == "list":
        return _cmd_list()

    names = sorted(REGISTRY) if args.command == "all" else [args.command]
    if args.metrics_out:
        config = {"command": args.command, "quick": args.quick,
                  "trials": args.trials, "jobs": args.jobs}
        with obs.observed(args.metrics_out, tool="repro.cli",
                          config=config) as (_registry, recorder):
            _run_experiments(names, args, recorder)
        print(f"[telemetry written to {args.metrics_out}; "
              f"summarize with: repro stats {args.metrics_out}]")
    else:
        _run_experiments(names, args, None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
