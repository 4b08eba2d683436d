"""Record the telemetry golden stream: one run holding every event type.

A small, seeded workload over the whole instrumented stack — a few Q4
unicasts and one batched routing call, a tiny ``rounds_vs_faults``
(GS kernel + sweep engine), a one-cell chaos run, one service flush and
one fault event, one routed block and one kill on a failover-enabled
shard router, one campaign with its surface fits, plus an
``experiment``, a ``result`` and a ``sim_trace`` record.  Everything but wall-clock readings is deterministic, so two
runs give the same stream once the volatile fields are masked.

Regenerate the committed files (from the repository root)::

    PYTHONPATH=src python tests/golden/telemetry_stream.py

which writes ``telemetry_stream.jsonl`` and the ``repro stats`` text of
it, ``telemetry_stats.txt``, next to this script.  Regenerate only when
a change to what runs record is intended, and say why in the commit.
"""

from __future__ import annotations

import asyncio
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
STREAM = "telemetry_stream.jsonl"
TEXT = "telemetry_stats.txt"


def record(path) -> None:
    """Run the golden workload with a recorder writing ``path``."""
    from repro.analysis.chaos_experiment import chaos_records
    from repro.analysis.rounds import rounds_vs_faults
    from repro.campaign import CampaignSpec, run_campaign
    from repro.core import FaultSet, Hypercube
    from repro.obs import observed
    from repro.routing.batch import route_unicast_batch
    from repro.routing.safety_unicast import route_unicast
    from repro.safety.levels import SafetyLevels
    from repro.service import RoutingService, ServiceConfig, ShardRouter
    from repro.simcore.trace import Trace

    topo = Hypercube(4)
    levels = SafetyLevels.compute(
        topo, FaultSet(nodes=[0b0011, 0b0100, 0b0110, 0b1001]))

    async def serve() -> None:
        config = ServiceConfig(dimension=4, window_us=200)
        async with RoutingService(config, faults=FaultSet(nodes=[5])) as svc:
            await svc.route_block([0, 1, 2, 3], [15, 14, 13, 12])
            await svc.inject_faults(add=[9])
        async with ShardRouter(shards=2, window_us=100,
                               auto_failover=True) as router:
            sid = await router.add_tenant("blue", dimension=4)
            await router.inject_faults("blue", add=[5])
            await router.route_block("blue", [0, 1], [15, 14])
            await router.kill_shard(sid)

    with observed(path, tool="tests.golden",
                  config={"workload": "telemetry-golden"}) as (_reg, rec):
        results = [route_unicast(levels, s, d)
                   for s, d in ((0b1110, 0b0001), (0b0000, 0b1111),
                                (0b0001, 0b1110), (0b0101, 0b1010))]
        route_unicast_batch(topo, levels, [0, 1, 2, 7], [15, 14, 13, 8])
        rounds_vs_faults(4, [1, 3], trials=8, seed=3, jobs=1)
        chaos_records(3, n=4, profile="node", kills=1, seed=5, jobs=1)
        asyncio.run(serve())
        with tempfile.TemporaryDirectory() as tmp:
            spec = CampaignSpec(
                name="golden", dims=(3,), fault_models=("node",),
                fault_counts=(0, 2), chaos_profiles=("none",),
                policies=("safety",), trials=4, seed=11)
            run_campaign(spec, out_dir=Path(tmp) / "c", recorder=rec)
        rec.record_result(results[0])
        trace = Trace()
        trace.record(0, "send", 3, detail={"to": 7})
        trace.record(1, "deliver", 7)
        rec.record_trace(trace)
        rec.emit("experiment", name="golden", elapsed_s=0.0, status="ok")


def render(stream_name: str = STREAM) -> str:
    """``repro stats`` text of ``stream_name``, read from the golden
    directory by its bare name so the text names no checkout path."""
    from repro.obs import render_stats, summarize_run

    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        return render_stats(summarize_run(stream_name)) + "\n"
    finally:
        os.chdir(cwd)


def main() -> int:
    record(GOLDEN_DIR / STREAM)
    (GOLDEN_DIR / TEXT).write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN_DIR / STREAM} and {GOLDEN_DIR / TEXT}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
