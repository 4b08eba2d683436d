"""The names the end-to-end benchmark (``perfbench/``) relies on.

perfbench starts the server through ``ShardRouter(shards=..., workers=0)``
and, in its traced mode, replaces module and class attributes by name
(``perfbench/spans.py``).  A rename on either side would otherwise only
show up as a failed traced benchmark run; these tests make it fail here.
"""

import asyncio
import importlib
from pathlib import Path

import pytest

from repro.service import ShardRouter

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_router_accepts_workers_zero_only():
    async def run():
        async with ShardRouter(shards=2, workers=0) as router:
            return sorted(router.shards)

    assert asyncio.run(run()) == [0, 1]
    with pytest.raises(ValueError, match="process-pool backend was removed"):
        ShardRouter(shards=2, workers=1)


def test_span_patches_resolve_and_unpatch_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rec = spans.Recorder()
    try:
        spans.instrument_server(rec)
        spans.instrument_sweep(rec)
        patched = list(rec._patches)
        names = {(getattr(owner, "__name__", owner), attr)
                 for owner, attr, _ in patched}
        # the service path and the offline kernels are both covered
        assert ("repro.service.service", "route_task") in names
        assert ("repro.service.workers", "route_with_table") in names
        assert ("repro.service.workers", "attach_epoch_table") in names
        assert ("repro.service.epoch", "seal_epoch_table") in names
        assert ("repro.routing.batch", "route_unicast_batch") in names
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        rec.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
