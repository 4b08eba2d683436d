# Convenience targets for the safety-level reproduction.

PY ?= python3

.PHONY: install test bench bench-sweep bench-routing bench-levels bench-service shard-smoke failover-smoke chaos campaign experiments artifacts scorecard stats-demo examples clean

install:
	$(PY) -m pip install -e . --no-build-isolation || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Sweep-engine throughput trajectory; writes BENCH_sweep.json at the root.
bench-sweep:
	PYTHONPATH=src $(PY) benchmarks/bench_kernel_throughput.py

# Batched vs scalar routing kernel; writes BENCH_routing.json at the root
# and asserts the >= 10x speedup floor plus scalar equivalence.
bench-routing:
	PYTHONPATH=src $(PY) benchmarks/bench_routing_throughput.py

# Incremental maintenance vs full GS + packed level kernel; writes
# BENCH_levels_incremental.json at the root and asserts the >= 10x
# single-fault-delta floor (Q12+) plus bit-identity to the full fixed
# point.
bench-levels:
	PYTHONPATH=src $(PY) benchmarks/bench_levels_incremental.py

# Routing-as-a-service: naive vs micro-batched vs sharded-block
# throughput, steady/churn open-loop latency percentiles, and an
# offline-cross-checked fault-churn run; writes BENCH_service.json at
# the root and asserts the >= 5x aggregation floor, the >= 2x sharded
# floor, the churn-p99 <= 1.5x-steady ceiling, and zero torn reads /
# zero drops.
bench-service:
	PYTHONPATH=src $(PY) benchmarks/bench_service.py

# Sharded serving end-to-end over real sockets: 2 shards / 2 tenants,
# binary BLOCK bit-identity, line-protocol compat, kill-one-shard
# degradation.
shard-smoke:
	PYTHONPATH=src $(PY) benchmarks/shard_smoke.py

# Self-healing failover end-to-end over real sockets: injected kill and
# inferred (heartbeat-detected) crash under a streaming ResilientClient,
# journal-exact epoch recovery, post-failover bit-identity to the
# offline kernel.
failover-smoke:
	PYTHONPATH=src $(PY) benchmarks/failover_smoke.py

# Chaos-harness reproducibility smoke: seeded 3x-repeated injection
# matrix (Q4/Q6, node/link/mixed) asserting byte-identical records plus
# serial == --jobs, then the E21 table.
chaos:
	PYTHONPATH=src $(PY) benchmarks/chaos_smoke.py
	PYTHONPATH=src $(PY) -m repro.cli chaos --quick

# Campaign-engine smoke: tiny Q4 DSE run three ways (uninterrupted,
# interrupted+resumed, resumed with --jobs 2) asserting byte-identical
# results + report, then the Q6 adversarial C1-C3 break (E22).
campaign:
	PYTHONPATH=src $(PY) benchmarks/campaign_smoke.py
	PYTHONPATH=src $(PY) -m repro.cli campaign adversarial --dim 6

# Regenerate every table/figure at full scale into ./artifacts
artifacts:
	$(PY) -m repro.cli all --save artifacts

scorecard:
	$(PY) -m repro.cli scorecard

# Quick instrumented run -> JSONL telemetry -> offline stats report.
stats-demo:
	PYTHONPATH=src $(PY) -m repro.cli fig2 --quick --metrics-out stats-demo.jsonl
	PYTHONPATH=src $(PY) -m repro.cli stats stats-demo.jsonl

examples:
	for f in examples/*.py; do echo "== $$f"; $(PY) $$f > /dev/null || exit 1; done; echo "all examples OK"

clean:
	rm -rf artifacts benchmarks/results .pytest_cache .hypothesis stats-demo.jsonl
	find . -name __pycache__ -type d -exec rm -rf {} +
