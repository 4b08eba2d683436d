"""The benchmark regression gates (``benchmarks/gates.py``).

Each committed ``BENCH_*.json`` must pass its own gate, each absolute
floor must fail a report that breaks only it, and each service floor is
defined once across ``src/`` and ``benchmarks/``.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

from repro.analysis.failover_soak import MAX_RECOVERY_P99_MS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def gates(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module("gates")


def _service_report():
    return json.loads((ROOT / "BENCH_service.json").read_text())


def _set(report, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        report = report[key]
    report[leaf] = value


@pytest.mark.parametrize("gate", ["sweep", "levels", "service",
                                  "service-quick"])
def test_committed_reports_pass_their_gates(gates, gate):
    committed = gates.GATES[gate][0] or "BENCH_service.json"
    assert gates.run_gate(gate, str(ROOT / committed)) == 0


def _floor(gates, path):
    (arg,) = [arg for _, p, arg in gates.GATES["service"][1] if p == path]
    return arg


@pytest.mark.parametrize("path", ["speedup_batched",
                                  "sharded.speedup_vs_batched"])
def test_band_floor_fails_when_committed_is_below_it_too(
        gates, tmp_path, monkeypatch, path):
    # Committed and fresh both just under the floor: the 3% band passes,
    # so only the absolute floor can fail the report.
    floor = _floor(gates, path)
    report = _service_report()
    _set(report, path, floor - 0.1)
    (tmp_path / "BENCH_service.json").write_text(json.dumps(report))
    monkeypatch.setattr(gates, "ROOT", tmp_path)
    assert gates.run_gate("service",
                          str(tmp_path / "BENCH_service.json")) == 1
    _set(report, path, floor)
    (tmp_path / "BENCH_service.json").write_text(json.dumps(report))
    assert gates.run_gate("service",
                          str(tmp_path / "BENCH_service.json")) == 0


@pytest.mark.parametrize("path,limit", [
    ("latency.p99_ratio", None),
    ("failover.recovery_p99_ms", MAX_RECOVERY_P99_MS),
])
def test_ceiling_fails_only_above_it(gates, tmp_path, path, limit):
    limit = _floor(gates, path) if limit is None else limit
    report = _service_report()
    fresh = tmp_path / "fresh.json"
    for value, failures in ((limit, 0), (limit * 1.01, 1)):
        _set(report, path, value)
        fresh.write_text(json.dumps(report))
        assert gates.run_gate("service", str(fresh)) == failures


def test_the_soak_reports_the_ceiling_the_gate_reads(gates):
    assert _floor(gates, "failover.recovery_p99_ms") \
        == "failover.recovery_ceiling_ms"
    assert _service_report()["failover"]["recovery_ceiling_ms"] \
        == MAX_RECOVERY_P99_MS


def test_each_service_floor_is_defined_once(gates):
    floors = {"speedup_batched": 5.0, "sharded.speedup_vs_batched": 2.0,
              "latency.p99_ratio": 1.5}
    for path, value in floors.items():
        assert _floor(gates, path) == value, path
    # A floor is defined either as a float MIN_/MAX_ constant or as a
    # number in a gates.py check; each of the four must appear once.
    constant = re.compile(r"^(?:MIN|MAX)_\w+\s*=\s*([\d_]+\.\d*)\s*$", re.M)
    defined = [float(v) for tree in ("src", "benchmarks")
               for path in (ROOT / tree).rglob("*.py")
               for v in constant.findall(path.read_text())]
    defined += [arg for _, checks in gates.GATES.values()
                for _, _, arg in checks if isinstance(arg, float)]
    for value in [*floors.values(), MAX_RECOVERY_P99_MS]:
        assert defined.count(value) == 1, value
