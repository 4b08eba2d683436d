"""Golden pins for the telemetry stream and its ``repro stats`` fold.

``tests/golden/telemetry_stream.jsonl`` is one recorded run holding every
event type, written by ``tests/golden/telemetry_stream.py``;
``telemetry_stats.txt`` is its ``repro stats`` text.  The fold must
reproduce that text byte for byte, the fixture must keep covering the
whole taxonomy, and re-running the script must give the committed stream
once wall-clock readings and run identity are masked.
"""

import importlib.util
import json

from repro.obs import EVENT_TYPES, read_events, validate_stream

from ..test_golden import GOLDEN_DIR

_spec = importlib.util.spec_from_file_location(
    "telemetry_stream", GOLDEN_DIR / "telemetry_stream.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: Fields whose values differ between two runs of the same workload.
VOLATILE = {"run_id", "entropy", "started_at", "git_rev", "python",
            "platform", "wall_s", "elapsed_s", "trials_per_s"}


def _volatile(key: str) -> bool:
    return key in VOLATILE or key.endswith(("_us", "failover_ms"))


def _mask(value):
    """``value`` with every volatile field replaced by a placeholder.

    Timers hold wall-clock seconds, so only their counts are kept.
    """
    if not isinstance(value, dict):
        return value
    out = {}
    for key, item in value.items():
        if _volatile(key):
            out[key] = "<masked>"
        elif key == "timers":
            out[key] = {name: item[name]["count"] for name in item}
        else:
            out[key] = _mask(item)
    return out


def test_fold_reproduces_the_committed_text():
    expected = (GOLDEN_DIR / golden.TEXT).read_text(encoding="utf-8")
    assert golden.render() == expected


def test_fixture_covers_every_event_type():
    records = read_events(GOLDEN_DIR / golden.STREAM)
    validate_stream(records)
    missing = set(EVENT_TYPES) - {r["type"] for r in records}
    assert not missing, (
        f"add {sorted(missing)} to tests/golden/telemetry_stream.py "
        "and regenerate the fixture")


def test_rerun_gives_the_committed_stream(tmp_path):
    path = tmp_path / "run.jsonl"
    golden.record(path)
    fresh = [_mask(r) for r in read_events(path)]
    committed = [_mask(r) for r in read_events(GOLDEN_DIR / golden.STREAM)]
    assert [r["type"] for r in fresh] == [r["type"] for r in committed]
    for ours, theirs in zip(fresh, committed):
        assert json.dumps(ours) == json.dumps(theirs), ours["type"]
