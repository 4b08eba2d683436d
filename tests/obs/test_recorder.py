"""RunRecorder: manifest framing, emit-time validation, readers."""

import json

import pytest

from repro.core import FaultSet, Hypercube
from repro.obs import (
    EVENT_TYPES,
    RunRecorder,
    SCHEMA_VERSION,
    SIGNALS,
    SchemaError,
    read_events,
    summarize_run,
    validate_event,
    validate_run,
    validate_stream,
)
from repro.routing import route_unicast
from repro.safety import SafetyLevels
from repro.simcore.trace import Trace


@pytest.fixture
def run_path(tmp_path):
    return tmp_path / "run.jsonl"


class TestManifestFraming:
    def test_open_writes_manifest_close_writes_run_end(self, run_path):
        with RunRecorder(run_path, tool="test") as rec:
            rec.emit("experiment", name="x", elapsed_s=0.1, status="ok")
        records = read_events(run_path)
        assert [r["type"] for r in records] == [
            "manifest", "experiment", "run_end"]
        manifest = records[0]
        assert manifest["v"] == SCHEMA_VERSION
        assert manifest["tool"] == "test"
        assert len(manifest["run_id"]) == 32
        assert len(manifest["entropy"]) == 32
        assert manifest["run_id"] != manifest["entropy"]
        assert "T" in manifest["started_at"]  # ISO-8601

    def test_run_end_counts_prior_events_and_status(self, run_path):
        rec = RunRecorder(run_path)
        rec.emit("experiment", name="a", elapsed_s=0.0, status="ok")
        rec.emit("experiment", name="b", elapsed_s=0.0, status="ok")
        rec.close()
        end = read_events(run_path)[-1]
        assert end["events"] == 3  # manifest + 2 experiments
        assert end["status"] == "ok"
        assert end["wall_s"] >= 0.0

    def test_exception_inside_context_records_error_status(self, run_path):
        with pytest.raises(RuntimeError):
            with RunRecorder(run_path):
                raise RuntimeError("boom")
        records = read_events(run_path)
        assert records[-1]["type"] == "run_end"
        assert records[-1]["status"] == "error"
        validate_stream(records)  # still a complete, valid stream

    def test_distinct_runs_get_distinct_identity(self, tmp_path):
        a = RunRecorder(tmp_path / "a.jsonl")
        b = RunRecorder(tmp_path / "b.jsonl")
        a.close()
        b.close()
        assert a.run_id != b.run_id

    def test_config_round_trips_through_manifest(self, run_path):
        with RunRecorder(run_path, config={"trials": 5, "quick": True}):
            pass
        manifest = read_events(run_path)[0]
        assert manifest["config"] == {"trials": 5, "quick": True}


class TestEmitValidation:
    def test_unknown_event_type_rejected(self, run_path):
        with RunRecorder(run_path) as rec:
            with pytest.raises(SchemaError):
                rec.emit("not_a_type", x=1)

    def test_unknown_field_rejected(self, run_path):
        with RunRecorder(run_path) as rec:
            with pytest.raises(SchemaError):
                rec.emit("experiment", name="x", elapsed_s=0.0,
                         status="ok", surprise=1)

    def test_missing_required_field_rejected(self, run_path):
        with RunRecorder(run_path) as rec:
            with pytest.raises(SchemaError):
                rec.emit("experiment", name="x")  # no elapsed_s/status

    def test_none_fields_are_dropped_not_emitted(self, run_path):
        with RunRecorder(run_path) as rec:
            rec.emit("route_attempt", router="sl", status="delivered",
                     condition="C1", hamming=2, hops=2, detour=None)
        event = read_events(run_path)[1]
        assert "detour" not in event

    def test_emit_after_close_raises(self, run_path):
        rec = RunRecorder(run_path)
        rec.close()
        with pytest.raises(RuntimeError):
            rec.emit("experiment", name="x", elapsed_s=0.0, status="ok")

    def test_double_close_is_idempotent(self, run_path):
        rec = RunRecorder(run_path)
        rec.close()
        rec.close()
        assert validate_run(run_path) == 2


class TestStreamValidation:
    def test_validate_run_counts_records(self, run_path):
        with RunRecorder(run_path) as rec:
            rec.emit("experiment", name="x", elapsed_s=0.0, status="ok")
        assert validate_run(run_path) == 3

    def test_truncated_stream_rejected(self, run_path):
        with RunRecorder(run_path) as rec:
            rec.emit("experiment", name="x", elapsed_s=0.0, status="ok")
        lines = run_path.read_text().splitlines()
        run_path.write_text("\n".join(lines[:-1]) + "\n")  # drop run_end
        with pytest.raises(SchemaError, match="truncated"):
            validate_run(run_path)
        with pytest.raises(SchemaError):
            summarize_run(run_path)

    def test_non_json_lines_surface_as_schema_errors(self, run_path):
        run_path.write_text("this is not json\n")
        with pytest.raises(SchemaError, match="JSON"):
            validate_run(run_path)
        with pytest.raises(SchemaError, match="JSON"):
            summarize_run(run_path)

    def test_sequence_gap_rejected(self):
        good = [
            {"v": SCHEMA_VERSION, "seq": 0, "type": "manifest",
             "run_id": "r", "entropy": "e", "started_at": "t", "tool": "x"},
            {"v": SCHEMA_VERSION, "seq": 2, "type": "run_end",
             "events": 1, "wall_s": 0.0, "status": "ok"},
        ]
        with pytest.raises(SchemaError, match="seq"):
            validate_stream(good)

    def test_foreign_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            validate_event({"v": SCHEMA_VERSION + 1, "seq": 0,
                            "type": "run_end", "events": 0, "wall_s": 0.0,
                            "status": "ok"})

    def test_empty_stream_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            validate_stream([])

    def test_every_event_type_has_required_fields_declared(self):
        for etype, spec in EVENT_TYPES.items():
            assert any(spec.values()), f"{etype} declares no required field"


class TestSignalSpec:
    """The spec's value domains are copies of facts owned elsewhere."""

    def test_keyed_counter_domains_match_their_sources(self):
        from repro.routing.result import RouteStatus, SourceCondition
        from repro.simcore import message

        statuses = {s.value for s in RouteStatus}
        conditions = {c.value for c in SourceCondition}
        drops = {message.DROP_FAULTY_NODE, message.DROP_FAULTY_LINK,
                 message.DROP_LINK_DOWN, message.DROP_CHAOS}
        for kind, field, want in (
                ("route_attempt", "status", statuses),
                ("route_attempt", "condition", conditions),
                ("routing_batch", "statuses", statuses),
                ("routing_batch", "conditions", conditions),
                ("sim_drop", "reason", drops)):
            assert set(SIGNALS[kind].domains[field]) == want, (kind, field)

    def test_every_metric_reads_a_declared_field(self):
        for kind, signal in SIGNALS.items():
            for metric in signal.metrics:
                _prefix, _, key = metric.name.partition("{")
                by = (metric.by,) if isinstance(metric.by, str) else (
                    metric.by or ())
                named = [f for f in (*by, metric.weight, key[:-1]) if f]
                if signal.fields:
                    assert set(named) <= set(signal.fields), (kind, metric)
                if key:
                    assert key[:-1] in signal.domains, (kind, metric)


class TestConvenienceEmitters:
    def test_record_result_wraps_any_result_like(self, run_path):
        topo = Hypercube(4)
        sl = SafetyLevels.compute(topo, FaultSet(nodes=[0b0110]))
        result = route_unicast(sl, 0b0000, 0b1111)
        with RunRecorder(run_path) as rec:
            rec.record_result(result)
        event = read_events(run_path)[1]
        assert event["type"] == "result"
        assert event["kind"] == "RouteResult"
        assert event["status"] == result.status.value
        assert event["data"]["hops"] == result.hops

    def test_record_trace_bridges_simulator_records(self, run_path):
        trace = Trace()
        trace.record(0, "send", 3, detail={"to": 7})
        trace.record(1, "deliver", 7)
        with RunRecorder(run_path) as rec:
            rec.record_trace(trace)
        events = [r for r in read_events(run_path) if r["type"] == "sim_trace"]
        assert len(events) == 2
        assert events[0]["event"] == "send"
        assert events[0]["node"] == 3
        assert events[1]["time"] == 1

    def test_stream_is_compact_single_line_json(self, run_path):
        with RunRecorder(run_path) as rec:
            rec.emit("experiment", name="x", elapsed_s=0.0, status="ok")
        for line in run_path.read_text().splitlines():
            parsed = json.loads(line)
            assert json.dumps(parsed, separators=(",", ":")) == line
