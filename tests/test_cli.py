"""Tests for the CLI entry point and its experiment registry."""

import json

import pytest

from repro.cli import REGISTRY, ExperimentSpec, RunContext, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "levels match the paper figure: yes" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "reproduced: yes" in capsys.readouterr().out

    def test_quick_fig2(self, capsys):
        assert main(["fig2", "--quick", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "avg_rounds" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_path_rejected_outside_stats(self):
        with pytest.raises(SystemExit):
            main(["fig1", "some/file.jsonl"])


class TestRegistry:
    def test_every_experiment_is_declared(self):
        for name, exp in REGISTRY.items():
            assert isinstance(exp, ExperimentSpec)
            assert exp.name == name
            assert exp.description
            assert callable(exp.runner)
            # Trial defaults come in pairs: quick implies full.
            assert (exp.quick_trials is None) == (exp.full_trials is None)

    def test_trials_resolution_precedence(self):
        exp = REGISTRY["fig2"]
        assert exp.resolve_trials(quick=False, trials=7) == 7
        assert exp.resolve_trials(quick=True, trials=None) == exp.quick_trials
        assert exp.resolve_trials(quick=False, trials=None) == exp.full_trials

    def test_runner_receives_resolved_context(self):
        seen = {}

        def probe(ctx: RunContext) -> str:
            seen["ctx"] = ctx
            return "ok"

        exp = ExperimentSpec(name="probe", description="x", runner=probe,
                             quick_trials=3, full_trials=30)
        assert exp.run(quick=True) == "ok"
        assert seen["ctx"] == RunContext(quick=True, trials=3)


class TestStatsCommand:
    def test_metrics_out_then_stats_round_trip(self, capsys, tmp_path):
        run = tmp_path / "run.jsonl"
        assert main(["fig2", "--quick", "--trials", "5",
                     "--metrics-out", str(run)]) == 0
        capsys.readouterr()
        assert main(["stats", str(run)]) == 0
        out = capsys.readouterr().out
        assert "gs kernel" in out
        assert "trials/s" in out
        # The stream is schema-valid JSONL framed by manifest/run_end.
        records = [json.loads(line) for line in run.read_text().splitlines()]
        assert records[0]["type"] == "manifest"
        assert records[-1]["type"] == "run_end"

    def test_stats_requires_path(self):
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_stats_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "an event"}\n')
        assert main(["stats", str(bad)]) == 1
        assert "schema" in capsys.readouterr().err
