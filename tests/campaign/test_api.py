"""The campaign facade verbs and the unified experiment interface."""

import repro
from repro.analysis.experiments import (
    REGISTRY,
    ExperimentSpec,
    get_experiment,
)
from repro.campaign import CampaignSpec
from repro.cli import main


class TestFacade:
    def test_top_level_campaign_is_the_verb(self):
        assert callable(repro.campaign)
        assert repro.campaign is repro.api.campaign

    def test_subpackage_stays_importable(self):
        from repro.campaign import run_campaign  # noqa: F401 — the point

    def test_campaign_accepts_spec_dict_and_path(self, tmp_path):
        spec = CampaignSpec(name="f", dims=(3,), fault_counts=(0,),
                            policies=("safety",), trials=3)
        from_obj = repro.campaign(spec, out_dir=tmp_path / "a")
        from_dict = repro.campaign(
            {"name": "f", "dims": 3, "fault_counts": 0,
             "policies": "safety", "trials": 3},
            out_dir=tmp_path / "b")
        path = tmp_path / "spec.json"
        path.write_text(spec.canonical_json())
        from_file = repro.campaign(path, out_dir=tmp_path / "c")
        assert from_obj.complete and from_dict.complete and from_file.complete
        assert (from_obj.results_path.read_bytes()
                == from_dict.results_path.read_bytes()
                == from_file.results_path.read_bytes())

    def test_resume_and_report_verbs(self, tmp_path):
        spec = {"name": "f", "dims": 3, "fault_counts": [0, 1],
                "policies": "safety", "trials": 3}
        repro.campaign(spec, out_dir=tmp_path / "c", max_cells=1)
        resumed = repro.resume_campaign(tmp_path / "c")
        assert resumed.complete
        assert repro.campaign_report(tmp_path / "c").startswith(
            "# Campaign report: f")

    def test_confirm_break_coerces_addresses(self):
        ok, issues = repro.confirm_break(
            4, ["0000", "0101", "1010", "1111"], "0001", "0100")
        assert ok, issues


class TestUnifiedRegistry:
    def test_every_experiment_is_a_spec_with_flags(self):
        assert REGISTRY
        for name, exp in REGISTRY.items():
            assert isinstance(exp, ExperimentSpec)
            assert exp.name == name
            assert exp.description
            assert "--quick" in exp.flags

    def test_run_accepts_keyword_interface(self, capsys):
        out = get_experiment("fig1").run(quick=True)
        assert isinstance(out, str)


class TestCliList:
    def test_list_prints_descriptions_and_flags(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name, exp in REGISTRY.items():
            assert name in out
            assert exp.description in out
        assert "--trials N" in out
        assert "--quick" in out


class TestCampaignCli:
    def test_run_resume_report_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "c.toml"
        spec_path.write_text(
            '[campaign]\nname = "cli"\ndims = 3\n'
            'fault_counts = [0, 1]\npolicies = ["safety", "oracle"]\n'
            'trials = 3\n')
        out_dir = tmp_path / "camp"
        assert main(["campaign", "run", str(spec_path),
                     "--out", str(out_dir), "--max-cells", "1"]) == 3
        assert "incomplete" in capsys.readouterr().out
        assert main(["campaign", "resume", str(out_dir)]) == 0
        assert "complete" in capsys.readouterr().out
        assert main(["campaign", "report", str(out_dir)]) == 0
        assert "# Campaign report: cli" in capsys.readouterr().out

    def test_adversarial_subcommand(self, capsys):
        assert main(["campaign", "adversarial", "--dim", "5"]) == 0
        out = capsys.readouterr().out
        assert "confirmed by invariant checker: yes" in out
