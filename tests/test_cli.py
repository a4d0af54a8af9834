import copy
import json
from pathlib import Path

import pytest

from edsim.cli import main
from edsim.stochastics import default_profile_path


def read(path: Path) -> bytes:
    return path.read_bytes()


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRun:
    def test_identical_flags_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run", "--scenario", "C.1", "--seed", "7", "--replications", "2",
                "--days", "3"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        for name in ("rep_00.csv", "rep_01.csv", "report.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_jobs_flag_does_not_change_results(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        args = ["run", "--seed", "5", "--replications", "2", "--days", "2"]
        assert run_cli(*args, "--jobs", "1", "--out", str(out1)) == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(out2)) == 0
        assert read(out1 / "report.json") == read(out2 / "report.json")
        assert read(out1 / "rep_01.csv") == read(out2 / "rep_01.csv")

    def test_low_sample_marked(self, tmp_path):
        out = tmp_path / "tiny"
        assert run_cli("run", "--days", "1", "--replications", "1",
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["low_sample"] is True

    def test_tuple_literal_scenario(self, tmp_path):
        out = tmp_path / "t"
        assert run_cli("run", "--scenario", "(-,-,120,-,5,-,-,10)", "--days", "2",
                       "--replications", "1", "--out", str(out)) == 0
        meta = json.loads((out / "report.json").read_text())["meta"]
        assert meta["scenario"] == "(-,-,120,-,5,-,-,10)"

    def test_scenario_json_file(self, tmp_path):
        spec = tmp_path / "my_scenario.json"
        spec.write_text(json.dumps({"name": "mine", "t": None, "p": None, "tau_g": 90,
                                    "tau_w": None, "e": None, "l": None, "a": None,
                                    "r": None}))
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", str(spec), "--days", "2",
                       "--replications", "1", "--out", str(out)) == 0
        meta = json.loads((out / "report.json").read_text())["meta"]
        assert meta["scenario"] == "(-,-,90,-,-,-,-,-)"

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run_cli("run", "--scenario", "Q.7", "--out", str(out)) == 2
        assert not out.exists()

    def test_svg_written(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("run", "--days", "2", "--replications", "1", "--svg",
                       "--out", str(out)) == 0
        svg = (out / "kpis.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ("run", "--days", "0"),
        ("run", "--days", "-1"),
        ("run", "--replications", "0"),
        ("run", "--jobs", "0"),
        ("validate", "--jobs", "0"),
    ])
    def test_non_positive_count_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: edsim") and "must be a positive integer" in err
        assert not out.exists()

    def test_non_integer_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--days", "two")
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("run", "--seed", "-1"),
        ("validate", "--seed", "-3"),
        ("sweep", "--seed", "-1"),
    ])
    def test_negative_seed_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: edsim") and "must be a non-negative integer" in err
        assert not out.exists()

    def test_seed_zero_is_accepted(self, tmp_path):
        assert run_cli("run", "--seed", "0", "--days", "1", "--replications", "1",
                       "--out", str(tmp_path / "o")) == 0


class TestProfileHandling:
    def test_missing_profile_exits_2(self, tmp_path):
        assert run_cli("run", "--profile", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")) == 2

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        with open(default_profile_path()) as fh:
            raw = json.load(fh)
        del raw["thresholds"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run_cli("run", "--profile", str(bad), "--out", str(tmp_path / "o")) == 2
        assert "thresholds" in capsys.readouterr().err

    def test_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EDSIM_PROFILE", str(tmp_path / "ghost.json"))
        assert run_cli("run", "--out", str(tmp_path / "o")) == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_unwritable_output_exits_3(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        # out path collides with an existing file -> mkdir fails
        assert run_cli("run", "--days", "1", "--replications", "1",
                       "--out", str(target)) == 3


class TestSweep:
    def test_subset_rows_and_flags(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenarios", "E.4", "F.1", "--seed", "3",
                       "--replications", "3", "--days", "4", "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "scenario,in,wt_first,wt_last,los,outlier_green,outlier_white,flags"
        assert len(lines) == 4  # header + baseline + 2 scenarios
        assert lines[1].startswith("baseline,")
        assert (out / "reports" / "F.1.json").exists()

    def test_unknown_name_rejected_before_running(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenarios", "E.4", "NOPE", "--out", str(out)) == 2
        assert not out.exists()

    def test_repeated_name_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenarios", "C.4", "F.1", "C.4", "--out", str(out)) == 2
        assert "given more than once: C.4" in capsys.readouterr().err
        assert not out.exists()

    def test_full_catalog_sweep_row_count(self, tmp_path):
        out = tmp_path / "all"
        assert run_cli("sweep", "--replications", "1", "--days", "2", "--seed", "2",
                       "--out", str(out)) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1 + 42  # header + baseline + catalog

    def test_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--scenarios", "G.5", "--seed", "11", "--replications", "2",
                "--days", "3"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert read(a / "comparison.csv") == read(b / "comparison.csv")


class TestValidate:
    def test_doubled_service_means_fail_on_los(self, tmp_path, capsys):
        with open(default_profile_path()) as fh:
            raw = json.load(fh)
        heavy = copy.deepcopy(raw)
        for name in ("first_general", "first_ortho", "first_derma", "last_visit"):
            heavy["service"][name]["mean"] *= 2.0
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(heavy))
        code = run_cli("validate", "--profile", str(path), "--replications", "2",
                       "--days", "6")
        captured = capsys.readouterr().out
        assert code == 1
        assert "los" in captured and "FAIL" in captured

    def test_missing_profile_exits_2(self, tmp_path):
        assert run_cli("validate", "--profile", str(tmp_path / "gone.json")) == 2


class TestCalibrateCommand:
    def test_zero_budget_flags_failure(self, tmp_path, capsys):
        out = tmp_path / "cal"
        code = run_cli("calibrate", "--budget", "0", "--out", str(out))
        assert code == 1
        assert "FAILED" in capsys.readouterr().out
        assert (out / "fitted_profile.json").exists()
        assert (out / "calibration_trace.json").exists()

    def test_small_budget_writes_trace(self, tmp_path):
        out = tmp_path / "cal"
        run_cli("calibrate", "--budget", "2", "--probe-replications", "1",
                "--probe-days", "2", "--replications", "1", "--days", "2",
                "--seed", "5", "--out", str(out))
        trace = json.loads((out / "calibration_trace.json").read_text())
        assert len(trace["evals"]) >= 2
        assert trace["evals"][0]["multipliers"]["arrival_scale"] == 1.0
