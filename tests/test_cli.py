import copy
import json
from pathlib import Path
from xml.dom import minidom

import pytest

from edsim.calibrate import BANDS, CalibrationTarget
from edsim.cli import main
from edsim.harness import run_scenario
from edsim.report import svg_bar_chart
from edsim.scenario import MAX_EXTRA_TEAMS, Scenario
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

    @pytest.mark.parametrize("text", ["{bad", "[1,2]", '{"tau_g": "abc"}', '{"tau_g": 1.5}',
                                      '{"tau-g": 90}'])
    def test_bad_scenario_json_file_exits_2(self, text, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(text)
        out = tmp_path / "never"
        assert run_cli("run", "--scenario", str(spec), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "Traceback" not in err
        assert not out.exists()

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run_cli("run", "--scenario", "missing.json", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "scenario error: scenario file not found: missing.json\n"
        assert not out.exists()

    def test_extra_teams_over_the_cap_exit_2(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run_cli("run", "--scenario", f"(-,-,-,-,-,-,{MAX_EXTRA_TEAMS + 1},-)",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: a is at most") and "Traceback" not in err
        assert not out.exists()

    def test_svg_written(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("run", "--days", "2", "--replications", "1", "--svg",
                       "--out", str(out)) == 0
        svg = (out / "kpis.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_svg_text_is_escaped(self, tmp_path):
        scen = tmp_path / "a&b.json"
        scen.write_text("{}")
        out = tmp_path / "s"
        assert run_cli("run", "--scenario", str(scen), "--days", "1", "--replications", "1",
                       "--svg", "--out", str(out)) == 0
        texts = minidom.parse(str(out / "kpis.svg")).getElementsByTagName("text")
        assert texts[0].firstChild.data == "KPIs: a&b"
        chart = minidom.parseString(svg_bar_chart("t", ["<x>"], [1.0]))
        assert chart.getElementsByTagName("text")[-1].firstChild.data == "<x>"


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

    def test_non_utf8_profile_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        assert run_cli("validate", "--profile", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("profile error:") and "Traceback" not in err

    def test_overlong_integer_literal_exits_2(self, tmp_path, capsys):
        with open(default_profile_path()) as fh:
            text = fh.read()
        bad = tmp_path / "long.json"
        bad.write_text(text.replace('"version": 1', '"version": 1' + "0" * 5000, 1))
        assert run_cli("validate", "--profile", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("profile error: profile is not valid JSON:") and "Traceback" not in err

    def test_reserved_last_visit_team_id_exits_2(self, tmp_path, capsys):
        # scenario a>=1 names its dedicated last-visit teams LV1, LV2, ...
        with open(default_profile_path()) as fh:
            raw = json.load(fh)
        raw["resources"]["low_general"]["teams"][0]["id"] = "LV1"
        bad = tmp_path / "lv.json"
        bad.write_text(json.dumps(raw))
        assert run_cli("run", "--scenario", "F.1", "--profile", str(bad), "--days", "1",
                       "--replications", "1", "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("profile error:") and "Traceback" not in err

    def test_whole_float_shift_minutes_run_like_integers(self, tmp_path):
        with open(default_profile_path()) as fh:
            raw = json.load(fh)
        floats = copy.deepcopy(raw)
        for pool in ("low_general", "high_general", "orthopaedic", "dermatological"):
            for team in floats["resources"][pool]["teams"]:
                team["start"], team["end"] = float(team["start"]), float(team["end"])
        for name, profile in (("int", raw), ("float", floats)):
            (tmp_path / f"{name}.json").write_text(json.dumps(profile))
            assert run_cli("run", "--profile", str(tmp_path / f"{name}.json"), "--days", "2",
                           "--replications", "1", "--out", str(tmp_path / name)) == 0
        assert '"start": 480.0' in (tmp_path / "float.json").read_text()
        assert read(tmp_path / "float" / "rep_00.csv") == read(tmp_path / "int" / "rep_00.csv")

    def test_nan_service_mean_exits_2(self, tmp_path, capsys):
        with open(default_profile_path()) as fh:
            raw = json.load(fh)
        raw["service"]["first_general"]["mean"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(raw))
        assert run_cli("run", "--profile", str(bad), "--days", "1", "--replications", "1",
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "service/first_general/mean: nan is not a finite float" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("flags", [["--scenarios"], ["--scenarios", "C.4", "--scenarios"]])
    def test_empty_scenarios_flag_is_a_usage_error(self, flags, tmp_path, capsys):
        # a bare flag would otherwise run the whole catalog, and a trailing
        # one would discard the names given before it
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", *flags, "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: edsim") and "--scenarios: expected at least one" in err
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

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cal"
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--budget", "-3", "--out", str(out))
        assert exc.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err
        assert not (out / "fitted_profile.json").exists()

    def test_small_budget_writes_trace(self, tmp_path):
        out = tmp_path / "cal"
        run_cli("calibrate", "--budget", "2", "--probe-replications", "1",
                "--probe-days", "2", "--replications", "1", "--days", "2",
                "--seed", "5", "--out", str(out))
        trace = json.loads((out / "calibration_trace.json").read_text())
        assert len(trace["evals"]) >= 2
        assert trace["evals"][0]["multipliers"]["arrival_scale"] == 1.0


class TestStdout:
    """Every command's printed lines, rebuilt from what the same run wrote
    (or, for validate, from `run_scenario` on the same arguments)."""

    def test_run_prints_its_headline_with_the_low_sample_tag(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", "C.1", "--seed", "3", "--replications", "1",
                       "--days", "2", "--out", str(out)) == 0
        k = json.loads((out / "report.json").read_text())["kpis"]
        assert capsys.readouterr().out == (
            f"run C.1: In={k['in_per_day']:.2f} WT1st={k['wt_first']:.2f} "
            f"WTlast={k['wt_last']:.2f} LoS={k['los']:.2f} [low-sample]\n"
            f"wrote 1 event logs + report.json to {out}\n")

    def test_sweep_prints_each_los_against_the_baseline(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenarios", "B.1", "F.1", "--seed", "3",
                       "--replications", "2", "--days", "2", "--out", str(out)) == 0
        los = {name: json.loads((out / "reports" / f"{name}.json").read_text())["kpis"]["los"]
               for name in ("baseline", "B.1", "F.1")}
        assert capsys.readouterr().out == (
            f"B.1: LoS {los['B.1']:.2f} (baseline {los['baseline']:.2f})\n"
            f"F.1: LoS {los['F.1']:.2f} (baseline {los['baseline']:.2f})\n"
            f"wrote 3-row comparison.csv to {out}\n")

    def test_validate_prints_its_table_and_outlier_line(self, default_profile, capsys):
        code = run_cli("validate", "--seed", "3", "--replications", "2", "--days", "2")
        agg, _ = run_scenario(default_profile, Scenario(), 3, 2, 2)
        target = CalibrationTarget()
        lines = [f"{'kpi':<12}{'simulated':>12}{'target':>10}{'delta':>9}{'band':>7}  verdict"]
        for kpi, band in BANDS.items():
            simulated, published = agg.vectors[kpi], getattr(target, kpi)
            mean = sum(simulated) / len(simulated)
            delta = (mean - published) / published
            lines.append(f"{kpi:<12}{mean:>12.2f}{published:>10.2f}{100 * delta:>+8.1f}%"
                         f"{100 * band:>6.0f}%  {'pass' if abs(delta) <= band else 'FAIL'}")
        green, white = (sum(agg.vectors[f"outlier_{c}"]) / 2 for c in ("GREEN", "WHITE"))
        lines.append(f"outliers: green {green:.2f}% (ref 3.88), white {white:.2f}% (ref 25.47)")
        lines.append(f"validation {'PASSED' if code == 0 else 'FAILED'}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_calibrate_prints_its_full_scale_check(self, tmp_path, capsys):
        out = tmp_path / "cal"
        code = run_cli("calibrate", "--budget", "2", "--probe-replications", "1",
                       "--probe-days", "2", "--replications", "1", "--days", "2",
                       "--seed", "5", "--out", str(out))
        trace = json.loads((out / "calibration_trace.json").read_text())
        k = [e for e in trace["evals"] if e["eval"] == "full-scale"][-1]["kpis"]
        assert list(k) == ["in_per_day", "wt_first", "wt_last", "los"]
        assert code == (0 if trace["converged"] else 1)
        assert capsys.readouterr().out == (
            f"calibration: {trace['message']}\n"
            f"full-scale check: In={k['in_per_day']:.2f} WT1st={k['wt_first']:.2f} "
            f"WTlast={k['wt_last']:.2f} LoS={k['los']:.2f}\n"
            f"wrote fitted_profile.json + calibration_trace.json to {out}\n")
