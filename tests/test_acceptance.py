"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive simulations are shared through session-scoped fixtures; every
run is deterministic, so these results are reproducible bit for bit.
"""

import json
import time
from collections import defaultdict
from pathlib import Path

import pytest

from edsim.cli import main as cli_main
from edsim.harness import run_scenario
from edsim.kernel import CODE_RANK
from edsim.model import Replication
from edsim.scenario import Scenario, catalog, parse, parse_tuple
from edsim.stochastics import PatientTape, Profile, draw_patients

from conftest import make_mini_raw
from log_oracle import (assert_no_overbooking, check_red_immediacy, collect_patients, on_shift,
                        parse_detail, read_log_csv, run_drained, run_logged, team_windows)

SEED = 42
FIXTURE = Path(__file__).parent / "data" / "table3_scenarios.json"


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="session")
def ac1_result(default_raw):
    from edsim.calibrate import calibrate

    fit = calibrate(default_raw, budget=120)
    t0 = time.time()
    agg = run_scenario(Profile(fit.profile_raw), Scenario(), SEED, 10, 30, jobs=1)
    return fit, agg, time.time() - t0


@pytest.fixture(scope="session")
def sweep_results(default_profile):
    """Baseline + every single-letter scenario + Cb.15 at 6x30, on two
    workers (results do not depend on `jobs`: AC3). Replication r of every
    scenario runs on one tape, drawn once, as `edsim sweep` does."""
    cat = catalog()
    names = [n for n in cat if not n.startswith("Cb")] + ["Cb.15"]
    tapes = [PatientTape(default_profile, SEED, rep, 30) for rep in range(6)]
    out = {}
    out["baseline"] = run_scenario(default_profile, Scenario(), SEED, 6, 30, jobs=2,
                                   tapes=tapes)
    for name in names:
        out[name] = run_scenario(default_profile, cat[name], SEED, 6, 30, jobs=2, tapes=tapes)
    return out


@pytest.mark.slow
class TestAC1Calibration:
    def test_calibration_targets(self, ac1_result):
        fit, agg, _elapsed = ac1_result
        checks = [
            ("In", agg.value("in_per_day"), 238.23, 0.02),
            ("WT_1st", agg.value("wt_first"), 70.52, 0.10),
            ("WT_last", agg.value("wt_last"), 54.94, 0.10),
            ("LoS", agg.value("los"), 208.60, 0.05),
        ]
        details = []
        ok = fit.converged
        for name, got, target, tol in checks:
            rel = (got - target) / target
            ok = ok and abs(rel) <= tol
            details.append(f"{name}={got:.2f} ({rel:+.1%} vs {target}, tol {tol:.0%})")
        verdict("AC1 calibration", ok,
                f"calibrate {fit.message}; " + "; ".join(details))

    def test_runtime_budget(self, ac1_result):
        _, _, elapsed = ac1_result
        verdict("AC1 runtime", elapsed < 300.0, f"10x30-day validation took {elapsed:.0f}s < 300s")


@pytest.mark.slow
class TestAC2DirectionalScenarios:
    def test_f1_largest_single_letter_los_reduction(self, sweep_results):
        base = sweep_results["baseline"]
        deltas = {n: r.value("los") - base.value("los") for n, r in sweep_results.items()
                  if n not in ("baseline", "Cb.15")}
        best = min(deltas, key=deltas.get)
        verdict("AC2 F.1 largest LoS cut", best == "F.1",
                f"best={best} ({deltas[best]:+.1f}'), F.1 {deltas['F.1']:+.1f}'")

    def test_f1_wt_last_below_point_six_baseline(self, sweep_results):
        base, f1 = sweep_results["baseline"], sweep_results["F.1"]
        ratio = f1.value("wt_last") / base.value("wt_last")
        verdict("AC2 F.1 WT_last", ratio < 0.6,
                f"{f1.value('wt_last'):.2f} vs baseline {base.value('wt_last'):.2f} "
                f"(x{ratio:.2f} < 0.6)")

    def test_g5_los_reduction_band(self, sweep_results):
        cut = sweep_results["baseline"].value("los") - sweep_results["G.5"].value("los")
        verdict("AC2 G.5 LoS cut", 8.0 <= cut <= 18.0, f"{cut:.1f}' in [8, 18]")

    def test_c4_green_outliers_near_zero(self, sweep_results):
        pct = sweep_results["C.4"].value("outlier_GREEN")
        verdict("AC2 C.4 green outliers", pct < 0.5, f"{pct:.2f}% < 0.5%")

    def test_b1_tradeoff(self, sweep_results):
        base, b1 = sweep_results["baseline"], sweep_results["B.1"]
        ok = (b1.value("wt_last") < 10.0 and b1.value("wt_first") > base.value("wt_first")
              and b1.value("outlier_GREEN") > base.value("outlier_GREEN")
              and b1.value("outlier_WHITE") > base.value("outlier_WHITE"))
        verdict("AC2 B.1 trade-off", ok,
                f"WT_last={b1.value('wt_last'):.2f}<10, "
                f"WT_1st {base.value('wt_first'):.1f}->{b1.value('wt_first'):.1f}, "
                f"outliers G {base.value('outlier_GREEN'):.2f}->{b1.value('outlier_GREEN'):.2f} "
                f"W {base.value('outlier_WHITE'):.2f}->{b1.value('outlier_WHITE'):.2f}")

    def test_cb15_los_reduction_band(self, sweep_results):
        base, cb = sweep_results["baseline"], sweep_results["Cb.15"]
        pct = 100.0 * (base.value("los") - cb.value("los")) / base.value("los")
        verdict("AC2 Cb.15 LoS cut", 14.0 <= pct <= 24.0, f"{pct:.1f}% in [14, 24]")

    def test_e_series_monotone(self, sweep_results):
        seq = ["baseline", "E.1", "E.2", "E.3", "E.4"]
        ins = [sweep_results[n].value("in_per_day") for n in seq]
        wts = [sweep_results[n].value("wt_first") for n in seq]
        ok = all(a >= b for a, b in zip(ins, ins[1:])) and \
            all(a >= b for a, b in zip(wts, wts[1:]))
        verdict("AC2 E-series monotone", ok,
                f"In {['%.1f' % x for x in ins]}, WT_1st {['%.1f' % x for x in wts]}")


class TestAC3Determinism:
    def test_run_command_byte_identical(self, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            code = cli_main(["run", "--scenario", "Cb.3", "--seed", "13",
                             "--replications", "3", "--days", "3", "--out", str(out)])
            assert code == 0
            outs.append(out)
        same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                   for n in ("rep_00.csv", "rep_01.csv", "rep_02.csv", "report.json"))
        verdict("AC3 run determinism", same, "3 event logs + report byte-identical")

    def test_sweep_command_byte_identical(self, tmp_path):
        outs = []
        for sub in ("s1", "s2"):
            out = tmp_path / sub
            code = cli_main(["sweep", "--scenarios", "C.4", "B.1", "--seed", "29",
                             "--replications", "2", "--days", "3", "--out", str(out)])
            assert code == 0
            outs.append(out)
        same = (outs[0] / "comparison.csv").read_bytes() == (outs[1] / "comparison.csv").read_bytes()
        verdict("AC3 sweep determinism", same, "comparison.csv byte-identical")

    def test_parallel_equals_serial(self, tmp_path):
        a, b = tmp_path / "j1", tmp_path / "j2"
        for out, jobs in ((a, "1"), (b, "3")):
            assert cli_main(["run", "--seed", "31", "--replications", "3", "--days", "2",
                             "--jobs", jobs, "--out", str(out)]) == 0
        same = all((a / n).read_bytes() == (b / n).read_bytes()
                   for n in ("rep_00.csv", "rep_02.csv", "report.json"))
        verdict("AC3 jobs independence", same, "--jobs 3 output equals --jobs 1")


def replay_first_visit_order(records, tau_g, tau_w):
    """Brute-force replay of the first-visit discipline straight from the log:
    static classes, FIFO within class, sticky promotion at the crossing time.
    Returns the number of starts that contradict the predicted order."""
    taus = {CODE_RANK["GREEN"]: tau_g, CODE_RANK["WHITE"]: tau_w}
    codes = {}
    enq = {}
    order = []
    waiting = []
    mismatches = 0
    seq = 0
    for r in records:
        if r.event == "TRIAGE_DONE":
            codes[r.patient_id] = parse_detail(r.detail)["code"]
        elif r.event == "ENQUEUE_FIRST":
            enq[r.patient_id] = r.time_min
            waiting.append((r.patient_id, seq))
            seq += 1
        elif r.event == "START_FIRST":
            t = r.time_min

            def key(entry):
                pid, s = entry
                rank = CODE_RANK[codes[pid]]
                tau = taus.get(rank)
                if tau is not None and t - enq[pid] > tau:
                    return (1, enq[pid] + tau, enq[pid], s)
                return (rank, enq[pid], s, 0)

            expected = min(waiting, key=key)
            if expected[0] != r.patient_id:
                mismatches += 1
                waiting = [w for w in waiting if w[0] != r.patient_id]
            else:
                waiting.remove(expected)
            order.append(r.patient_id)
    return mismatches, len(order)


class TestAC4QueueOracle:
    def test_shrunken_instance_replay(self, default_raw, tmp_path):
        # one team, ~20 patients arriving in a morning burst, promotions on
        raw = make_mini_raw(default_raw, codes={"GREEN": 0.55, "WHITE": 0.45},
                            teams={"low_general": [("T1", 0, 0)]},
                            first_mean=25.0, last_mean=1.0, triage_mean=1.0)
        shares = {"GREEN": 0.55, "WHITE": 0.45, "YELLOW": 0.0, "RED": 0.0}
        for c, share in shares.items():
            raw["arrival_rates"][c] = [0.0] * 24
            for h in (8, 9, 10, 11):
                raw["arrival_rates"][c][h] = 5.0 * share  # ~20 patients per day
        scen = Scenario(tau_g=45, tau_w=90)
        profile = Profile(raw)
        total_starts = 0
        total_mismatches = 0
        for s in range(100):
            path = tmp_path / f"rep_{s:02d}.csv"
            run_drained(Replication(profile, scen, s, 1, draw_patients(profile, 1000 + s, s, 1),
                                    log_path=path))
            mism, starts = replay_first_visit_order(read_log_csv(path), 45, 90)
            total_mismatches += mism
            total_starts += starts
        verdict("AC4 queue oracle", total_mismatches == 0 and total_starts > 1500,
                f"{total_starts} first-visit starts replayed over 100 seeds, "
                f"{total_mismatches} mismatches")


class TestAC5InvariantSuite:
    def test_invariants_over_a_million_events(self, default_profile):
        runs = [
            (Scenario(), 6, True, True),          # baseline: affinity + red checks
            (Scenario(tau_g=60, tau_w=120), 3, True, True),
            (Scenario(p=1), 1, True, False),      # p=1: red zero-wait claim not applicable
            (Scenario(a=1), 1, False, False),     # a=1: affinity waived by design
        ]
        windows = team_windows(default_profile)
        total_events = 0
        chain = ["ARRIVE", "TRIAGE_DONE", "ENQUEUE_FIRST", "START_FIRST",
                 "END_FIRST", "ENQUEUE_LAST", "START_LAST", "DISCHARGE"]
        mix = defaultdict(int)
        npat = 0

        for scen, reps, check_affinity, check_red in runs:
            for rep in range(reps):
                _, records = run_logged(default_profile, scen, rep, SEED, 30)
                total_events += len(records)
                patients = collect_patients(records)

                for p in patients.values():
                    times = [p.get(e) for e in chain]
                    present = [t for t in times if t is not None]
                    assert present == sorted(present), "timestamp chain broken"
                    s = p.get("START_FIRST")
                    if s is not None:
                        assert on_shift(windows[p.first_team], s), "first visit off shift"
                    if p.get("START_LAST") is not None and check_affinity:
                        assert p.last_team == p.first_team, "affinity broken"
                    if p.get("LAB_RESULT") is not None and p.get("START_EXAM") is not None:
                        assert p.get("START_EXAM") >= p.get("LAB_RESULT"), "lab precedence"
                assert_no_overbooking(patients, records, default_profile.capacity)

                if check_red:
                    check_red_immediacy(patients, windows, default_profile)

                for p in patients.values():
                    if p.triage_detail is None:
                        continue
                    npat += 1
                    detail = p.triage_detail
                    mix["general"] += detail["type"] == "GENERAL"
                    mix["lab"] += detail["lab"] == "1"
                    exams = detail["exams"]
                    kinds = [] if exams == "-" else exams.split("+")
                    mix["xray"] += "xray" in kinds
                    mix["lt4"] += len(kinds) < 4

        rates = {k: mix[k] / npat for k in ("general", "lab", "xray", "lt4")}
        expected = {"general": 0.79, "lab": 0.54, "xray": 0.57, "lt4": 0.85}
        mix_ok = all(abs(rates[k] - expected[k]) <= 0.01 for k in expected)
        verdict("AC5 invariants", total_events >= 1_000_000 and mix_ok,
                f"{total_events} events; mixes "
                + ", ".join(f"{k}={rates[k]:.3f}~{expected[k]}" for k in expected))


class TestAC6CatalogFidelity:
    def test_catalog_matches_transcription(self):
        fixture = json.loads(FIXTURE.read_text())
        cat = catalog()
        ok = set(fixture) == set(cat) and len(cat) == 42
        bad = []
        for name, literal in fixture.items():
            s = cat.get(name)
            if s is None or parse_tuple(literal) != s or parse(s.render()) != s:
                bad.append(name)
        verdict("AC6 catalog fidelity", ok and not bad,
                f"{len(cat)} entries round-trip and match the transcription"
                + (f"; mismatches: {bad}" if bad else ""))
