import copy

import pytest

from edsim.calibrate import (
    BANDS,
    CalibrationTarget,
    apply_multipliers,
    band_errors,
    calibrate,
    within_bands,
)
from edsim.kpi import compute_kpis
from edsim.model import run_replication
from edsim.scenario import Scenario
from edsim.stochastics import Profile


class TestMultipliers:
    def test_scales_the_right_knobs(self, default_raw):
        out = apply_multipliers(default_raw, {"arrival_scale": 2.0,
                                              "first_general_mean": 1.5,
                                              "last_visit_mean": 0.5,
                                              "lab_waiting_scale": 3.0})
        assert out["arrival_rates"]["GREEN"][9] == pytest.approx(
            2.0 * default_raw["arrival_rates"]["GREEN"][9])
        assert out["service"]["first_general"]["mean"] == pytest.approx(
            1.5 * default_raw["service"]["first_general"]["mean"])
        assert out["service"]["last_visit"]["mean"] == pytest.approx(
            0.5 * default_raw["service"]["last_visit"]["mean"])
        assert out["lab_profile"]["waiting"][0] == pytest.approx(
            3.0 * default_raw["lab_profile"]["waiting"][0])
        # untouched knobs stay put
        assert out["service"]["first_ortho"] == default_raw["service"]["first_ortho"]

    def test_identity_multipliers_change_nothing(self, default_raw):
        out = apply_multipliers(default_raw, {})
        assert out["arrival_rates"] == default_raw["arrival_rates"]


class TestBands:
    def test_band_errors_are_relative(self):
        class R:
            in_per_day, wt_first, wt_last, los = 238.23, 70.52, 54.94, 208.60

        errs = band_errors(R, CalibrationTarget())
        assert all(abs(v) < 1e-12 for v in errs.values())

    def test_within_bands_respects_tolerances(self):
        t = CalibrationTarget()

        class R:
            in_per_day = t.in_per_day * 1.019
            wt_first = t.wt_first * 1.09
            wt_last = t.wt_last * 0.91
            los = t.los * 1.049

        assert within_bands(R, t)

        class R2(R):
            los = t.los * 1.06

        assert not within_bands(R2, t)
        assert set(BANDS) == {"in_per_day", "wt_first", "wt_last", "los"}


class TestCalibrate:
    def test_zero_budget_fails_immediately(self, default_raw):
        result = calibrate(default_raw, budget=0)
        assert not result.converged
        assert "FAILED" in result.message
        assert result.trace == []

    def test_doubling_service_means_increases_los(self, default_profile, default_raw):
        # paired-seed monotonicity: more service work can only lengthen stays
        heavier = copy.deepcopy(default_raw)
        for name in ("first_general", "first_ortho", "first_derma", "last_visit"):
            heavier["service"][name]["mean"] *= 2.0
        base = run_replication(default_raw, Scenario(), 0, 4242, 8, keep_log=False)
        slow = run_replication(heavier, Scenario(), 0, 4242, 8, keep_log=False)
        k_base = compute_kpis(base.rows, 8, default_profile.thresholds)
        k_slow = compute_kpis(slow.rows, 8, Profile(heavier).thresholds)
        assert k_slow.los > k_base.los

    def test_trace_is_deterministic(self, default_raw):
        a = calibrate(default_raw, budget=3, seed=77, replications=1, days=3,
                      final_replications=1, final_days=3)
        b = calibrate(default_raw, budget=3, seed=77, replications=1, days=3,
                      final_replications=1, final_days=3)
        assert a.trace == b.trace
        assert a.profile_raw == b.profile_raw

    def test_fitted_thresholds_stay_clamped(self, default_raw):
        result = calibrate(default_raw, budget=2, seed=9, replications=1, days=4,
                           final_replications=2, final_days=6)
        thr = result.profile_raw["thresholds"]
        assert 120 <= thr["GREEN"] <= 180
        assert 240 <= thr["WHITE"] <= 330
