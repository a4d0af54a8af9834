import ast
import copy
import inspect
import math

import numpy as np
import pytest
from scipy import optimize

import edsim.calibrate
from edsim.calibrate import (
    BANDS,
    TARGETS,
    _fit_thresholds,
    _nelder_mead,
    apply_multipliers,
    band_errors,
    calibrate,
    within_bands,
)
from edsim.harness import run_scenario
from edsim.kpi import KpiReport, compute_kpis
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


def one_replication(**means: float) -> KpiReport:
    """A replication's report with the given KPI means."""
    return KpiReport({name: [mean] for name, mean in means.items()})


class TestBands:
    def test_band_errors_are_relative(self):
        report = one_replication(in_per_day=238.23, wt_first=70.52, wt_last=54.94, los=208.60)
        errs = band_errors(report)
        assert set(errs) == set(BANDS)
        assert all(abs(v) < 1e-12 for v in errs.values())
        assert band_errors(one_replication(in_per_day=238.23 * 1.5, wt_first=70.52,
                                           wt_last=54.94, los=208.60 / 2)) == pytest.approx(
            {"in_per_day": 0.5, "wt_first": 0.0, "wt_last": 0.0, "los": -0.5})

    def test_within_bands_respects_tolerances(self):
        inside = {"in_per_day": TARGETS["in_per_day"] * 1.019,
                  "wt_first": TARGETS["wt_first"] * 1.09,
                  "wt_last": TARGETS["wt_last"] * 0.91,
                  "los": TARGETS["los"] * 1.049}
        assert within_bands(one_replication(**inside))
        assert not within_bands(one_replication(**{**inside, "los": TARGETS["los"] * 1.06}))
        assert set(BANDS) == {"in_per_day", "wt_first", "wt_last", "los"}


class TestFitThresholds:
    """Planted first waits 0, 1, ..., n - 1: the q-quantile (linear
    interpolation) is q * (n - 1). Targets: 3.88% green and 25.47% white
    outliers, so q is 0.9612 for green and 0.7453 for white."""

    RAW = {"thresholds": {"RED": 0, "GREEN": 170, "WHITE": 310}}

    @staticmethod
    def fit(green: int, white: int) -> dict:
        report = KpiReport({}, first_waits={"GREEN": list(range(green)),
                                            "WHITE": list(range(white))})
        return _fit_thresholds(report, TestFitThresholds.RAW)

    def test_quantile_rounded_to_five(self):
        # green 0.9612 * 150 = 144.18 -> 145; white 0.7453 * 400 = 298.12 -> 300
        assert self.fit(151, 401) == {"RED": 0, "GREEN": 145, "WHITE": 300}
        # green 0.9612 * 140 = 134.57 -> 135; white 0.7453 * 350 = 260.86 -> 260
        assert self.fit(141, 351) == {"RED": 0, "GREEN": 135, "WHITE": 260}

    def test_quantile_is_clamped(self):
        # green 95.2 and white 37.3 fall below their clamps; 960.2 and 744.6 above
        assert self.fit(100, 51) == {"RED": 0, "GREEN": 120, "WHITE": 240}
        assert self.fit(1000, 1000) == {"RED": 0, "GREEN": 180, "WHITE": 330}

    def test_no_waits_keep_the_profile_value(self):
        assert self.fit(0, 401) == {"RED": 0, "GREEN": 170, "WHITE": 300}
        assert self.fit(151, 0) == {"RED": 0, "GREEN": 145, "WHITE": 310}
        assert self.RAW == {"thresholds": {"RED": 0, "GREEN": 170, "WHITE": 310}}


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
        heavier = Profile(heavier)
        base = run_replication(default_profile, Scenario(), 0, 4242, 8)
        slow = run_replication(heavier, Scenario(), 0, 4242, 8)
        k_base = compute_kpis(base, 8, default_profile.thresholds)
        k_slow = compute_kpis(slow, 8, heavier.thresholds)
        assert k_slow.value("los") > k_base.value("los")

    def test_trace_is_deterministic(self, default_raw):
        a = calibrate(default_raw, budget=3, seed=77, replications=1, days=3,
                      final_replications=1, final_days=3)
        b = calibrate(default_raw, budget=3, seed=77, replications=1, days=3,
                      final_replications=1, final_days=3)
        assert a.trace == b.trace
        assert a.profile_raw == b.profile_raw

    @pytest.mark.parametrize("in_band", [False, True])
    @pytest.mark.parametrize("probe_scale, final_scale", [((1, 2), (1, 2)), ((3, 30), (10, 30))])
    def test_full_scale_check_reruns_only_a_smaller_probe(self, default_raw, monkeypatch,
                                                           in_band, probe_scale, final_scale):
        # every run here is one replication of one day; only the scales asked for are recorded
        scales = []

        def counted(profile, scenario, seed, reps, days, jobs):
            scales.append((reps, days))
            return run_scenario(profile, scenario, seed, 1, 1, jobs=jobs)

        monkeypatch.setattr(edsim.calibrate, "run_scenario", counted)
        if in_band:  # the first probe is confirmed, and the search stops
            monkeypatch.setattr(edsim.calibrate, "within_bands", lambda report: True)
        result = calibrate(default_raw, budget=3, seed=5, replications=probe_scale[0],
                           days=probe_scale[1], final_replications=final_scale[0],
                           final_days=final_scale[1])
        probes = [entry for entry in result.trace if entry["eval"] != "full-scale"]
        check = result.trace[-1]
        assert len(probes) == (1 if in_band else 3) and len(result.trace) == len(probes) + 1
        assert check["eval"] == "full-scale"
        if probe_scale == final_scale:
            assert scales == [probe_scale] * len(probes)
            best = probes[0] if in_band else min(probes, key=lambda entry: entry["error"])
            assert {**best, "eval": "full-scale"} == check
        else:
            assert scales == [probe_scale] * len(probes) + [final_scale]

    def test_fitted_thresholds_stay_clamped(self, default_raw):
        result = calibrate(default_raw, budget=2, seed=9, replications=1, days=4,
                           final_replications=2, final_days=6)
        thr = result.profile_raw["thresholds"]
        assert 120 <= thr["GREEN"] <= 180
        assert 240 <= thr["WHITE"] <= 330


# the step that asks for each point, in the order of the generator's yields
STEP_KINDS = ("initial", "reflection", "expansion", "outside contraction",
              "inside contraction", "shrink")
_SOURCE, _FIRST_LINE = inspect.getsourcelines(_nelder_mead)
YIELD_LINES = sorted(_FIRST_LINE - 1 + node.lineno for node in ast.walk(ast.parse("".join(_SOURCE)))
                     if isinstance(node, ast.Yield))
BUDGETS = (0, 1, 3, 4, 5, 7, 12, 40, 120, 400)


def seeded_objective(seed: int):
    """(dimension, objective): a shifted, scaled quadratic with optional
    noise, values rounded to a grid (ties) and occasional NaN. Every value is
    a function of the point alone, so both searches see the same values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    center, scale, w = rng.normal(0, 0.1, n), rng.uniform(0.5, 50, n), rng.normal(size=n)
    noise = rng.choice([0.0, 1e-3, 0.1])
    grid = rng.choice([0.0, 1e-3, 0.05, 1.0])
    nan_share = rng.choice([0.0, 0.0, 0.1])

    def f(x) -> float:
        u = math.sin(1e4 * float(x @ w))  # pseudo-random in [-1, 1]
        if (u + 1) / 2 < nan_share:
            return math.nan
        v = float(np.sum(scale * (x - center) ** 2)) + noise * u
        return round(v / grid) * grid if grid else v

    return n, f


def scipy_points(f, x0, step, budget):
    points = []

    def fun(x):
        points.append(tuple(x))
        return f(x)

    optimize.minimize(fun, x0, method="Nelder-Mead",
                      options={"maxfev": budget, "xatol": 1e-3, "fatol": 1e-4,
                               "initial_simplex": np.vstack([x0, x0 + step * np.eye(len(x0))])})
    return points


def search_points(f, x0, step, budget):
    """(points, their step kinds, values, the kind of the point the search
    would ask for next or None once it has converged)."""
    points, kinds, values = [], [], []
    search = _nelder_mead(x0, step, 1e-3, 1e-4)
    x = next(search)
    try:
        for _ in range(budget):
            points.append(tuple(x))
            kinds.append(STEP_KINDS[YIELD_LINES.index(search.gi_frame.f_lineno)])
            values.append(f(x))
            x = search.send(values[-1])
    except StopIteration:
        return points, kinds, values, None
    return points, kinds, values, STEP_KINDS[YIELD_LINES.index(search.gi_frame.f_lineno)]


class TestNelderMead:
    """scipy's Nelder-Mead is the oracle: on every seeded objective the
    search asks for the points scipy evaluates, bit for bit, and stops where
    scipy stops."""

    def test_asks_for_the_points_scipy_evaluates(self):
        kinds_seen, cut_in_shrink, converged, ties, nans = set(), 0, 0, 0, 0
        for seed in range(300):
            n, f = seeded_objective(seed)
            x0 = np.random.default_rng(seed + 1000).normal(0, 0.05, n)
            budget = BUDGETS[seed % len(BUDGETS)]
            points, kinds, values, following = search_points(f, x0, 0.04, budget)
            assert points == scipy_points(f, x0, 0.04, budget), (seed, budget)
            kinds_seen.update(kinds)
            cut_in_shrink += kinds[-1:] == ["shrink"] and following == "shrink"
            converged += following is None
            finite = [v for v in values if not math.isnan(v)]
            ties += len(set(finite)) < len(finite)
            nans += len(finite) < len(values)
        assert kinds_seen == set(STEP_KINDS)
        assert cut_in_shrink and converged and ties and nans, (cut_in_shrink, converged, ties, nans)
