"""Black-box calibration: pin the free profile parameters (service means,
arrival scale, lab waiting, outlier thresholds) to the published validation
row using deterministic paired-seed simulations."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .harness import run_scenario
from .kpi import KpiReport, first_waits
from .scenario import Scenario
from .stochastics import Profile


@dataclass(frozen=True)
class CalibrationTarget:
    """Published validation row (simulation side)."""

    in_per_day: float = 238.23
    wt_first: float = 70.52
    wt_last: float = 54.94
    los: float = 208.60
    outlier_green: float = 3.88
    outlier_white: float = 25.47


# acceptance bands: relative tolerance per KPI
BANDS = {"in_per_day": 0.02, "los": 0.05, "wt_first": 0.10, "wt_last": 0.10}
WEIGHTS = {"in_per_day": 3.0, "los": 2.0, "wt_first": 1.0, "wt_last": 1.0}
PARAM_NAMES = ("arrival_scale", "first_general_mean", "last_visit_mean", "lab_waiting_scale")

# quantile-fitted outlier thresholds stay compatible with the promotion
# scenarios (tau_g up to 210 with pickup slack)
THRESHOLD_CLAMP = {"GREEN": (120, 180), "WHITE": (240, 330)}


def apply_multipliers(raw: dict, mult: dict[str, float]) -> dict:
    out = copy.deepcopy(raw)
    s = mult.get("arrival_scale", 1.0)
    out["arrival_rates"] = {c: [x * s for x in v] for c, v in raw["arrival_rates"].items()}
    out["service"]["first_general"]["mean"] = raw["service"]["first_general"]["mean"] * mult.get("first_general_mean", 1.0)
    out["service"]["last_visit"]["mean"] = raw["service"]["last_visit"]["mean"] * mult.get("last_visit_mean", 1.0)
    out["lab_profile"]["waiting"] = [x * mult.get("lab_waiting_scale", 1.0)
                                     for x in raw["lab_profile"]["waiting"]]
    return out


def band_errors(report: KpiReport, target: CalibrationTarget) -> dict[str, float]:
    return {
        "in_per_day": (report.in_per_day - target.in_per_day) / target.in_per_day,
        "wt_first": (report.wt_first - target.wt_first) / target.wt_first,
        "wt_last": (report.wt_last - target.wt_last) / target.wt_last,
        "los": (report.los - target.los) / target.los,
    }


def within_bands(report: KpiReport, target: CalibrationTarget) -> bool:
    errs = band_errors(report, target)
    return all(abs(errs[k]) <= BANDS[k] for k in BANDS)


def weighted_error(report: KpiReport, target: CalibrationTarget) -> float:
    errs = band_errors(report, target)
    return sum(WEIGHTS[k] * errs[k] ** 2 for k in WEIGHTS)


@dataclass
class CalibrationResult:
    profile_raw: dict
    converged: bool
    message: str
    trace: list[dict] = field(default_factory=list)
    report: KpiReport | None = None

    def trace_dict(self) -> dict:
        return {"converged": self.converged, "message": self.message, "evals": self.trace}


def _fit_thresholds(rows_per_rep, raw: dict, target: CalibrationTarget,
                    warmup_min: int) -> dict:
    """Set outlier thresholds to the empirical wait quantiles that reproduce
    the published outlier rates, clamped to stay above the promotion taus.
    `rows_per_rep` holds each replication's KPI rows."""
    waits = {code: [w for rows in rows_per_rep for w in first_waits(rows, code, warmup_min)]
             for code in ("GREEN", "WHITE")}
    rates = {"GREEN": target.outlier_green, "WHITE": target.outlier_white}
    fitted = dict(raw["thresholds"])
    for code, ws in waits.items():
        if not ws:
            continue
        q = float(np.quantile(ws, 1.0 - rates[code] / 100.0))
        lo, hi = THRESHOLD_CLAMP[code]
        fitted[code] = int(min(max(5 * round(q / 5.0), lo), hi))
    return fitted


def calibrate(profile_raw: dict, target: CalibrationTarget | None = None,
              budget: int = 120, seed: int = 20901, replications: int = 3,
              days: int = 30, jobs: int = 1,
              final_replications: int = 10, final_days: int = 30) -> CalibrationResult:
    """Nelder-Mead over log-multipliers of the free parameters.

    Probes run at the full horizon with fewer replications (shorter horizons
    bias the congestion KPIs). Whenever a probe lands inside every band, the
    candidate is confirmed at full scale before the search is allowed to
    stop, so a converged result is always full-scale true. Everything is
    seeded, so reruns give identical traces; failure returns the best-so-far
    profile flagged FAILED."""
    target = target or CalibrationTarget()
    if budget <= 0:
        return CalibrationResult(profile_raw, False, "FAILED: zero search budget")

    trace: list[dict] = []
    best: dict = {"err": math.inf, "x": np.zeros(len(PARAM_NAMES))}
    confirmed: dict = {"x": None, "report": None, "logs": None}

    def record(tag, mult, agg):
        trace.append({
            "eval": tag,
            "multipliers": {k: round(v, 6) for k, v in mult.items()},
            "kpis": {"in_per_day": agg.in_per_day, "wt_first": agg.wt_first,
                     "wt_last": agg.wt_last, "los": agg.los},
            "error": weighted_error(agg, target),
        })

    def evaluate(x: np.ndarray) -> float:
        if confirmed["x"] is not None:
            return best["err"]
        mult = {name: float(math.exp(v)) for name, v in zip(PARAM_NAMES, x)}
        raw2 = apply_multipliers(profile_raw, mult)
        agg, _, _ = run_scenario(Profile(raw2), Scenario(), seed, replications, days, jobs=jobs)
        err = weighted_error(agg, target)
        record(len(trace) + 1, mult, agg)
        if err < best["err"]:
            best["err"], best["x"] = err, np.array(x, dtype=float)
        if within_bands(agg, target):
            full, _, logs = run_scenario(Profile(raw2), Scenario(), seed,
                                         final_replications, final_days, jobs=jobs)
            record("full-scale", mult, full)
            if within_bands(full, target):
                confirmed.update(x=np.array(x, dtype=float), report=full, logs=logs)
        return err

    def callback(_xk):
        if confirmed["x"] is not None:
            raise StopIteration

    x0 = np.zeros(len(PARAM_NAMES))
    try:
        optimize.minimize(evaluate, x0, method="Nelder-Mead", callback=callback,
                          options={"maxfev": budget, "xatol": 1e-3, "fatol": 1e-4,
                                   "initial_simplex": _initial_simplex(x0, 0.04)})
    except StopIteration:
        pass

    if confirmed["x"] is not None:
        final_x, agg, logs = confirmed["x"], confirmed["report"], confirmed["logs"]
        converged = True
    else:
        final_x = best["x"]
        mult = {name: float(math.exp(v)) for name, v in zip(PARAM_NAMES, final_x)}
        fitted_probe = apply_multipliers(profile_raw, mult)
        agg, _, logs = run_scenario(Profile(fitted_probe), Scenario(), seed,
                                    final_replications, final_days, jobs=jobs)
        record("full-scale", mult, agg)
        converged = within_bands(agg, target)

    mult = {name: float(math.exp(v)) for name, v in zip(PARAM_NAMES, final_x)}
    fitted = apply_multipliers(profile_raw, mult)
    fitted["thresholds"] = _fit_thresholds([log.rows for log in logs], fitted, target,
                                           warmup_min=1440)
    message = ("converged: all targets within tolerance" if converged
               else "FAILED: best-so-far outside tolerance bands")
    return CalibrationResult(fitted, converged, message, trace, agg)


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    n = len(x0)
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += step
    return simplex
