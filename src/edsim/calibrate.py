"""Black-box calibration: pin the free profile parameters (service means,
arrival scale, lab waiting, outlier thresholds) to the published validation
row using deterministic paired-seed simulations."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .harness import run_scenario
from .kpi import HEADLINE_KPIS, KpiReport, first_waits
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
    return {k: (getattr(report, k) - getattr(target, k)) / getattr(target, k) for k in BANDS}


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


def _fit_thresholds(rows_per_rep, raw: dict, target: CalibrationTarget) -> dict:
    """Set outlier thresholds to the empirical wait quantiles that reproduce
    the published outlier rates, clamped to stay above the promotion taus.
    `rows_per_rep` holds each replication's KPI rows."""
    waits = {code: [w for rows in rows_per_rep for w in first_waits(rows, code)]
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


class _Confirmed(Exception):
    """Ends the search with (multipliers, full-scale report, logs) of a confirmed probe."""


def calibrate(profile_raw: dict, budget: int = 120, seed: int = 20901,
              replications: int = 3, days: int = 30, jobs: int = 1,
              final_replications: int = 10, final_days: int = 30) -> CalibrationResult:
    """Nelder-Mead over log-multipliers of the free parameters.

    Probes run at the full horizon with fewer replications (shorter horizons
    bias the congestion KPIs). Whenever a probe lands inside every band, the
    candidate is confirmed at full scale before the search is allowed to
    stop, so a converged result is always full-scale true. Everything is
    seeded, so reruns give identical traces; failure returns the best-so-far
    profile flagged FAILED."""
    # Imported here so that run, sweep and validate never load scipy.
    from scipy import optimize

    target = CalibrationTarget()
    if budget <= 0:
        return CalibrationResult(profile_raw, False, "FAILED: zero search budget")

    trace: list[dict] = []
    best: dict = {"err": math.inf, "mult": dict.fromkeys(PARAM_NAMES, 1.0)}

    def run(tag, mult, reps, run_days):
        agg, logs = run_scenario(Profile(apply_multipliers(profile_raw, mult)), Scenario(),
                                 seed, reps, run_days, jobs=jobs)
        trace.append({
            "eval": tag,
            "multipliers": {k: round(v, 6) for k, v in mult.items()},
            "kpis": {k: agg.value(k) for k in HEADLINE_KPIS},
            "error": weighted_error(agg, target),
        })
        return agg, logs

    def evaluate(x: np.ndarray) -> float:
        mult = {name: float(math.exp(v)) for name, v in zip(PARAM_NAMES, x)}
        agg, _ = run(len(trace) + 1, mult, replications, days)
        err = weighted_error(agg, target)
        if err < best["err"]:
            best.update(err=err, mult=mult)
        if within_bands(agg, target):
            full, logs = run("full-scale", mult, final_replications, final_days)
            if within_bands(full, target):
                raise _Confirmed(mult, full, logs)
        return err

    x0 = np.zeros(len(PARAM_NAMES))
    try:
        optimize.minimize(evaluate, x0, method="Nelder-Mead",
                          options={"maxfev": budget, "xatol": 1e-3, "fatol": 1e-4,
                                   "initial_simplex": _initial_simplex(x0, 0.04)})
    except _Confirmed as done:
        (mult, agg, logs), converged = done.args, True
    else:
        mult = best["mult"]
        agg, logs = run("full-scale", mult, final_replications, final_days)
        converged = within_bands(agg, target)

    fitted = apply_multipliers(profile_raw, mult)
    fitted["thresholds"] = _fit_thresholds([log.rows for log in logs], fitted, target)
    message = ("converged: all targets within tolerance" if converged
               else "FAILED: best-so-far outside tolerance bands")
    return CalibrationResult(fitted, converged, message, trace, agg)


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    """x0 and, for each axis, x0 moved `step` along it."""
    return np.vstack([x0, x0 + step * np.eye(len(x0))])
