"""Black-box calibration: pin the free profile parameters (service means,
arrival scale, lab waiting, outlier thresholds) to the published validation
row using deterministic paired-seed simulations.

The row is `TARGETS`, keyed by the `KpiReport.vectors` names, so every
figure is compared as `report.value(name)` against `TARGETS[name]`."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .harness import run_scenario
from .kpi import HEADLINE_KPIS, KpiReport, nan_to_none
from .scenario import Scenario
from .stochastics import CODES, Profile


# published validation row (simulation side)
TARGETS = {"in_per_day": 238.23, "wt_first": 70.52, "wt_last": 54.94, "los": 208.60,
           "outlier_GREEN": 3.88, "outlier_WHITE": 25.47}

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
    rates = out["arrival_rates"]  # scaled in place: other keys and the key order stay
    for code in CODES:
        rates[code] = [x * s for x in rates[code]]
    out["service"]["first_general"]["mean"] = raw["service"]["first_general"]["mean"] * mult.get("first_general_mean", 1.0)
    out["service"]["last_visit"]["mean"] = raw["service"]["last_visit"]["mean"] * mult.get("last_visit_mean", 1.0)
    out["lab_profile"]["waiting"] = [x * mult.get("lab_waiting_scale", 1.0)
                                     for x in raw["lab_profile"]["waiting"]]
    return out


def band_errors(report: KpiReport) -> dict[str, float]:
    return {k: (report.value(k) - TARGETS[k]) / TARGETS[k] for k in BANDS}


def within_bands(report: KpiReport) -> bool:
    errs = band_errors(report)
    return all(abs(errs[k]) <= BANDS[k] for k in BANDS)


def weighted_error(report: KpiReport) -> float:
    errs = band_errors(report)
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


def _fit_thresholds(report: KpiReport, raw: dict) -> dict:
    """Set outlier thresholds to the empirical quantiles of `report`'s first
    waits that reproduce the published outlier rates, clamped to stay above
    the promotion taus."""
    fitted = dict(raw["thresholds"])
    for code, (lo, hi) in THRESHOLD_CLAMP.items():
        ws = report.first_waits[code]
        if not ws:
            continue
        q = float(np.quantile(ws, 1.0 - TARGETS[f"outlier_{code}"] / 100.0))
        fitted[code] = int(min(max(5 * round(q / 5.0), lo), hi))
    return fitted


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
    if budget <= 0:
        return CalibrationResult(profile_raw, False, "FAILED: zero search budget")

    trace: list[dict] = []

    def run(tag, mult, reps, run_days, probe=None):
        # `probe` is `mult`'s report at probe scale; rerun, it gives the same report
        agg = (probe if probe is not None and (reps, run_days) == (replications, days) else
               run_scenario(Profile(apply_multipliers(profile_raw, mult)), Scenario(),
                            seed, reps, run_days, jobs=jobs))
        trace.append({
            "eval": tag,
            "multipliers": {k: round(v, 6) for k, v in mult.items()},
            "kpis": {k: nan_to_none(agg.value(k)) for k in HEADLINE_KPIS},
            "error": nan_to_none(weighted_error(agg)),
        })
        return agg

    def search() -> tuple[dict, KpiReport]:
        """(multipliers, full-scale report) of the first confirmed probe, else
        of the best probe once the budget is spent or the simplex converged."""
        best_err, best_mult, best = math.inf, dict.fromkeys(PARAM_NAMES, 1.0), None
        points = _nelder_mead(np.zeros(len(PARAM_NAMES)), 0.04, xatol=1e-3, fatol=1e-4)
        x = next(points)
        for _ in range(budget):
            mult = {name: float(math.exp(v)) for name, v in zip(PARAM_NAMES, x)}
            probe = run(len(trace) + 1, mult, replications, days)
            err = weighted_error(probe)
            if err < best_err:
                best_err, best_mult, best = err, mult, probe
            if within_bands(probe):
                full = run("full-scale", mult, final_replications, final_days, probe)
                if within_bands(full):
                    return mult, full
            try:
                x = points.send(err)
            except StopIteration:
                break
        return best_mult, run("full-scale", best_mult, final_replications, final_days, best)

    mult, agg = search()
    converged = within_bands(agg)
    fitted = apply_multipliers(profile_raw, mult)
    fitted["thresholds"] = _fit_thresholds(agg, fitted)
    message = ("converged: all targets within tolerance" if converged
               else "FAILED: best-so-far outside tolerance bands")
    return CalibrationResult(fitted, converged, message, trace, agg)


def _nelder_mead(x0: np.ndarray, step: float, xatol: float, fatol: float):
    """Nelder & Mead (1965) simplex search from x0 and x0 moved `step` along
    each axis. Yields each point to evaluate and is sent back its value;
    returns once every vertex lies within `xatol` and every value within
    `fatol` of the best. It asks for the points that
    scipy.optimize.minimize(method="Nelder-Mead") evaluates with the same
    initial simplex: vertices are ranked by np.argsort, whose default sort
    does not keep ties in input order, and a NaN value fails the convergence
    test through np.max, both as scipy does."""
    n = len(x0)
    sim = np.vstack([x0, x0 + step * np.eye(n)])
    fsim = np.empty(n + 1)
    for k in range(n + 1):
        fsim[k] = yield sim[k]
    while True:
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            return
        xbar = sim[:-1].sum(axis=0) / n  # centroid of all but the worst
        xr = 2 * xbar - sim[-1]  # reflection
        fxr = yield xr
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expansion
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = yield xc
                accept = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = yield xc
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield sim[j]
