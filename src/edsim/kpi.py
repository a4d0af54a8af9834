"""Turn per-patient KPI rows into per-run indicators, aggregate over
replications and compare a candidate configuration against the baseline with
significance flags.

The Welch p-value is computed here in pure Python (Student's t tail through
the regularized incomplete beta function), so running and comparing
scenarios needs no scipy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import CODE_RANK, MINUTES_PER_DAY

HEADLINE_KPIS = ("in_per_day", "wt_first", "wt_last", "los")
KPI_NAMES = (*HEADLINE_KPIS, "outlier_GREEN", "outlier_WHITE")
ALPHA = 0.05
# The first simulated day is warm-up: replications run it on top of `days`,
# and the KPIs skip the patients who arrive in it (empty-ED start bias).
WARMUP_MIN = MINUTES_PER_DAY

# One KPI row per patient, all integers: the static urgency rank, then the
# minute of each event the KPIs read (the first one of each), NO_TIME if the
# replication stopped before it. `dismissed` is 1 for a patient sent away at
# triage.
ROW_FIELDS = ("rank", "arrive", "triage", "dismissed", "enqueue_first", "start_first",
              "enqueue_last", "start_last", "discharge")
NO_TIME = -1
(_RANK, _ARRIVE, _TRIAGE, _DISMISSED, _ENQ_FIRST, _START_FIRST,
 _ENQ_LAST, _START_LAST, _DISCHARGE) = range(len(ROW_FIELDS))


class UsageError(ValueError):
    """KPI operation called with unusable inputs."""


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


def _vector_mean(name: str) -> property:
    return property(lambda self: self.value(name),
                    doc=f"Mean of the per-replication {name} values.")


@dataclass
class KpiReport:
    """KPIs of one or more replications: the per-replication vectors, keyed
    by KPI_NAMES plus `outlier_<CODE>` for every threshold code, and the
    patient counts summed over the replications. Every reported figure is
    the mean of its vector, so aggregation and significance testing work
    from the same numbers."""

    vectors: dict[str, list[float]]
    n_admitted: int = 0
    n_dismissed: int = 0
    n_censored: int = 0

    in_per_day = _vector_mean("in_per_day")
    wt_first = _vector_mean("wt_first")
    wt_last = _vector_mean("wt_last")
    los = _vector_mean("los")

    @property
    def outlier_pct(self) -> dict[str, float]:
        """Mean outlier percentage per threshold code."""
        return {name.split("_", 1)[1]: _mean(xs) for name, xs in self.vectors.items()
                if name.startswith("outlier_")}

    def value(self, name: str) -> float:
        return _mean(self.vectors[name])

    def to_dict(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            **{k: clean(self.value(k)) for k in HEADLINE_KPIS},
            "outlier_pct": {k: clean(v) for k, v in self.outlier_pct.items()},
            "n_admitted": self.n_admitted,
            "n_dismissed": self.n_dismissed,
            "n_censored": self.n_censored,
            "replications": {k: [clean(x) for x in self.vectors[k]] for k in KPI_NAMES},
        }


def _admitted(rows: list[tuple[int, ...]],
              warmup_min: int) -> tuple[list[tuple[int, ...]], int]:
    """Rows of the patients the KPIs count (arrived after the warm-up,
    triaged, not dismissed), and how many were dismissed."""
    admitted = []
    dismissed = 0
    for row in rows:
        if row[_ARRIVE] < warmup_min or row[_TRIAGE] == NO_TIME:
            continue
        if row[_DISMISSED]:
            dismissed += 1
        else:
            admitted.append(row)
    return admitted, dismissed


def _first_waits(admitted, rank: int | None) -> list[int]:
    return [r[_START_FIRST] - r[_ENQ_FIRST] for r in admitted
            if r[_RANK] == rank and r[_START_FIRST] != NO_TIME]


def first_waits(rows: list[tuple[int, ...]], code: str) -> list[int]:
    """Completed first-visit waits of the admitted patients with one code."""
    return _first_waits(_admitted(rows, WARMUP_MIN)[0], CODE_RANK[code])


def compute_kpis(rows: list[tuple[int, ...]], days: int, thresholds: dict[str, float],
                 warmup_min: int = WARMUP_MIN) -> KpiReport:
    """KPIs of one complete replication from its KPI rows (ROW_FIELDS).

    Patients arriving during the warm-up window are excluded from all
    accounting; admitted patients lacking DISCHARGE within the horizon are
    censored out of LoS but keep their completed waits."""
    admitted, dismissed = _admitted(rows, warmup_min)
    wt_first = [r[_START_FIRST] - r[_ENQ_FIRST] for r in admitted if r[_START_FIRST] != NO_TIME]
    wt_last = [r[_START_LAST] - r[_ENQ_LAST] for r in admitted if r[_START_LAST] != NO_TIME]
    los = [r[_DISCHARGE] - r[_ARRIVE] for r in admitted if r[_DISCHARGE] != NO_TIME]

    vectors = {"in_per_day": [len(admitted) / days], "wt_first": [_mean(wt_first)],
               "wt_last": [_mean(wt_last)], "los": [_mean(los)]}
    for code, threshold in sorted(thresholds.items()):
        waits = _first_waits(admitted, CODE_RANK[code])
        vectors[f"outlier_{code}"] = [100.0 * sum(1 for w in waits if w > threshold) / len(waits)
                                      if waits else float("nan")]
    return KpiReport(vectors, n_admitted=len(admitted), n_dismissed=dismissed,
                     n_censored=len(admitted) - len(los))


def aggregate(reports: list[KpiReport]) -> KpiReport:
    """Replication reports merged: vectors are concatenated, counts summed."""
    if not reports:
        raise UsageError("aggregate needs at least one report")
    vectors: dict[str, list[float]] = {}
    for r in reports:
        for name, xs in r.vectors.items():
            vectors.setdefault(name, []).extend(xs)
    return KpiReport(vectors, n_admitted=sum(r.n_admitted for r in reports),
                     n_dismissed=sum(r.n_dismissed for r in reports),
                     n_censored=sum(r.n_censored for r in reports))


_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_TERMS = 10_000
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# Stirling's series for lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)):
# sum of c / x^(2k+1); six terms reach double precision for x >= 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2). For large a, lgamma(a) and lgamma(a + 1/2) are both
    ~a log a and their difference would lose digits, so it comes from
    Stirling's series instead."""
    if a < 10.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    tails = sum(c * (a ** -(2 * k + 1) - (a + 0.5) ** -(2 * k + 1))
                for k, c in enumerate(_STIRLING))
    return 0.5 - a * math.log1p(0.5 / a) - 0.5 * math.log(a) + _LOG_SQRT_PI + tails


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by the
    modified Lentz method (Numerical Recipes, 3rd ed., §6.4)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, x={x})")


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with `df` degrees of freedom: the
    regularized incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2).
    x, 1 - x and log x are each formed without cancellation."""
    r = t * t / df
    if r == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    front = math.exp(b * math.log(y) - a * math.log1p(r) - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _welch_p(b: list[float], c: list[float]) -> float:
    """Two-sided p-value of Welch's unequal-variance t-test: the statistic on
    the difference of means, with Welch-Satterthwaite degrees of freedom."""
    mb, mc = _mean(b), _mean(c)
    vb = sum((x - mb) ** 2 for x in b) / (len(b) - 1) / len(b)
    vc = sum((x - mc) ** 2 for x in c) / (len(c) - 1) / len(c)
    df = (vb + vc) ** 2 / (vb ** 2 / (len(b) - 1) + vc ** 2 / (len(c) - 1))
    return _t_two_sided_p((mb - mc) / math.sqrt(vb + vc), df)


@dataclass
class Comparison:
    delta: dict[str, float]
    p_value: dict[str, float]
    significant: dict[str, bool]

    def flags(self) -> list[str]:
        return [name for name in KPI_NAMES if self.significant[name]]


def compare(baseline: KpiReport, candidate: KpiReport) -> Comparison:
    """Per-KPI two-sided Welch test over the retained replication vectors.

    NaN replications are dropped first; a KPI left with fewer than two values
    on either side gets NaN delta and p. Identical samples give p = NaN and
    two distinct constant samples p = 0; otherwise p is `_welch_p`'s."""
    delta, p_value, significant = {}, {}, {}
    for name in KPI_NAMES:
        b_raw = baseline.vectors.get(name, [])
        c_raw = candidate.vectors.get(name, [])
        if len(b_raw) != len(c_raw):
            raise UsageError(f"replication counts differ for {name}: {len(b_raw)} vs {len(c_raw)}")
        if len(b_raw) < 2:
            raise UsageError("compare needs at least two replications")
        b = [x for x in b_raw if not math.isnan(x)]
        c = [x for x in c_raw if not math.isnan(x)]
        if len(b) < 2 or len(c) < 2:  # KPI undefined in most replications
            delta[name] = float("nan")
            p_value[name] = float("nan")
            significant[name] = False
            continue
        delta[name] = _mean(c) - _mean(b)
        zero_var = max(b) == min(b) and max(c) == min(c)
        if sorted(b) == sorted(c):
            p = float("nan")  # identical samples: no evidence of change
        elif zero_var:
            p = 0.0  # deterministic shift, Welch statistic degenerates
        else:
            p = _welch_p(b, c)
        p_value[name] = p
        significant[name] = bool(not math.isnan(p) and p < ALPHA)
    return Comparison(delta, p_value, significant)
