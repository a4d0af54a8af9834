"""Turn per-patient KPI rows into per-run indicators, aggregate over
replications and compare a candidate configuration against the baseline with
significance flags.

A replication packs its KPI rows in one bytearray, a `ROW` record per
patient (`struct` format "9q", ROW_FIELDS in order, 72 B): `KpiRows`.

The Welch p-value is computed here in pure Python (Student's t tail through
the regularized incomplete beta function): no module needs scipy."""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

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
ROW = struct.Struct(f"{len(ROW_FIELDS)}q")


class UsageError(ValueError):
    """KPI operation called with unusable inputs."""


@dataclass(frozen=True, repr=False)
class KpiRows(Sequence):
    """Read-only KPI rows over packed ROW `records`: `len` counts patients,
    iteration yields ROW_FIELDS tuples in pid order, `[pid]` is one's tuple."""

    records: bytearray

    def __len__(self) -> int:
        return len(self.records) // ROW.size

    def __getitem__(self, pid: int) -> tuple[int, ...]:
        return ROW.unpack_from(self.records, range(0, len(self.records), ROW.size)[pid])

    def __iter__(self):
        return ROW.iter_unpack(self.records)


def _ratio(total, n: int) -> float:
    return total / n if n else float("nan")


def _mean(xs: list[float]) -> float:
    return _ratio(sum(xs), len(xs))


def nan_to_none(x):
    """`x`, or None for a float NaN, which JSON has no value for."""
    return None if isinstance(x, float) and math.isnan(x) else x


@dataclass
class KpiReport:
    """KPIs of one or more replications: the per-replication vectors, keyed
    by KPI_NAMES plus `outlier_<CODE>` for every threshold code, and the
    patient counts summed over the replications. Every reported figure is
    `value(name)`, the mean of its vector, so aggregation and significance
    testing work from the same numbers. `first_waits` holds, per threshold
    code, the completed first-visit waits the outlier rates count, for
    calibration's threshold fit; its keys are the codes `to_dict` reports
    an outlier share for, and no output carries its waits."""

    vectors: dict[str, list[float]]
    n_admitted: int = 0
    n_dismissed: int = 0
    n_censored: int = 0
    first_waits: dict[str, list[int]] = field(default_factory=dict, repr=False)

    def value(self, name: str) -> float:
        return _mean(self.vectors[name])

    def to_dict(self) -> dict:
        return {
            **{k: nan_to_none(self.value(k)) for k in HEADLINE_KPIS},
            "outlier_pct": {code: nan_to_none(self.value(f"outlier_{code}"))
                            for code in self.first_waits},
            "n_admitted": self.n_admitted,
            "n_dismissed": self.n_dismissed,
            "n_censored": self.n_censored,
            "replications": {k: [nan_to_none(x) for x in self.vectors[k]] for k in KPI_NAMES},
        }


def compute_kpis(rows: Iterable[tuple[int, ...]], days: int,
                 thresholds: dict[str, float]) -> KpiReport:
    """KPIs of one complete replication from its KPI rows (ROW_FIELDS), in one pass.

    Patients arriving before WARMUP_MIN are excluded from all accounting;
    admitted patients lacking DISCHARGE within the horizon are censored out
    of LoS but keep their completed waits. Each threshold code gets its
    `outlier_<CODE>` vector and its `first_waits` entry from the same
    waits."""
    first_waits = {code: [] for code in sorted(thresholds)}
    waits_of_rank = {CODE_RANK[code]: waits for code, waits in first_waits.items()}
    n_triaged = n_admitted = first_sum = first_n = last_sum = last_n = los_sum = los_n = 0
    for (rank, arrive, triage, dismissed, enq_first, start_first,
         enq_last, start_last, discharge) in rows:
        if arrive < WARMUP_MIN or triage == NO_TIME:
            continue
        n_triaged += 1
        if dismissed:
            continue
        n_admitted += 1  # the patients the KPIs count
        if start_first != NO_TIME:
            first_sum, first_n = first_sum + start_first - enq_first, first_n + 1
            if rank in waits_of_rank:
                waits_of_rank[rank].append(start_first - enq_first)
        if start_last != NO_TIME:
            last_sum, last_n = last_sum + start_last - enq_last, last_n + 1
        if discharge != NO_TIME:
            los_sum, los_n = los_sum + discharge - arrive, los_n + 1
    vectors = {"in_per_day": [n_admitted / days], "wt_first": [_ratio(first_sum, first_n)],
               "wt_last": [_ratio(last_sum, last_n)], "los": [_ratio(los_sum, los_n)]}
    for code, waits in first_waits.items():
        over = sum(1 for w in waits if w > thresholds[code])
        vectors[f"outlier_{code}"] = [_ratio(100.0 * over, len(waits))]
    return KpiReport(vectors, n_admitted=n_admitted, n_dismissed=n_triaged - n_admitted,
                     n_censored=n_admitted - los_n, first_waits=first_waits)


def aggregate(reports: list[KpiReport]) -> KpiReport:
    """Replication reports merged: vectors and first waits are concatenated,
    counts summed."""
    if not reports:
        raise UsageError("aggregate needs at least one report")
    vectors: dict[str, list[float]] = {}
    first_waits: dict[str, list[int]] = {}
    for r in reports:
        for name, xs in r.vectors.items():
            vectors.setdefault(name, []).extend(xs)
        for code, ws in r.first_waits.items():
            first_waits.setdefault(code, []).extend(ws)
    return KpiReport(vectors, n_admitted=sum(r.n_admitted for r in reports),
                     n_dismissed=sum(r.n_dismissed for r in reports),
                     n_censored=sum(r.n_censored for r in reports), first_waits=first_waits)


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
