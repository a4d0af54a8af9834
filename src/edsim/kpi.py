"""Turn per-patient KPI rows into per-run indicators, aggregate over
replications and compare a candidate configuration against the baseline with
significance flags. `rows_from_log` rebuilds the same rows from an event log."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy import stats

from .kernel import CODE_RANK, MINUTES_PER_DAY, LogRecord

KPI_NAMES = ("in_per_day", "wt_first", "wt_last", "los", "outlier_GREEN", "outlier_WHITE")
ALPHA = 0.05
DEFAULT_WARMUP_MIN = MINUTES_PER_DAY  # first simulated day is cold-start bias

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


@dataclass
class PatientTrace:
    """Per-patient timestamps extracted from one replication's log."""

    pid: int
    code: str | None = None
    times: dict = field(default_factory=dict)
    dismissed: bool = False
    first_team: str | None = None
    first_pool: str | None = None
    last_team: str | None = None
    triage_detail: dict | None = None

    def get(self, event: str):
        return self.times.get(event)

    def row(self) -> tuple[int, ...]:
        """This patient's KPI row (ROW_FIELDS order)."""
        t = self.times.get
        return (CODE_RANK.get(self.code, NO_TIME), t("ARRIVE", NO_TIME),
                t("TRIAGE_DONE", NO_TIME), int(self.dismissed), t("ENQUEUE_FIRST", NO_TIME),
                t("START_FIRST", NO_TIME), t("ENQUEUE_LAST", NO_TIME),
                t("START_LAST", NO_TIME), t("DISCHARGE", NO_TIME))


def parse_detail(detail: str) -> dict[str, str]:
    out = {}
    for token in detail.split():
        if "=" in token:
            k, v = token.split("=", 1)
            out[k] = v
    return out


def collect_patients(records: list[LogRecord]) -> dict[int, PatientTrace]:
    """Per-patient view of an event log, in order of first appearance."""
    patients: dict[int, PatientTrace] = {}
    for r in records:
        p = patients.get(r.patient_id)
        if p is None:
            p = patients[r.patient_id] = PatientTrace(r.patient_id)
        if r.event not in p.times:  # keep the first occurrence of repeatable events
            p.times[r.event] = r.time_min
        if r.event == "ARRIVE":
            p.code = parse_detail(r.detail).get("code")
        elif r.event == "TRIAGE_DONE":
            p.triage_detail = parse_detail(r.detail)
            p.code = p.triage_detail.get("code")
        elif r.event == "DISMISSED_AT_TRIAGE":
            p.dismissed = True
        elif r.event == "START_FIRST":
            detail = parse_detail(r.detail)
            p.first_team = detail.get("team")
            p.first_pool = detail.get("pool")
        elif r.event == "START_LAST":
            p.last_team = parse_detail(r.detail).get("team")
    return patients


def rows_from_log(records: list[LogRecord]) -> list[tuple[int, ...]]:
    """KPI rows rebuilt from an event log, one per patient in pid order: the
    log-side oracle for the rows a replication stamps while it runs."""
    return [p.row() for p in collect_patients(records).values()]


@dataclass
class KpiReport:
    """Table-row shaped KPI set; per-replication vectors are retained so that
    aggregation and significance testing stay honest."""

    in_per_day: float
    wt_first: float
    wt_last: float
    los: float
    outlier_pct: dict[str, float]
    n_admitted: int = 0
    n_dismissed: int = 0
    n_censored: int = 0
    vectors: dict[str, list[float]] = field(default_factory=dict)

    def value(self, name: str) -> float:
        if name.startswith("outlier_"):
            return self.outlier_pct.get(name.split("_", 1)[1], float("nan"))
        return getattr(self, name)

    def to_dict(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            "in_per_day": clean(self.in_per_day),
            "wt_first": clean(self.wt_first),
            "wt_last": clean(self.wt_last),
            "los": clean(self.los),
            "outlier_pct": {k: clean(v) for k, v in self.outlier_pct.items()},
            "n_admitted": self.n_admitted,
            "n_dismissed": self.n_dismissed,
            "n_censored": self.n_censored,
            "replications": {k: [clean(x) for x in v] for k, v in self.vectors.items()},
        }


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


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


def first_waits(rows: list[tuple[int, ...]], code: str,
                warmup_min: int = DEFAULT_WARMUP_MIN) -> list[int]:
    """Completed first-visit waits of the admitted patients with one code."""
    return _first_waits(_admitted(rows, warmup_min)[0], CODE_RANK[code])


def compute_kpis(rows: list[tuple[int, ...]], days: int, thresholds: dict[str, float],
                 warmup_min: int = DEFAULT_WARMUP_MIN) -> KpiReport:
    """KPIs of one complete replication from its KPI rows (ROW_FIELDS).

    Patients arriving during the warm-up window are excluded from all
    accounting; admitted patients lacking DISCHARGE within the horizon are
    censored out of LoS but keep their completed waits."""
    admitted, dismissed = _admitted(rows, warmup_min)
    wt_first = [r[_START_FIRST] - r[_ENQ_FIRST] for r in admitted if r[_START_FIRST] != NO_TIME]
    wt_last = [r[_START_LAST] - r[_ENQ_LAST] for r in admitted if r[_START_LAST] != NO_TIME]
    los = [r[_DISCHARGE] - r[_ARRIVE] for r in admitted if r[_DISCHARGE] != NO_TIME]

    outlier_pct: dict[str, float] = {}
    for code, threshold in sorted(thresholds.items()):
        waits = _first_waits(admitted, CODE_RANK.get(code))
        outlier_pct[code] = (100.0 * sum(1 for w in waits if w > threshold) / len(waits)
                             if waits else float("nan"))

    report = KpiReport(
        in_per_day=len(admitted) / days,
        wt_first=_mean(wt_first),
        wt_last=_mean(wt_last),
        los=_mean(los),
        outlier_pct=outlier_pct,
        n_admitted=len(admitted),
        n_dismissed=dismissed,
        n_censored=len(admitted) - len(los),
    )
    report.vectors = {name: [report.value(name)] for name in KPI_NAMES}
    return report


def aggregate(reports: list[KpiReport]) -> KpiReport:
    """Arithmetic mean per KPI across replications; vectors are concatenated."""
    if not reports:
        raise UsageError("aggregate needs at least one report")
    vectors: dict[str, list[float]] = {name: [] for name in KPI_NAMES}
    for r in reports:
        for name in KPI_NAMES:
            vectors[name].extend(r.vectors.get(name, [r.value(name)]))
    codes = sorted({c for r in reports for c in r.outlier_pct})
    return KpiReport(
        in_per_day=_mean(vectors["in_per_day"]),
        wt_first=_mean(vectors["wt_first"]),
        wt_last=_mean(vectors["wt_last"]),
        los=_mean(vectors["los"]),
        outlier_pct={c: _mean([r.outlier_pct[c] for r in reports if c in r.outlier_pct])
                     for c in codes},
        n_admitted=sum(r.n_admitted for r in reports),
        n_dismissed=sum(r.n_dismissed for r in reports),
        n_censored=sum(r.n_censored for r in reports),
        vectors=vectors,
    )


@dataclass
class Comparison:
    baseline: KpiReport
    candidate: KpiReport
    delta: dict[str, float]
    p_value: dict[str, float]
    significant: dict[str, bool]

    def flags(self) -> list[str]:
        return [name for name in KPI_NAMES if self.significant[name]]


def compare(baseline: KpiReport, candidate: KpiReport, alpha: float = ALPHA) -> Comparison:
    """Per-KPI two-sided Welch test over the retained replication vectors."""
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
            p = float(stats.ttest_ind(b, c, equal_var=False).pvalue)
        p_value[name] = p
        significant[name] = bool(not math.isnan(p) and p < alpha)
    return Comparison(baseline, candidate, delta, p_value, significant)
