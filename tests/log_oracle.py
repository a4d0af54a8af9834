"""Log-side oracle: per-patient traces and KPI rows rebuilt from an event
log, to check the rows and behaviour a replication records while it runs."""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass, field

from edsim.kernel import CODE_RANK, LOG_HEADER, LogRecord
from edsim.kpi import NO_TIME


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
        """This patient's KPI row (kpi.ROW_FIELDS order)."""
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


def assert_no_overbooking(patients: dict[int, PatientTrace], records: list[LogRecord],
                          resources: dict) -> None:
    """No team serves two patients at once, and no exam pool holds more
    patients than its capacity in `resources` (a profile's). A visit still
    open when the log ends keeps its team busy for good."""
    visits = defaultdict(list)  # team -> [(start, end)]
    for p in patients.values():
        for team, start, end in ((p.first_team, "START_FIRST", "END_FIRST"),
                                 (p.last_team, "START_LAST", "DISCHARGE")):
            if p.get(start) is not None:
                visits[team].append((p.get(start), p.times.get(end, math.inf)))
    for team, spans in visits.items():
        spans.sort()
        for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert s2 >= e1, f"team {team} double-booked at minute {s2}"
    in_use = defaultdict(int)
    for r in records:  # log order puts a minute's END_EXAM before the START_EXAM it frees
        if r.event in ("START_EXAM", "END_EXAM"):
            pool = parse_detail(r.detail)["pool"]
            in_use[pool] += 1 if r.event == "START_EXAM" else -1
            assert in_use[pool] <= resources[pool]["capacity"], f"{pool} over capacity"


def read_log_csv(path) -> list[LogRecord]:
    records: list[LogRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != LOG_HEADER:
            raise ValueError(f"unexpected event-log header: {header}")
        for row in reader:
            records.append(LogRecord(int(row[0]), int(row[1]), int(row[2]), row[3], row[4]))
    return records
