"""Log-side oracle: event logs streamed to files and read back as records,
per-patient traces and KPI rows rebuilt from them, to check the rows and
behaviour a replication records while it runs, and the checks of no
overbooking and of red precedence at the high room."""

from __future__ import annotations

import csv
import math
import os
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from edsim.kernel import CODE_RANK, LOG_HEADER, MINUTES_PER_DAY, EventLog
from edsim.kpi import NO_TIME
from edsim.model import run_replication

DRAIN_DAYS = 30  # simulated days past the horizon that run_drained waits for the ED to empty


class LogRecord(NamedTuple):
    """One line of an event-log CSV, in LOG_HEADER order."""

    rep_id: int
    time_min: int
    patient_id: int
    event: str
    detail: str = ""


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


def rows_from_log_dir(log_dir, replications: int) -> list[list[tuple[int, ...]]]:
    """Each replication's KPI rows, rebuilt from the `rep_NN.csv` that
    harness.run_scenario(..., log_dir=log_dir) wrote."""
    return [rows_from_log(read_log_csv(Path(log_dir) / f"rep_{rep:02d}.csv"))
            for rep in range(replications)]


def run_drained(rep) -> list[tuple[int, ...]]:
    """Run the model.Replication `rep` past its horizon until the ED is
    empty, so that every patient who arrived is discharged or dismissed,
    and return its KPI rows. The run stops DRAIN_DAYS past the horizon,
    where the daily shift kicks would otherwise go on forever (a room that
    receives patients has no team), and raises AssertionError naming the
    patients still in the ED."""
    rep.horizon += DRAIN_DAYS * MINUTES_PER_DAY
    rows = rep.run()
    if rep.patients:
        raise AssertionError(f"{len(rep.patients)} patients still in the ED {DRAIN_DAYS} days "
                             f"past the horizon: pids {sorted(rep.patients)}")
    return rows


def assert_no_overbooking(patients: dict[int, PatientTrace], records: list[LogRecord],
                          capacity: dict[str, int]) -> None:
    """No team serves two patients at once, and no exam pool holds more
    patients than its `capacity` (a profile's). A visit still
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
            assert in_use[pool] <= capacity[pool], f"{pool} over capacity"


def team_windows(profile, offset: int = 0) -> dict[str, tuple[int, int]]:
    """Team id -> its daily shift (start, end), shifted `offset` minutes
    later (scenario t: 60 * t); LV1 is the first dedicated last-visit team."""
    windows = {team: (start, end) for bands in profile.teams.values()
               for team, start, end in bands}
    windows["LV1"] = profile.last_visit_band
    return {team: ((start + offset) % MINUTES_PER_DAY, (end + offset) % MINUTES_PER_DAY)
            for team, (start, end) in windows.items()}


def on_shift(window, minute):
    start, end = window
    m = minute % MINUTES_PER_DAY
    if start == end:
        return True
    if start < end:
        return start <= m < end
    return m >= start or m < end


def check_red_immediacy(patients: dict[int, PatientTrace], windows, profile) -> None:
    """Red precedence at the high room: a red waits only while every high
    slot on shift is busy or another red waits, and no later non-red starts
    there between a red's enqueue and its start. Not a claim under p=1,
    where last visits go first."""
    high_teams = [team for team, _start, _end in profile.teams["high_general"]]
    busy = []
    for p in patients.values():
        s, e = p.get("START_FIRST"), p.get("END_FIRST")
        if s is not None and p.first_team in high_teams:
            busy.append((s, e if e is not None else s))
        sl, d = p.get("START_LAST"), p.get("DISCHARGE")
        if sl is not None and p.last_team in high_teams:
            busy.append((sl, d if d is not None else sl))
    reds = sorted((p for p in patients.values()
                   if p.code == "RED" and p.get("ENQUEUE_FIRST") is not None),
                  key=lambda p: p.get("ENQUEUE_FIRST"))
    for p in reds:
        t = p.get("ENQUEUE_FIRST")
        start = p.get("START_FIRST")
        if start is None or start == t:
            continue  # immediate service satisfies the invariant
        # conservative reconstruction: inclusive ends, so same-minute
        # handoffs are skipped rather than flagged
        n_busy = sum(1 for s, e in busy if s <= t <= e)
        capacity = sum(1 for team in high_teams if on_shift(windows[team], t))
        other_red_waiting = any(
            q is not p and q.get("ENQUEUE_FIRST") <= t and (q.get("START_FIRST") or 10**9) > t
            for q in reds
        )
        if n_busy < capacity and not other_red_waiting:
            raise AssertionError(f"red {p.pid} waited with an idle high slot at {t}")
    # never overtaken at the high room by later non-red arrivals
    non_red_high = sorted(
        (q.get("ENQUEUE_FIRST"), q.get("START_FIRST"))
        for q in patients.values()
        if (q.code != "RED" and q.first_pool == "high_general"
            and q.get("ENQUEUE_FIRST") is not None and q.get("START_FIRST") is not None)
    )
    for p in reds:
        t, start = p.get("ENQUEUE_FIRST"), p.get("START_FIRST")
        if start is None:
            continue
        for q_enq, q_start in non_red_high:
            if q_enq > t and not (q_start >= start or q_start <= t):
                raise AssertionError("red overtaken at high room")


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


def records_of(log: EventLog) -> list[LogRecord]:
    """End the file that `log`, driven by hand rather than by a run, streams
    to, and read its records back."""
    log.write_csv(log.path)
    return read_log_csv(log.path)


def run_logged(profile, scenario, rep_id: int, master_seed: int, days: int,
               tape=None) -> tuple[list[tuple[int, ...]], list[LogRecord]]:
    """model.run_replication with its log streamed to a temporary file: the
    returned KPI rows and the records read back from that file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"rep_{rep_id:02d}.csv")
        rows = run_replication(profile, scenario, rep_id, master_seed, days, tape=tape,
                               log_path=path)
        return rows, read_log_csv(path)
