"""Flow properties on random small profiles and scenarios: every patient who
arrives is discharged, dismissed or still in the ED at the horizon, draining
empties the ED, no team or exam pool is ever overbooked, reds keep their
precedence at the high room, the paper's same-team affinity and lab before
exam hold, logging never changes the KPI rows, a log streamed to its file
is the file csv.writer writes, and a run that raises leaves every record
added in its closed file."""

import copy
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsim import kernel
from edsim.kpi import NO_TIME, ROW_FIELDS, WARMUP_MIN
from edsim.model import Replication, run_replication
from edsim.scenario import Scenario
from edsim.stochastics import Profile, draw_patients

from log_oracle import (assert_no_overbooking, check_red_immediacy, collect_patients,
                        parse_detail, read_log_csv, run_drained, team_windows)
from test_model import csv_writer_bytes
from test_tape import mini_profiles

DISMISSED, DISCHARGE = ROW_FIELDS.index("dismissed"), ROW_FIELDS.index("discharge")
# Mini profiles staff both general rooms and leave these two empty.
SPECIALIST_ROOMS = {"ORTHOPAEDIC": "orthopaedic", "DERMATOLOGICAL": "dermatological"}


def _maybe(values):
    return st.none() | values


SCENARIOS = st.builds(
    Scenario, t=_maybe(st.integers(0, 30)), p=_maybe(st.sampled_from([0, 1])),
    tau_g=_maybe(st.integers(0, 240)), tau_w=_maybe(st.integers(0, 360)),
    e=_maybe(st.floats(0, 100)), l=_maybe(st.floats(0, 100)), a=st.integers(0, 2),
    r=_maybe(st.integers(0, 120)))


def assert_paper_disciplines(patients, records, scenario: Scenario) -> None:
    """Same-team affinity without dedicated last-visit teams (a is 0 or
    None): a last visit is made by the first visit's team. Lab before exam:
    a lab patient starts no exam and queues for no last visit before the
    lab result. A last visit is queued only once the first visit and every
    exam of the patient's plan have ended."""
    exam_ends = defaultdict(list)
    for r in records:
        if r.event == "END_EXAM":
            exam_ends[r.patient_id].append(r.time_min)
    for p in patients.values():
        if not scenario.a and p.get("START_LAST") is not None:
            assert p.last_team == p.first_team, f"affinity broken for {p.pid}"
        result = p.get("LAB_RESULT")
        if p.triage_detail is not None and p.triage_detail["lab"] == "1":
            for event in ("START_EXAM", "ENQUEUE_LAST"):
                if p.get(event) is not None:
                    assert result is not None and p.get(event) >= result, \
                        f"{event} of {p.pid} before its lab result"
        enq_last = p.get("ENQUEUE_LAST")
        if enq_last is not None:
            exams = p.triage_detail["exams"]
            assert len(exam_ends[p.pid]) == (0 if exams == "-" else len(exams.split("+")))
            assert p.get("END_FIRST") is not None
            assert enq_last >= max([p.get("END_FIRST"), *exam_ends[p.pid]]), \
                f"last visit of {p.pid} queued before its first visit and exams ended"


@settings(max_examples=40, deadline=None)
@given(data=st.data(), scenario=SCENARIOS, seed=st.integers(0, 2**32 - 1),
       days=st.integers(1, 2), staffed=st.booleans())
def test_patients_are_conserved_and_no_one_is_overbooked(default_raw, data, scenario, seed,
                                                        days, staffed):
    profile = data.draw(mini_profiles(default_raw))
    if staffed:
        raw = copy.deepcopy(profile.raw)
        raw["resources"]["orthopaedic"]["teams"] = [{"id": "O1", "start": 0, "end": 0}]
        raw["resources"]["dermatological"]["teams"] = [{"id": "D1", "start": 480, "end": 1200}]
        profile = Profile(raw)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep_00.csv"
        rep = Replication(profile, scenario, 0, days, draw_patients(profile, seed, 0, days),
                          log_path=path)
        rows = rep.run()
        records = read_log_csv(path)
        assert len(rep.patients) == sum(1 for r in rows
                                    if not r[DISMISSED] and r[DISCHARGE] == NO_TIME)
        patients = collect_patients(records)
        assert_no_overbooking(patients, records, profile.capacity)
        if scenario.p != 1:  # p=1 serves last visits first: no red zero-wait claim
            check_red_immediacy(patients, team_windows(profile, 60 * (scenario.t or 0)),
                                profile)
        assert_paper_disciplines(patients, records, scenario)

        # a room that receives patients but has no team never empties: once
        # a patient has queued there (each room's queue bears its name),
        # run_drained raises
        unstaffed = {room for visit, room in SPECIALIST_ROOMS.items()
                     if profile.mixes["visit_type"][visit] > 0
                     and not profile.teams[room]}
        if any(r.event == "ENQUEUE_FIRST" and parse_detail(r.detail)["queue"] in unstaffed
               for r in records):
            with pytest.raises(AssertionError, match="patients still in the ED"):
                run_drained(Replication(profile, scenario, 0, days,
                                        draw_patients(profile, seed, 0, days),
                                        log_path=Path(tmp) / "drained.csv"))
        elif not unstaffed:
            path = Path(tmp) / "drained.csv"
            drained = Replication(profile, scenario, 0, days,
                                  draw_patients(profile, seed, 0, days), log_path=path)
            rows = run_drained(drained)
            records = read_log_csv(path)
            assert len(drained.patients) == 0
            assert all(r[DISCHARGE] != NO_TIME for r in rows if not r[DISMISSED])
            assert_no_overbooking(collect_patients(records), records, profile.capacity)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), scenario=SCENARIOS, seed=st.integers(0, 2**32 - 1),
       days=st.integers(1, 2))
def test_logging_never_changes_the_kpi_rows(default_raw, data, scenario, seed, days):
    profile = data.draw(mini_profiles(default_raw))
    rep = Replication(profile, scenario, 0, days, draw_patients(profile, seed, 0, days))
    unlogged = rep.run()
    assert rep.log._file is None  # an unkept log opens no file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep_00.csv"
        streamed = run_replication(profile, scenario, 0, seed, days, log_path=path)
        assert len(path.read_bytes().splitlines()) > 1
    assert list(unlogged) == list(streamed)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), scenario=SCENARIOS, seed=st.integers(0, 2**32 - 1),
       days=st.integers(1, 2))
def test_a_streamed_log_is_the_file_csv_writer_writes(default_raw, data, scenario, seed, days):
    profile = data.draw(mini_profiles(default_raw))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep_00.csv"
        run_replication(profile, scenario, 0, seed, days, log_path=path)
        assert path.read_bytes() == csv_writer_bytes(read_log_csv(path))


def test_a_run_that_raises_leaves_every_record_added_in_its_closed_file(default_profile,
                                                                        tmp_path, monkeypatch):
    added = [0]
    add = kernel.EventLog.add

    def counted(log, *args):
        added[0] += 1
        add(log, *args)

    monkeypatch.setattr(kernel.EventLog, "add", counted)
    path = tmp_path / "rep_00.csv"
    rep = Replication(default_profile, Scenario(), 0, 1, draw_patients(default_profile, 42, 0, 1),
                      log_path=path)

    def fail(now, _entity):
        raise RuntimeError(f"handler failed at minute {now}")

    rep.calendar.schedule(WARMUP_MIN, fail)
    with pytest.raises(RuntimeError, match="handler failed"):
        rep.run()
    assert rep.log._file.closed
    assert added[0] > 0
    assert len(read_log_csv(path)) == added[0]


def test_a_run_whose_first_tape_row_raises_closes_its_file(default_profile, tmp_path):
    def tape():
        raise RuntimeError("no first row")
        yield

    rep = Replication(default_profile, Scenario(), 0, 1, tape(), log_path=tmp_path / "rep_00.csv")
    with pytest.raises(RuntimeError, match="no first row"):
        rep.run()
    assert rep.log._file.closed
