"""Flow properties on random small profiles and scenarios: every patient who
arrives is discharged, dismissed or still in the ED at the horizon, draining
empties the ED, no team or exam pool is ever overbooked, reds keep their
precedence at the high room, logging never changes the KPI rows, and a log
streamed to its file in small chunks is the file one chunk writes."""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsim import kernel
from edsim.kpi import NO_TIME, ROW_FIELDS, WARMUP_MIN
from edsim.model import Replication, run_replication
from edsim.scenario import Scenario
from edsim.stochastics import Profile

from log_oracle import (assert_no_overbooking, check_red_immediacy, collect_patients,
                        parse_detail, read_log_csv, records_of, run_drained, team_windows)
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
        rep = Replication(profile, scenario, 0, seed, days, log_path=Path(tmp) / "rep_00.csv")
        log = rep.run()
        records = records_of(log)
        assert rep.in_flight == sum(1 for r in log.rows
                                    if not r[DISMISSED] and r[DISCHARGE] == NO_TIME)
        patients = collect_patients(records)
        assert_no_overbooking(patients, records, profile.resources)
        if scenario.p != 1:  # p=1 serves last visits first: no red zero-wait claim
            check_red_immediacy(patients, team_windows(profile, 60 * (scenario.t or 0)),
                                profile)

        # a room that receives patients but has no team never empties: once
        # a patient has queued there (each room's queue bears its name),
        # run_drained raises
        unstaffed = {room for visit, room in SPECIALIST_ROOMS.items()
                     if profile.mixes["visit_type"][visit] > 0
                     and not profile.resources[room]["teams"]}
        if any(r.event == "ENQUEUE_FIRST" and parse_detail(r.detail)["queue"] in unstaffed
               for r in records):
            with pytest.raises(AssertionError, match="patients still in the ED"):
                run_drained(Replication(profile, scenario, 0, seed, days,
                                        log_path=Path(tmp) / "drained.csv"))
        elif not unstaffed:
            drained = Replication(profile, scenario, 0, seed, days,
                                  log_path=Path(tmp) / "drained.csv")
            log = run_drained(drained)
            records = records_of(log)
            assert drained.in_flight == 0
            assert all(r[DISCHARGE] != NO_TIME for r in log.rows if not r[DISMISSED])
            assert_no_overbooking(collect_patients(records), records, profile.resources)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), scenario=SCENARIOS, seed=st.integers(0, 2**32 - 1),
       days=st.integers(1, 2))
def test_logging_never_changes_the_kpi_rows(default_raw, data, scenario, seed, days):
    profile = data.draw(mini_profiles(default_raw))
    unlogged = run_replication(profile, scenario, 0, seed, days)
    assert unlogged.raw == []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rep_00.csv"
        streamed = run_replication(profile, scenario, 0, seed, days, log_path=path)
        streamed.write_csv(path)
        assert len(path.read_bytes().splitlines()) > 1
    assert unlogged.rows == streamed.rows


SMALL_CHUNK = 7  # records per streamed chunk, so that every run flushes many times
WHOLE = 10**9  # records per chunk, so that a run never flushes


def _whole_and_streamed(profile, scenario, seed, days, directory):
    """One replication's log written twice: in one chunk when write_csv
    ends it, and streamed in chunks of SMALL_CHUNK records while it runs."""
    files, held, rows = {}, {}, {}
    for name, chunk in (("whole", WHOLE), ("streamed", SMALL_CHUNK)):
        files[name] = directory / f"{name}.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_CSV_CHUNK", chunk)
            log = run_replication(profile, scenario, 0, seed, days, log_path=files[name])
            held[name], rows[name] = len(log.raw), log.rows
            log.write_csv(files[name])
    assert held["streamed"] < held["whole"] // 2  # most records already went out
    assert rows["streamed"] == rows["whole"]
    return files["whole"].read_bytes(), files["streamed"].read_bytes()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), scenario=SCENARIOS, seed=st.integers(0, 2**32 - 1),
       days=st.integers(1, 2))
def test_a_streamed_log_is_the_file_one_chunk_writes(default_raw, data, scenario, seed, days):
    profile = data.draw(mini_profiles(default_raw))
    with tempfile.TemporaryDirectory() as tmp:
        whole, streamed = _whole_and_streamed(profile, scenario, seed, days, Path(tmp))
    assert streamed == whole


@pytest.mark.parametrize("ortho_id", ['OR,"1"', "OR\r1", "OR\n1", "OR%s{}1"])
def test_a_streamed_chunk_that_needs_quotes_is_written_as_csv_writer_does(default_raw,
                                                                          ortho_id, tmp_path):
    raw = copy.deepcopy(default_raw)
    raw["resources"]["orthopaedic"]["teams"][0]["id"] = ortho_id
    whole, streamed = _whole_and_streamed(Profile(raw), Scenario(), 42, 1, tmp_path)
    records = read_log_csv(tmp_path / "whole.csv")
    assert any(r.detail == f"team={ortho_id} pool=orthopaedic" for r in records)
    assert whole == streamed == csv_writer_bytes(records)


def test_a_run_that_raises_after_a_flush_closes_its_file(default_profile, tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(kernel, "_CSV_CHUNK", SMALL_CHUNK)
    path = tmp_path / "rep_00.csv"
    rep = Replication(default_profile, Scenario(), 0, 42, 1, log_path=path)

    def fail(now, _entity):
        raise RuntimeError(f"handler failed at minute {now}")

    rep.calendar.schedule(WARMUP_MIN, fail)
    with pytest.raises(RuntimeError, match="handler failed"):
        rep.run()
    assert rep.log._file.closed
    assert path.read_text().count("\n") > SMALL_CHUNK  # the header and flushed chunks


def test_a_run_whose_first_tape_row_raises_closes_its_file(default_profile, tmp_path):
    def tape():
        raise RuntimeError("no first row")
        yield

    rep = Replication(default_profile, Scenario(), 0, 42, 1, tape=tape(),
                      log_path=tmp_path / "rep_00.csv")
    with pytest.raises(RuntimeError, match="no first row"):
        rep.run()
    assert rep.log._file.closed
