"""KPIs computed from the rows a replication stamps while it runs must equal
the KPIs rebuilt from its event log, and a log that is not kept must cost
the KPIs nothing."""

from __future__ import annotations

import io

import pytest

from edsim import kernel, kpi
from edsim.harness import run_scenario
from edsim.kernel import EventLog
from edsim.kpi import compute_kpis
from edsim.model import Replication, run_replication
from edsim.scenario import Scenario, parse
from edsim.stochastics import draw_patients

from log_oracle import (collect_patients, read_log_csv, records_of, rows_from_log,
                        rows_from_log_dir, run_drained, run_logged)

DAYS = 2
SEEDS = (3, 42, 2020)

# scenario -> check that the replication exercised what the scenario is for
SCENARIOS = {
    "baseline": (Scenario(), None),
    "e=30": (Scenario(e=30), lambda records: _has(records, "DISMISSED_AT_TRIAGE")),
    "l=100": (Scenario(l=100), lambda records: any(
        r.event == "TRIAGE_DONE" and "labtriage=1" in r.detail for r in records)),
    "a=1": (Scenario(a=1), lambda records: any(
        r.event == "START_LAST" and r.detail.endswith("pool=last_visit") for r in records)),
    "tau_g=60,tau_w=90": (Scenario(tau_g=60, tau_w=90), lambda records: _has(records, "PROMOTED")),
    "B.1": (parse("B.1"), None),
    "F.1": (parse("F.1"), lambda records: any(
        r.event == "START_LAST" and r.detail.endswith("pool=last_visit") for r in records)),
    "Cb.15": (parse("Cb.15"), lambda records: _has(records, "DISMISSED_AT_TRIAGE")),
}


def _has(records, event: str) -> bool:
    return any(r.event == event for r in records)


def _assert_online_matches_log(rows, records, thresholds: dict) -> None:
    assert list(rows) == rows_from_log(records)
    online = compute_kpis(rows, DAYS, thresholds)
    from_log = compute_kpis(rows_from_log(records), DAYS, thresholds)
    assert online.to_dict() == from_log.to_dict()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_online_kpis_equal_log_kpis(name, seed, default_profile):
    scenario, exercised = SCENARIOS[name]
    rows, records = run_logged(default_profile, scenario, 0, seed, DAYS)
    if exercised is not None:
        assert exercised(records), f"{name} seed {seed} did not exercise its lever"
    _assert_online_matches_log(rows, records, default_profile.thresholds)


@pytest.mark.parametrize("seed", SEEDS)
def test_online_kpis_equal_log_kpis_when_draining(seed, default_profile, tmp_path):
    path = tmp_path / "rep_00.csv"
    rows = run_drained(Replication(default_profile, Scenario(e=10, tau_g=90), 0, DAYS,
                                   draw_patients(default_profile, seed, 0, DAYS), log_path=path))
    records = read_log_csv(path)
    assert all(p.get("DISCHARGE") is not None or p.dismissed
               for p in collect_patients(records).values())
    _assert_online_matches_log(rows, records, default_profile.thresholds)


def test_patient_arriving_at_the_warmup_boundary_counts_on_both_paths(default_profile,
                                                                      monkeypatch):
    rows, records = run_logged(default_profile, Scenario(), 0, 42, DAYS)
    # the first triaged, not dismissed patient after the first day sets the boundary
    boundary = next(p.get("ARRIVE") for p in collect_patients(records).values()
                    if p.get("ARRIVE") >= 1440 and p.get("TRIAGE_DONE") is not None
                    and not p.dismissed)
    monkeypatch.setattr(kpi, "WARMUP_MIN", boundary)
    _assert_online_matches_log(rows, records, default_profile.thresholds)
    at = compute_kpis(rows, DAYS, default_profile.thresholds)
    monkeypatch.setattr(kpi, "WARMUP_MIN", boundary + 1)
    after = compute_kpis(rows, DAYS, default_profile.thresholds)
    assert at.n_admitted > after.n_admitted


def refuse_opens(monkeypatch) -> None:
    """Fail any file the kernel opens from here on."""
    def refuse(file, *args, **kwargs):
        raise AssertionError(f"a log that is not kept opened {file}")

    monkeypatch.setattr(kernel, "open", refuse, raising=False)


def test_log_not_kept_holds_no_records_and_same_kpis(default_profile, monkeypatch):
    kept, records = run_logged(default_profile, Scenario(tau_g=90), 1, 7, DAYS)
    refuse_opens(monkeypatch)
    rep = Replication(default_profile, Scenario(tau_g=90), 1, DAYS,
                      draw_patients(default_profile, 7, 1, DAYS))
    bare = rep.run()
    assert records
    assert list(bare) == list(kept)
    thresholds = default_profile.thresholds
    assert (compute_kpis(bare, DAYS, thresholds).to_dict()
            == compute_kpis(kept, DAYS, thresholds).to_dict())
    with pytest.raises(ValueError, match="not kept"):
        rep.log.write_csv("never.csv")


def test_run_replication_ends_its_log_before_it_returns(default_profile, tmp_path,
                                                         monkeypatch):
    # no call after run_replication: the file is closed and holds every
    # record the run added, and those records give back the returned rows
    opened, added = [], [0]
    plain_open, plain_add = open, EventLog.add

    def recording_open(*args, **kwargs):
        opened.append(plain_open(*args, **kwargs))
        return opened[-1]

    def counting_add(*args):
        added[0] += 1
        plain_add(*args)

    monkeypatch.setattr(kernel, "open", recording_open, raising=False)
    monkeypatch.setattr(EventLog, "add", counting_add)
    path = tmp_path / "rep_00.csv"
    rows = run_replication(default_profile, parse("Cb.15"), 0, 42, DAYS, log_path=path)
    assert len(opened) == 1 and opened[0].closed
    records = read_log_csv(path)
    assert len(records) == added[0]
    assert path.stat().st_size > 2 * io.DEFAULT_BUFFER_SIZE  # more than the file buffers
    assert list(rows) == rows_from_log(records)


@pytest.mark.parametrize("jobs", [1, 2])
def test_harness_writes_logs_only_when_asked(jobs, default_profile, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    agg = run_scenario(default_profile, Scenario(), 5, 2, 1, jobs=jobs)
    assert len(agg.vectors["los"]) == 2
    assert list(tmp_path.iterdir()) == []
    logged_agg = run_scenario(default_profile, Scenario(), 5, 2, 1, jobs=jobs, log_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep_00.csv", "rep_01.csv"]
    for rep, rows in enumerate(rows_from_log_dir(tmp_path, 2)):
        assert rows and rows == list(run_replication(default_profile, Scenario(), rep, 5, 1))
    assert logged_agg.to_dict() == agg.to_dict()
    assert logged_agg.first_waits == agg.first_waits


class TestEventLogSink:
    @pytest.fixture()
    def streamed(self, tmp_path):
        log = EventLog(0, tmp_path / "rep_00.csv")
        yield log
        log.close()

    def test_unknown_event_raises_when_kept(self, streamed):
        with pytest.raises(ValueError, match="unknown log event 'TELEPORT'"):
            streamed.add(5, 1, "TELEPORT")

    def test_field_count_is_checked_when_kept(self, streamed):
        with pytest.raises(ValueError, match="START_FIRST takes 2 fields, got 1"):
            streamed.add(5, 1, "START_FIRST", "T1")

    def test_log_not_kept_returns_at_once(self, monkeypatch):
        refuse_opens(monkeypatch)
        log = EventLog(0)
        log.add(5, 1, "TELEPORT")

    def test_details_render_from_templates(self, tmp_path):
        log = EventLog(3, tmp_path / "rep_03.csv")
        log.add(10, 1, "TRIAGE_DONE", "GREEN", "GENERAL", True, False, ("xray", "misc"))
        log.add(11, 2, "TRIAGE_DONE", "WHITE", "ORTHOPAEDIC", False, False, ())
        log.add(12, 1, "START_FIRST", "T1", "low_general")
        log.add(13, 1, "PROMOTED")
        records = records_of(log)
        assert [r.detail for r in records] == [
            "code=GREEN type=GENERAL lab=1 labtriage=0 exams=xray+misc",
            "code=WHITE type=ORTHOPAEDIC lab=0 labtriage=0 exams=-",
            "team=T1 pool=low_general",
            "",
        ]
        assert records[0][:4] == (3, 10, 1, "TRIAGE_DONE")

    def test_a_list_field_raises_type_error(self, streamed):
        # fields key the rendered tails, so they must hash; tape rows carry
        # each exam plan as a tuple
        with pytest.raises(TypeError, match="unhashable"):
            streamed.add(10, 1, "TRIAGE_DONE", "GREEN", "GENERAL", True, False, ["xray", "misc"])
        assert records_of(streamed) == []

    def test_a_str_field_must_be_a_str_and_equal_integers_render_alike(self, streamed):
        with pytest.raises(ValueError, match="START_FIRST takes str fields, got 1"):
            streamed.add(5, 1, "START_FIRST", 1, "low_general")
        with pytest.raises(ValueError, match="ENQUEUE_FIRST takes str fields, got True"):
            streamed.add(5, 1, "ENQUEUE_FIRST", True)
        for lab in (True, 1, 1.0):  # equal keys: the first one's tail serves them all
            streamed.add(5, 1, "TRIAGE_DONE", "RED", "GENERAL", lab, 0, ())
        streamed.write_csv(streamed.path)
        assert streamed.path.read_bytes().split(b"\r\n")[1:] == [
            b"0,5,1,TRIAGE_DONE,code=RED type=GENERAL lab=1 labtriage=0 exams=-"] * 3 + [b""]

    def test_one_detail_reused_by_many_records_writes_each_line(self, tmp_path):
        log = EventLog(7, tmp_path / "rep_07.csv")
        teams = ("T1", "T2", 'OR,"1"')
        for i in range(3000):
            log.add(i, i % 101, "START_FIRST", teams[i % 3], "low_general")
            log.add(i, i % 101, "PROMOTED")
        records = records_of(log)
        assert records == [rec for i in range(3000) for rec in (
            (7, i, i % 101, "START_FIRST", f"team={teams[i % 3]} pool=low_general"),
            (7, i, i % 101, "PROMOTED", ""))]
