"""KPIs computed from the rows a replication stamps while it runs must equal
the KPIs rebuilt from its event log, and a log that is not kept must cost
the KPIs nothing."""

from __future__ import annotations

import pytest

from edsim.harness import run_scenario
from edsim.kernel import EventLog
from edsim.kpi import collect_patients, compute_kpis, rows_from_log
from edsim.model import run_replication
from edsim.scenario import Scenario, parse

DAYS = 2
SEEDS = (3, 42, 2020)

# scenario -> check that the replication exercised what the scenario is for
SCENARIOS = {
    "baseline": (Scenario(), None),
    "e=30": (Scenario(e=30), lambda log: _has(log, "DISMISSED_AT_TRIAGE")),
    "l=100": (Scenario(l=100), lambda log: any(
        r.event == "TRIAGE_DONE" and "labtriage=1" in r.detail for r in log.records)),
    "a=1": (Scenario(a=1), lambda log: any(
        r.event == "START_LAST" and r.detail.endswith("pool=last_visit") for r in log.records)),
    "tau_g=60,tau_w=90": (Scenario(tau_g=60, tau_w=90), lambda log: _has(log, "PROMOTED")),
    "B.1": (parse("B.1"), None),
    "F.1": (parse("F.1"), lambda log: any(
        r.event == "START_LAST" and r.detail.endswith("pool=last_visit") for r in log.records)),
    "Cb.15": (parse("Cb.15"), lambda log: _has(log, "DISMISSED_AT_TRIAGE")),
}


def _has(log: EventLog, event: str) -> bool:
    return any(r.event == event for r in log.records)


def _assert_online_matches_log(log: EventLog, thresholds: dict, warmup_min: int) -> None:
    assert log.rows == rows_from_log(log.records)
    online = compute_kpis(log.rows, DAYS, thresholds, warmup_min=warmup_min)
    from_log = compute_kpis(rows_from_log(log.records), DAYS, thresholds, warmup_min=warmup_min)
    assert online.to_dict() == from_log.to_dict()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_online_kpis_equal_log_kpis(name, seed, default_raw, default_profile):
    scenario, exercised = SCENARIOS[name]
    log = run_replication(default_raw, scenario, 0, seed, DAYS)
    if exercised is not None:
        assert exercised(log), f"{name} seed {seed} did not exercise its lever"
    _assert_online_matches_log(log, default_profile.thresholds, 1440)


@pytest.mark.parametrize("seed", SEEDS)
def test_online_kpis_equal_log_kpis_when_draining(seed, default_raw, default_profile):
    log = run_replication(default_raw, Scenario(e=10, tau_g=90), 0, seed, DAYS, drain=True)
    assert all(p.get("DISCHARGE") is not None or p.dismissed
               for p in collect_patients(log.records).values())
    _assert_online_matches_log(log, default_profile.thresholds, 1440)


def test_patient_arriving_at_the_warmup_boundary_counts_on_both_paths(default_raw,
                                                                       default_profile):
    log = run_replication(default_raw, Scenario(), 0, 42, DAYS)
    # the first triaged, not dismissed patient after the first day sets the boundary
    boundary = next(p.get("ARRIVE") for p in collect_patients(log.records).values()
                    if p.get("ARRIVE") >= 1440 and p.get("TRIAGE_DONE") is not None
                    and not p.dismissed)
    _assert_online_matches_log(log, default_profile.thresholds, boundary)
    at = compute_kpis(log.rows, DAYS, default_profile.thresholds, warmup_min=boundary)
    after = compute_kpis(log.rows, DAYS, default_profile.thresholds, warmup_min=boundary + 1)
    assert at.n_admitted > after.n_admitted


def test_log_not_kept_holds_no_records_and_same_kpis(default_raw, default_profile):
    kept = run_replication(default_raw, Scenario(tau_g=90), 1, 7, DAYS)
    bare = run_replication(default_raw, Scenario(tau_g=90), 1, 7, DAYS, keep_log=False)
    assert kept.records and bare.records == []
    assert bare.rows == kept.rows
    thresholds = default_profile.thresholds
    assert (compute_kpis(bare.rows, DAYS, thresholds).to_dict()
            == compute_kpis(kept.rows, DAYS, thresholds).to_dict())
    with pytest.raises(ValueError, match="not kept"):
        bare.write_csv("never.csv")


@pytest.mark.parametrize("jobs", [1, 2])
def test_harness_keeps_records_only_when_asked(jobs, default_profile):
    agg, _, logs = run_scenario(default_profile, Scenario(), 5, 2, 1, jobs=jobs)
    assert [log.records for log in logs] == [[], []]
    assert all(log.rows for log in logs)
    kept_agg, _, kept = run_scenario(default_profile, Scenario(), 5, 2, 1, jobs=jobs,
                                     keep_logs=True)
    assert all(log.records for log in kept)
    assert kept_agg.to_dict() == agg.to_dict()


class TestEventLogSink:
    def test_unknown_event_raises_when_kept(self):
        with pytest.raises(ValueError, match="unknown log event 'TELEPORT'"):
            EventLog(0).add(5, 1, "TELEPORT")

    def test_field_count_is_checked_when_kept(self):
        with pytest.raises(ValueError, match="START_FIRST takes 2 fields, got 1"):
            EventLog(0).add(5, 1, "START_FIRST", "T1")

    def test_log_not_kept_returns_at_once(self):
        log = EventLog(0, keep=False)
        log.add(5, 1, "TELEPORT")
        assert log.records == []

    def test_details_render_from_templates(self):
        log = EventLog(3)
        log.add(10, 1, "TRIAGE_DONE", "GREEN", "GENERAL", True, False, ["xray", "misc"])
        log.add(11, 2, "TRIAGE_DONE", "WHITE", "ORTHOPAEDIC", False, False, [])
        log.add(12, 1, "START_FIRST", "T1", "low_general")
        log.add(13, 1, "PROMOTED")
        assert [r.detail for r in log.records] == [
            "code=GREEN type=GENERAL lab=1 labtriage=0 exams=xray+misc",
            "code=WHITE type=ORTHOPAEDIC lab=0 labtriage=0 exams=-",
            "team=T1 pool=low_general",
            "",
        ]
        assert log.records[0][:4] == (3, 10, 1, "TRIAGE_DONE")
