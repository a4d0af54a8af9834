import copy
import csv
import gc
import io
import time
import weakref
from collections import defaultdict

import pytest

from edsim.kernel import LOG_HEADER, MINUTES_PER_DAY, EventLog
from edsim.kpi import NO_TIME, ROW, ROW_FIELDS, WARMUP_MIN
from edsim.model import Patient, Replication, run_replication
from edsim.scenario import Scenario, parse
from edsim.stochastics import Profile, draw_patients

from conftest import make_mini_raw
from log_oracle import (collect_patients, parse_detail, read_log_csv, records_of, run_drained,
                        run_logged)
from test_golden_logs import CASES, _raw_profile


def make_patient(pid, code, *, visit_type="GENERAL", needs_lab=False, exams=(),
                 first_d=10, last_d=2, triage_d=1, u_dismiss=1.0, u_lab_triage=1.0):
    # a tape row in stochastics.draw_patients field order
    return Patient(pid, (0, code, "walking", triage_d, visit_type, needs_lab, u_lab_triage,
                         u_dismiss, tuple(exams), first_d, last_d, (0.0, 0.0, 0.0),
                         [5] * len(exams)))


def admitted(rep, *args, **kwargs):
    """make_patient, admitted to `rep` as an arrival is, so that the
    replication can retire them at discharge or dismissal. Pids go in
    arrival order, 0, 1, ..., as they index the replication's KPI rows."""
    p = make_patient(*args, **kwargs)
    assert p.pid == len(rep.rows), "admit pids in arrival order"
    rep._admit(p)
    return p


def pump(rep):
    while len(rep.calendar):
        now, _seq, handler, entity = rep.calendar.pop()
        handler(now, entity)


def events_of(records, pid):
    return [(r.time_min, r.event, r.detail) for r in records if r.patient_id == pid]


def first_event(records, pid, event):
    for r in records:
        if r.patient_id == pid and r.event == event:
            return r
    return None


@pytest.fixture()
def bare_rep(mini_raw_factory, tmp_path):
    """Replications whose log streams to a file; the test reads its records
    back with records_of once it has driven them."""
    def build(scenario=Scenario(), teams=None, **kwargs):
        raw = mini_raw_factory(teams=teams, **kwargs)
        return Replication(Profile(raw), scenario, rep_id=0, days=2, patients=(),
                           log_path=tmp_path / "rep_00.csv")

    return build


class TestRouting:
    def test_green_prefers_low_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        g = admitted(rep, 0, "GREEN")
        rep._on_triage_done(600, g)
        records = records_of(rep.log)
        assert first_event(records, 0, "START_FIRST").detail == "team=T1 pool=low_general"

    def test_green_pulled_to_idle_high_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        rep._on_triage_done(600, admitted(rep, 0, "GREEN"))
        rep._on_triage_done(600, admitted(rep, 1, "GREEN"))
        records = records_of(rep.log)
        assert first_event(records, 1, "START_FIRST").detail == "team=H1 pool=high_general"

    def test_green_not_pulled_while_yellow_waits(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        rep._on_triage_done(600, admitted(rep, 0, "YELLOW"))  # takes H1
        rep._on_triage_done(601, admitted(rep, 1, "YELLOW"))  # waits for high
        rep._on_triage_done(602, admitted(rep, 2, "GREEN"))   # takes T1
        rep._on_triage_done(603, admitted(rep, 3, "GREEN"))   # must NOT go to high
        records = records_of(rep.log)
        assert first_event(records, 3, "START_FIRST") is None

    def test_yellow_waits_for_high_even_if_low_idle(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        rep._on_triage_done(600, admitted(rep, 0, "YELLOW"))
        rep._on_triage_done(601, admitted(rep, 1, "YELLOW"))
        records = records_of(rep.log)
        assert first_event(records, 1, "START_FIRST") is None  # low stays idle for it

    def test_red_goes_directly_to_high_with_zero_wait(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        red = admitted(rep, 0, "RED")
        rep._on_triage_done(700, red)
        records = records_of(rep.log)
        start = first_event(records, 0, "START_FIRST")
        assert start.time_min == 700
        assert parse_detail(start.detail)["pool"] == "high_general"

    def test_red_orthopaedic_still_served_at_high_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [], "high_general": [("H1", 0, 0)],
                              "orthopaedic": [("ORT1", 0, 0)]})
        red = admitted(rep, 0, "RED", visit_type="ORTHOPAEDIC")
        rep._on_triage_done(700, red)
        records = records_of(rep.log)
        assert parse_detail(first_event(records, 0, "START_FIRST").detail)["pool"] == "high_general"

    def test_orthopaedic_green_uses_dedicated_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)],
                              "orthopaedic": [("ORT1", 0, 0)]})
        rep._on_triage_done(600, admitted(rep, 0, "GREEN", visit_type="ORTHOPAEDIC"))
        records = records_of(rep.log)
        start = first_event(records, 0, "START_FIRST")
        assert parse_detail(start.detail)["team"] == "ORT1"


class TestLastVisitDiscipline:
    def test_priority_flag_serves_last_before_first(self, bare_rep):
        rep = bare_rep(scenario=Scenario(p=1), teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(100, admitted(rep, 0, "GREEN", first_d=50))
        rep._on_triage_done(110, admitted(rep, 1, "GREEN"))
        done = admitted(rep, 2, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 120)
        pump(rep)  # FIRST_DONE at 150 frees T1
        records = records_of(rep.log)
        start_last = first_event(records, 2, "START_LAST")
        start_first = first_event(records, 1, "START_FIRST")
        assert start_last.time_min == 150
        assert start_first.time_min > 150

    def test_current_setting_is_category_fifo_between_first_and_last(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(100, admitted(rep, 0, "GREEN", first_d=50))
        rep._on_triage_done(110, admitted(rep, 1, "GREEN"))
        done = admitted(rep, 2, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 120)  # enqueued after patient 1
        pump(rep)
        records = records_of(rep.log)
        assert first_event(records, 1, "START_FIRST").time_min == 150
        assert first_event(records, 2, "START_LAST").time_min > 150

    def test_yellow_last_queues_at_routine_rank(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(100, admitted(rep, 0, "GREEN", first_d=50))
        rep._on_triage_done(110, admitted(rep, 1, "GREEN"))
        done = admitted(rep, 2, "YELLOW")
        done.first_team = "T1"
        rep._enqueue_last(done, 120)
        pump(rep)
        # a stabilized yellow re-evaluation does not jump the earlier green
        records = records_of(rep.log)
        assert first_event(records, 1, "START_FIRST").time_min == 150
        assert first_event(records, 2, "START_LAST").time_min > 150

    def test_same_team_affinity_in_baseline(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 11, 4)
        for p in collect_patients(records).values():
            if p.last_team is not None:
                assert p.last_team == p.first_team

    def test_off_shift_team_still_serves_its_own_last(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 480, 1200)],
                              "high_general": [("H1", 0, 0)]})
        done = admitted(rep, 0, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 1300)  # T1 went home at 20:00
        records = records_of(rep.log)
        start = first_event(records, 0, "START_LAST")
        assert start is not None and start.time_min == 1300
        assert parse_detail(start.detail)["team"] == "T1"

    def test_off_shift_team_takes_no_new_first_visits(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 480, 1200)],
                              "high_general": [("H1", 480, 1200)]})
        rep._on_triage_done(1300, admitted(rep, 0, "GREEN"))
        records = records_of(rep.log)
        assert first_event(records, 0, "START_FIRST") is None


class TestExtraTeamScenario:
    def test_dedicated_pool_serves_pending_lasts(self, bare_rep):
        rep = bare_rep(scenario=Scenario(a=1), teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(600, admitted(rep, 0, "GREEN", first_d=120))  # T1 busy till 720
        done = admitted(rep, 1, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 610)
        records = records_of(rep.log)
        start = first_event(records, 1, "START_LAST")
        assert start is not None and start.time_min == 610
        assert parse_detail(start.detail) == {"team": "LV1", "pool": "last_visit"}

    def test_extra_team_respects_its_shift(self, bare_rep):
        rep = bare_rep(scenario=Scenario(a=1), teams={"low_general": [("T1", 480, 1200)]})
        done = admitted(rep, 0, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 1300)  # 21:40: extra team off, T1 drains it
        records = records_of(rep.log)
        start = first_event(records, 0, "START_LAST")
        assert parse_detail(start.detail)["team"] == "T1"

    def test_wt_last_drops_with_extra_team(self, default_profile):
        from edsim.kpi import compute_kpis

        base = run_replication(default_profile, Scenario(), 0, 5, 8)
        extra = run_replication(default_profile, Scenario(a=1), 0, 5, 8)
        k_base = compute_kpis(base, 8, default_profile.thresholds)
        k_extra = compute_kpis(extra, 8, default_profile.thresholds)
        assert k_extra.value("wt_last") < 0.7 * k_base.value("wt_last")


class TestTriageOutcomes:
    def test_white_dismissal_fraction(self, mini_raw_factory):
        raw = mini_raw_factory(codes={"WHITE": 1.0}, daily_total=3600.0,
                               teams={"low_general": [(f"T{i}", 0, 0) for i in range(6)],
                                      "high_general": [("H1", 0, 0)]},
                               first_mean=1.0, last_mean=1.0)
        _, records = run_logged(Profile(raw), Scenario(e=20), 0, 3, 28)
        pts = collect_patients(records)
        whites = [p for p in pts.values() if p.get("TRIAGE_DONE") is not None]
        assert len(whites) > 100_000
        frac = sum(p.dismissed for p in whites) / len(whites)
        assert abs(frac - 0.20) < 0.01

    def test_no_dismissals_without_scenario_e(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 5, 3)
        assert all(r.event != "DISMISSED_AT_TRIAGE" for r in records)

    def test_dismissed_have_no_further_events(self, default_profile):
        _, records = run_logged(default_profile, Scenario(e=50), 0, 5, 4)
        by_pid = defaultdict(list)
        for r in records:
            by_pid[r.patient_id].append(r.event)
        dismissed = [evs for evs in by_pid.values() if "DISMISSED_AT_TRIAGE" in evs]
        assert dismissed
        for evs in dismissed:
            assert evs == ["ARRIVE", "TRIAGE_DONE", "DISMISSED_AT_TRIAGE"]

    def test_raising_e_never_increases_admitted_whites(self, default_profile):
        def admitted_whites(e):
            scen = Scenario(e=e) if e else Scenario()
            _, records = run_logged(default_profile, scen, 0, 17, 6)
            return {p.pid for p in collect_patients(records).values()
                    if p.code == "WHITE" and not p.dismissed and p.get("TRIAGE_DONE")}

        w0, w10, w20 = admitted_whites(0), admitted_whites(10), admitted_whites(20)
        assert w20 <= w10 <= w0


class TestLabPipeline:
    def test_lab_never_at_triage_when_l_zero(self, default_profile):
        _, records = run_logged(default_profile, Scenario(l=0), 0, 5, 3)
        for p in collect_patients(records).values():
            draw, end_first = p.get("LAB_DRAW"), p.get("END_FIRST")
            if draw is not None:
                assert end_first is not None and draw == end_first

    def test_lab_at_triage_when_l_hundred(self, default_profile):
        _, records = run_logged(default_profile, Scenario(l=100), 0, 5, 3)
        seen = 0
        for p in collect_patients(records).values():
            draw = p.get("LAB_DRAW")
            if draw is not None and not p.dismissed:
                assert draw == p.get("TRIAGE_DONE")
                seen += 1
        assert seen > 50

    def test_dispatch_on_half_hour_boundary(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 5, 3)
        for p in collect_patients(records).values():
            draw, dispatch = p.get("LAB_DRAW"), p.get("LAB_DISPATCH")
            if draw is not None and dispatch is not None:
                assert dispatch % 30 == 0
                assert 0 <= dispatch - draw < 30 or dispatch == draw

    def test_reduction_shrinks_lab_turnaround_by_r(self, default_profile):
        def mean_turnaround(scen):
            _, records = run_logged(default_profile, scen, 0, 5, 10)
            spans = []
            for p in collect_patients(records).values():
                draw, result = p.get("LAB_DRAW"), p.get("LAB_RESULT")
                if draw is not None and result is not None:
                    spans.append(result - draw)
            return sum(spans) / len(spans)

        gain = mean_turnaround(Scenario()) - mean_turnaround(Scenario(r=30))
        assert 26.0 <= gain <= 30.0


class TestExamsAndFlow:
    def test_exams_wait_for_lab_result(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 5, 4)
        for p in collect_patients(records).values():
            result, exam = p.get("LAB_RESULT"), p.get("START_EXAM")
            if result is not None and exam is not None:
                assert exam >= result

    def test_no_work_left_means_immediate_last_queue(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        p = admitted(rep, 0, "GREEN", first_d=30)
        rep._on_triage_done(600, p)
        pump(rep)
        records = records_of(rep.log)
        assert first_event(records, 0, "ENQUEUE_LAST").time_min == \
            first_event(records, 0, "END_FIRST").time_min

    def test_exams_start_at_end_first_without_lab(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        p = admitted(rep, 0, "GREEN", first_d=30, exams=("xray", "misc"))
        rep._on_triage_done(600, p)
        pump(rep)
        records = records_of(rep.log)
        evs = events_of(records, 0)
        end_first = first_event(records, 0, "END_FIRST").time_min
        starts = [t for t, e, _ in evs if e == "START_EXAM"]
        ends = [t for t, e, _ in evs if e == "END_EXAM"]
        assert starts[0] == end_first
        assert len(starts) == len(ends) == 2
        assert starts[1] == ends[0]  # serial execution

    def test_flow_conservation_under_drain(self, default_profile, tmp_path):
        path = tmp_path / "rep_00.csv"
        run_drained(Replication(default_profile, Scenario(e=10), 0, 2,
                                draw_patients(default_profile, 5, 0, 2), log_path=path))
        records = read_log_csv(path)
        by_pid = defaultdict(list)
        for r in records:
            by_pid[r.patient_id].append(r.event)
        assert len(by_pid) > 300
        for evs in by_pid.values():
            if "DISMISSED_AT_TRIAGE" in evs:
                assert evs.count("DISCHARGE") == 0
            else:
                assert evs.count("DISCHARGE") == 1

    def test_timestamp_chain(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 5, 4)
        order = ["ARRIVE", "TRIAGE_DONE", "ENQUEUE_FIRST", "START_FIRST",
                 "END_FIRST", "ENQUEUE_LAST", "START_LAST", "DISCHARGE"]
        for p in collect_patients(records).values():
            times = [p.get(e) for e in order]
            present = [t for t in times if t is not None]
            assert present == sorted(present)

    def test_log_times_non_decreasing(self, default_profile):
        _, records = run_logged(default_profile, Scenario(tau_g=60), 0, 5, 3)
        times = [r.time_min for r in records]
        assert times == sorted(times)

    def test_finished_replication_is_freed_by_reference_counting(self, default_profile):
        # calendar entries hold bound handlers; those left past the horizon
        # must not keep the replication (and every patient) alive
        gc.disable()
        try:
            rep = Replication(default_profile, Scenario(), rep_id=0, days=1,
                              patients=draw_patients(default_profile, 5, 0, 1))
            ref = weakref.ref(rep)
            rep.run()
            del rep
            assert ref() is None
        finally:
            gc.enable()


class TestCapacityAndShifts:
    def test_teams_never_overlap_and_firsts_only_on_shift(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 5, 4)
        windows = {team: (start, end) for pool in ("low_general", "high_general")
                   for team, start, end in default_profile.teams[pool]}
        busy_until = {}
        by_pid = collect_patients(records)
        for r in records:
            if r.event not in ("START_FIRST", "START_LAST"):
                continue
            team = parse_detail(r.detail).get("team")
            if team not in windows:
                continue
            assert busy_until.get(team, -1) <= r.time_min, f"{team} overlaps at {r.time_min}"
            pat = by_pid[r.patient_id]
            end_event = "END_FIRST" if r.event == "START_FIRST" else "DISCHARGE"
            end = pat.get(end_event)
            if end is not None:
                busy_until[team] = end
            if r.event == "START_FIRST":
                start, stop = windows[team]
                m = r.time_min % 1440
                on = (start <= m < stop) if start < stop else (m >= start or m < stop)
                assert on, f"off-shift first visit by {team} at {r.time_min}"

    def test_services_cross_shift_change_and_complete(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 5, 4)
        crossing = 0
        for p in collect_patients(records).values():
            s, e = p.get("START_FIRST"), p.get("END_FIRST")
            if s is not None and e is not None and s % 1440 < 1200 <= (s % 1440) + (e - s):
                crossing += 1
        assert crossing > 0  # drain rule: they exist and completed normally

    def test_dedicated_room_starts_at_its_shift_start(self, default_raw):
        # orthopaedic patients queue overnight; the room's shift start is a
        # dispatch point of its own, not the next arrival or completion
        raw = copy.deepcopy(default_raw)
        raw["resources"]["orthopaedic"]["teams"] = [{"id": "ORT1", "start": 545, "end": 1200}]
        _, records = run_logged(Profile(raw), Scenario(), 0, 42, 3)
        first_start = {}
        for r in records:
            if r.event == "START_FIRST" and parse_detail(r.detail).get("team") == "ORT1":
                first_start.setdefault(r.time_min // 1440, r.time_min % 1440)
        assert first_start == {day: 545 for day in range(4)}

    @pytest.mark.parametrize("spec", ["baseline", "F.1"])
    @pytest.mark.parametrize("second_band", [(1200, 480), (0, 0)], ids=["night", "all-day"])
    def test_slots_are_grouped_by_band(self, default_raw, spec, second_band, tmp_path):
        # Same-band teams listed apart still share one band, and slots are
        # ordered band by band, bands in order of first appearance: listed
        # C E D F, the high room runs exactly as listed C D E F. With E and F
        # on all day, both bands are on shift at once, so the order decides
        # which idle team a patient goes to.
        raw = copy.deepcopy(default_raw)
        teams = {t["id"]: t for t in raw["resources"]["high_general"]["teams"]}
        for team_id in "EF":
            teams[team_id].update(zip(("start", "end"), second_band))
        runs = []
        for order in ("CEDF", "CDEF"):
            raw["resources"]["high_general"]["teams"] = [teams[i] for i in order]
            profile, path = Profile(copy.deepcopy(raw)), tmp_path / f"{order}.csv"
            rep = Replication(profile, parse(spec), 0, 3, draw_patients(profile, 42, 0, 3),
                              log_path=path)
            assert rep.pools["high_general"].calendar.teams == ("C", "D", "E", "F")
            rep.run()
            runs.append(read_log_csv(path))
        assert runs[0] == runs[1]


class SecondPassReplication(Replication):
    """Runs a second dispatch pass after every dispatch and checks that it
    starts no visit and logs nothing."""

    passes = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.adds = 0
        add = self.log.add

        def counted(*record):
            self.adds += 1
            add(*record)

        self.log.add = counted

    def _state(self):
        return (self._waiting_first, self._waiting_last, self.adds,
                [len(pool.busy) for pool in self.pools.values()])

    def _dispatch(self, now):
        super()._dispatch(now)
        state = self._state()
        super()._dispatch(now)
        assert self._state() == state, f"second pass started work at t={now}"
        self.passes += 1


class DispatchCountReplication(Replication):
    """Records, for every `_on_first_done`, how many dispatch passes it made
    and whether the patient went straight to the last-visit queue."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0
        self.first_done = []

    def _dispatch(self, now):
        self.calls += 1
        super()._dispatch(now)

    def _on_first_done(self, now, p):
        before = self.calls
        super()._on_first_done(now, p)
        self.first_done.append((self.calls - before, p.t_enq_last == now))


class TestDispatch:
    def test_first_done_dispatches_once(self, default_profile):
        rep = DispatchCountReplication(default_profile, Scenario(), 0, 3,
                                       draw_patients(default_profile, 42, 0, 3))
        rep.run()
        assert {calls for calls, _straight in rep.first_done} == {1}
        straight = sum(straight for _calls, straight in rep.first_done)
        assert 20 < straight < len(rep.first_done) - 200

    def test_polls_only_teams_that_can_start_work(self, default_profile, monkeypatch):
        from edsim.kernel import ResourcePool

        counts = {"on_shift": 0, "seize": 0}
        on_shift, seize = ResourcePool.on_shift, ResourcePool.seize

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ResourcePool, "on_shift", counted("on_shift", on_shift))
        monkeypatch.setattr(ResourcePool, "seize", counted("seize", seize))
        run_replication(default_profile, Scenario(), 0, 42, 3)
        assert counts["seize"] > 1000
        assert counts["on_shift"] <= 1.5 * counts["seize"]

    def test_promotion_is_logged_by_the_poll_that_serves_it(self, bare_rep):
        rep = bare_rep(scenario=Scenario(tau_g=30), teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(600, admitted(rep, 0, "GREEN", first_d=100))
        rep._on_triage_done(601, admitted(rep, 1, "GREEN"))
        pump(rep)  # T1 frees at 700, when patient 1 has waited 99 > 30 minutes
        records = records_of(rep.log)
        assert events_of(records, 1)[1:4] == [
            (601, "ENQUEUE_FIRST", "queue=general"),
            (700, "PROMOTED", ""),
            (700, "START_FIRST", "team=T1 pool=low_general"),
        ]

    @pytest.mark.parametrize("case", list(CASES))
    def test_second_dispatch_pass_starts_nothing(self, case, tmp_path):
        spec, routing = CASES[case]
        profile, path = Profile(_raw_profile(routing)), tmp_path / "rep_00.csv"
        rep = SecondPassReplication(profile, parse(spec), 0, 3, draw_patients(profile, 42, 0, 3),
                                    log_path=path)
        rep.run()
        records = read_log_csv(path)
        assert rep.passes > 1000
        assert sum(1 for r in records if r.event == "START_LAST") > 500


class TestQueueingBasics:
    def test_two_slots_three_services_third_starts_at_sixty(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0), ("T2", 0, 0)]})
        for pid in range(3):
            rep._on_triage_done(0, admitted(rep, pid, "GREEN", first_d=60))
        pump(rep)
        records = records_of(rep.log)
        times = sorted(first_event(records, pid, "START_FIRST").time_min for pid in range(3))
        assert times == [0, 0, 60]

    def test_fifo_within_class_without_promotions(self, default_profile):
        _, records = run_logged(default_profile, Scenario(), 0, 23, 4)
        queue_of = {}
        for r in records:
            if r.event == "ENQUEUE_FIRST":
                queue_of[r.patient_id] = parse_detail(r.detail)["queue"]
        by_group = defaultdict(list)
        for p in collect_patients(records).values():
            enq, start = p.get("ENQUEUE_FIRST"), p.get("START_FIRST")
            if enq is not None and start is not None:
                by_group[(queue_of[p.pid], p.code)].append((enq, start))
        assert len(by_group) > 4
        for group, pairs in by_group.items():
            pairs.sort()
            starts = [s for _, s in pairs]
            assert starts == sorted(starts), f"FIFO broken within {group}"

    def test_event_log_csv_round_trip(self, default_profile, tmp_path):
        path = tmp_path / "rep_03.csv"
        run_replication(default_profile, Scenario(), 3, 17, 1, log_path=path)
        records = read_log_csv(path)
        assert len(records) > 1000 and {r.rep_id for r in records} == {3}
        assert path.read_bytes() == csv_writer_bytes(records)


def csv_writer_bytes(records) -> bytes:
    """What csv.writer writes for the header and `records`."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(LOG_HEADER)
    writer.writerows(records)
    return out.getvalue().encode()


class TestEventLogCsv:
    @pytest.mark.parametrize("ortho_id", ['OR,"1"', "OR,1", "OR\r1", "OR\n1", "OR%s{}1"])
    def test_team_ids_that_need_quotes_are_written_as_csv_writer_does(
            self, default_raw, ortho_id, tmp_path):
        raw = copy.deepcopy(default_raw)
        raw["resources"]["orthopaedic"]["teams"][0]["id"] = ortho_id
        path = tmp_path / "rep_00.csv"
        run_replication(Profile(raw), Scenario(), 0, 42, 1, log_path=path)
        records = read_log_csv(path)
        assert any(r.detail == f"team={ortho_id} pool=orthopaedic" for r in records)
        assert path.read_bytes() == csv_writer_bytes(records)

    def test_a_second_write_csv_after_the_run_changes_nothing(self, default_profile, tmp_path):
        path = tmp_path / "rep_00.csv"
        rep = Replication(default_profile, Scenario(), 0, 1,
                          draw_patients(default_profile, 42, 0, 1), log_path=path)
        rep.run()
        ended = path.read_bytes()
        rep.log.write_csv(path)
        assert path.read_bytes() == ended

    def test_one_quoted_row_among_many_plain_ones(self, tmp_path):
        path = tmp_path / "rep_02.csv"
        log = EventLog(2, path)
        for i in range(20000):
            log.add(i, i % 97, "START_FIRST", 'OR,"1"' if i == 9000 else "T1", "orthopaedic")
        records = records_of(log)
        assert [r.time_min for r in records] == list(range(20000))
        assert records[9000].detail == 'team=OR,"1" pool=orthopaedic'
        assert records[8999].detail == records[9001].detail == "team=T1 pool=orthopaedic"
        assert path.read_bytes() == csv_writer_bytes(records)

    def test_write_csv_refuses_a_path_that_is_not_its_own(self, tmp_path):
        path, other = tmp_path / "rep_00.csv", tmp_path / "rep_01.csv"
        log = EventLog(0, path)
        log.add(10, 1, "PROMOTED")
        with pytest.raises(ValueError, match="streams to .*rep_00.csv, not to .*rep_01.csv"):
            log.write_csv(other)
        assert not other.exists()
        log.write_csv(str(path))  # the same path, spelt as a string
        assert [r[:4] for r in read_log_csv(path)] == [(0, 10, 1, "PROMOTED")]

    def test_a_log_without_a_path_has_no_file_to_write(self, tmp_path):
        log = EventLog(0)
        with pytest.raises(ValueError, match="not kept"):
            log.write_csv(tmp_path / "rep_00.csv")
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_same_seed_identical_log(self, default_profile):
        a = run_logged(default_profile, Scenario(tau_g=90, l=20), 0, 7, 3)[1]
        b = run_logged(default_profile, Scenario(tau_g=90, l=20), 0, 7, 3)[1]
        assert a == b

    def test_different_reps_differ(self, default_profile):
        a = run_logged(default_profile, Scenario(), 0, 7, 2)[1]
        b = run_logged(default_profile, Scenario(), 1, 7, 2)[1]
        assert a != b

    def test_baseline_scenario_equals_no_scenario(self, default_profile):
        a = run_logged(default_profile, Scenario(), 0, 7, 3)[1]
        b = run_logged(default_profile, Scenario(t=None, p=None), 0, 7, 3)[1]
        assert a == b


def tape_row(minute, code="GREEN"):
    # a tape row in stochastics.draw_patients field order
    return (minute, code, "walking", 1, "GENERAL", False, 1.0, 1.0, (), 10, 2,
            (0.0, 0.0, 0.0), [])


class TestHorizon:
    def test_event_at_the_horizon_runs_and_one_past_it_does_not(self, default_profile):
        rep = Replication(default_profile, Scenario(), 0, 1, [])
        seen = []
        rep.calendar.schedule(rep.horizon, lambda now, tag: seen.append((now, tag)), "at")
        rep.calendar.schedule(rep.horizon + 1, lambda now, tag: seen.append((now, tag)), "past")
        rep.run()
        assert seen == [(rep.horizon, "at")]

    def test_arrival_at_the_horizon_is_admitted_and_one_past_it_is_not(self, default_profile):
        horizon = WARMUP_MIN + MINUTES_PER_DAY
        rows, records = run_logged(default_profile, Scenario(), 0, 5, 1,
                                   tape=[tape_row(horizon), tape_row(horizon + 1)])
        assert [(r.time_min, r.event) for r in records] == [(horizon, "ARRIVE")]
        assert [row[1] for row in rows] == [horizon]

    def test_shift_kicks_run_to_the_horizon_after_the_ed_empties(self, default_profile):
        rep = Replication(default_profile, Scenario(), 0, 3, [tape_row(WARMUP_MIN + 600)])
        rep.run()
        assert not rep.patients
        assert rep.calendar.now > rep.horizon - MINUTES_PER_DAY

    def test_run_returns_its_rows_packed_and_read_as_tuples_by_pid(self, default_profile):
        rep = Replication(default_profile, Scenario(e=10), 0, 1,
                          draw_patients(default_profile, 5, 0, 1))
        rows = rep.run()
        assert len(rows) > 300 and len(rows.records) == len(rows) * ROW.size
        as_tuples = list(rows)
        assert all(type(r) is tuple and len(r) == len(ROW_FIELDS) for r in as_tuples)
        assert [rows[pid] for pid in range(len(rows))] == as_tuples
        assert rows[-1] == as_tuples[-1]
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(TypeError):
            rows[0] = as_tuples[0]
        arrive, triage = ROW_FIELDS.index("arrive"), ROW_FIELDS.index("triage")
        # pid order is arrival order
        assert [r[arrive] for r in rows] == sorted(r[arrive] for r in rows)
        # the patients still in the ED at the horizon are packed by run()
        assert len(rep.patients) > 0
        assert all(rows[pid][arrive] == p.t_arrive and rows[pid][triage] == p.t_triage
                   for pid, p in rep.patients.items())

    def test_drain_runs_past_the_horizon_until_the_ed_is_empty(self, default_profile, tmp_path):
        kept = Replication(default_profile, Scenario(e=10), 0, 1,
                           draw_patients(default_profile, 5, 0, 1))
        kept_rows = kept.run()
        assert len(kept.patients) > 0
        path = tmp_path / "rep_00.csv"
        rep = Replication(default_profile, Scenario(e=10), 0, 1,
                          draw_patients(default_profile, 5, 0, 1), log_path=path)
        horizon = rep.horizon
        seen = []
        rep.calendar.schedule(horizon + 1, lambda now, tag: seen.append((now, tag)), "past")
        rows = run_drained(rep)
        assert seen == [(horizon + 1, "past")]
        assert len(rows) == len(kept_rows) > 300
        assert len(rep.patients) == rep._waiting_first == rep._waiting_last == 0
        assert all(not pool.busy for pool in rep.pools.values())
        assert all(pool.count == 0 and not pool.fifo for pool in rep.exam_pools.values())
        dismissed, discharge = ROW_FIELDS.index("dismissed"), ROW_FIELDS.index("discharge")
        assert all(r[dismissed] or r[discharge] != NO_TIME for r in rows)
        assert max(r.time_min for r in read_log_csv(path)) > horizon

    def test_drain_of_a_room_without_a_team_ends_and_names_who_waits(self, default_raw):
        # half the patients are routed to orthopaedic and dermatological
        # rooms that have no team, so the ED never empties
        profile = Profile(make_mini_raw(default_raw, visit_general=0.5))
        rep = Replication(profile, Scenario(), 0, 1, draw_patients(profile, 5, 0, 1))
        started = time.monotonic()
        with pytest.raises(AssertionError, match=r"patients still in the ED 30 days past the "
                                                 r"horizon: pids \[\d+, "):
            run_drained(rep)
        assert time.monotonic() - started < 10
        assert len(rep.patients) > 10
