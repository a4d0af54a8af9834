from collections import defaultdict

import pytest

from edsim.kpi import collect_patients, parse_detail
from edsim.model import Patient, Replication, run_replication
from edsim.scenario import Scenario
from edsim.stochastics import Profile


def make_patient(pid, code, *, visit_type="GENERAL", needs_lab=False, exams=(),
                 first_d=10, last_d=2, triage_d=1, u_dismiss=1.0, u_lab_triage=1.0):
    p = Patient(pid, code)
    p.mode = "walking"
    p.visit_type = visit_type
    p.needs_lab = needs_lab
    p.exam_kinds = list(exams)
    p.exam_ds = [5] * len(exams)
    p.triage_d = triage_d
    p.first_d = first_d
    p.last_d = last_d
    p.lab_z = (0.0, 0.0, 0.0)
    p.u_dismiss = u_dismiss
    p.u_lab_triage = u_lab_triage
    p.t_arrive = 0
    return p


def pump(rep):
    handlers = rep._handlers()
    while len(rep.calendar):
        now, _seq, kind, entity = rep.calendar.pop()
        handlers[kind](now, entity)


def events_of(log, pid):
    return [(r.time_min, r.event, r.detail) for r in log.records if r.patient_id == pid]


def first_event(log, pid, event):
    for r in log.records:
        if r.patient_id == pid and r.event == event:
            return r
    return None


@pytest.fixture()
def bare_rep(mini_raw_factory):
    def build(scenario=Scenario(), teams=None, **kwargs):
        raw = mini_raw_factory(teams=teams, **kwargs)
        return Replication(Profile(raw), scenario, rep_id=0, master_seed=1, days=2)

    return build


class TestRouting:
    def test_green_prefers_low_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        g = make_patient(0, "GREEN")
        rep._on_triage_done(600, g)
        assert first_event(rep.log, 0, "START_FIRST").detail == "team=T1 pool=low_general"

    def test_green_pulled_to_idle_high_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        rep._on_triage_done(600, make_patient(0, "GREEN"))
        rep._on_triage_done(600, make_patient(1, "GREEN"))
        assert first_event(rep.log, 1, "START_FIRST").detail == "team=H1 pool=high_general"

    def test_green_not_pulled_while_yellow_waits(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        rep._on_triage_done(600, make_patient(0, "YELLOW"))  # takes H1
        rep._on_triage_done(601, make_patient(1, "YELLOW"))  # waits for high
        rep._on_triage_done(602, make_patient(2, "GREEN"))   # takes T1
        rep._on_triage_done(603, make_patient(3, "GREEN"))   # must NOT go to high
        assert first_event(rep.log, 3, "START_FIRST") is None

    def test_yellow_waits_for_high_even_if_low_idle(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        rep._on_triage_done(600, make_patient(0, "YELLOW"))
        rep._on_triage_done(601, make_patient(1, "YELLOW"))
        assert first_event(rep.log, 1, "START_FIRST") is None  # low stays idle for it

    def test_red_goes_directly_to_high_with_zero_wait(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)]})
        red = make_patient(0, "RED")
        rep._on_triage_done(700, red)
        start = first_event(rep.log, 0, "START_FIRST")
        assert start.time_min == 700
        assert parse_detail(start.detail)["pool"] == "high_general"

    def test_red_orthopaedic_still_served_at_high_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [], "high_general": [("H1", 0, 0)],
                              "orthopaedic": [("ORT1", 0, 0)]})
        red = make_patient(0, "RED", visit_type="ORTHOPAEDIC")
        rep._on_triage_done(700, red)
        assert parse_detail(first_event(rep.log, 0, "START_FIRST").detail)["pool"] == "high_general"

    def test_orthopaedic_green_uses_dedicated_room(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)], "high_general": [("H1", 0, 0)],
                              "orthopaedic": [("ORT1", 0, 0)]})
        rep._on_triage_done(600, make_patient(0, "GREEN", visit_type="ORTHOPAEDIC"))
        start = first_event(rep.log, 0, "START_FIRST")
        assert parse_detail(start.detail)["team"] == "ORT1"


class TestLastVisitDiscipline:
    def test_priority_flag_serves_last_before_first(self, bare_rep):
        rep = bare_rep(scenario=Scenario(p=1), teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(100, make_patient(0, "GREEN", first_d=50))
        rep._on_triage_done(110, make_patient(1, "GREEN"))
        done = make_patient(2, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 120)
        pump(rep)  # FIRST_DONE at 150 frees T1
        start_last = first_event(rep.log, 2, "START_LAST")
        start_first = first_event(rep.log, 1, "START_FIRST")
        assert start_last.time_min == 150
        assert start_first.time_min > 150

    def test_current_setting_is_category_fifo_between_first_and_last(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(100, make_patient(0, "GREEN", first_d=50))
        rep._on_triage_done(110, make_patient(1, "GREEN"))
        done = make_patient(2, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 120)  # enqueued after patient 1
        pump(rep)
        assert first_event(rep.log, 1, "START_FIRST").time_min == 150
        assert first_event(rep.log, 2, "START_LAST").time_min > 150

    def test_yellow_last_queues_at_routine_rank(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(100, make_patient(0, "GREEN", first_d=50))
        rep._on_triage_done(110, make_patient(1, "GREEN"))
        done = make_patient(2, "YELLOW")
        done.first_team = "T1"
        rep._enqueue_last(done, 120)
        pump(rep)
        # a stabilized yellow re-evaluation does not jump the earlier green
        assert first_event(rep.log, 1, "START_FIRST").time_min == 150
        assert first_event(rep.log, 2, "START_LAST").time_min > 150

    def test_same_team_affinity_in_baseline(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 11, 4)
        for p in collect_patients(log.records).values():
            if p.last_team is not None:
                assert p.last_team == p.first_team

    def test_off_shift_team_still_serves_its_own_last(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 480, 1200)],
                              "high_general": [("H1", 0, 0)]})
        done = make_patient(0, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 1300)  # T1 went home at 20:00
        start = first_event(rep.log, 0, "START_LAST")
        assert start is not None and start.time_min == 1300
        assert parse_detail(start.detail)["team"] == "T1"

    def test_off_shift_team_takes_no_new_first_visits(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 480, 1200)],
                              "high_general": [("H1", 480, 1200)]})
        rep._on_triage_done(1300, make_patient(0, "GREEN"))
        assert first_event(rep.log, 0, "START_FIRST") is None


class TestExtraTeamScenario:
    def test_dedicated_pool_serves_pending_lasts(self, bare_rep):
        rep = bare_rep(scenario=Scenario(a=1), teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(600, make_patient(0, "GREEN", first_d=120))  # T1 busy till 720
        done = make_patient(1, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 610)
        start = first_event(rep.log, 1, "START_LAST")
        assert start is not None and start.time_min == 610
        assert parse_detail(start.detail) == {"team": "LV1", "pool": "last_visit"}

    def test_extra_team_respects_its_shift(self, bare_rep):
        rep = bare_rep(scenario=Scenario(a=1), teams={"low_general": [("T1", 480, 1200)]})
        done = make_patient(0, "GREEN")
        done.first_team = "T1"
        rep._enqueue_last(done, 1300)  # 21:40: extra team off, T1 drains it
        start = first_event(rep.log, 0, "START_LAST")
        assert parse_detail(start.detail)["team"] == "T1"

    def test_wt_last_drops_with_extra_team(self, default_profile, default_raw):
        from edsim.kpi import compute_kpis

        base = run_replication(default_raw, Scenario(), 0, 5, 8, keep_log=False)
        extra = run_replication(default_raw, Scenario(a=1), 0, 5, 8, keep_log=False)
        k_base = compute_kpis(base.rows, 8, default_profile.thresholds)
        k_extra = compute_kpis(extra.rows, 8, default_profile.thresholds)
        assert k_extra.wt_last < 0.7 * k_base.wt_last


class TestTriageOutcomes:
    def test_white_dismissal_fraction(self, mini_raw_factory):
        raw = mini_raw_factory(codes={"WHITE": 1.0}, daily_total=3600.0,
                               teams={"low_general": [(f"T{i}", 0, 0) for i in range(6)],
                                      "high_general": [("H1", 0, 0)]},
                               first_mean=1.0, last_mean=1.0)
        log = run_replication(raw, Scenario(e=20), 0, 3, 28)
        pts = collect_patients(log.records)
        whites = [p for p in pts.values() if p.get("TRIAGE_DONE") is not None]
        assert len(whites) > 100_000
        frac = sum(p.dismissed for p in whites) / len(whites)
        assert abs(frac - 0.20) < 0.01

    def test_no_dismissals_without_scenario_e(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 5, 3)
        assert all(r.event != "DISMISSED_AT_TRIAGE" for r in log.records)

    def test_dismissed_have_no_further_events(self, default_raw):
        log = run_replication(default_raw, Scenario(e=50), 0, 5, 4)
        by_pid = defaultdict(list)
        for r in log.records:
            by_pid[r.patient_id].append(r.event)
        dismissed = [evs for evs in by_pid.values() if "DISMISSED_AT_TRIAGE" in evs]
        assert dismissed
        for evs in dismissed:
            assert evs == ["ARRIVE", "TRIAGE_DONE", "DISMISSED_AT_TRIAGE"]

    def test_raising_e_never_increases_admitted_whites(self, default_raw):
        def admitted_whites(e):
            scen = Scenario(e=e) if e else Scenario()
            log = run_replication(default_raw, scen, 0, 17, 6)
            return {p.pid for p in collect_patients(log.records).values()
                    if p.code == "WHITE" and not p.dismissed and p.get("TRIAGE_DONE")}

        w0, w10, w20 = admitted_whites(0), admitted_whites(10), admitted_whites(20)
        assert w20 <= w10 <= w0


class TestLabPipeline:
    def test_lab_never_at_triage_when_l_zero(self, default_raw):
        log = run_replication(default_raw, Scenario(l=0), 0, 5, 3)
        for p in collect_patients(log.records).values():
            draw, end_first = p.get("LAB_DRAW"), p.get("END_FIRST")
            if draw is not None:
                assert end_first is not None and draw == end_first

    def test_lab_at_triage_when_l_hundred(self, default_raw):
        log = run_replication(default_raw, Scenario(l=100), 0, 5, 3)
        seen = 0
        for p in collect_patients(log.records).values():
            draw = p.get("LAB_DRAW")
            if draw is not None and not p.dismissed:
                assert draw == p.get("TRIAGE_DONE")
                seen += 1
        assert seen > 50

    def test_dispatch_on_half_hour_boundary(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 5, 3)
        for p in collect_patients(log.records).values():
            draw, dispatch = p.get("LAB_DRAW"), p.get("LAB_DISPATCH")
            if draw is not None and dispatch is not None:
                assert dispatch % 30 == 0
                assert 0 <= dispatch - draw < 30 or dispatch == draw

    def test_reduction_shrinks_lab_turnaround_by_r(self, default_raw):
        def mean_turnaround(scen):
            log = run_replication(default_raw, scen, 0, 5, 10)
            spans = []
            for p in collect_patients(log.records).values():
                draw, result = p.get("LAB_DRAW"), p.get("LAB_RESULT")
                if draw is not None and result is not None:
                    spans.append(result - draw)
            return sum(spans) / len(spans)

        gain = mean_turnaround(Scenario()) - mean_turnaround(Scenario(r=30))
        assert 26.0 <= gain <= 30.0


class TestExamsAndFlow:
    def test_exams_wait_for_lab_result(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 5, 4)
        for p in collect_patients(log.records).values():
            result, exam = p.get("LAB_RESULT"), p.get("START_EXAM")
            if result is not None and exam is not None:
                assert exam >= result

    def test_no_work_left_means_immediate_last_queue(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        p = make_patient(0, "GREEN", first_d=30)
        rep._on_triage_done(600, p)
        pump(rep)
        assert first_event(rep.log, 0, "ENQUEUE_LAST").time_min == \
            first_event(rep.log, 0, "END_FIRST").time_min

    def test_exams_start_at_end_first_without_lab(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0)]})
        p = make_patient(0, "GREEN", first_d=30, exams=("xray", "misc"))
        rep._on_triage_done(600, p)
        pump(rep)
        evs = events_of(rep.log, 0)
        end_first = first_event(rep.log, 0, "END_FIRST").time_min
        starts = [t for t, e, _ in evs if e == "START_EXAM"]
        ends = [t for t, e, _ in evs if e == "END_EXAM"]
        assert starts[0] == end_first
        assert len(starts) == len(ends) == 2
        assert starts[1] == ends[0]  # serial execution

    def test_flow_conservation_under_drain(self, default_raw):
        log = run_replication(default_raw, Scenario(e=10), 0, 5, 2, drain=True)
        by_pid = defaultdict(list)
        for r in log.records:
            by_pid[r.patient_id].append(r.event)
        assert len(by_pid) > 300
        for evs in by_pid.values():
            if "DISMISSED_AT_TRIAGE" in evs:
                assert evs.count("DISCHARGE") == 0
            else:
                assert evs.count("DISCHARGE") == 1

    def test_timestamp_chain(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 5, 4)
        order = ["ARRIVE", "TRIAGE_DONE", "ENQUEUE_FIRST", "START_FIRST",
                 "END_FIRST", "ENQUEUE_LAST", "START_LAST", "DISCHARGE"]
        for p in collect_patients(log.records).values():
            times = [p.get(e) for e in order]
            present = [t for t in times if t is not None]
            assert present == sorted(present)

    def test_log_times_non_decreasing(self, default_raw):
        log = run_replication(default_raw, Scenario(tau_g=60), 0, 5, 3)
        times = [r.time_min for r in log.records]
        assert times == sorted(times)


class TestCapacityAndShifts:
    def test_teams_never_overlap_and_firsts_only_on_shift(self, default_profile, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 5, 4)
        pools = {pid_: default_profile.resources[pid_]["teams"]
                 for pid_ in ("low_general", "high_general")}
        windows = {t["id"]: (t["start"], t["end"]) for ts in pools.values() for t in ts}
        busy_until = {}
        by_pid = collect_patients(log.records)
        for r in log.records:
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

    def test_services_cross_shift_change_and_complete(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 5, 4)
        crossing = 0
        for p in collect_patients(log.records).values():
            s, e = p.get("START_FIRST"), p.get("END_FIRST")
            if s is not None and e is not None and s % 1440 < 1200 <= (s % 1440) + (e - s):
                crossing += 1
        assert crossing > 0  # drain rule: they exist and completed normally


class TestDispatch:
    def test_polls_only_teams_that_can_start_work(self, default_raw, monkeypatch):
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
        run_replication(default_raw, Scenario(), 0, 42, 3)
        assert counts["seize"] > 1000
        assert counts["on_shift"] <= 1.5 * counts["seize"]

    def test_promotion_is_logged_by_the_poll_that_serves_it(self, bare_rep):
        rep = bare_rep(scenario=Scenario(tau_g=30), teams={"low_general": [("T1", 0, 0)]})
        rep._on_triage_done(600, make_patient(0, "GREEN", first_d=100))
        rep._on_triage_done(601, make_patient(1, "GREEN"))
        pump(rep)  # T1 frees at 700, when patient 1 has waited 99 > 30 minutes
        assert events_of(rep.log, 1)[1:4] == [
            (601, "ENQUEUE_FIRST", "queue=general"),
            (700, "PROMOTED", ""),
            (700, "START_FIRST", "team=T1 pool=low_general"),
        ]


class TestQueueingBasics:
    def test_two_slots_three_services_third_starts_at_sixty(self, bare_rep):
        rep = bare_rep(teams={"low_general": [("T1", 0, 0), ("T2", 0, 0)]})
        for pid in range(3):
            rep._on_triage_done(0, make_patient(pid, "GREEN", first_d=60))
        pump(rep)
        times = sorted(first_event(rep.log, pid, "START_FIRST").time_min for pid in range(3))
        assert times == [0, 0, 60]

    def test_fifo_within_class_without_promotions(self, default_raw):
        log = run_replication(default_raw, Scenario(), 0, 23, 4)
        queue_of = {}
        for r in log.records:
            if r.event == "ENQUEUE_FIRST":
                queue_of[r.patient_id] = parse_detail(r.detail)["queue"]
        by_group = defaultdict(list)
        for p in collect_patients(log.records).values():
            enq, start = p.get("ENQUEUE_FIRST"), p.get("START_FIRST")
            if enq is not None and start is not None:
                by_group[(queue_of[p.pid], p.code)].append((enq, start))
        assert len(by_group) > 4
        for group, pairs in by_group.items():
            pairs.sort()
            starts = [s for _, s in pairs]
            assert starts == sorted(starts), f"FIFO broken within {group}"

    def test_event_log_csv_round_trip(self, default_raw, tmp_path):
        from edsim.kernel import read_log_csv

        log = run_replication(default_raw, Scenario(), 3, 17, 1)
        path = tmp_path / "events.csv"
        log.write_csv(path)
        assert read_log_csv(path) == log.records


class TestDeterminism:
    def test_same_seed_identical_log(self, default_raw):
        a = run_replication(default_raw, Scenario(tau_g=90, l=20), 0, 7, 3)
        b = run_replication(default_raw, Scenario(tau_g=90, l=20), 0, 7, 3)
        assert a.records == b.records

    def test_different_reps_differ(self, default_raw):
        a = run_replication(default_raw, Scenario(), 0, 7, 2)
        b = run_replication(default_raw, Scenario(), 1, 7, 2)
        assert a.records != b.records

    def test_baseline_scenario_equals_no_scenario(self, default_raw):
        a = run_replication(default_raw, Scenario(), 0, 7, 3)
        b = run_replication(default_raw, Scenario(t=None, p=None), 0, 7, 3)
        assert a.records == b.records
