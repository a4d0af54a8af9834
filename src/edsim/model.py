"""ED process network: arrival, triage, room routing, first visit, laboratory
pipeline, extra exams, same-team last visit, discharge."""

from __future__ import annotations

from collections import deque

from .kernel import (
    CODE_RANK,
    MINUTES_PER_DAY,
    RANK_YELLOW,
    EventCalendar,
    EventLog,
    PromotionQueue,
    ResourcePool,
    RngStream,
    ShiftCalendar,
    ShiftEntry,
    SimClock,
    round_half_up,
)
from .kpi import NO_TIME
from .scenario import Scenario
from .stochastics import (
    ArrivalSampler,
    Profile,
    draw_exam_list,
    draw_visit_type,
    lab_components,
    next_dispatch,
)

# internal calendar event kinds
EV_ARRIVAL = 0
EV_TRIAGE_DONE = 1
EV_FIRST_DONE = 2
EV_LAB_DISPATCH = 3
EV_LAB_RESULT = 4
EV_EXAM_DONE = 5
EV_LAST_DONE = 6
EV_SHIFT_KICK = 7

GENERAL_POOLS = ("low_general", "high_general")
LOW_RANKS = {CODE_RANK["GREEN"], CODE_RANK["WHITE"]}
HIGH_RANKS = {CODE_RANK["RED"], CODE_RANK["YELLOW"]}
ALL_RANKS = set(CODE_RANK.values())
FIRST_QUEUE_OF = {"low_general": "general", "high_general": "general",
                  "orthopaedic": "orthopaedic", "dermatological": "dermatological"}

DEFAULT_WARMUP_DAYS = 1


class Patient:
    """One entity flowing triage -> visits -> exams -> discharge.

    All stochastic attributes are drawn up front in a fixed order, so common
    random numbers stay synchronized across scenarios. The minutes the KPIs
    need are stamped as the events happen (NO_TIME until then); `kpi_row`
    packs them in kpi.ROW_FIELDS order."""

    __slots__ = (
        "pid", "code", "rank", "mode", "visit_type", "needs_lab", "lab_at_triage",
        "exam_kinds", "triage_d", "first_d", "last_d", "exam_ds", "lab_z",
        "u_dismiss", "u_lab_triage", "t_arrive", "t_end_first", "lab_done",
        "exam_idx", "first_team", "first_pool", "last_team",
        "t_triage", "dismissed", "t_enq_first", "t_start_first", "t_enq_last",
        "t_start_last", "t_discharge",
    )

    def __init__(self, pid: int, code: str):
        self.pid = pid
        self.code = code
        self.rank = CODE_RANK[code]
        self.lab_at_triage = False
        self.lab_done = False
        self.exam_idx = 0
        self.t_end_first = None
        self.first_team = None
        self.first_pool = None
        self.last_team = None
        self.t_triage = self.t_enq_first = self.t_start_first = NO_TIME
        self.t_enq_last = self.t_start_last = self.t_discharge = NO_TIME
        self.dismissed = False

    def kpi_row(self) -> tuple[int, ...]:
        return (self.rank, self.t_arrive, self.t_triage, int(self.dismissed),
                self.t_enq_first, self.t_start_first, self.t_enq_last,
                self.t_start_last, self.t_discharge)


class CountedPool:
    """Exam-room resource with anonymous slots and a FIFO overflow queue."""

    __slots__ = ("pool_id", "capacity", "count", "fifo")

    def __init__(self, pool_id: str, capacity: int):
        self.pool_id = pool_id
        self.capacity = capacity
        self.count = 0
        self.fifo: deque = deque()


def _calendar_from_teams(teams: list[dict], offset: int) -> ShiftCalendar:
    groups: dict[tuple[int, int], list[str]] = {}
    for team in teams:
        groups.setdefault((team["start"], team["end"]), []).append(team["id"])
    entries = [ShiftEntry(start, end, tuple(ids)) for (start, end), ids in groups.items()]
    return ShiftCalendar(entries, offset=offset)


class Replication:
    """Single seeded run of the ED model; strictly single-threaded."""

    def __init__(self, profile: Profile, scenario: Scenario, rep_id: int,
                 master_seed: int, days: int, warmup_days: int = DEFAULT_WARMUP_DAYS,
                 drain: bool = False, keep_log: bool = True):
        self.profile = profile
        self.scenario = scenario
        self.rep_id = rep_id
        self.days = days
        self.warmup_days = warmup_days
        self.drain = drain
        self.horizon = (warmup_days + days) * MINUTES_PER_DAY

        self.clock = SimClock()
        self.calendar = EventCalendar(self.clock)
        self.log = EventLog(rep_id, keep=keep_log)
        self.patients: list[Patient] = []
        self.arr_rng = RngStream(master_seed, "arrivals", rep_id).gen
        self.attr_rng = RngStream(master_seed, "attributes", rep_id).gen
        self.sampler = ArrivalSampler(profile)

        offset = 60 * (scenario.t or 0)
        res = profile.resources
        self.pools: dict[str, ResourcePool] = {
            "low_general": ResourcePool("low_general", _calendar_from_teams(res["low_general"]["teams"], offset)),
            "high_general": ResourcePool("high_general", _calendar_from_teams(res["high_general"]["teams"], offset)),
            "orthopaedic": ResourcePool("orthopaedic", _calendar_from_teams(res["orthopaedic"]["teams"], offset)),
            "dermatological": ResourcePool("dermatological", _calendar_from_teams(res["dermatological"]["teams"], offset)),
        }
        self.extra_teams = int(scenario.a or 0)
        if self.extra_teams:
            lv = res["last_visit_team"]
            teams = [{"id": f"LV{i + 1}", "start": lv["start"], "end": lv["end"]}
                     for i in range(self.extra_teams)]
            self.pools["last_visit"] = ResourcePool("last_visit", _calendar_from_teams(teams, offset))

        self.xray = CountedPool("xray", res["xray"]["capacity"])
        self.misc = CountedPool("misc_exam", res["misc_exam"]["capacity"])

        self.first_queues: dict[str, PromotionQueue] = {
            "general": PromotionQueue(),
            "orthopaedic": PromotionQueue(),
            "dermatological": PromotionQueue(),
        }
        # Last visits queue per first-visit team (same-doctor affinity). With
        # scenario a>=1 the dedicated pool draws from the union of these
        # queues, waiving affinity for the patients it picks up.
        self.team_last: dict[str, PromotionQueue] = {}
        for pool_id, pool in self.pools.items():
            if pool_id == "last_visit":
                continue
            for team in pool.calendar.teams:
                self.team_last[team] = PromotionQueue()

        self.team_pool: dict[str, ResourcePool] = {}
        for pool in self.pools.values():
            for team in pool.calendar.teams:
                self.team_pool[team] = pool

        # Dispatch visiting order: pools low -> high -> ortho -> derma -> LV,
        # teams in calendar order, each with its first queue (None for LV).
        self._dispatch_order = [
            (self.pools[pool_id], self.first_queues.get(FIRST_QUEUE_OF.get(pool_id)))
            for pool_id in ("low_general", "high_general", "orthopaedic",
                            "dermatological", "last_visit")
            if pool_id in self.pools
        ]
        self.in_flight = 0
        self.arrivals_open = True
        self._arrival_real = 0.0
        self._waiting_first = 0
        self._waiting_last = 0

    # ------------------------------------------------------------------ setup

    def _schedule_next_arrival(self) -> None:
        gap = self.sampler.sample_interarrival(self._arrival_real, self.arr_rng)
        t_real = self._arrival_real + gap
        code = self.sampler.draw_code(t_real, self.arr_rng)
        if t_real >= self.horizon:
            self.arrivals_open = False
            return
        self._arrival_real = t_real
        self.calendar.schedule(round_half_up(t_real), EV_ARRIVAL, code)

    def _schedule_kicks(self) -> None:
        minutes = set()
        for key in (*GENERAL_POOLS, "last_visit"):
            pool = self.pools.get(key)
            if pool is not None:
                minutes.update(pool.calendar.boundaries())
        for m in sorted(minutes):
            self.calendar.schedule(m, EV_SHIFT_KICK, m)

    # ----------------------------------------------------------------- draws

    def _make_patient(self, code: str, now: int) -> Patient:
        ag = self.attr_rng
        p = Patient(len(self.patients), code)
        self.patients.append(p)
        p.t_arrive = now
        u_mode = ag.random()
        nw_yellow = self.profile.mixes.get("nonwalking_yellow", 0.5)
        p.mode = "nonwalking" if code == "RED" or (code == "YELLOW" and u_mode < nw_yellow) else "walking"
        svc = self.profile.service
        p.triage_d = max(1, round_half_up(svc["triage"].from_normal(ag.standard_normal())))
        p.visit_type = draw_visit_type(ag.random(), self.profile)
        p.needs_lab = ag.random() < self.profile.mixes["needs_lab"]
        p.u_lab_triage = ag.random()
        p.exam_kinds = draw_exam_list(ag.random(), ag.random(), self.profile)
        p.u_dismiss = ag.random()
        first_spec = {"GENERAL": "first_general", "ORTHOPAEDIC": "first_ortho",
                      "DERMATOLOGICAL": "first_derma"}[p.visit_type]
        if code == "RED":
            first_spec = "first_general"  # reds are treated in the high urgency room
        p.first_d = max(1, round_half_up(svc[first_spec].from_normal(ag.standard_normal())))
        p.last_d = max(1, round_half_up(svc["last_visit"].from_normal(ag.standard_normal())))
        p.lab_z = (ag.standard_normal(), ag.standard_normal(), ag.standard_normal())
        p.exam_ds = [
            max(1, round_half_up(svc["exam_xray" if kind == "xray" else "exam_misc"]
                                 .from_normal(ag.standard_normal())))
            for kind in p.exam_kinds
        ]
        return p

    # --------------------------------------------------------------- routing

    def _first_queue_key(self, p: Patient) -> str:
        if p.code == "RED":
            return "general"
        return {"GENERAL": "general", "ORTHOPAEDIC": "orthopaedic",
                "DERMATOLOGICAL": "dermatological"}[p.visit_type]

    def _pull_allowed(self, now: int) -> bool:
        mode = self.profile.pull_low_into_high
        if mode == "always":
            return True
        if mode == "never":
            return False
        return self.pools["low_general"].calendar.capacity_at(now % MINUTES_PER_DAY) == 0

    def _eligible_ranks(self, pool_id: str, now: int):
        """(eligible static ranks, promoted items admitted anyway?)"""
        if pool_id == "low_general":
            return LOW_RANKS, False
        if pool_id == "high_general":
            # Promoted green/white patients head the whole queue, so a high
            # slot serves them; unpromoted ones are pulled only when no
            # yellow/red waits and the pull rule is active.
            if self.first_queues["general"].has_rank_at_most(RANK_YELLOW):
                return HIGH_RANKS, True
            return (ALL_RANKS if self._pull_allowed(now) else HIGH_RANKS), True
        return ALL_RANKS, False  # dedicated rooms serve their whole queue

    def _peek_union_last(self, now: int):
        """Oldest pending last visit across every team queue (dedicated-pool
        view; affinity is waived for whoever it picks)."""
        best_q, best_item, best_key = None, None, None
        for team in self.team_last:
            q = self.team_last[team]
            if not len(q):
                continue
            item = q.peek_next()
            key = item.key
            if best_key is None or key < best_key:
                best_q, best_item, best_key = q, item, key
        return best_q, best_item

    def _mark_promotions(self, queue: PromotionQueue, now: int) -> None:
        newly = queue.mark_promotions(now, self.scenario.tau_g, self.scenario.tau_w)
        for item in newly:
            self.log.add(now, item.entity.pid, "PROMOTED")

    def _pick_task(self, pool: ResourcePool, team: str, now: int,
                   first_q: PromotionQueue | None) -> bool:
        """Assign the next visit to an idle team slot; True if work started.

        On-shift slots choose between the first-visit queue and the pending
        last visits under the scenario's p-discipline. An off-shift slot only
        drains last visits of its own patients (a=0 affinity); with a shared
        last queue there is no ownership, so off-shift slots take nothing."""
        on_shift = pool.on_shift(team, now)
        first_item = None
        if first_q is not None and on_shift:
            self._mark_promotions(first_q, now)
            ranks, include_promoted = self._eligible_ranks(pool.pool_id, now)
            first_item = first_q.peek_next(ranks, include_promoted)
        if first_q is None:
            last_q, last_item = self._peek_union_last(now)
        else:
            last_q = self.team_last[team]
            last_item = last_q.peek_next() if len(last_q) else None

        if first_item is None and last_item is None:
            return False
        if last_item is not None and (
            first_item is None
            or self.scenario.p == 1
            or last_item.key < first_item.key
        ):
            last_q.remove(last_item)
            self._waiting_last -= 1
            self._start_last(last_item.entity, pool, team, now)
        else:
            first_q.remove(first_item)
            self._waiting_first -= 1
            self._start_first(first_item.entity, pool, team, now)
        return True

    def _dispatch(self, now: int) -> None:
        """Poll idle teams until a full pass starts no visit.

        A team is polled only if the poll can start work or log a promotion:
        its own last queue waits, or it is on shift and its first queue
        waits (an LV team: any last visit waits). Every other poll would
        return False and change nothing, so skipping it keeps the log."""
        minute = now % MINUTES_PER_DAY
        team_last = self.team_last
        progress = True
        while progress and (self._waiting_first or self._waiting_last):
            progress = False
            for pool, first_q in self._dispatch_order:
                on = pool.calendar.on_by_minute[minute]
                busy = pool.busy
                for team in pool.calendar.teams:
                    if team in busy:
                        continue
                    if first_q is None:
                        if not (self._waiting_last and team in on):
                            continue
                    elif not (team_last[team].items or (first_q.items and team in on)):
                        continue
                    if self._pick_task(pool, team, now, first_q):
                        progress = True

    # --------------------------------------------------------------- service

    def _start_first(self, p: Patient, pool: ResourcePool, team: str, now: int) -> None:
        p.first_team = team
        p.first_pool = pool.pool_id
        end = pool.seize(team, p, now, p.first_d)
        p.t_start_first = now
        self.log.add(now, p.pid, "START_FIRST", team, pool.pool_id)
        self.calendar.schedule(end, EV_FIRST_DONE, p)

    def _start_last(self, p: Patient, pool: ResourcePool, team: str, now: int) -> None:
        p.last_team = team
        end = pool.seize(team, p, now, p.last_d)
        p.t_start_last = now
        self.log.add(now, p.pid, "START_LAST", team, pool.pool_id)
        self.calendar.schedule(end, EV_LAST_DONE, p)

    def _release(self, team: str) -> None:
        self.team_pool[team].release(team)

    # ------------------------------------------------------------------- lab

    def _start_lab(self, p: Patient, now: int) -> None:
        self.log.add(now, p.pid, "LAB_DRAW")
        dispatch = next_dispatch(now)
        w, e, m = lab_components(self.profile, dispatch // 60, *p.lab_z, self.scenario.r)
        self.calendar.schedule(dispatch, EV_LAB_DISPATCH, p)
        self.calendar.schedule(dispatch + w + e + m, EV_LAB_RESULT, p)

    # ------------------------------------------------------------------ exams

    def _exam_pool(self, kind: str) -> CountedPool:
        return self.xray if kind == "xray" else self.misc

    def _request_exam(self, p: Patient, now: int) -> None:
        kind = p.exam_kinds[p.exam_idx]
        pool = self._exam_pool(kind)
        if pool.count < pool.capacity:
            self._start_exam(p, pool, now)
        else:
            pool.fifo.append(p)

    def _start_exam(self, p: Patient, pool: CountedPool, now: int) -> None:
        pool.count += 1
        kind = p.exam_kinds[p.exam_idx]
        self.log.add(now, p.pid, "START_EXAM", kind, pool.pool_id)
        self.calendar.schedule(now + p.exam_ds[p.exam_idx], EV_EXAM_DONE, p)

    def _proceed_after_first_and_lab(self, p: Patient, now: int) -> None:
        if p.exam_kinds:
            self._request_exam(p, now)
        else:
            self._enqueue_last(p, now)

    def _last_rank(self, p: Patient) -> int:
        # Re-evaluations are routine closing work: a stabilized yellow patient
        # queues for discharge at green rank. The category rule governs the
        # first-visit waiting room; reds keep their absolute precedence.
        if p.rank == CODE_RANK["YELLOW"]:
            return CODE_RANK["GREEN"]
        return p.rank

    def _enqueue_last(self, p: Patient, now: int) -> None:
        p.t_enq_last = now
        self.log.add(now, p.pid, "ENQUEUE_LAST")
        self.team_last[p.first_team].enqueue(p, self._last_rank(p), now)
        self._waiting_last += 1
        self._dispatch(now)

    # --------------------------------------------------------------- handlers

    def _on_arrival(self, now: int, code: str) -> None:
        p = self._make_patient(code, now)
        self.in_flight += 1
        self.log.add(now, p.pid, "ARRIVE", p.mode, p.code)
        self.calendar.schedule(now + p.triage_d, EV_TRIAGE_DONE, p)
        if self.arrivals_open:
            self._schedule_next_arrival()

    def _on_triage_done(self, now: int, p: Patient) -> None:
        dismissed = (p.code == "WHITE" and bool(self.scenario.e)
                     and p.u_dismiss < self.scenario.e / 100.0)
        if not dismissed and p.needs_lab and self.scenario.l:
            p.lab_at_triage = p.u_lab_triage < self.scenario.l / 100.0
        p.t_triage = now
        self.log.add(now, p.pid, "TRIAGE_DONE", p.code, p.visit_type, p.needs_lab,
                     p.lab_at_triage, p.exam_kinds)
        if dismissed:
            p.dismissed = True
            self.log.add(now, p.pid, "DISMISSED_AT_TRIAGE")
            self.in_flight -= 1
            return
        if p.lab_at_triage:
            self._start_lab(p, now)
        queue_key = self._first_queue_key(p)
        p.t_enq_first = now
        self.log.add(now, p.pid, "ENQUEUE_FIRST", queue_key)
        self.first_queues[queue_key].enqueue(p, p.rank, now)
        self._waiting_first += 1
        self._dispatch(now)

    def _on_first_done(self, now: int, p: Patient) -> None:
        self.log.add(now, p.pid, "END_FIRST", p.first_team)
        self._release(p.first_team)
        p.t_end_first = now
        if p.needs_lab and not p.lab_at_triage:
            self._start_lab(p, now)
        if not p.needs_lab or p.lab_done:
            self._proceed_after_first_and_lab(p, now)
        self._dispatch(now)

    def _on_lab_result(self, now: int, p: Patient) -> None:
        self.log.add(now, p.pid, "LAB_RESULT")
        p.lab_done = True
        if p.t_end_first is not None:
            self._proceed_after_first_and_lab(p, now)

    def _on_exam_done(self, now: int, p: Patient) -> None:
        kind = p.exam_kinds[p.exam_idx]
        pool = self._exam_pool(kind)
        self.log.add(now, p.pid, "END_EXAM", kind, pool.pool_id)
        pool.count -= 1
        if pool.fifo:
            self._start_exam(pool.fifo.popleft(), pool, now)
        p.exam_idx += 1
        if p.exam_idx < len(p.exam_kinds):
            self._request_exam(p, now)
        else:
            self._enqueue_last(p, now)

    def _on_last_done(self, now: int, p: Patient) -> None:
        p.t_discharge = now
        self.log.add(now, p.pid, "DISCHARGE")
        self._release(p.last_team)
        self.in_flight -= 1
        self._dispatch(now)

    def _on_shift_kick(self, now: int, minute: int) -> None:
        self._dispatch(now)
        if self.in_flight > 0 or self.arrivals_open:
            self.calendar.schedule(now + MINUTES_PER_DAY, EV_SHIFT_KICK, minute)

    # -------------------------------------------------------------------- run

    def _handlers(self) -> dict:
        return {
            EV_ARRIVAL: self._on_arrival,
            EV_TRIAGE_DONE: self._on_triage_done,
            EV_FIRST_DONE: self._on_first_done,
            EV_LAB_DISPATCH: lambda now, p: self.log.add(now, p.pid, "LAB_DISPATCH"),
            EV_LAB_RESULT: self._on_lab_result,
            EV_EXAM_DONE: self._on_exam_done,
            EV_LAST_DONE: self._on_last_done,
            EV_SHIFT_KICK: self._on_shift_kick,
        }

    def run(self) -> EventLog:
        """Run to the horizon (or empty, with `drain`); the returned log
        holds the KPI rows and, if kept, the event records."""
        self._schedule_kicks()
        self._schedule_next_arrival()
        handlers = self._handlers()
        while len(self.calendar):
            at = self.calendar.peek_time()
            if not self.drain and at > self.horizon:
                break
            now, _seq, kind, entity = self.calendar.pop()
            handlers[kind](now, entity)
        self.log.rows = [p.kpi_row() for p in self.patients]
        return self.log


def run_replication(profile_raw: dict, scenario: Scenario, rep_id: int, master_seed: int,
                    days: int, warmup_days: int = DEFAULT_WARMUP_DAYS,
                    drain: bool = False, keep_log: bool = True) -> EventLog:
    """Worker-safe entry point: rebuilds the profile from its raw dict.
    The returned log always holds the KPI rows; its event records only
    with `keep_log`."""
    profile = Profile(profile_raw)
    rep = Replication(profile, scenario, rep_id, master_seed, days,
                      warmup_days=warmup_days, drain=drain, keep_log=keep_log)
    return rep.run()
