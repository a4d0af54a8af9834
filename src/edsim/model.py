"""ED process network: arrival, triage, room routing, first visit, laboratory
pipeline, extra exams, same-team last visit, discharge."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .kernel import (
    CODE_RANK,
    MINUTES_PER_DAY,
    EventCalendar,
    EventLog,
    PromotionQueue,
    ResourcePool,
    ShiftCalendar,
)
from .kpi import NO_TIME, WARMUP_MIN
from .scenario import Scenario
from .stochastics import Profile, draw_patients, lab_components, next_dispatch

LOW_RANKS = {CODE_RANK["GREEN"], CODE_RANK["WHITE"]}
FIRST_QUEUE_OF = {"low_general": "general", "high_general": "general",
                  "orthopaedic": "orthopaedic", "dermatological": "dermatological"}
# visit type -> first-visit queue; a red patient is routed as GENERAL, to
# the high urgency room
FIRST_QUEUE = {"GENERAL": "general", "ORTHOPAEDIC": "orthopaedic",
               "DERMATOLOGICAL": "dermatological"}


class Patient:
    """One entity flowing triage -> visits -> exams -> discharge.

    Its stochastic attributes are one tape row (stochastics.draw_patients),
    drawn before the patient arrives and the same in every scenario; the
    row is only read, never changed. The minutes the KPIs need are stamped
    as the events happen (NO_TIME until then); `kpi_row` packs them in
    kpi.ROW_FIELDS order."""

    __slots__ = (
        "pid", "code", "rank", "mode", "visit_type", "needs_lab", "lab_at_triage",
        "exam_kinds", "triage_d", "first_d", "last_d", "exam_ds", "lab_z",
        "u_dismiss", "u_lab_triage", "t_arrive", "t_end_first", "lab_done",
        "exam_idx", "first_team", "last_team",
        "t_triage", "dismissed", "t_enq_first", "t_start_first", "t_enq_last",
        "t_start_last", "t_discharge",
    )

    def __init__(self, pid: int, row: tuple):
        self.pid = pid
        (self.t_arrive, self.code, self.mode, self.triage_d, self.visit_type, self.needs_lab,
         self.u_lab_triage, self.u_dismiss, self.exam_kinds, self.first_d, self.last_d,
         self.lab_z, self.exam_ds) = row
        self.rank = CODE_RANK[self.code]
        self.lab_at_triage = False
        self.lab_done = False
        self.exam_idx = 0
        self.t_end_first = None
        self.first_team = None
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


class Replication:
    """Single run of the ED model; strictly single-threaded.

    Its patients are the tape rows `patients` (stochastics.draw_patients
    or a PatientTape), read as they arrive. The replication holds no random
    stream and draws nothing.

    `self.patients` maps pid to each patient still in the ED. A patient's
    KPI row is final once they are discharged or dismissed, so it goes into
    `rows` then and the patient is dropped; the ones still in the ED at the
    end fill in theirs. With `log_path` the event log streams to that file
    (EventLog), so a run holds its in-flight patients, its KPI rows and the
    file's own buffer; without one it keeps no log."""

    def __init__(self, profile: Profile, scenario: Scenario, rep_id: int, days: int,
                 patients: Iterable[tuple], log_path=None):
        self.profile = profile
        self.scenario = scenario
        self.rep_id = rep_id
        self.days = days
        self.horizon = WARMUP_MIN + days * MINUTES_PER_DAY

        self.calendar = EventCalendar()
        self.patients: dict[int, Patient] = {}
        self.rows: dict[int, tuple[int, ...]] = {}  # pid -> KPI row of a retired patient
        self._next_pid = 0
        self._arrivals = iter(patients)

        offset = 60 * (scenario.t or 0)
        res = profile.resources
        self.pools: dict[str, ResourcePool] = {
            pool_id: ResourcePool(pool_id, ShiftCalendar(
                [(t["id"], t["start"], t["end"]) for t in res[pool_id]["teams"]], offset))
            for pool_id in FIRST_QUEUE_OF
        }
        self.extra_teams = int(scenario.a or 0)
        if self.extra_teams:
            lv = res["last_visit_team"]
            self.pools["last_visit"] = ResourcePool("last_visit", ShiftCalendar(
                [(f"LV{i + 1}", lv["start"], lv["end"]) for i in range(self.extra_teams)], offset))

        # Minute of day -> may the high room pull unpromoted green and white
        # patients? ("night_only": while the low room has nobody on shift.)
        pull = profile.pull_low_into_high
        self._pull_by_minute = [pull == "always" or (pull == "night_only" and not on)
                                for on in self.pools["low_general"].calendar.on_by_minute]

        self.exam_pools = {"xray": CountedPool("xray", res["xray"]["capacity"]),
                           "misc": CountedPool("misc_exam", res["misc_exam"]["capacity"])}

        self.first_queues: dict[str, PromotionQueue] = {
            queue_key: PromotionQueue(scenario.tau_g, scenario.tau_w)
            for queue_key in FIRST_QUEUE.values()}
        self.team_pool: dict[str, ResourcePool] = {
            team: pool for pool in self.pools.values() for team in pool.calendar.teams}
        # Last visits queue per first-visit team (same-doctor affinity), in
        # pool-then-calendar order. With scenario a>=1 the dedicated pool
        # draws from the union of these queues, waiving affinity for the
        # patients it picks up.
        self.team_last: dict[str, PromotionQueue] = {
            team: PromotionQueue() for team, pool in self.team_pool.items()
            if pool.pool_id != "last_visit"}

        # Dispatch visiting order, one entry per team: pools low -> high ->
        # ortho -> derma -> LV, teams in calendar order, each with its pool,
        # the pool's first queue (None for LV), shift table and busy set, and
        # its last queue's waiting items (None for LV). The queues and sets
        # change in place.
        self._dispatch_order = [
            (pool, self.first_queues.get(FIRST_QUEUE_OF.get(pool_id)),
             pool.calendar.on_by_minute, pool.busy, team,
             self.team_last[team].items if team in self.team_last else None)
            for pool_id, pool in self.pools.items() for team in pool.calendar.teams]
        self.arrivals_open = True
        self._waiting_first = 0
        self._waiting_last = 0
        # last: a streamed log opens its file, which only run() closes
        self.log = EventLog(rep_id, log_path)

    @property
    def in_flight(self) -> int:
        """Patients arrived and not yet discharged or dismissed."""
        return len(self.patients)

    # ------------------------------------------------------------------ setup

    def _schedule_next_arrival(self) -> None:
        row = next(self._arrivals, None)
        if row is None:
            self.arrivals_open = False
            return
        self.calendar.schedule(row[0], self._on_arrival, row)

    def _schedule_kicks(self) -> None:
        minutes = {m for pool in self.pools.values() for m in pool.calendar.boundaries()}
        for m in sorted(minutes):
            self.calendar.schedule(m, self._on_shift_kick, m)

    # --------------------------------------------------------------- routing

    def _peek_union_last(self):
        """Oldest pending last visit across every team queue (dedicated-pool
        view; affinity is waived for whoever it picks); the first queue wins
        a tie."""
        heads = [(q.peek_next(), q) for q in self.team_last.values() if q.items]
        best_item, best_q = min(heads, key=lambda head: head[0].key, default=(None, None))
        return best_q, best_item

    def _pick_task(self, pool: ResourcePool, team: str, now: int,
                   first_q: PromotionQueue | None) -> None:
        """Assign the next visit, if any, to an idle team slot.

        On-shift slots choose between the first-visit queue and the pending
        last visits under the scenario's p-discipline. An off-shift slot only
        drains last visits of its own patients (a=0 affinity); with a shared
        last queue there is no ownership, so off-shift slots take nothing."""
        on_shift = pool.on_shift(team, now)
        first_item = None
        if first_q is not None and on_shift:
            if first_q.promotes:
                for item in first_q.mark_promotions(now):
                    self.log.add(now, item.entity.pid, "PROMOTED")
            if pool.pool_id == "low_general":
                first_item = first_q.peek_next(LOW_RANKS)
            else:
                first_item = first_q.peek_next()
                # The high room takes the queue head unless it is an
                # unpromoted green or white patient (a promoted one's key
                # rank is RANK_PROMOTED) and the pull rule is off.
                if (pool.pool_id == "high_general" and first_item is not None
                        and first_item.key[0] in LOW_RANKS
                        and not self._pull_by_minute[now % MINUTES_PER_DAY]):
                    first_item = None
        if first_q is None:
            last_q, last_item = self._peek_union_last()
        else:
            last_q = self.team_last[team]
            last_item = last_q.peek_next() if last_q.items else None

        if first_item is None and last_item is None:
            return
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

    def _dispatch(self, now: int) -> None:
        """Poll each idle team once, in dispatch order.

        A team is polled only if the poll can start work or log a promotion:
        its own last queue waits, or it is on shift and its first queue
        waits (an LV team: any last visit waits). Every other poll would
        find nothing and change nothing, so skipping it keeps the log.

        One pass starts every visit that can start. Within one call `busy`
        only grows, queues and the `_waiting_*` counters only shrink, shifts
        and the pull rule depend only on `now`, and `mark_promotions`
        promotes nothing new at the same minute. So a team that was skipped,
        or found nothing, would find nothing on a second pass. A high team
        declines only an unpromoted green or white head, so nothing waiting
        outranks it, and a queue that only shrinks keeps such a head."""
        if not (self._waiting_first or self._waiting_last):
            return
        minute = now % MINUTES_PER_DAY
        for pool, first_q, on_by_minute, busy, team, last_waiting in self._dispatch_order:
            if team in busy:
                continue
            if first_q is None:
                if self._waiting_last and team in on_by_minute[minute]:
                    self._pick_task(pool, team, now, None)
            elif last_waiting or (first_q.items and team in on_by_minute[minute]):
                self._pick_task(pool, team, now, first_q)

    # --------------------------------------------------------------- service

    def _start_first(self, p: Patient, pool: ResourcePool, team: str, now: int) -> None:
        p.first_team = team
        end = pool.seize(team, now, p.first_d)
        p.t_start_first = now
        self.log.add(now, p.pid, "START_FIRST", team, pool.pool_id)
        self.calendar.schedule(end, self._on_first_done, p)

    def _start_last(self, p: Patient, pool: ResourcePool, team: str, now: int) -> None:
        p.last_team = team
        end = pool.seize(team, now, p.last_d)
        p.t_start_last = now
        self.log.add(now, p.pid, "START_LAST", team, pool.pool_id)
        self.calendar.schedule(end, self._on_last_done, p)

    # ------------------------------------------------------------------- lab

    def _start_lab(self, p: Patient, now: int) -> None:
        self.log.add(now, p.pid, "LAB_DRAW")
        dispatch = next_dispatch(now)
        w, e, m = lab_components(self.profile, dispatch // 60, *p.lab_z, self.scenario.r)
        self.calendar.schedule(dispatch, self._on_lab_dispatch, p)
        self.calendar.schedule(dispatch + w + e + m, self._on_lab_result, p)

    # ------------------------------------------------------------------ exams

    def _request_exam(self, p: Patient, now: int) -> None:
        pool = self.exam_pools[p.exam_kinds[p.exam_idx]]
        if pool.count < pool.capacity:
            self._start_exam(p, pool, now)
        else:
            pool.fifo.append(p)

    def _start_exam(self, p: Patient, pool: CountedPool, now: int) -> None:
        pool.count += 1
        kind = p.exam_kinds[p.exam_idx]
        self.log.add(now, p.pid, "START_EXAM", kind, pool.pool_id)
        self.calendar.schedule(now + p.exam_ds[p.exam_idx], self._on_exam_done, p)

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

    def _admit(self, p: Patient) -> None:
        self.patients[p.pid] = p

    def _retire(self, p: Patient) -> None:
        self.rows[p.pid] = p.kpi_row()
        del self.patients[p.pid]

    def _on_arrival(self, now: int, row: tuple) -> None:
        p = Patient(self._next_pid, row)
        self._next_pid += 1
        self._admit(p)
        self.log.add(now, p.pid, "ARRIVE", p.mode, p.code)
        self.calendar.schedule(now + p.triage_d, self._on_triage_done, p)
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
            self._retire(p)
            return
        if p.lab_at_triage:
            self._start_lab(p, now)
        queue_key = FIRST_QUEUE["GENERAL" if p.code == "RED" else p.visit_type]
        p.t_enq_first = now
        self.log.add(now, p.pid, "ENQUEUE_FIRST", queue_key)
        self.first_queues[queue_key].enqueue(p, p.rank, now)
        self._waiting_first += 1
        self._dispatch(now)

    def _on_first_done(self, now: int, p: Patient) -> None:
        self.log.add(now, p.pid, "END_FIRST", p.first_team)
        self.team_pool[p.first_team].release(p.first_team)
        p.t_end_first = now
        if p.needs_lab and not p.lab_at_triage:
            self._start_lab(p, now)
        if not p.needs_lab or p.lab_done:
            self._proceed_after_first_and_lab(p, now)
            if not p.exam_kinds:
                return  # _enqueue_last has dispatched at this minute
        self._dispatch(now)

    def _on_lab_dispatch(self, now: int, p: Patient) -> None:
        self.log.add(now, p.pid, "LAB_DISPATCH")

    def _on_lab_result(self, now: int, p: Patient) -> None:
        self.log.add(now, p.pid, "LAB_RESULT")
        p.lab_done = True
        if p.t_end_first is not None:
            self._proceed_after_first_and_lab(p, now)

    def _on_exam_done(self, now: int, p: Patient) -> None:
        kind = p.exam_kinds[p.exam_idx]
        pool = self.exam_pools[kind]
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
        self.team_pool[p.last_team].release(p.last_team)
        self._retire(p)
        self._dispatch(now)

    def _on_shift_kick(self, now: int, minute: int) -> None:
        self._dispatch(now)
        if self.in_flight or self.arrivals_open:
            self.calendar.schedule(now + MINUTES_PER_DAY, self._on_shift_kick, minute)

    # -------------------------------------------------------------------- run

    def run(self) -> list[tuple[int, ...]]:
        """Run to the horizon and return the KPI rows in pid order. A log
        that streams to a file is ended here: `write_csv` once the run is
        done, `close` if it raises."""
        heap, pop, horizon = self.calendar.heap, self.calendar.pop, self.horizon
        try:
            self._schedule_kicks()
            self._schedule_next_arrival()  # reads the first tape row
            while heap and heap[0][0] <= horizon:
                now, _seq, handler, entity = pop()
                handler(now, entity)
            if self.log.path is not None:
                self.log.write_csv(self.log.path)
        except BaseException:
            self.log.close()
            raise
        # Entries left past the horizon hold bound handlers, a reference
        # cycle through this replication; dropping them lets it be freed
        # as soon as the caller lets go, not at the next full collection.
        self.calendar.clear()
        rows = self.rows
        for p in self.patients.values():
            rows[p.pid] = p.kpi_row()
        return [rows[pid] for pid in sorted(rows)]


def run_replication(profile: Profile, scenario: Scenario, rep_id: int, master_seed: int,
                    days: int, tape: Iterable[tuple] | None = None,
                    log_path=None) -> list[tuple[int, ...]]:
    """Worker-safe entry point: the validated profile and the tape (a
    stochastics.PatientTape, or rows of draw_patients(profile, master_seed,
    rep_id, days)) pickle to workers as they are. Without a tape it draws
    those rows, as the patients arrive. Returns the KPI rows in pid order;
    with `log_path` the event log streams to that file and is ended when
    this returns."""
    if tape is None:
        tape = draw_patients(profile, master_seed, rep_id, days)
    return Replication(profile, scenario, rep_id, days, tape, log_path).run()
