"""Generic discrete-event machinery: clock, event calendar, seeded random
streams, shift-calendared resource pools and priority queues with promotion."""

from __future__ import annotations

import csv
import heapq
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

MINUTES_PER_DAY = 1440

# Static priority ranks used as sort keys (lower sorts first).
# Promoted green/white items slot between RED and YELLOW; promotion never
# outranks RED (reds are never overtaken by non-reds).
RANK_RED = 0
RANK_PROMOTED = 1
RANK_YELLOW = 2
RANK_GREEN = 3
RANK_WHITE = 4

CODE_RANK = {"RED": RANK_RED, "YELLOW": RANK_YELLOW, "GREEN": RANK_GREEN, "WHITE": RANK_WHITE}

# Event-log vocabulary (CSV schema: rep_id,time_min,patient_id,event,detail):
# each event's detail template, filled in order from the raw fields the model
# passes to EventLog.add. "{+}" takes a list of names and renders it
# "+"-joined, "-" when empty.
LOG_TEMPLATES = {
    "ARRIVE": "mode={} code={}",
    "TRIAGE_DONE": "code={} type={} lab={:d} labtriage={:d} exams={+}",
    "DISMISSED_AT_TRIAGE": "",
    "ENQUEUE_FIRST": "queue={}",
    "PROMOTED": "",
    "START_FIRST": "team={} pool={}",
    "END_FIRST": "team={}",
    "LAB_DRAW": "",
    "LAB_DISPATCH": "",
    "LAB_RESULT": "",
    "START_EXAM": "kind={} pool={}",
    "END_EXAM": "kind={} pool={}",
    "ENQUEUE_LAST": "",
    "START_LAST": "team={} pool={}",
    "DISCHARGE": "",
}
# event -> (str.format of its template, field count, has a "{+}" field)
_LOG_RENDER = {event: (template.replace("{+}", "{}").format, template.count("{"),
                       "{+}" in template)
               for event, template in LOG_TEMPLATES.items()}

LOG_HEADER = ("rep_id", "time_min", "patient_id", "event", "detail")


class SimulationError(RuntimeError):
    """Programming-error fault: the simulation state has been corrupted."""


def round_half_up(x: float) -> int:
    """Round sampled real minutes to integer minutes, halves away from zero."""
    return int(x + 0.5)


class SimClock:
    """Simulation time in integer minutes; advances only via the calendar."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def _advance(self, to: int) -> None:
        if to < self.now:
            raise SimulationError(f"clock moved backwards: {self.now} -> {to}")
        self.now = to


class EventCalendar:
    """Future event list ordered by (time, insertion sequence).

    The insertion counter is global, so ties at one minute pop in schedule
    order and runs are reproducible without RNG-based tie-breaking.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: list[tuple[int, int, int, object]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, at: int, kind: int, entity=None) -> None:
        if at < self.clock.now:
            raise SimulationError(f"schedule at t={at} before now={self.clock.now}")
        heapq.heappush(self._heap, (at, self._seq, kind, entity))
        self._seq += 1

    def peek_time(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[int, int, int, object]:
        if not self._heap:
            raise SimulationError("pop from empty calendar")
        time, seq, kind, entity = heapq.heappop(self._heap)
        self.clock._advance(time)
        return time, seq, kind, entity


class RngStream:
    """Named random stream derived from a master seed.

    Equal (seed, stream_id) always reproduces the same draw sequence; distinct
    labels give independent substreams (SeedSequence entropy includes a stable
    hash of the label).
    """

    def __init__(self, seed: int, stream_id: str, rep_id: int = 0) -> None:
        self.seed = seed
        self.stream_id = stream_id
        key = zlib.crc32(stream_id.encode("utf-8"))
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, rep_id, key])))


@dataclass(frozen=True)
class ShiftEntry:
    """One daily shift band: [start, end) minutes-of-day, possibly wrapping
    midnight, staffed by the named team slots."""

    start: int
    end: int
    teams: tuple[str, ...]

    def covers(self, minute_of_day: int, offset: int = 0) -> bool:
        start = (self.start + offset) % MINUTES_PER_DAY
        end = (self.end + offset) % MINUTES_PER_DAY
        if start == end:  # full-day band
            return True
        if start < end:
            return start <= minute_of_day < end
        return minute_of_day >= start or minute_of_day < end


class ShiftCalendar:
    """Time-varying staffing of a pool; capacities change only at entry
    boundaries. Offset shifts every band later by whole minutes (scenario t).

    `teams` lists every slot in entry order. The slots on shift at each
    minute of the day are precomputed once, one shared tuple per stretch
    between consecutive boundaries, so lookups build nothing."""

    def __init__(self, entries: list[ShiftEntry], offset: int = 0) -> None:
        for e in entries:
            if not (0 <= e.start < MINUTES_PER_DAY and 0 <= e.end <= MINUTES_PER_DAY):
                raise ValueError(f"shift entry out of range: {e}")
        self.entries = list(entries)
        self.offset = offset
        self.teams: tuple[str, ...] = tuple(t for e in self.entries for t in e.teams)
        self.on_by_minute: list[tuple[str, ...]] = self._on_by_minute()

    def _on_by_minute(self) -> list[tuple[str, ...]]:
        table: list[tuple[str, ...]] = [()] * MINUTES_PER_DAY
        bounds = self.boundaries()
        for i, start in enumerate(bounds):
            on = tuple(t for e in self.entries if e.covers(start, self.offset) for t in e.teams)
            if i + 1 < len(bounds):
                end = bounds[i + 1]
                table[start:end] = [on] * (end - start)
            else:  # the last stretch wraps midnight up to the first boundary
                table[start:] = [on] * (MINUTES_PER_DAY - start)
                table[:bounds[0]] = [on] * bounds[0]
        return table

    def capacity_at(self, minute_of_day: int) -> int:
        if not 0 <= minute_of_day < MINUTES_PER_DAY:
            raise ValueError(f"minute-of-day out of range: {minute_of_day}")
        return len(self.on_by_minute[minute_of_day])

    def teams_on(self, minute_of_day: int) -> tuple[str, ...]:
        return self.on_by_minute[minute_of_day % MINUTES_PER_DAY]

    def boundaries(self) -> list[int]:
        """Distinct minutes-of-day at which capacity can change."""
        mins = set()
        for e in self.entries:
            mins.add((e.start + self.offset) % MINUTES_PER_DAY)
            mins.add((e.end + self.offset) % MINUTES_PER_DAY)
        return sorted(mins)


class ResourcePool:
    """A set of named server slots governed by a shift calendar.

    A slot serves one entity at a time. Capacity drops never abort an
    in-progress service: the slot finishes (drains), then retires, meaning it
    simply takes no further work from the queue.
    """

    def __init__(self, pool_id: str, calendar: ShiftCalendar) -> None:
        self.pool_id = pool_id
        self.calendar = calendar
        self.busy: dict[str, tuple[object, int]] = {}  # slot -> (entity, end time)

    def on_shift(self, slot: str, now: int) -> bool:
        return slot in self.calendar.on_by_minute[now % MINUTES_PER_DAY]

    def idle_on_shift_slots(self, now: int) -> list[str]:
        return [s for s in self.calendar.teams_on(now % MINUTES_PER_DAY) if s not in self.busy]

    def seize(self, slot: str, entity, now: int, duration: int) -> int:
        """Mark the slot busy until now+duration; returns the end time.
        Seizing a busy slot is a programming error — callers must check."""
        if slot in self.busy:
            raise SimulationError(f"slot {self.pool_id}/{slot} seized while busy")
        end = now + duration
        self.busy[slot] = (entity, end)
        return end

    def release(self, slot: str) -> None:
        if slot not in self.busy:
            raise SimulationError(f"slot {self.pool_id}/{slot} released while idle")
        del self.busy[slot]


@dataclass(eq=False)  # identity equality: list.remove finds the item itself
class QueueItem:
    entity: object
    rank: int            # static priority rank at enqueue
    enqueue_time: int
    seq: int
    promoted_at: int | None = None  # threshold-crossing minute, sticky
    key: tuple[int, int, int, int] = field(init=False)  # dequeue order, lowest first

    def __post_init__(self) -> None:
        self.key = (self.rank, self.enqueue_time, self.seq, 0)

    def promote(self, at: int) -> None:
        self.promoted_at = at
        self.key = (RANK_PROMOTED, at, self.enqueue_time, self.seq)


class PromotionQueue:
    """Waiting queue with static priority classes and dynamic promotion.

    Without promotions the dequeue order is (priority class, FIFO). A green
    (white) item whose wait strictly exceeds tau_g (tau_w) is promoted; the
    promotion instant is the crossing time enqueue+tau, the status is sticky,
    and promoted items are served FIFO by that instant, behind RED only.
    """

    def __init__(self) -> None:
        self.items: list[QueueItem] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.items)

    def enqueue(self, entity, rank: int, now: int) -> QueueItem:
        item = QueueItem(entity, rank, now, self._seq)
        self._seq += 1
        self.items.append(item)
        return item

    def has_rank_at_most(self, rank: int) -> bool:
        """True if any waiting item's static class outranks or equals `rank`
        (promotion status is ignored: this is the yellow/red screen)."""
        return any(it.rank <= rank for it in self.items)

    def mark_promotions(self, now: int, tau_g: int | None, tau_w: int | None) -> list[QueueItem]:
        """Promote overdue green/white items; returns newly promoted items."""
        newly: list[QueueItem] = []
        for it in self.items:
            if it.promoted_at is not None:
                continue
            tau = tau_g if it.rank == RANK_GREEN else tau_w if it.rank == RANK_WHITE else None
            if tau is not None and now - it.enqueue_time > tau:
                it.promote(it.enqueue_time + tau)
                newly.append(it)
        return newly

    def peek_next(self, eligible_ranks: set[int] | None = None,
                  include_promoted: bool = False) -> QueueItem | None:
        """Best waiting item whose static class is in `eligible_ranks` (all if
        None). A promoted item heads the whole queue, so `include_promoted`
        makes it eligible regardless of its static class. Promotions must
        already be marked for the current time."""
        best: QueueItem | None = None
        best_key = None
        for it in self.items:
            if (eligible_ranks is not None and it.rank not in eligible_ranks
                    and not (include_promoted and it.promoted_at is not None)):
                continue
            key = it.key
            if best_key is None or key < best_key:
                best, best_key = it, key
        return best

    def remove(self, item: QueueItem) -> None:
        self.items.remove(item)

    def dequeue_next(self, now: int, tau_g: int | None = None, tau_w: int | None = None,
                     eligible_ranks: set[int] | None = None,
                     include_promoted: bool = False) -> QueueItem | None:
        """Mark promotions at `now`, then pop the head of the discipline."""
        self.mark_promotions(now, tau_g, tau_w)
        item = self.peek_next(eligible_ranks, include_promoted)
        if item is not None:
            self.remove(item)
        return item


class LogRecord(NamedTuple):
    rep_id: int
    time_min: int
    patient_id: int
    event: str
    detail: str = ""


_new_record = partial(tuple.__new__, LogRecord)  # LogRecord from one tuple, no checks


class EventLog:
    """Sink for every state transition of one replication.

    A kept log (`keep=True`) appends one record per `add`, its detail
    rendered from LOG_TEMPLATES; a log that is not kept returns from `add`
    at once and holds no records. `rows` holds the replication's KPI rows
    (kpi.ROW_FIELDS, one per patient) either way."""

    def __init__(self, rep_id: int, keep: bool = True) -> None:
        self.rep_id = rep_id
        self.keep = keep
        self.records: list[LogRecord] = []
        self.rows: list[tuple[int, ...]] = []

    def add(self, time_min: int, patient_id: int, event: str, *fields) -> None:
        if not self.keep:
            return
        try:
            render, arity, joins = _LOG_RENDER[event]
        except KeyError:
            raise ValueError(f"unknown log event {event!r}") from None
        if len(fields) != arity:
            raise ValueError(f"log event {event} takes {arity} fields, got {len(fields)}")
        if joins:
            fields = [("+".join(f) or "-") if isinstance(f, list) else f for f in fields]
        self.records.append(_new_record((self.rep_id, time_min, patient_id, event,
                                         render(*fields))))

    def write_csv(self, path) -> None:
        if not self.keep:
            raise ValueError(f"event log of replication {self.rep_id} was not kept")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(LOG_HEADER)
            w.writerows(self.records)  # field order is LOG_HEADER's


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
