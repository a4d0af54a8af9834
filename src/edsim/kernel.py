"""Generic discrete-event machinery: clock, event calendar, seeded random
streams, shift-calendared resource pools and priority queues with promotion."""

from __future__ import annotations

import csv
import heapq
import zlib
from dataclasses import dataclass
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

# Event-log vocabulary (CSV schema: rep_id,time_min,patient_id,event,detail).
LOG_EVENTS = (
    "ARRIVE",
    "TRIAGE_DONE",
    "DISMISSED_AT_TRIAGE",
    "ENQUEUE_FIRST",
    "PROMOTED",
    "START_FIRST",
    "END_FIRST",
    "LAB_DRAW",
    "LAB_DISPATCH",
    "LAB_RESULT",
    "START_EXAM",
    "END_EXAM",
    "ENQUEUE_LAST",
    "START_LAST",
    "DISCHARGE",
)

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


@dataclass
class QueueItem:
    entity: object
    rank: int            # static priority rank at enqueue
    enqueue_time: int
    seq: int
    promoted_at: int | None = None  # threshold-crossing minute, sticky

    def sort_key(self) -> tuple[int, int, int, int]:
        if self.promoted_at is not None:
            return (RANK_PROMOTED, self.promoted_at, self.enqueue_time, self.seq)
        return (self.rank, self.enqueue_time, self.seq, 0)


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
                it.promoted_at = it.enqueue_time + tau
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
            key = it.sort_key()
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


class EventLog:
    """Ordered record of every state transition; sole input to KPI work."""

    def __init__(self, rep_id: int) -> None:
        self.rep_id = rep_id
        self.records: list[LogRecord] = []

    def add(self, time_min: int, patient_id: int, event: str, detail: str = "") -> None:
        self.records.append(LogRecord(self.rep_id, time_min, patient_id, event, detail))

    def write_csv(self, path) -> None:
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
