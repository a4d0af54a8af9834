"""Generic discrete-event machinery: event calendar and clock, seeded random
streams, shift-calendared resource pools and priority queues with promotion."""

from __future__ import annotations

import csv
import heapq
import io
import os
import re
import zlib
from collections import deque
from collections.abc import Callable
from operator import attrgetter

# numpy.random loads lazily, with secrets, hmac and _hashlib behind it; import
# it here so a sweep's forked workers inherit it instead of each paying ~20 ms.
from numpy.random import PCG64, Generator, SeedSequence

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
STATIC_RANKS = (RANK_RED, RANK_YELLOW, RANK_GREEN, RANK_WHITE)

# Event-log vocabulary (CSV schema: rep_id,time_min,patient_id,event,detail):
# each event's detail template, filled in order from the raw fields the model
# passes to EventLog.add. "{+}" takes a sequence of names and renders it
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
# event -> (its template as a % template, the kind of each field: "" for a
# "{}" str, ":d" for a "{:d}" integer, "+" for a "{+}" sequence of names)
_LOG_RENDER = {event: (template.replace("{+}", "%s").replace("{:d}", "%d").replace("{}", "%s"),
                       tuple(re.findall(r"\{(\+|:d|)\}", template)))
               for event, template in LOG_TEMPLATES.items()}

LOG_HEADER = ("rep_id", "time_min", "patient_id", "event", "detail")


class SimulationError(RuntimeError):
    """Programming-error fault: the simulation state has been corrupted."""


def round_half_up(x: float) -> int:
    """Round sampled real minutes (never negative) to integer minutes, halves
    up. It needs x >= -0.5, since `int` truncates toward zero: -1.5 gives -1."""
    return int(x + 0.5)


class EventCalendar:
    """Future event list of (time, insertion sequence, handler, entity)
    entries, ordered by (time, insertion sequence), and the simulation time
    `now` in integer minutes, which only `pop` advances.

    `heap` is the heapq list of pending entries, so `heap[0]` is the next
    one; callers read it and change it only through `schedule` and `pop`,
    or empty it once the run is over.
    The insertion counter is global, so ties at one minute pop in schedule
    order and runs are reproducible without RNG-based tie-breaking. Nothing
    can be scheduled before `now`, so `pop` never moves time backwards.
    """

    def __init__(self) -> None:
        self.now = 0
        self.heap: list[tuple[int, int, Callable, object]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    def schedule(self, at: int, handler: Callable, entity=None) -> None:
        if at < self.now:
            raise SimulationError(f"schedule at t={at} before now={self.now}")
        heapq.heappush(self.heap, (at, self._seq, handler, entity))
        self._seq += 1

    def pop(self) -> tuple[int, int, Callable, object]:
        if not self.heap:
            raise SimulationError("pop from empty calendar")
        event = heapq.heappop(self.heap)
        self.now = event[0]
        return event


def rng_stream(seed: int, stream_id: str, rep_id: int = 0) -> Generator:
    """Named random stream derived from a master seed.

    Equal (seed, stream_id, rep_id) always reproduces the same draw sequence;
    distinct labels give independent substreams (SeedSequence entropy
    includes a stable hash of the label).
    """
    key = zlib.crc32(stream_id.encode("utf-8"))
    return Generator(PCG64(SeedSequence([seed, rep_id, key])))


class ShiftCalendar:
    """Daily staffing of a pool, one (team, start, end) band per slot: the slot
    is on shift over [start, end) minutes of the day, wrapping midnight when
    end < start and all day when start and end name the same minute. Offset
    shifts every band later by whole minutes (scenario t).

    `teams` lists the slots grouped by band, bands in order of first
    appearance; this is the order dispatch polls them in, and every
    `on_by_minute` tuple keeps it. `boundaries` holds, sorted, the distinct
    minutes of the day at which capacity can change. The slots on shift at
    each minute of the day are precomputed once, one shared tuple per
    stretch between consecutive boundaries, so lookups build nothing."""

    def __init__(self, bands: list[tuple[str, int, int]], offset: int = 0) -> None:
        groups: dict[tuple[int, int], list[str]] = {}
        for team, start, end in bands:
            if not (0 <= start < MINUTES_PER_DAY and 0 <= end <= MINUTES_PER_DAY):
                raise ValueError(f"shift band out of range: {(team, start, end)}")
            groups.setdefault((start, end), []).append(team)
        shifted = [((start + offset) % MINUTES_PER_DAY, (end + offset) % MINUTES_PER_DAY, teams)
                   for (start, end), teams in groups.items()]
        self.teams: tuple[str, ...] = tuple(t for teams in groups.values() for t in teams)
        bounds = self.boundaries = tuple(sorted({m for start, end, _ in shifted
                                                 for m in (start, end)}))
        table: list[tuple[str, ...]] = [()] * MINUTES_PER_DAY
        for m, stop in zip(bounds, bounds[1:] + bounds[:1]):
            on = tuple(t for start, end, teams in shifted
                       if (start <= m < end if start < end else not end <= m < start)
                       for t in teams)
            if m < stop:
                table[m:stop] = [on] * (stop - m)
            else:  # the last stretch wraps midnight up to the first boundary
                table[m:] = [on] * (MINUTES_PER_DAY - m)
                table[:stop] = [on] * stop
        self.on_by_minute = table

    def teams_on(self, minute_of_day: int) -> tuple[str, ...]:
        return self.on_by_minute[minute_of_day % MINUTES_PER_DAY]


class ResourcePool:
    """A set of named server slots governed by a shift calendar.

    A slot serves one entity at a time. Capacity drops never abort an
    in-progress service: the slot finishes (drains), then retires, meaning it
    simply takes no further work from the queue.
    """

    def __init__(self, pool_id: str, calendar: ShiftCalendar) -> None:
        self.pool_id = pool_id
        self.calendar = calendar
        self.busy: set[str] = set()

    def on_shift(self, slot: str, now: int) -> bool:
        return slot in self.calendar.on_by_minute[now % MINUTES_PER_DAY]

    def seize(self, slot: str, now: int, duration: int) -> int:
        """Mark the slot busy; returns the end time now+duration, when the
        caller releases it. Seizing a busy slot is a programming error —
        callers must check."""
        if slot in self.busy:
            raise SimulationError(f"slot {self.pool_id}/{slot} seized while busy")
        self.busy.add(slot)
        return now + duration

    def release(self, slot: str) -> None:
        if slot not in self.busy:
            raise SimulationError(f"slot {self.pool_id}/{slot} released while idle")
        self.busy.remove(slot)


class QueueItem:
    """One waiting entity. Items compare by identity, so list.remove finds
    the item itself. `key` is the dequeue order, lowest first:
    (rank, enqueue_time, seq, 0) while waiting, (RANK_PROMOTED, crossing
    minute, enqueue_time, seq) once promoted."""

    __slots__ = ("entity", "rank", "enqueue_time", "seq", "promoted_at", "key")

    def __init__(self, entity, rank: int, enqueue_time: int, seq: int) -> None:
        self.entity = entity
        self.rank = rank  # static priority rank at enqueue
        self.enqueue_time = enqueue_time
        self.seq = seq
        self.promoted_at: int | None = None  # threshold-crossing minute, sticky
        self.key = (rank, enqueue_time, seq, 0)

    def promote(self, at: int) -> None:
        self.promoted_at = at
        self.key = (RANK_PROMOTED, at, self.enqueue_time, self.seq)


class PromotionQueue:
    """Waiting queue with static priority classes and dynamic promotion.

    Without promotions the dequeue order is (priority class, FIFO). With a
    threshold tau_g (tau_w), set once per queue, a green (white) item whose
    wait strictly exceeds it is promoted; the promotion instant is the
    crossing time enqueue+tau, the status is sticky, and promoted items are
    served FIFO by that instant, behind RED only. `promotes` is False when
    the queue has no threshold, and then nothing is ever promoted.

    Each static class keeps two buckets, waiting and promoted, each sorted by
    `key`. Enqueue times never decrease and the thresholds are fixed, so
    both stay sorted by appending alone: the overdue items of a class are a
    prefix of its waiting bucket, and the best item is one of the bucket
    heads. An earlier enqueue time, or removing an item that does not head
    its bucket, raises SimulationError. `items` lists every waiting item in
    enqueue order.
    """

    def __init__(self, tau_g: int | None = None, tau_w: int | None = None) -> None:
        self.items: list[QueueItem] = []
        self._seq = 0
        self._last_enqueue = 0
        self._waiting: dict[int, deque[QueueItem]] = {rank: deque() for rank in STATIC_RANKS}
        self._promoted: dict[int, deque[QueueItem]] = {RANK_GREEN: deque(), RANK_WHITE: deque()}
        # (rank, waiting, promoted or None) in ascending rank order
        self._buckets = [(rank, self._waiting[rank], self._promoted.get(rank))
                         for rank in STATIC_RANKS]
        # (tau, waiting, promoted) of each class with a threshold
        self._taus = [(tau, self._waiting[rank], self._promoted[rank])
                      for rank, tau in ((RANK_GREEN, tau_g), (RANK_WHITE, tau_w))
                      if tau is not None]
        self.promotes = bool(self._taus)

    def __len__(self) -> int:
        return len(self.items)

    def enqueue(self, entity, rank: int, now: int) -> QueueItem:
        if now < self._last_enqueue:
            raise SimulationError(f"enqueue at t={now} before the last one, at t={self._last_enqueue}")
        self._last_enqueue = now
        item = QueueItem(entity, rank, now, self._seq)
        self._seq += 1
        self.items.append(item)
        self._waiting[rank].append(item)
        return item

    def has_rank_at_most(self, rank: int) -> bool:
        """True if any waiting item's static class outranks or equals `rank`
        (promotion status is ignored)."""
        for r, waiting, promoted in self._buckets:
            if r > rank:
                return False
            if waiting or promoted:
                return True
        return False

    def mark_promotions(self, now: int) -> list[QueueItem]:
        """Promote overdue green/white items; returns newly promoted items
        in enqueue order."""
        newly: list[QueueItem] = []
        for tau, waiting, promoted in self._taus:
            while waiting and now - waiting[0].enqueue_time > tau:
                it = waiting.popleft()
                it.promote(it.enqueue_time + tau)
                promoted.append(it)
                newly.append(it)
        if len(newly) > 1:
            newly.sort(key=attrgetter("seq"))
        return newly

    def peek_next(self, eligible_ranks: set[int] | None = None) -> QueueItem | None:
        """Best waiting item, promoted or not, whose static class is in
        `eligible_ranks` (all if None). Promotions must already be marked
        for the current time."""
        best: QueueItem | None = None
        for rank, waiting, promoted in self._buckets:
            if eligible_ranks is None or rank in eligible_ranks:
                if waiting and (best is None or waiting[0].key < best.key):
                    best = waiting[0]
                if promoted and (best is None or promoted[0].key < best.key):
                    best = promoted[0]
        return best

    def remove(self, item: QueueItem) -> None:
        """Remove a bucket head, such as the item `peek_next` returned."""
        bucket = (self._waiting if item.promoted_at is None else self._promoted)[item.rank]
        if not bucket or bucket[0] is not item:
            raise SimulationError(f"remove of item {item.seq}, which does not head its bucket")
        bucket.popleft()
        self.items.remove(item)


class EventLog:
    """Sink for every state transition of one replication.

    A log with a `path` streams to that file: it opens it and writes
    LOG_HEADER at once, and each `add` renders the record's CSV line and
    writes it to the file, whose own buffer is the log's only one. The
    line's `event,detail\r\n` tail depends only on the event and its
    fields, so the log renders each distinct tail once and keeps it per
    event, keyed by the `fields` tuple, which must hash (a list field
    raises TypeError). Rendering checks the event, its field count and that
    each "{}" field is a str (so equal fields render alike), fills the
    event's `%` template from _LOG_RENDER and has csv.writer write
    `(event, detail)`, which quotes a detail that needs it. `write_csv(path)`
    closes the file, and so does `close`; either way the file then holds
    every record added. model.Replication.run ends the log of a run. A log
    without a path keeps nothing: `add` returns at once."""

    def __init__(self, rep_id: int, path=None) -> None:
        self.rep_id = rep_id
        self.path = path
        self._file = None
        if path is not None:
            self._tails: dict[str, dict[tuple, str]] = {event: {} for event in _LOG_RENDER}
            self._file = open(path, "w", newline="")
            csv.writer(self._file).writerow(LOG_HEADER)

    def add(self, time_min: int, patient_id: int, event: str, *fields) -> None:
        if self._file is None:
            return
        try:
            tail = self._tails[event][fields]
        except KeyError:  # a new tail or an unknown event
            tail = self._render_tail(event, fields)
        self._file.write(f"{self.rep_id},{time_min},{patient_id},{tail}")

    def _render_tail(self, event: str, fields: tuple) -> str:
        """`event,detail\r\n` as csv.writer writes it, kept for `fields`."""
        try:
            template, kinds = _LOG_RENDER[event]
        except KeyError:
            raise ValueError(f"unknown log event {event!r}") from None
        if len(fields) != len(kinds):
            raise ValueError(f"log event {event} takes {len(kinds)} fields, got {len(fields)}")
        values = []
        for kind, field in zip(kinds, fields):
            if kind == "+":
                field = "+".join(field) or "-"
            elif kind == "" and not isinstance(field, str):
                raise ValueError(f"log event {event} takes str fields, got {field!r}")
            values.append(field)
        buf = io.StringIO()
        csv.writer(buf).writerow((event, template % tuple(values)))
        tail = self._tails[event][fields] = buf.getvalue()
        return tail

    def close(self) -> None:
        """Close the file, writing out what its buffer holds."""
        if self._file is not None:
            self._file.close()

    def write_csv(self, path) -> None:
        """End the log's file, `path`: close it, if it is still open. The
        file then holds what csv.writer writes for LOG_HEADER and every
        record. Any other path, or a log that keeps nothing, raises
        ValueError."""
        if self._file is None:
            raise ValueError(f"event log of replication {self.rep_id} was not kept")
        if os.fspath(path) != os.fspath(self.path):
            raise ValueError(f"event log of replication {self.rep_id} streams to "
                             f"{self.path}, not to {path}")
        self._file.close()
