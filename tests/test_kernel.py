import numpy as np
import pytest

from edsim.kernel import (
    CODE_RANK,
    RANK_PROMOTED,
    EventCalendar,
    PromotionQueue,
    QueueItem,
    ResourcePool,
    RngStream,
    ShiftCalendar,
    ShiftEntry,
    SimClock,
    SimulationError,
    round_half_up,
)


def make_calendar():
    clock = SimClock()
    return clock, EventCalendar(clock)


class TestEventCalendar:
    def test_equal_times_pop_in_insertion_order(self):
        _, cal = make_calendar()
        cal.schedule(10, 1, "a")
        cal.schedule(10, 2, "b")
        assert cal.pop()[2:] == (1, "a")
        assert cal.pop()[2:] == (2, "b")

    def test_time_order(self):
        _, cal = make_calendar()
        cal.schedule(5, 0, "later")
        cal.schedule(3, 0, "sooner")
        assert cal.pop()[0] == 3
        assert cal.pop()[0] == 5

    def test_pop_advances_clock_monotonically(self):
        clock, cal = make_calendar()
        cal.schedule(7, 0)
        cal.schedule(7, 1)
        cal.schedule(9, 2)
        times = [cal.pop()[0] for _ in range(3)]
        assert times == sorted(times)
        assert clock.now == 9

    def test_schedule_in_past_is_a_fault(self):
        _, cal = make_calendar()
        cal.schedule(5, 0)
        cal.pop()
        with pytest.raises(SimulationError):
            cal.schedule(4, 0)

    def test_million_random_schedules_pop_sorted(self):
        # oracle: sorting the insertion list by (time, seq) must equal pop order
        _, cal = make_calendar()
        rng = np.random.Generator(np.random.PCG64(7))
        times = rng.integers(0, 50_000, size=1_000_000)
        inserted = []
        for seq, t in enumerate(times):
            cal.schedule(int(t), 0, seq)
            inserted.append((int(t), seq))
        expected = sorted(inserted)
        popped = [(t, entity) for t, _, _, entity in (cal.pop() for _ in range(len(inserted)))]
        assert popped == expected


class TestRngStream:
    def test_same_seed_same_stream_identical(self):
        a = RngStream(123, "arrivals").gen.random(100)
        b = RngStream(123, "arrivals").gen.random(100)
        assert np.array_equal(a, b)

    def test_streams_differ_by_label_and_rep(self):
        base = RngStream(123, "arrivals").gen.random(50)
        other = RngStream(123, "service").gen.random(50)
        rep1 = RngStream(123, "arrivals", rep_id=1).gen.random(50)
        assert not np.array_equal(base, other)
        assert not np.array_equal(base, rep1)


DAY_TEAMS = ShiftEntry(480, 1200, ("A", "B"))
NIGHT_TEAMS = ShiftEntry(1200, 480, ("E", "F"))


class TestShiftCalendar:
    def test_low_urgency_baseline_day_capacity(self):
        cal = ShiftCalendar([DAY_TEAMS])
        assert cal.capacity_at(10 * 60) == 2

    def test_high_urgency_baseline_night_capacity(self):
        cal = ShiftCalendar([ShiftEntry(480, 1200, ("C", "D")), NIGHT_TEAMS])
        assert cal.capacity_at(22 * 60) == 2
        assert cal.capacity_at(12 * 60) == 2

    def test_offset_two_hours_empties_nine_oclock(self):
        # day shift becomes 10:00-22:00, so 9:00 has nobody
        cal = ShiftCalendar([DAY_TEAMS], offset=120)
        assert cal.capacity_at(9 * 60) == 0
        assert cal.capacity_at(10 * 60) == 2

    def test_boundaries_start_inclusive_end_exclusive(self):
        cal = ShiftCalendar([DAY_TEAMS])
        assert cal.capacity_at(480) == 2
        assert cal.capacity_at(479) == 0
        assert cal.capacity_at(1199) == 2
        assert cal.capacity_at(1200) == 0

    def test_wrapping_night_band(self):
        cal = ShiftCalendar([NIGHT_TEAMS])
        assert cal.capacity_at(0) == 2
        assert cal.capacity_at(479) == 2
        assert cal.capacity_at(480) == 0
        assert cal.capacity_at(1200) == 2

    def test_minute_out_of_range_rejected(self):
        cal = ShiftCalendar([DAY_TEAMS])
        with pytest.raises(ValueError):
            cal.capacity_at(1440)

    def test_boundaries_reflect_offset(self):
        cal = ShiftCalendar([DAY_TEAMS, NIGHT_TEAMS], offset=60)
        assert cal.boundaries() == [540, 1260]

    def test_on_shift_table_matches_covers_every_minute(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            entries = []
            for i in range(int(rng.integers(0, 5))):
                start = int(rng.integers(0, 1440))
                end = start if rng.random() < 0.1 else int(rng.integers(0, 1441))
                entries.append(ShiftEntry(start, end, (f"E{i}a", f"E{i}b")[:int(rng.integers(1, 3))]))
            offset = int(rng.integers(0, 3)) * 60
            cal = ShiftCalendar(entries, offset=offset)
            for m in range(1440):
                want = [t for e in entries if e.covers(m, offset) for t in e.teams]
                assert list(cal.teams_on(m)) == want, (entries, offset, m)
            assert cal.teams == tuple(t for e in entries for t in e.teams)


class TestResourcePool:
    def test_seize_release_cycle(self):
        pool = ResourcePool("p", ShiftCalendar([DAY_TEAMS]))
        assert pool.idle_on_shift_slots(600) == ["A", "B"]
        end = pool.seize("A", "patient", 600, 30)
        assert end == 630
        assert pool.idle_on_shift_slots(600) == ["B"]
        pool.release("A")
        assert pool.idle_on_shift_slots(600) == ["A", "B"]

    def test_seizing_busy_slot_is_a_fault(self):
        pool = ResourcePool("p", ShiftCalendar([DAY_TEAMS]))
        pool.seize("A", "x", 600, 10)
        with pytest.raises(SimulationError):
            pool.seize("A", "y", 605, 10)

    def test_release_of_idle_slot_is_a_fault(self):
        pool = ResourcePool("p", ShiftCalendar([DAY_TEAMS]))
        with pytest.raises(SimulationError):
            pool.release("A")

    def test_service_spanning_shift_change_drains(self):
        # hand-trace: service starts 19:50, runs 20 minutes across the 20:00
        # capacity drop; it finishes at 20:10 and the slot then retires.
        pool = ResourcePool("p", ShiftCalendar([DAY_TEAMS]))
        end = pool.seize("A", "x", 1190, 20)
        assert end == 1210
        assert pool.busy["A"][1] == 1210
        pool.release("A")
        assert pool.idle_on_shift_slots(1210) == []  # off shift: no further work


def q_with(items):
    q = PromotionQueue()
    out = []
    for code, enq in items:
        out.append(q.enqueue(code, CODE_RANK[code], enq))
    return q, out


class TestPromotionQueue:
    def test_static_priority_beats_waiting_time(self):
        # green waited 130', yellow 10' -> yellow first under the static rule
        q, _ = q_with([("GREEN", 0), ("YELLOW", 120)])
        item = q.dequeue_next(130)
        assert item.entity == "YELLOW"

    def test_promotion_sends_green_ahead_of_yellow(self):
        q, _ = q_with([("GREEN", 0), ("YELLOW", 120)])
        item = q.dequeue_next(130, tau_g=120)
        assert item.entity == "GREEN"

    def test_empty_queue_returns_none(self):
        q = PromotionQueue()
        assert q.dequeue_next(10) is None

    def test_threshold_is_strict(self):
        q, _ = q_with([("GREEN", 0), ("YELLOW", 100)])
        assert q.dequeue_next(120, tau_g=120).entity == "YELLOW"  # 120 is not > 120
        assert q.dequeue_next(121, tau_g=120).entity == "GREEN"

    def test_red_never_overtaken_by_promoted(self):
        q, _ = q_with([("GREEN", 0), ("RED", 200)])
        assert q.dequeue_next(201, tau_g=60).entity == "RED"

    def test_promotion_is_sticky_and_ordered_by_crossing_time(self):
        q, items = q_with([("WHITE", 0), ("GREEN", 50)])
        # white crosses at 0+90, green at 50+60=110 -> white first
        q.mark_promotions(200, 60, 90)
        assert items[0].promoted_at == 90
        assert items[1].promoted_at == 110
        first = q.dequeue_next(200, tau_g=60, tau_w=90)
        assert first.entity == "WHITE"
        # stickiness: promoted_at survives further marking
        assert items[1].promoted_at == 110

    def test_fifo_within_class(self):
        q, _ = q_with([("GREEN", 5), ("GREEN", 3)])
        assert q.dequeue_next(10).enqueue_time == 3

    def test_items_compare_by_identity(self):
        q = PromotionQueue()
        a = q.enqueue("GREEN", CODE_RANK["GREEN"], 0)
        twin = QueueItem("GREEN", CODE_RANK["GREEN"], 0, a.seq)
        assert a != twin
        q.items.append(twin)
        q.remove(twin)
        assert q.items == [a] and q.items[0] is a

    def test_sort_key_is_stored_at_enqueue_and_at_promotion(self):
        q, items = q_with([("GREEN", 10), ("YELLOW", 20)])
        assert items[0].key == (CODE_RANK["GREEN"], 10, 0, 0)
        assert items[1].key == (CODE_RANK["YELLOW"], 20, 1, 0)
        q.mark_promotions(100, 60, None)
        assert items[0].key == (RANK_PROMOTED, 70, 10, 0)
        assert items[1].key == (CODE_RANK["YELLOW"], 20, 1, 0)

    def test_eligibility_filter_and_promoted_override(self):
        q, _ = q_with([("GREEN", 0), ("YELLOW", 10)])
        high_only = {CODE_RANK["RED"], CODE_RANK["YELLOW"]}
        assert q.peek_next(high_only).entity == "YELLOW"
        q.mark_promotions(200, 120, None)
        assert q.peek_next(high_only).entity == "YELLOW"
        assert q.peek_next(high_only, include_promoted=True).entity == "GREEN"


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(0.5) == 1
    assert round_half_up(7.0) == 7
