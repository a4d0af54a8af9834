import numpy as np
import pytest

from edsim.kernel import (
    CODE_RANK,
    RANK_PROMOTED,
    EventCalendar,
    PromotionQueue,
    QueueItem,
    ResourcePool,
    ShiftCalendar,
    SimulationError,
    rng_stream,
    round_half_up,
)


class TestEventCalendar:
    def test_equal_times_pop_in_insertion_order(self):
        cal = EventCalendar()
        cal.schedule(10, 1, "a")
        cal.schedule(10, 2, "b")
        assert cal.pop()[2:] == (1, "a")
        assert cal.pop()[2:] == (2, "b")

    def test_time_order(self):
        cal = EventCalendar()
        cal.schedule(5, 0, "later")
        cal.schedule(3, 0, "sooner")
        assert cal.pop()[0] == 3
        assert cal.pop()[0] == 5

    def test_pop_advances_clock_monotonically(self):
        cal = EventCalendar()
        cal.schedule(7, 0)
        cal.schedule(7, 1)
        cal.schedule(9, 2)
        times = [cal.pop()[0] for _ in range(3)]
        assert times == sorted(times)
        assert cal.now == 9

    def test_schedule_in_past_is_a_fault(self):
        cal = EventCalendar()
        cal.schedule(5, 0)
        cal.pop()
        with pytest.raises(SimulationError):
            cal.schedule(4, 0)

    def test_million_random_schedules_pop_sorted(self):
        # oracle: sorting the insertion list by (time, seq) must equal pop order
        cal = EventCalendar()
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
        a = rng_stream(123, "arrivals").random(100)
        b = rng_stream(123, "arrivals").random(100)
        assert np.array_equal(a, b)

    def test_streams_differ_by_label_and_rep(self):
        base = rng_stream(123, "arrivals").random(50)
        other = rng_stream(123, "service").random(50)
        rep1 = rng_stream(123, "arrivals", rep_id=1).random(50)
        assert not np.array_equal(base, other)
        assert not np.array_equal(base, rep1)


DAY_TEAMS = [("A", 480, 1200), ("B", 480, 1200)]
NIGHT_TEAMS = [("E", 1200, 480), ("F", 1200, 480)]


def grouped(bands):
    """(start, end) -> its slots, bands in order of first appearance."""
    groups = {}
    for team, start, end in bands:
        groups.setdefault((start, end), []).append(team)
    return groups


def on_at(bands, offset, minute):
    """Brute-force oracle: the slots on shift at `minute`, in grouped order."""
    on = []
    for (start, end), teams in grouped(bands).items():
        start, end = (start + offset) % 1440, (end + offset) % 1440
        if start == end or (start <= minute < end if start < end else minute >= start or minute < end):
            on += teams
    return on


class TestShiftCalendar:
    def test_low_urgency_baseline_day_capacity(self):
        cal = ShiftCalendar(DAY_TEAMS)
        assert len(cal.teams_on(10 * 60)) == 2

    def test_high_urgency_baseline_night_capacity(self):
        cal = ShiftCalendar([("C", 480, 1200), ("D", 480, 1200), *NIGHT_TEAMS])
        assert cal.teams_on(22 * 60) == ("E", "F")
        assert cal.teams_on(12 * 60) == ("C", "D")

    def test_offset_two_hours_empties_nine_oclock(self):
        # day shift becomes 10:00-22:00, so 9:00 has nobody
        cal = ShiftCalendar(DAY_TEAMS, offset=120)
        assert len(cal.teams_on(9 * 60)) == 0
        assert len(cal.teams_on(10 * 60)) == 2

    def test_boundaries_start_inclusive_end_exclusive(self):
        cal = ShiftCalendar(DAY_TEAMS)
        assert len(cal.teams_on(480)) == 2
        assert len(cal.teams_on(479)) == 0
        assert len(cal.teams_on(1199)) == 2
        assert len(cal.teams_on(1200)) == 0

    def test_wrapping_night_band(self):
        cal = ShiftCalendar(NIGHT_TEAMS)
        assert len(cal.teams_on(0)) == 2
        assert len(cal.teams_on(479)) == 2
        assert len(cal.teams_on(480)) == 0
        assert len(cal.teams_on(1200)) == 2

    def test_boundaries_reflect_offset(self):
        cal = ShiftCalendar([*DAY_TEAMS, *NIGHT_TEAMS], offset=60)
        assert cal.boundaries == (540, 1260)

    def test_band_out_of_range_rejected(self):
        for band in (("A", 1440, 0), ("A", -1, 480), ("A", 0, 1441)):
            with pytest.raises(ValueError):
                ShiftCalendar([band])

    def test_same_band_slots_are_grouped_in_order_of_first_appearance(self):
        cal = ShiftCalendar([("C", 480, 1200), ("E", 0, 0), ("D", 480, 1200), ("F", 0, 0)])
        assert cal.teams == ("C", "D", "E", "F")
        assert cal.teams_on(600) == ("C", "D", "E", "F")
        assert cal.teams_on(0) == ("E", "F")

    def test_on_shift_table_matches_brute_force_every_minute(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            bands = []
            for i in range(int(rng.integers(0, 5))):
                start = int(rng.integers(0, 1440))
                end = start if rng.random() < 0.1 else int(rng.integers(0, 1441))
                bands += [(f"E{i}{c}", start, end) for c in "ab"[:int(rng.integers(1, 3))]]
            bands = [bands[i] for i in rng.permutation(len(bands))]  # interleave the bands' slots
            offset = int(rng.integers(0, 3)) * 60
            cal = ShiftCalendar(bands, offset=offset)
            for m in range(1440):
                assert list(cal.teams_on(m)) == on_at(bands, offset, m), (bands, offset, m)
            assert list(cal.teams) == [t for teams in grouped(bands).values() for t in teams]


def idle_on_shift(pool, now):
    """Slots of `pool` that could take work at `now`: on shift and idle."""
    return [s for s in pool.calendar.teams if pool.on_shift(s, now) and s not in pool.busy]


class TestResourcePool:
    def test_seize_release_cycle(self):
        pool = ResourcePool("p", ShiftCalendar(DAY_TEAMS))
        assert idle_on_shift(pool, 600) == ["A", "B"]
        end = pool.seize("A", 600, 30)
        assert end == 630
        assert idle_on_shift(pool, 600) == ["B"]
        pool.release("A")
        assert idle_on_shift(pool, 600) == ["A", "B"]

    def test_seizing_busy_slot_is_a_fault(self):
        pool = ResourcePool("p", ShiftCalendar(DAY_TEAMS))
        pool.seize("A", 600, 10)
        with pytest.raises(SimulationError):
            pool.seize("A", 605, 10)

    def test_release_of_idle_slot_is_a_fault(self):
        pool = ResourcePool("p", ShiftCalendar(DAY_TEAMS))
        with pytest.raises(SimulationError):
            pool.release("A")

    def test_service_spanning_shift_change_drains(self):
        # hand-trace: service starts 19:50, runs 20 minutes across the 20:00
        # capacity drop; it finishes at 20:10 and the slot then retires.
        pool = ResourcePool("p", ShiftCalendar(DAY_TEAMS))
        end = pool.seize("A", 1190, 20)
        assert end == 1210
        assert pool.busy == {"A"}
        pool.release("A")
        assert idle_on_shift(pool, 1210) == []  # off shift: no further work


def q_with(items, tau_g=None, tau_w=None):
    q = PromotionQueue(tau_g, tau_w)
    out = []
    for code, enq in items:
        out.append(q.enqueue(code, CODE_RANK[code], enq))
    return q, out


def dequeue(q, now):
    """Mark promotions at `now`, then take the head of the discipline."""
    q.mark_promotions(now)
    item = q.peek_next()
    if item is not None:
        q.remove(item)
    return item


class TestPromotionQueue:
    def test_static_priority_beats_waiting_time(self):
        # green waited 130', yellow 10' -> yellow first under the static rule
        q, _ = q_with([("GREEN", 0), ("YELLOW", 120)])
        item = dequeue(q, 130)
        assert item.entity == "YELLOW"

    def test_promotion_sends_green_ahead_of_yellow(self):
        q, _ = q_with([("GREEN", 0), ("YELLOW", 120)], tau_g=120)
        item = dequeue(q, 130)
        assert item.entity == "GREEN"

    def test_empty_queue_returns_none(self):
        q = PromotionQueue()
        assert dequeue(q, 10) is None

    def test_threshold_is_strict(self):
        q, _ = q_with([("GREEN", 0), ("YELLOW", 100)], tau_g=120)
        assert dequeue(q, 120).entity == "YELLOW"  # 120 is not > 120
        assert dequeue(q, 121).entity == "GREEN"

    def test_red_never_overtaken_by_promoted(self):
        q, _ = q_with([("GREEN", 0), ("RED", 200)], tau_g=60)
        assert dequeue(q, 201).entity == "RED"

    def test_promotion_is_sticky_and_ordered_by_crossing_time(self):
        q, items = q_with([("WHITE", 0), ("GREEN", 50)], tau_g=60, tau_w=90)
        # white crosses at 0+90, green at 50+60=110 -> white first
        assert q.mark_promotions(200) == items
        assert items[0].promoted_at == 90
        assert items[1].promoted_at == 110
        first = dequeue(q, 200)
        assert first.entity == "WHITE"
        # stickiness: promoted_at survives further marking
        assert items[1].promoted_at == 110

    def test_queue_without_thresholds_promotes_nothing(self):
        q, items = q_with([("WHITE", 0), ("GREEN", 0)])
        assert q.mark_promotions(10_000) == []
        assert [it.promoted_at for it in items] == [None, None]

    def test_fifo_within_class(self):
        q, items = q_with([("GREEN", 3), ("GREEN", 3), ("GREEN", 5)])
        assert [dequeue(q, 10) for _ in items] == items

    def test_enqueue_before_an_earlier_enqueue_is_a_fault(self):
        q, items = q_with([("GREEN", 5), ("RED", 5)])
        with pytest.raises(SimulationError):
            q.enqueue("WHITE", CODE_RANK["WHITE"], 4)
        assert q.items == items
        q.enqueue("WHITE", CODE_RANK["WHITE"], 5)  # an equal time is in order

    def test_removing_a_non_head_item_is_a_fault(self):
        q, items = q_with([("GREEN", 0), ("GREEN", 10), ("GREEN", 20)], tau_g=5)
        with pytest.raises(SimulationError):
            q.remove(items[1])  # waiting, behind items[0]
        q.mark_promotions(30)
        with pytest.raises(SimulationError):
            q.remove(items[2])  # promoted, behind items[0] and items[1]
        assert q.items == items
        q.remove(items[0])
        assert q.items == items[1:]

    def test_items_compare_by_identity(self):
        q = PromotionQueue()
        a = q.enqueue("GREEN", CODE_RANK["GREEN"], 0)
        twin = QueueItem("GREEN", CODE_RANK["GREEN"], 0, a.seq)
        assert a != twin
        with pytest.raises(SimulationError):
            q.remove(twin)  # an equal item that was never enqueued
        assert q.items == [a] and q.items[0] is a
        assert q.peek_next() is a

    def test_sort_key_is_stored_at_enqueue_and_at_promotion(self):
        q, items = q_with([("GREEN", 10), ("YELLOW", 20)], tau_g=60)
        assert items[0].key == (CODE_RANK["GREEN"], 10, 0, 0)
        assert items[1].key == (CODE_RANK["YELLOW"], 20, 1, 0)
        q.mark_promotions(100)
        assert items[0].key == (RANK_PROMOTED, 70, 10, 0)
        assert items[1].key == (CODE_RANK["YELLOW"], 20, 1, 0)

    def test_eligibility_filter_reads_the_static_class(self):
        q, _ = q_with([("GREEN", 0), ("YELLOW", 10)], tau_g=120)
        high_only = {CODE_RANK["RED"], CODE_RANK["YELLOW"]}
        low_only = {CODE_RANK["GREEN"], CODE_RANK["WHITE"]}
        assert q.peek_next(high_only).entity == "YELLOW"
        q.mark_promotions(200)  # the green is promoted ahead of the yellow
        assert q.peek_next().entity == "GREEN"
        assert q.peek_next(low_only).entity == "GREEN"
        assert q.peek_next(high_only).entity == "YELLOW"


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(0.5) == 1
    assert round_half_up(7.0) == 7
