"""Differential test: PromotionQueue against the linear-scan queue it
replaced, over random operation sequences at non-decreasing times, with the
thresholds drawn once per sequence."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from edsim.kernel import (
    CODE_RANK,
    RANK_GREEN,
    RANK_WHITE,
    PromotionQueue,
    QueueItem,
)

STATIC = sorted(CODE_RANK.values())


class LinearPromotionQueue:
    """Reference oracle: every operation scans every waiting item."""

    def __init__(self, tau_g: int | None = None, tau_w: int | None = None) -> None:
        self.items: list[QueueItem] = []
        self._seq = 0
        self._taus = {RANK_GREEN: tau_g, RANK_WHITE: tau_w}

    def __len__(self) -> int:
        return len(self.items)

    def enqueue(self, entity, rank: int, now: int) -> QueueItem:
        item = QueueItem(entity, rank, now, self._seq)
        self._seq += 1
        self.items.append(item)
        return item

    def has_rank_at_most(self, rank: int) -> bool:
        return any(it.rank <= rank for it in self.items)

    def mark_promotions(self, now: int) -> list[QueueItem]:
        newly: list[QueueItem] = []
        for it in self.items:
            if it.promoted_at is not None:
                continue
            tau = self._taus.get(it.rank)
            if tau is not None and now - it.enqueue_time > tau:
                it.promote(it.enqueue_time + tau)
                newly.append(it)
        return newly

    def peek_next(self, eligible_ranks: set[int] | None = None,
                  include_promoted: bool = False) -> QueueItem | None:
        best: QueueItem | None = None
        best_key = None
        for it in self.items:
            if (eligible_ranks is not None and it.rank not in eligible_ranks
                    and not (include_promoted and it.promoted_at is not None)):
                continue
            if best_key is None or it.key < best_key:
                best, best_key = it, it.key
        return best

    def remove(self, item: QueueItem) -> None:
        self.items.remove(item)


def state(item: QueueItem | None):
    return None if item is None else (item.seq, item.key, item.promoted_at)


taus = st.one_of(st.none(), st.integers(0, 30))
ops = st.one_of(
    # the clock advances by `step` minutes (0: several enqueues at one minute)
    st.tuples(st.just("enqueue"), st.sampled_from(STATIC), st.just(0) | st.integers(0, 10)),
    st.tuples(st.just("promote"), st.integers(0, 20)),
    st.tuples(st.just("peek"), st.none() | st.sets(st.sampled_from(STATIC)), st.booleans()),
    st.tuples(st.just("rank"), st.integers(0, 4)),
)


@settings(max_examples=400, deadline=None)
@given(taus, taus, st.lists(ops, min_size=10, max_size=120))
def test_bucketed_queue_matches_linear_scan(tau_g, tau_w, operations):
    queue, oracle = PromotionQueue(tau_g, tau_w), LinearPromotionQueue(tau_g, tau_w)
    now = 0
    for op in operations:
        if op[0] == "enqueue":
            _, rank, step = op
            now += step
            got = queue.enqueue(None, rank, now)
            want = oracle.enqueue(None, rank, now)
            assert state(got) == state(want)
        elif op[0] == "promote":
            now += op[1]
            got = queue.mark_promotions(now)
            want = oracle.mark_promotions(now)
            assert [state(it) for it in got] == [state(it) for it in want]
        elif op[0] == "peek":
            _, ranks, take = op
            got = queue.peek_next(ranks)
            want = oracle.peek_next(ranks, False)
            assert state(got) == state(want)
            if take and got is not None:
                queue.remove(got)
                oracle.remove(want)
        else:
            assert queue.has_rank_at_most(op[1]) == oracle.has_rank_at_most(op[1])
        assert [state(it) for it in queue.items] == [state(it) for it in oracle.items]
