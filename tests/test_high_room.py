"""Differential test: a high-general team's first-visit choice against the
rule it is meant to equal, written out in full over the linear-scan queue.

The reference rule: a high team serves red and yellow patients and, since a
promoted patient heads the whole queue, any promoted green or white one. It
pulls an unpromoted green or white patient only when no red or yellow
patient waits and the pull rule is on at this minute ("always", "never", or
"night_only": while the low room has nobody on shift)."""

from __future__ import annotations

import tempfile
from contextlib import closing
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edsim.kernel import CODE_RANK, MINUTES_PER_DAY, RANK_YELLOW
from edsim.model import Replication
from edsim.scenario import Scenario
from edsim.stochastics import Profile

from conftest import make_mini_raw
from test_model import make_patient
from test_queue_oracle import LinearPromotionQueue

LOW_SHIFT = (480, 1200)  # the low room is staffed 08:00-20:00 only
HIGH_RANKS = {CODE_RANK["RED"], CODE_RANK["YELLOW"]}
ALL_RANKS = set(CODE_RANK.values())
PULL_MODES = ("always", "night_only", "never")


def reference_pick(oracle: LinearPromotionQueue, mode: str, now: int):
    oracle.mark_promotions(now)
    if oracle.has_rank_at_most(RANK_YELLOW):
        ranks = HIGH_RANKS
    else:
        low_on = LOW_SHIFT[0] <= now % MINUTES_PER_DAY < LOW_SHIFT[1]
        pull = mode == "always" or (mode == "night_only" and not low_on)
        ranks = ALL_RANKS if pull else HIGH_RANKS
    return oracle.peek_next(ranks, True)


_profiles: dict[str, Profile] = {}


def profile_for(default_raw: dict, mode: str) -> Profile:
    if mode not in _profiles:
        raw = make_mini_raw(default_raw, teams={"low_general": [("T1", *LOW_SHIFT)],
                                                "high_general": [("H1", 0, 0)]})
        raw.setdefault("routing", {})["pull_low_into_high"] = mode
        _profiles[mode] = Profile(raw)
    return _profiles[mode]


taus = st.none() | st.integers(0, 240)
ops = st.one_of(
    # a patient joins the general queue `step` minutes after the previous op
    st.tuples(st.just("enqueue"), st.sampled_from(sorted(CODE_RANK)), st.integers(0, 90)),
    # the idle high team polls its first queue `step` minutes later
    st.tuples(st.just("pick"), st.just(None), st.integers(0, 300)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PULL_MODES), taus, taus, st.integers(0, MINUTES_PER_DAY - 1),
       st.lists(ops, min_size=1, max_size=40))
def test_high_team_picks_what_the_reference_rule_picks(default_raw, mode, tau_g, tau_w,
                                                        start, operations):
    # the log streams to a file, so that it holds the records the picks add
    with tempfile.TemporaryDirectory() as tmp:
        rep = Replication(profile_for(default_raw, mode), Scenario(tau_g=tau_g, tau_w=tau_w),
                          rep_id=0, days=2, patients=(), log_path=Path(tmp) / "rep_00.csv")
        with closing(rep.log):
            _replay(rep, mode, tau_g, tau_w, start, operations)


def _replay(rep, mode, tau_g, tau_w, start, operations):
    """Apply `operations` to the general queue of `rep` from minute `start`,
    checking each pick of the high team H1 against the reference rule."""
    pool, queue = rep.pools["high_general"], rep.first_queues["general"]
    oracle = LinearPromotionQueue(tau_g, tau_w)
    now = start
    for pid, (op, code, step) in enumerate(operations):
        now += step
        if op == "enqueue":
            queue.enqueue(make_patient(pid, code), CODE_RANK[code], now)
            oracle.enqueue(pid, CODE_RANK[code], now)
            rep._waiting_first += 1
            continue
        want = reference_pick(oracle, mode, now)
        logged = len(rep.log.raw)
        rep._pick_task(pool, "H1", now, queue)
        # the buffered rep_id,time_min,patient_id,event,detail lines
        started = [int(pid) for _rep, _time, pid, event, _detail
                   in (line.split(",", 4) for line in rep.log.raw[logged:])
                   if event == "START_FIRST"]
        if want is None:
            assert started == [] and "H1" not in pool.busy
            continue
        oracle.remove(want)
        assert started == [want.entity], (mode, now)
        assert [it.entity.pid for it in queue.items] == [it.entity for it in oracle.items]
        pool.release("H1")
