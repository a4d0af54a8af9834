"""The patient tape: one replication's patients, drawn once and shared by
every scenario.

A run from a tape must equal a run that draws its patients as they arrive
(the golden logs pin that path), must leave the tape as it found it, and
every scenario of a sweep must see the same patients."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsim import stochastics
from edsim.harness import run_scenario
from edsim.kpi import ROW_FIELDS
from edsim.model import Replication, run_replication
from edsim.scenario import Scenario, parse
from edsim.stochastics import SERVICES, ArrivalSampler, PatientTape, Profile, draw_patients

import tape_oracle
from conftest import make_mini_raw
from log_oracle import rows_from_log_dir, run_drained

SEEDS = (42, 2020, 7)
DAYS = 2
# B.1 last visit first, C.3 promotions, E.3 dismissal at triage (e>0),
# D.2 lab at triage (l>0), F.1 dedicated last-visit teams (a>0)
SPECS = ("baseline", "B.1", "C.3", "E.3", "D.2", "F.1", "Cb.15")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS)
def test_run_from_tape_equals_run_without_one(default_profile, spec, seed, tmp_path):
    scenario = parse(spec)
    tape = list(draw_patients(default_profile, seed, 1, DAYS))
    before = copy.deepcopy(tape)
    drawn = run_replication(default_profile, scenario, 1, seed, DAYS,
                            log_path=tmp_path / "drawn.csv")
    taped = run_replication(default_profile, scenario, 1, seed, DAYS, tape=tape,
                            log_path=tmp_path / "taped.csv")
    assert taped == drawn
    assert (tmp_path / "taped.csv").read_bytes() == (tmp_path / "drawn.csv").read_bytes()
    assert tape == before


@pytest.mark.parametrize("seed", SEEDS)
def test_drained_run_from_tape_equals_run_without_one(default_profile, seed, tmp_path):
    tape = PatientTape(default_profile, seed, 0, DAYS)
    data = tape.data
    drawn = run_drained(Replication(default_profile, parse("C.3"), 0, DAYS,
                                    draw_patients(default_profile, seed, 0, DAYS),
                                    log_path=tmp_path / "drawn.csv"))
    taped = run_drained(Replication(default_profile, parse("C.3"), 0, DAYS, tape,
                                    log_path=tmp_path / "taped.csv"))
    assert taped == drawn
    assert (tmp_path / "taped.csv").read_bytes() == (tmp_path / "drawn.csv").read_bytes()
    assert tape.data == data
    assert list(tape) == list(draw_patients(default_profile, seed, 0, DAYS))


@pytest.mark.parametrize("seed", SEEDS)
def test_tape_equals_the_oracle_on_the_default_profile(default_profile, seed):
    assert (list(draw_patients(default_profile, seed, 3, DAYS))
            == list(tape_oracle.draw_patients(default_profile, seed, 3, DAYS)))


@st.composite
def mini_profiles(draw, base):
    red = draw(st.sampled_from([0.0, 0.1, 0.6]))
    yellow = draw(st.sampled_from([0.0, 0.3]))
    green = (1.0 - red - yellow) * draw(st.sampled_from([0.0, 0.5, 1.0]))
    raw = make_mini_raw(
        base, codes={"RED": red, "YELLOW": yellow, "GREEN": green,
                     "WHITE": 1.0 - red - yellow - green},
        needs_lab=draw(st.sampled_from([0.0, 0.54, 1.0])),
        xray=draw(st.sampled_from([0.0, 0.57, 1.0])),
        exam_lt4=draw(st.sampled_from([1.0, 0.85, 0.2])),
        visit_general=draw(st.sampled_from([1.0, 0.79, 0.0])))
    raw["mixes"]["nonwalking_yellow"] = draw(st.sampled_from([0.0, 0.5, 1.0]))
    for name in SERVICES:
        raw["service"][name] = {"family": draw(st.sampled_from(["lognormal", "triangular"])),
                                "mean": draw(st.sampled_from([0.4, 3.0, 25.0])),
                                "cv": draw(st.sampled_from([0.0, 0.3, 1.5]))}
    return Profile(raw)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 50),
       days=st.integers(1, 3))
def test_tape_equals_the_oracle_row_for_row(default_raw, data, seed, rep, days):
    profile = data.draw(mini_profiles(default_raw))
    rows = list(draw_patients(profile, seed, rep, days))
    assert rows == list(tape_oracle.draw_patients(profile, seed, rep, days))
    assert len(rows) > 100


@pytest.mark.parametrize("block", [1, 7, stochastics.TAPE_BLOCK, "to the horizon"])
def test_tape_drawn_in_blocks_equals_the_oracle(default_profile, block, monkeypatch):
    oracle = list(tape_oracle.draw_patients(default_profile, 2020, 1, DAYS))
    if block == "to the horizon":  # one full block that ends with the last row
        block = len(oracle)
    monkeypatch.setattr(stochastics, "TAPE_BLOCK", block)
    assert list(draw_patients(default_profile, 2020, 1, DAYS)) == oracle


def test_tape_holds_at_most_one_block(default_profile, monkeypatch):
    calls = 0
    interarrival = ArrivalSampler.sample_interarrival

    def counted(*args):
        nonlocal calls
        calls += 1
        return interarrival(*args)

    monkeypatch.setattr(ArrivalSampler, "sample_interarrival", counted)
    rows = draw_patients(default_profile, 42, 0, 30)
    next(rows)
    assert calls <= stochastics.TAPE_BLOCK + 1
    read = 1
    for read, _ in enumerate(rows, start=2):
        assert calls <= read + stochastics.TAPE_BLOCK
    assert read > 7000 and calls == read + 1


def test_tape_stops_before_the_horizon(default_profile):
    rows = list(draw_patients(default_profile, 42, 0, 1))
    minutes = [row[0] for row in rows]
    assert minutes == sorted(minutes)
    assert len(rows) > 300 and minutes[-1] <= 2 * 1440


def test_arrival_draws_go_through_the_sampler_class(default_profile, monkeypatch):
    # one sample_interarrival and one draw_code per arrival, plus one each for
    # the draw past the horizon; a tracer that wraps the class methods counts
    # exactly these calls
    calls = {"sample_interarrival": 0, "draw_code": 0}
    for name in calls:
        def counted(*args, fn=getattr(ArrivalSampler, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(ArrivalSampler, name, counted)
    rows = list(draw_patients(default_profile, 42, 0, 2))
    assert calls == {"sample_interarrival": len(rows) + 1, "draw_code": len(rows) + 1}


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_scenario_of_a_sweep_reads_one_tape(default_profile, jobs, tmp_path):
    arrive, rank = ROW_FIELDS.index("arrive"), ROW_FIELDS.index("rank")
    tapes = [PatientTape(default_profile, 2020, rep, DAYS) for rep in range(2)]

    def columns(scenario, name, tapes=None):
        """(arrive, rank) of every patient of each replication, from its log."""
        log_dir = tmp_path / name
        log_dir.mkdir()
        run_scenario(default_profile, scenario, 2020, 2, DAYS, jobs=jobs, log_dir=log_dir,
                     tapes=tapes)
        return [[(row[arrive], row[rank]) for row in rows]
                for rows in rows_from_log_dir(log_dir, 2)]

    by_spec = {spec: columns(parse(spec), spec, tapes) for spec in SPECS}
    first = by_spec["baseline"]
    assert first[0] != first[1] and all(len(col) > 300 for col in first)
    assert all(col == first for col in by_spec.values())
    assert columns(Scenario(), "drawn") == first
