import tracemalloc
from concurrent.futures import Future

import pytest

import edsim.harness
from edsim.cli import main
from edsim.harness import run_scenario
from edsim.kernel import MINUTES_PER_DAY, EventLog
from edsim.kpi import NO_TIME, ROW_FIELDS, WARMUP_MIN, compute_kpis
from edsim.model import Replication
from edsim.scenario import Scenario, parse
from edsim.stochastics import Profile


def test_run_scenario_builds_no_profile(default_profile, monkeypatch):
    builds = []
    build = Profile.__init__

    def counting_build(self, raw):
        builds.append(raw)
        build(self, raw)

    monkeypatch.setattr(Profile, "__init__", counting_build)
    agg, _ = run_scenario(default_profile, Scenario(), 5, 3, 1, jobs=1)
    assert len(agg.vectors["los"]) == 3 and builds == []


def test_jobs_do_not_change_kpi_rows(default_profile):
    scen = Scenario(tau_g=90, l=20)
    agg1, rows1 = run_scenario(default_profile, scen, 5, 3, 1, jobs=1)
    agg2, rows2 = run_scenario(default_profile, scen, 5, 3, 1, jobs=2)
    assert rows1 == rows2
    assert agg1.vectors == agg2.vectors
    assert agg1.to_dict() == agg2.to_dict()


def test_horizon_is_warmup_plus_days(default_profile):
    rep = Replication(default_profile, Scenario(), 0, 5, days=2)
    assert rep.horizon == WARMUP_MIN + 2 * MINUTES_PER_DAY


def test_n_admitted_counts_triaged_rows_after_the_warmup(default_profile):
    arrive, triage, dismissed = (ROW_FIELDS.index(f) for f in ("arrive", "triage", "dismissed"))
    _, rows_per_rep = run_scenario(default_profile, Scenario(e=20), 5, 2, 1)
    for rows in rows_per_rep:
        report = compute_kpis(rows, 1, default_profile.thresholds)
        assert any(row[arrive] < WARMUP_MIN for row in rows)
        admitted = [row for row in rows if row[arrive] >= WARMUP_MIN
                    and row[triage] != NO_TIME and not row[dismissed]]
        assert report.n_admitted == len(admitted) > 0


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and runs each submitted call at once, in this process."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.fixture()
def inline_pool(monkeypatch):
    monkeypatch.setattr(edsim.harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "max_workers", [])
    monkeypatch.setattr(edsim.harness.os, "cpu_count", lambda: 64)
    return InlinePool


@pytest.mark.parametrize(("jobs", "replications", "workers"),
                         [(4, 2, 2), (2, 3, 2), (3, 3, 3), (100_000, 2, 2)])
def test_pool_starts_no_more_workers_than_replications(default_profile, inline_pool,
                                                       jobs, replications, workers):
    agg, rows = run_scenario(default_profile, Scenario(), 5, replications, 1, jobs=jobs)
    assert inline_pool.max_workers == [workers]
    assert len(rows) == len(agg.vectors["los"]) == replications


@pytest.mark.parametrize(("cpus", "pools"), [(2, [2]), (1, []), (None, [])])
def test_pool_starts_no_more_workers_than_cpus(default_profile, inline_pool, monkeypatch,
                                               cpus, pools):
    monkeypatch.setattr(edsim.harness.os, "cpu_count", lambda: cpus)
    agg, rows = run_scenario(default_profile, Scenario(), 5, 4, 1, jobs=8)
    assert inline_pool.max_workers == pools
    assert len(rows) == len(agg.vectors["los"]) == 4


def test_run_command_sizes_its_pool_to_its_replications(inline_pool, tmp_path):
    argv = ["run", "--replications", "2", "--days", "1", "--jobs", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert inline_pool.max_workers == [2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_log_is_written_before_the_next_replication_runs(default_profile, inline_pool,
                                                              monkeypatch, tmp_path, jobs):
    calls = []
    run, write = edsim.harness.run_replication, EventLog.write_csv

    def running(profile, scen, rep, *args, **kwargs):
        calls.append(("run", rep))
        return run(profile, scen, rep, *args, **kwargs)

    def writing(log, path):
        calls.append(("write", log.rep_id))
        write(log, path)

    monkeypatch.setattr(edsim.harness, "run_replication", running)
    monkeypatch.setattr(EventLog, "write_csv", writing)
    agg, rows = run_scenario(default_profile, Scenario(), 5, 2, 1, jobs=jobs, log_dir=tmp_path)
    assert calls == [("run", 0), ("write", 0), ("run", 1), ("write", 1)]
    assert inline_pool.max_workers == ([2] if jobs == 2 else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep_00.csv", "rep_01.csv"]
    assert all(isinstance(r, list) and r and all(isinstance(row, tuple) for row in r)
               for r in rows)
    assert len(agg.vectors["los"]) == 2


def _peak_traced_mb(profile, days, log_dir) -> float:
    tracemalloc.start()
    try:
        edsim.harness._replicate(profile, parse("Cb.15"), 0, 42, days, str(log_dir), None)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_a_logged_replication_grows_by_its_kpi_rows_alone(default_profile, tmp_path):
    # It holds its in-flight patients, one KPI row per patient and one chunk
    # of its log. Holding every patient and every record grows by ~0.47
    # MB per simulated day; the KPI rows alone grow by ~0.06.
    short, long = (_peak_traced_mb(default_profile, days, tmp_path) for days in (16, 64))
    assert (long - short) / (64 - 16) < 0.15
