import gc
import tracemalloc
from concurrent.futures import Future

import pytest

import edsim.harness
from edsim.cli import main
from edsim.harness import run_scenario
from edsim.kernel import MINUTES_PER_DAY, EventLog
from edsim.kpi import NO_TIME, ROW_FIELDS, WARMUP_MIN, KpiReport, aggregate, compute_kpis
from edsim.model import Replication
from edsim.scenario import Scenario, parse
from edsim.stochastics import Profile

from log_oracle import rows_from_log_dir


def test_run_scenario_builds_no_profile(default_profile, monkeypatch):
    builds = []
    build = Profile.__init__

    def counting_build(self, raw):
        builds.append(raw)
        build(self, raw)

    monkeypatch.setattr(Profile, "__init__", counting_build)
    agg = run_scenario(default_profile, Scenario(), 5, 3, 1, jobs=1)
    assert len(agg.vectors["los"]) == 3 and builds == []


def test_jobs_do_not_change_kpi_rows(default_profile, tmp_path):
    scen = Scenario(tau_g=90, l=20)
    runs = []
    for jobs in (1, 2):
        log_dir = tmp_path / f"jobs{jobs}"
        log_dir.mkdir()
        agg = run_scenario(default_profile, scen, 5, 3, 1, jobs=jobs, log_dir=log_dir)
        runs.append((agg, rows_from_log_dir(log_dir, 3)))
    (agg1, rows1), (agg2, rows2) = runs
    assert rows1 == rows2
    assert agg1.vectors == agg2.vectors
    assert agg1.first_waits == agg2.first_waits
    assert agg1.to_dict() == agg2.to_dict()
    from_rows = aggregate([compute_kpis(rows, 1, default_profile.thresholds) for rows in rows1])
    assert from_rows.to_dict() == agg1.to_dict()
    assert from_rows.first_waits == agg1.first_waits


def test_horizon_is_warmup_plus_days(default_profile):
    rep = Replication(default_profile, Scenario(), 0, days=2, patients=())
    assert rep.horizon == WARMUP_MIN + 2 * MINUTES_PER_DAY


def test_n_admitted_counts_triaged_rows_after_the_warmup(default_profile, tmp_path):
    arrive, triage, dismissed = (ROW_FIELDS.index(f) for f in ("arrive", "triage", "dismissed"))
    agg = run_scenario(default_profile, Scenario(e=20), 5, 2, 1, log_dir=tmp_path)
    n_admitted = 0
    for rows in rows_from_log_dir(tmp_path, 2):
        report = compute_kpis(rows, 1, default_profile.thresholds)
        assert any(row[arrive] < WARMUP_MIN for row in rows)
        admitted = [row for row in rows if row[arrive] >= WARMUP_MIN
                    and row[triage] != NO_TIME and not row[dismissed]]
        assert report.n_admitted == len(admitted) > 0
        n_admitted += len(admitted)
    assert agg.n_admitted == n_admitted


class InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for, runs each submitted call at once, in this process, and
    records what each call returned."""

    max_workers: list[int] = []
    results: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        self.results.append(fn(*args, **kwargs))
        future = Future()
        future.set_result(self.results[-1])
        return future


@pytest.fixture()
def inline_pool(monkeypatch):
    monkeypatch.setattr(edsim.harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "max_workers", [])
    monkeypatch.setattr(InlinePool, "results", [])
    monkeypatch.setattr(edsim.harness.os, "cpu_count", lambda: 64)
    return InlinePool


@pytest.mark.parametrize(("jobs", "replications", "workers"),
                         [(4, 2, 2), (2, 3, 2), (3, 3, 3), (100_000, 2, 2)])
def test_pool_starts_no_more_workers_than_replications(default_profile, inline_pool,
                                                       jobs, replications, workers):
    agg = run_scenario(default_profile, Scenario(), 5, replications, 1, jobs=jobs)
    assert inline_pool.max_workers == [workers]
    assert len(inline_pool.results) == len(agg.vectors["los"]) == replications
    assert all(isinstance(r, KpiReport) for r in inline_pool.results)
    assert aggregate(inline_pool.results).to_dict() == agg.to_dict()


@pytest.mark.parametrize(("cpus", "pools"), [(2, [2]), (1, []), (None, [])])
def test_pool_starts_no_more_workers_than_cpus(default_profile, inline_pool, monkeypatch,
                                               cpus, pools):
    monkeypatch.setattr(edsim.harness.os, "cpu_count", lambda: cpus)
    agg = run_scenario(default_profile, Scenario(), 5, 4, 1, jobs=8)
    assert inline_pool.max_workers == pools
    assert len(agg.vectors["los"]) == 4
    assert len(inline_pool.results) == (4 if pools else 0)
    assert all(isinstance(r, KpiReport) for r in inline_pool.results)


def test_run_command_sizes_its_pool_to_its_replications(inline_pool, tmp_path):
    argv = ["run", "--replications", "2", "--days", "1", "--jobs", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert inline_pool.max_workers == [2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_log_is_written_before_the_next_replication_runs(default_profile, inline_pool,
                                                              monkeypatch, tmp_path, jobs):
    calls, reports = [], []
    run, write = edsim.harness.run_replication, EventLog.write_csv
    replicate = edsim.harness._replicate

    def running(profile, scen, rep, *args, **kwargs):
        calls.append(("run", rep))
        return run(profile, scen, rep, *args, **kwargs)

    def writing(log, path):
        calls.append(("write", log.rep_id))
        write(log, path)

    def replicating(*args):
        reports.append(replicate(*args))
        return reports[-1]

    monkeypatch.setattr(edsim.harness, "run_replication", running)
    monkeypatch.setattr(edsim.harness, "_replicate", replicating)
    monkeypatch.setattr(EventLog, "write_csv", writing)
    agg = run_scenario(default_profile, Scenario(), 5, 2, 1, jobs=jobs, log_dir=tmp_path)
    assert calls == [("run", 0), ("write", 0), ("run", 1), ("write", 1)]
    assert inline_pool.max_workers == ([2] if jobs == 2 else [])
    assert inline_pool.results == (reports if jobs == 2 else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep_00.csv", "rep_01.csv"]
    # each replication hands back its KPI report alone, never its rows or log
    assert len(reports) == 2 and all(type(r) is KpiReport for r in reports)
    assert all(len(xs) == 1 for r in reports for xs in r.vectors.values())
    thresholds = default_profile.thresholds
    assert [r.to_dict() for r in reports] == [
        compute_kpis(rows, 1, thresholds).to_dict() for rows in rows_from_log_dir(tmp_path, 2)]
    assert aggregate(reports).to_dict() == agg.to_dict()


def _peak_traced_mb(profile, days, log_dir) -> float:
    tracemalloc.start()
    try:
        edsim.harness._replicate(profile, parse("Cb.15"), 0, 42, days, log_dir, None)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_a_logged_replication_grows_by_its_kpi_rows_alone(default_profile, tmp_path):
    # It holds its in-flight patients, one KPI record per patient and its log
    # file's own buffer. Holding every patient and every record grows by ~0.47
    # MB per simulated day; the KPI records alone grow by ~0.009.
    short, long = (_peak_traced_mb(default_profile, days, tmp_path) for days in (16, 64))
    assert (long - short) / (64 - 16) < 0.15


def test_an_unlogged_replication_grows_by_its_packed_kpi_records_alone(default_profile):
    # ~245 patients a day at 36 B a record grow by ~0.009 MB per simulated
    # day; a tuple of nine ints per patient grew by ~0.074.
    short, long = (_peak_traced_mb(default_profile, days, None) for days in (16, 64))
    assert (long - short) / (64 - 16) < 0.015


def _peak_traced_run_mb(profile, replications) -> float:
    # A full collection empties the interpreter's free lists, so that
    # objects freed into them before tracing started cannot show up as
    # traced memory later in one measurement and not in the other.
    gc.collect()
    tracemalloc.start()
    try:
        run_scenario(profile, Scenario(), 42, replications, 8, jobs=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_a_run_holds_each_replication_as_its_report_alone(default_profile):
    # Replications run one after another at jobs=1, so the peak is one
    # replication's plus what the earlier ones left behind: their reports,
    # ~0.02 MB each at 8 days. Their KPI records would add ~0.15 MB each.
    run_scenario(default_profile, Scenario(), 42, 1, 8, jobs=1)  # one-time allocations
    one, four = (_peak_traced_run_mb(default_profile, n) for n in (1, 4))
    assert four - one < 0.1
