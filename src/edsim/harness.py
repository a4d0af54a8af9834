"""Replication harness: fan out seeded runs, collect KPI rows (and event
logs, when kept) and KPI reports."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from .kernel import EventLog
from .kpi import aggregate, compute_kpis
from .model import DEFAULT_WARMUP_DAYS, run_replication
from .scenario import Scenario
from .stochastics import Profile


def run_scenario(profile: Profile, scen: Scenario, seed: int, replications: int,
                 days: int, jobs: int = 1, warmup_days: int = DEFAULT_WARMUP_DAYS,
                 keep_logs: bool = False):
    """Run all replications of one scenario; returns (aggregate report,
    per-replication reports, per-replication logs). Every log holds its
    KPI rows; only with `keep_logs` does it hold event records too.

    Replication i always uses the same substreams regardless of the scenario,
    which gives common random numbers across a sweep."""
    logs = _run_all(profile, scen, seed, replications, days, jobs, warmup_days, keep_logs)
    reports = [
        compute_kpis(log.rows, days, profile.thresholds,
                     warmup_min=warmup_days * 1440)
        for log in logs
    ]
    agg = aggregate(reports)
    return agg, reports, logs


def _run_all(profile: Profile, scen: Scenario, seed: int, replications: int,
             days: int, jobs: int, warmup_days: int, keep_logs: bool) -> list[EventLog]:
    if jobs <= 1 or replications == 1:
        return [run_replication(profile.raw, scen, rep, seed, days, warmup_days,
                                keep_log=keep_logs)
                for rep in range(replications)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(run_replication, profile.raw, scen, rep, seed, days, warmup_days,
                        keep_log=keep_logs)
            for rep in range(replications)
        ]
        return [f.result() for f in futures]
