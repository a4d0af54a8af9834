"""Replication harness: fan out seeded runs, collect KPI rows (and event
logs, when kept) and aggregate their KPI reports."""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor

from .kpi import aggregate, compute_kpis
from .model import run_replication
from .scenario import Scenario
from .stochastics import Profile


def run_scenario(profile: Profile, scen: Scenario, seed: int, replications: int,
                 days: int, jobs: int = 1, keep_logs: bool = False,
                 tapes: Sequence[Iterable[tuple]] | None = None):
    """Run all replications of one scenario; returns (aggregate report,
    per-replication logs). The aggregate's `vectors` hold every
    per-replication figure. Every log holds its KPI rows; only with
    `keep_logs` does it hold event records too.

    Replication i runs on `tapes[i]` (stochastics.PatientTape(profile, seed,
    i, days), or its rows) if `tapes` is given, else it draws the same
    patients itself. Either way replication i sees the same patients in
    every scenario, which gives common random numbers across a sweep.

    The pool starts no more workers than there are replications or CPUs
    (a fork pool starts all of them at its first submit), and none at all
    when that leaves one: the replications then run in this process."""
    tapes = tapes or [None] * replications
    workers = min(jobs, replications, os.cpu_count() or 1)
    if workers <= 1:
        logs = [run_replication(profile, scen, rep, seed, days, keep_log=keep_logs,
                                tape=tapes[rep])
                for rep in range(replications)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_replication, profile, scen, rep, seed, days, keep_log=keep_logs,
                            tape=tapes[rep])
                for rep in range(replications)
            ]
            logs = [f.result() for f in futures]
    return aggregate([compute_kpis(log.rows, days, profile.thresholds) for log in logs]), logs
