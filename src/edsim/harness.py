"""Replication harness: fan out seeded runs, write their event logs and
reduce them to KPI reports where they ran, and aggregate those reports.

Only a run that pools imports concurrent.futures (and with it
multiprocessing), so a run that does not pool never loads them."""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

from .kpi import KpiReport, aggregate, compute_kpis
from .model import run_replication
from .scenario import Scenario
from .stochastics import Profile

# The pool class run_scenario builds; None stands for
# concurrent.futures.ProcessPoolExecutor, imported by each run that pools.
ProcessPoolExecutor = None


def _replicate(profile: Profile, scen: Scenario, rep: int, seed: int, days: int,
               log_dir, tape) -> KpiReport:
    """Run replication `rep` and return its KPI report. With `log_dir` it
    streams the event log to `log_dir/rep_NN.csv`, which the run ends. Both
    happen in the process that runs it, so neither the log nor the KPI rows
    outlive the replication or cross processes."""
    path = None if log_dir is None else os.path.join(log_dir, f"rep_{rep:02d}.csv")
    return compute_kpis(run_replication(profile, scen, rep, seed, days, tape=tape, log_path=path),
                        days, profile.thresholds)


def run_scenario(profile: Profile, scen: Scenario, seed: int, replications: int,
                 days: int, jobs: int = 1, log_dir=None,
                 tapes: Sequence[Iterable[tuple]] | None = None) -> KpiReport:
    """Run all replications of one scenario and return their aggregate KPI
    report, whose `vectors` hold every per-replication figure. With
    `log_dir` (an existing directory), replication r also writes its event
    log to `log_dir/rep_NN.csv`.

    Replication i runs on `tapes[i]` (stochastics.PatientTape(profile, seed,
    i, days), or its rows) if `tapes` is given, else it draws the same
    patients itself. Either way replication i sees the same patients in
    every scenario, which gives common random numbers across a sweep.

    The pool starts no more workers than there are replications or CPUs
    (a fork pool starts all of them at its first submit), and none at all
    when that leaves one: the replications then run in this process. The
    first replication that raises cancels those not yet started, and its
    exception is raised here."""
    tapes = tapes or [None] * replications
    calls = [(profile, scen, rep, seed, days, log_dir, tapes[rep]) for rep in range(replications)]
    workers = min(jobs, replications, os.cpu_count() or 1)
    if workers <= 1:
        reports = [_replicate(*call) for call in calls]
    else:
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor as default_pool, wait
        with (ProcessPoolExecutor or default_pool)(max_workers=workers) as pool:
            futures = [pool.submit(_replicate, *call) for call in calls]
            done, pending = wait(futures, return_when=FIRST_EXCEPTION)
            if pending:  # some replication raised
                pool.shutdown(cancel_futures=True)
                raise next(f.exception() for f in futures if f in done and f.exception())
            reports = [f.result() for f in futures]
    return aggregate(reports)
