"""Seedable discrete-event simulation of emergency-department patient flow,
with a scenario catalog, KPI replication statistics and a calibration harness."""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no linear algebra, so no BLAS thread

from .kernel import EventCalendar, EventLog, PromotionQueue, ResourcePool, ShiftCalendar, rng_stream
from .kpi import KpiReport, aggregate, compare, compute_kpis
from .model import Replication, run_replication
from .scenario import Scenario, catalog, parse
from .stochastics import Profile, default_profile_path, load_profile

__version__ = "0.1.0"

__all__ = [
    "EventCalendar", "EventLog", "PromotionQueue", "ResourcePool", "rng_stream",
    "ShiftCalendar", "KpiReport", "aggregate", "compare", "compute_kpis",
    "Replication", "run_replication", "Scenario", "catalog", "parse",
    "Profile", "default_profile_path", "load_profile", "__version__",
]
