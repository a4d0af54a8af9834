"""In-memory spans and counters around edsim's public functions.

`install` patches the public functions and methods of each edsim module from
outside the package; the program's own files stay untouched. Two kinds of
record are kept, both in memory until the iteration ends:

* Spans (name, pid, start, end, parent) around coarse calls: scenarios,
  replications, profile builds, KPI extraction, report writing.
* Counters around per-event hooks (calendar, pools, queues, event log,
  samplers). They count every call and time only one call in SAMPLE_EVERY,
  so tracing stays cheap; a layer's time is estimated as the mean sampled
  call time, less what the timing itself adds, times the call count.

`calibrate` times empty calls through the same hooks, in the same process,
to size those costs: what a timed call adds inside its own interval, and
what each hook adds to the replication around it. Both are subtracted
before the layer figures are reported.

Replications that run in pool workers record into the worker's copy of the
tracer; `TracedPool` ships that copy back with each result and the
submitting process merges it under the span that submitted the work.
"""

from __future__ import annotations

import functools
import os
import pickle
import statistics
import time
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing.reduction import ForkingPickler

SAMPLE_EVERY = 32

_active: Tracer | None = None


class Tracer:
    def __init__(self) -> None:
        self.counters: dict[str, list] = {}  # name -> [calls, sampled_s, sampled_calls]
        self.totals: dict[str, float] = {}
        self.spans: list = []  # (name, pid, start, end, parent index or None)
        self._stack: list[int] = []
        self._pending: list = []  # (worker export, parent span) from pool threads
        self.in_lab = 0
        self.hooks: dict[str, bool] = {}  # hook counter name -> timed
        self.timer_s = 0.0  # what timing adds to one sampled call; set by calibrate

    def counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0, 0])

    def add(self, name: str, amount: float) -> None:
        self.totals[name] = self.totals.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.counters.get(name, [0])[0]

    def estimated_s(self, name: str) -> float:
        calls, sampled_s, sampled = self.counters.get(name, [0, 0.0, 0])
        return max(0.0, sampled_s / sampled - self.timer_s) * calls if sampled else 0.0

    def reset(self) -> None:
        """Zero every record in place; the installed hooks keep their lists."""
        for c in self.counters.values():
            c[:] = [0, 0.0, 0]
        self.totals.clear()
        self.spans.clear()
        self._stack.clear()
        self._pending.clear()
        self.in_lab = 0

    def export(self) -> dict:
        return {"counters": self.counters, "totals": self.totals, "spans": self.spans}

    def merge_pending(self) -> None:
        """Fold worker records into this tracer; call from the main thread."""
        while self._pending:
            delta, parent = self._pending.pop(0)
            for name, (calls, sampled_s, sampled) in delta["counters"].items():
                c = self.counter(name)
                c[0] += calls
                c[1] += sampled_s
                c[2] += sampled
            for name, amount in delta["totals"].items():
                self.add(name, amount)
            base = len(self.spans)
            for name, pid, start, end, p in delta["spans"]:
                self.spans.append((name, pid, start, end, parent if p is None else base + p))

    def current_span(self) -> int | None:
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------- wrappers

    def span(self, name: str, fn, after=None):
        """Full span around every call; `after(args, kwargs, seconds)` may add
        totals."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.current_span()
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, os.getpid(), start, end, parent)
            if after is not None:
                after(args, kwargs, end - start)
            return result

        return wrapper

    def hook(self, name: str, fn, timed: bool = True):
        """Count every call; time one in SAMPLE_EVERY when `timed`."""
        c = self.counter(name)
        self.hooks[name] = timed
        if not timed:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                c[0] += 1
                return fn(*args, **kwargs)

            return count_only

        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            c[0] += 1
            if c[0] % SAMPLE_EVERY:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c[1] += time.perf_counter() - start
                c[2] += 1

        return sampled


def _noop(*args, **kwargs):
    return None


def calibrate(rounds: int = 5, calls: int = SAMPLE_EVERY * 2048) -> dict[str, float]:
    """Per-call cost of the hooks, from empty calls in this process (the
    fastest of `rounds` rounds):

    * timer_s: what timing adds inside a sampled call's own interval (the
      timer reads and try/finally), over a plain call of the same function;
    * sampled_s, count_s: what a timed hook and a count-only hook add to
      each call, on average, to the code around it."""
    probe = Tracer()
    sampled = probe.hook("sampled", _noop)
    count_only = probe.hook("count", _noop, timed=False)
    c = probe.counter("sampled")
    best = dict.fromkeys(("loop", "direct", "sampled", "count", "timed"), float("inf"))
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            pass
        best["loop"] = min(best["loop"], (time.perf_counter() - start) / calls)
        for key, fn in (("direct", _noop), ("sampled", sampled), ("count", count_only)):
            c[:] = [0, 0.0, 0]
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[key] = min(best[key], (time.perf_counter() - start) / calls)
            if key == "sampled":
                best["timed"] = min(best["timed"], c[1] / c[2])
    empty_call = best["direct"] - best["loop"]
    return {"timer_s": max(0.0, best["timed"] - empty_call),
            "sampled_s": max(0.0, best["sampled"] - best["direct"]),
            "count_s": max(0.0, best["count"] - best["direct"])}


def _worker_call(fn, args, kwargs):
    """Run one submitted call in a pool worker and return its pickled result
    (the bytes the pool would have shipped) with the worker's records."""
    tracer = _active
    if tracer is None:  # spawn start method: the hooks did not come with fork
        tracer = install(Tracer())
    tracer.reset()
    result = fn(*args, **kwargs)
    return bytes(ForkingPickler.dumps(result)), tracer.export()


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that counts pool starts and brings worker records
    back to the submitting process."""

    def __init__(self, *args, **kwargs):
        _active.counter("harness.pool_start")[0] += 1
        super().__init__(*args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        tracer = _active
        parent = tracer.current_span()
        outer: Future = Future()
        inner = super().submit(_worker_call, fn, args, kwargs)

        def unpack(f: Future) -> None:
            try:
                payload, delta = f.result()
            except BaseException as exc:  # re-raised to the caller of outer.result()
                outer.set_exception(exc)
                return
            delta["totals"]["harness.result_bytes"] = len(payload)
            tracer._pending.append((delta, parent))
            outer.set_result(pickle.loads(payload))

        inner.add_done_callback(unpack)
        return outer


def _file_bytes(path) -> float:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> Tracer:
    """Patch edsim's public functions so that calls record into `tracer`."""
    global _active
    _active = tracer
    import edsim.cli as cli
    import edsim.harness as harness
    import edsim.kernel as kernel
    import edsim.model as model
    import edsim.stochastics as st

    t = tracer
    # kernel: per-event hooks
    kernel.EventCalendar.schedule = t.hook("kernel.schedule", kernel.EventCalendar.schedule)
    kernel.EventCalendar.pop = t.hook("kernel.pop", kernel.EventCalendar.pop)
    kernel.ResourcePool.on_shift = t.hook("kernel.on_shift", kernel.ResourcePool.on_shift)
    kernel.ResourcePool.seize = t.hook("kernel.seize", kernel.ResourcePool.seize)
    kernel.ResourcePool.release = t.hook("kernel.release", kernel.ResourcePool.release)
    kernel.ShiftCalendar.teams_on = t.hook("kernel.teams_on", kernel.ShiftCalendar.teams_on,
                                           timed=False)
    for name in ("enqueue", "remove", "mark_promotions", "has_rank_at_most"):
        setattr(kernel.PromotionQueue, name,
                t.hook("kernel.queue_other", getattr(kernel.PromotionQueue, name)))
    peek = t.hook("kernel.peek", kernel.PromotionQueue.peek_next)
    scan = t.counter("kernel.queue_scan_items")

    @functools.wraps(kernel.PromotionQueue.peek_next)
    def peek_next(self, *args, **kwargs):
        scan[0] += len(self.items)
        return peek(self, *args, **kwargs)

    kernel.PromotionQueue.peek_next = peek_next
    kernel.EventLog.add = t.hook("kernel.log_add", kernel.EventLog.add)
    kernel.EventLog.write_csv = t.span(
        "kernel.write_csv", kernel.EventLog.write_csv,
        after=lambda args, kwargs, s: t.add("kernel.log_csv_bytes", _file_bytes(args[1])))

    # stochastics
    st.Profile.__init__ = t.span("stochastics.profile_build", st.Profile.__init__)
    st.ArrivalSampler.sample_interarrival = t.hook("stochastics.interarrival",
                                                   st.ArrivalSampler.sample_interarrival)
    st.ArrivalSampler.draw_code = t.hook("stochastics.draw_code", st.ArrivalSampler.draw_code)
    st.ArrivalSampler.rate_at = t.hook("stochastics.rate_at", st.ArrivalSampler.rate_at,
                                       timed=False)
    service = t.hook("stochastics.service", st.ServiceSpec.from_normal)
    plain_from_normal = st.ServiceSpec.from_normal

    @functools.wraps(plain_from_normal)
    def from_normal(self, z):
        # lab_components draws through from_normal too; those are lab draws
        return plain_from_normal(self, z) if t.in_lab else service(self, z)

    st.ServiceSpec.from_normal = from_normal
    lab = t.hook("stochastics.lab", st.lab_components)

    @functools.wraps(st.lab_components)
    def lab_components(*args, **kwargs):
        t.in_lab += 1
        try:
            return lab(*args, **kwargs)
        finally:
            t.in_lab -= 1

    st.lab_components = model.lab_components = lab_components

    # model and harness
    rep = t.span("model.run_replication", model.run_replication)
    model.run_replication = harness.run_replication = rep
    harness.ProcessPoolExecutor = TracedPool
    # run_scenario(profile, scen, seed, replications, days, jobs=1, ...)
    cli.run_scenario = t.span(
        "harness.run_scenario", cli.run_scenario,
        after=lambda args, kwargs, s: t.add(
            "harness.jobs_x_scenario_s", s * kwargs.get("jobs", args[5] if len(args) > 5 else 1)))

    # kpi
    harness.compute_kpis = t.span("kpi.compute_kpis", harness.compute_kpis,
                                  after=lambda args, kwargs, s: t.add("kpi.records_parsed", len(args[0])))
    harness.aggregate = t.span("kpi.aggregate", harness.aggregate)
    cli.compare = t.span("kpi.compare", cli.compare)

    # report
    for name in ("write_report_json", "write_comparison_csv", "write_kpi_svg"):
        setattr(cli, name, t.span("report.write", getattr(cli, name),
                                  after=lambda args, kwargs, s: t.add("report.bytes", _file_bytes(args[0]))))
    return tracer


def _span_seconds(tracer: Tracer, name: str, parent_name: str | None = None) -> list[float]:
    out = []
    for span_name, _pid, start, end, parent in tracer.spans:
        if span_name != name:
            continue
        if parent_name is not None and (parent is None or tracer.spans[parent][0] != parent_name):
            continue
        out.append(end - start)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced command (set-up figures excluded)."""
    tracer.merge_pending()
    t = tracer
    cost = calibrate()
    t.timer_s = cost["timer_s"]
    # every hook runs inside a replication; peek_next, from_normal and
    # lab_components each pass one more, count-only, wrapper
    hooks_s = sum(t.calls(name) * (cost["sampled_s"] if timed else cost["count_s"])
                  for name, timed in t.hooks.items())
    hooks_s += cost["count_s"] * sum(t.calls(name) for name in
                                     ("kernel.peek", "stochastics.service", "stochastics.lab"))
    rep_s = _span_seconds(t, "model.run_replication")
    events = t.calls("kernel.pop")
    calendar_s = t.estimated_s("kernel.schedule") + t.estimated_s("kernel.pop")
    queue_s = t.estimated_s("kernel.peek") + t.estimated_s("kernel.queue_other")
    pool_s = sum(t.estimated_s(n) for n in ("kernel.on_shift", "kernel.seize", "kernel.release"))
    log_add_s = t.estimated_s("kernel.log_add")
    arrival_s = t.estimated_s("stochastics.interarrival") + t.estimated_s("stochastics.draw_code")
    draw_s = t.estimated_s("stochastics.service") + t.estimated_s("stochastics.lab")
    builds_in_reps = sum(_span_seconds(t, "stochastics.profile_build", "model.run_replication"))
    children_s = calendar_s + queue_s + pool_s + log_add_s + arrival_s + draw_s + builds_in_reps
    builds = _span_seconds(t, "stochastics.profile_build")
    polls = t.calls("kernel.on_shift")
    return {
        "harness.pool_starts": t.calls("harness.pool_start"),
        "harness.parallel_efficiency": _ratio(sum(rep_s), t.totals.get("harness.jobs_x_scenario_s", 0)),
        "harness.result_bytes": t.totals.get("harness.result_bytes", 0),
        "model.replications": len(rep_s),
        "model.replication_s.p50": statistics.median(rep_s) if rep_s else 0.0,
        "model.replication_s.max": max(rep_s, default=0.0),
        "model.self_s": sum(rep_s) - children_s - hooks_s,
        "model.events": events,
        "model.events_per_s": _ratio(events, sum(rep_s)),
        "kernel.team_polls": polls,
        "kernel.seizes": t.calls("kernel.seize"),
        "kernel.poll_hit_ratio": _ratio(t.calls("kernel.seize"), polls),
        "kernel.teams_on_calls": t.calls("kernel.teams_on"),
        "kernel.queue_peeks": t.calls("kernel.peek"),
        "kernel.queue_scan_items": t.calls("kernel.queue_scan_items"),
        "kernel.queue_s": queue_s,
        "kernel.pool_s": pool_s,
        "kernel.calendar_ops": t.calls("kernel.schedule") + events,
        "kernel.calendar_s": calendar_s,
        "kernel.log_adds": t.calls("kernel.log_add"),
        "kernel.log_add_s": log_add_s,
        "kernel.log_csv_s": sum(_span_seconds(t, "kernel.write_csv")),
        "kernel.log_csv_bytes": t.totals.get("kernel.log_csv_bytes", 0),
        "stochastics.profile_builds": len(builds),
        "stochastics.profile_build_s": sum(builds),
        "stochastics.interarrival_calls": t.calls("stochastics.interarrival"),
        "stochastics.thinning_accept_ratio": _ratio(t.calls("stochastics.interarrival"),
                                                    t.calls("stochastics.rate_at")),
        "stochastics.arrival_s": arrival_s,
        "stochastics.service_draws": t.calls("stochastics.service"),
        "stochastics.lab_draws": t.calls("stochastics.lab"),
        "kpi.compute_kpis_s": sum(_span_seconds(t, "kpi.compute_kpis")),
        "kpi.records_parsed": t.totals.get("kpi.records_parsed", 0),
        "kpi.aggregate_s": sum(_span_seconds(t, "kpi.aggregate")),
        "kpi.compare_s": sum(_span_seconds(t, "kpi.compare")),
        "report.write_s": sum(_span_seconds(t, "report.write")),
        "report.bytes": t.totals.get("report.bytes", 0),
        "trace.hooks_s": hooks_s,
    }
