"""edsim benchmark: run one workload for a while, check it, print its metrics.

    python3 perfbench/run.py --workload run_logged --seed 42 --seconds 40 --trace 0

Run from the root of a checkout. Each iteration is one fresh interpreter
(perfbench/child.py, PYTHONPATH=src) that sets up, runs one `edsim` command
through `edsim.cli.main` and checks its outputs; iterations repeat until
--seconds have been measured. Set-up and command times are scaled to the
reference CPU speed sampled while they ran (speed.py), so that a shared
host's slow spells do not show as the program's. The program receives only
its CLI flags and `--seed`. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run alternates untraced and
traced iterations, so the tracing overhead is measured in the same run.

Workloads (the why of each is in BENCHMARK.json):
  sweep       edsim sweep over the whole catalog + baseline, 2 short
              replications, --jobs 2: harness fan-out, compare, reports
  run_logged  edsim run --scenario Cb.15 --jobs 1: event logs written as CSV
  validate    edsim validate, baseline only, long horizon, --jobs 1, no logs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 42  # edsim's own default --seed
HELD_OUT_SEED = 2020
HARD_LIMIT_S = 170  # a run must end within 180 s whatever the children do


def _spec(kind: str, replications: int, days: int, jobs: int, scenarios: int,
          exit_codes: list[int], scenario: str | None = None) -> dict:
    argv = [kind] + (["--scenario", scenario] if scenario else [])
    argv += ["--replications", str(replications), "--days", str(days), "--jobs", str(jobs)]
    return {"kind": kind, "argv": argv, "replications": replications, "days": days,
            "jobs": jobs, "scenarios": scenarios, "exit_codes": exit_codes, "scenario": scenario}


# Sizes keep one iteration at 4-12 s on 2 cores, so a run holds several.
WORKLOADS = {
    # validate exits 1 when a short run misses a tolerance band: a verdict, not a fault
    "validate": _spec("validate", replications=2, days=30, jobs=1, scenarios=1, exit_codes=[0, 1]),
    "sweep": _spec("sweep", replications=2, days=1, jobs=2, scenarios=43, exit_codes=[0]),
    "run_logged": _spec("run", replications=2, days=30, jobs=1, scenarios=1, exit_codes=[0],
                        scenario="Cb.15"),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "rep_days_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "harness.pool_starts": "count",
    "harness.parallel_efficiency": "ratio",
    "harness.result_bytes": "B",
    "model.replications": "count",
    "model.replication_s.p50": "s",
    "model.replication_s.max": "s",
    "model.self_s": "s",
    "model.events": "count",
    "model.events_per_s": "1/s",
    "kernel.team_polls": "count",
    "kernel.seizes": "count",
    "kernel.poll_hit_ratio": "ratio",
    "kernel.teams_on_calls": "count",
    "kernel.queue_peeks": "count",
    "kernel.queue_scan_items": "count",
    "kernel.queue_s": "s",
    "kernel.pool_s": "s",
    "kernel.calendar_ops": "count",
    "kernel.calendar_s": "s",
    "kernel.log_adds": "count",
    "kernel.log_add_s": "s",
    "kernel.log_csv_s": "s",
    "kernel.log_csv_bytes": "B",
    "stochastics.profile_builds": "count",
    "stochastics.profile_build_s": "s",
    "stochastics.interarrival_calls": "count",
    "stochastics.thinning_accept_ratio": "ratio",
    "stochastics.arrival_s": "s",
    "stochastics.service_draws": "count",
    "stochastics.lab_draws": "count",
    "kpi.compute_kpis_s": "s",
    "kpi.records_parsed": "count",
    "kpi.aggregate_s": "s",
    "kpi.compare_s": "s",
    "report.write_s": "s",
    "report.bytes": "B",
    "cli.import_s": "s",
    "cli.profile_load_s": "s",
    "trace.hooks_s": "s",
    "trace.overhead_s": "s",
}


def ops(spec: dict) -> int:
    """Scenario-replications one command runs."""
    return spec["scenarios"] * spec["replications"]


def run_child(root: Path, spec: dict, seed: int, trace: bool, work: Path, deadline: float) -> dict:
    """One iteration in a fresh interpreter; every process it starts has ended
    when this returns."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    result = work / "result.json"
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec), str(seed), str(out),
           str(result), "1" if trace else "0"]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stderr = b"timed out"
    finally:
        try:  # pool workers share the child's session and process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError):
        record = {"error": f"child exited {proc.returncode}: "
                           f"{stderr.decode(errors='replace')[-2000:]}"}
    shutil.rmtree(out, ignore_errors=True)
    return record


def judge(records: list[dict], spec: dict, reference: dict | None) -> int:
    """Failed scenario-replications among the iterations in `records`.

    An iteration fails when it raised, ended with an unexpected exit code,
    produced malformed outputs, or its output digest differs from the golden
    one for this seed (or, for a seed with no golden entry, from the first
    good iteration of this run). Every replication of a failed iteration
    counts as failed."""
    if reference is None:
        good = [r for r in records if r.get("error") is None]
        reference = good[0] if good else {"digest": None, "exit_code": None}
    ok = sum(1 for r in records
             if r.get("error") is None and r["digest"] == reference["digest"]
             and r["exit_code"] == reference["exit_code"])
    return ops(spec) * (len(records) - ok)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(root: Path, spec: dict, seed: int, seconds: float, trace: bool, work: Path,
            reference: dict | None = None) -> dict:
    """Run iterations one after another for `seconds` and summarize them;
    `reference` is the golden digest and exit code for this seed, if recorded.
    In a traced run every other iteration is traced.

    Iterations never overlap: two interpreters side by side on a 2-CPU host
    slowed each other by about 20% in set-up and command time."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S - 10
    records: list[dict] = []
    lengths: list[float] = []
    while True:
        traced = trace and len(records) % 2 == 1
        began = time.monotonic()
        record = run_child(root, spec, seed, traced, work, deadline)
        record["traced"] = traced
        records.append(record)
        lengths.append(time.monotonic() - began)
        if trace and len(records) < 2:
            continue
        now = time.monotonic()
        next_s = max(lengths[-2:])
        if now - start + next_s > seconds or now + next_s > deadline:
            break

    failed = judge(records, spec, reference)
    timed = [r for r in records if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim_days = spec["days"] * ops(spec)
    end_to_end = {
        "setup_s": _median([r["setup_s"] for r in timed]),
        "wall_s": _median([r["wall_s"] for r in plain]),
        "rep_days_per_s": _median([sim_days / r["wall_s"] for r in plain]),
        "peak_rss_mb": _median([max(r["peak_rss_mb"], own_rss) for r in plain]),
    }
    as_measured = {
        "setup_raw_s": _median([r["setup_raw_s"] for r in timed]),
        "wall_raw_s": _median([r["wall_raw_s"] for r in plain]),
        "wall_speed": _median([r["wall_speed"] for r in plain]),
    }
    per_layer = {}
    traced = [r for r in timed if r["traced"]]
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = _median([r["layers"][name] for r in traced])
        per_layer["cli.import_s"] = _median([r["import_s"] for r in timed])
        per_layer["cli.profile_load_s"] = _median([r["profile_load_s"] for r in timed])
        per_layer["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                         - end_to_end["wall_s"])
    return {
        "attempted": ops(spec) * len(records),
        "failed": failed,
        "iterations": len(records),
        "errors": [r["error"] for r in records if r.get("error")],
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "per_layer": per_layer,
        "spans": [r.pop("spans") for r in traced],
        "records": records,
    }


def final_line(result: dict, trace: bool) -> dict:
    """The result object printed as the last line of stdout."""
    units = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = root / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def provenance(root: Path, seed: int) -> dict:
    profile = root / "src" / "edsim" / "profiles" / "default.json"
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "profile_sha256": hashlib.sha256(profile.read_bytes()).hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "edsim" / "cli.py").is_file():
        print(f"perfbench: no edsim sources at {root / 'src' / 'edsim'}; "
              "run from the root of an edsim checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN_PATH.read_text())
    reference = golden.get(args.workload, {}).get(str(args.seed))
    state = root / ".perfbench"
    work = state / f"work-{os.getpid()}"
    try:
        result = measure(root, spec, args.seed, args.seconds, bool(args.trace), work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not all(v == v for v in result["end_to_end"].values()) or (args.trace and not result["per_layer"]):
        print("perfbench: no iteration produced timings:", *result["errors"][:1], file=sys.stderr)
        return 1

    if result["spans"]:
        with open(state / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(result["spans"], fh)
    for error in result["errors"][:3]:
        print(f"iteration error: {error}", file=sys.stderr)
    print("provenance", json.dumps(provenance(root, args.seed), sort_keys=True))
    print(f"golden digest for seed {args.seed}: {'checked' if reference else 'none recorded'}; "
          f"{result['iterations']} iterations")
    line = final_line(result, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{args.workload:<11} {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        measured = result["as_measured"]
        print(f"{args.workload:<11} as measured: setup {measured['setup_raw_s']:.6g} s, "
              f"wall {measured['wall_raw_s']:.6g} s at {measured['wall_speed']:.4g} x the "
              "reference CPU speed")
    print(f"{args.workload:<11} {'error_rate':<36} {result['failed'] / result['attempted']:>16.6g} "
          f"share ({result['failed']} of {result['attempted']} scenario-replications)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
