"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON SEED OUT_DIR RESULT_JSON TRACE

Times set-up (import edsim.cli, then load and schema-validate the default
profile) and the command itself through `edsim.cli.main`, scales both times
to the reference CPU speed sampled meanwhile (speed.py), digests and checks
the command's outputs, and writes one JSON record to RESULT_JSON. With TRACE=1
the tracer is installed after set-up, so set-up figures are never traced.
Run with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed

LOG_HEADER = "rep_id,time_min,patient_id,event,detail"
COMPARISON_HEADER = "scenario,in,wt_first,wt_last,los,outlier_green,outlier_white,flags"


def digest_files(root: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((root / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _meta(path: Path) -> dict:
    return json.loads(path.read_text())["meta"]


def check_outputs(spec: dict, seed: int, out: Path, stdout: str, exit_code: int) -> str:
    """Digest of the outputs named for the workload kind; raises ValueError
    when an output is missing or malformed."""
    kind, reps = spec["kind"], spec["replications"]
    if kind == "validate":
        verdict = "validation PASSED" if exit_code == 0 else "validation FAILED"
        lines = stdout.splitlines()
        if not lines or lines[-1] != verdict or len(lines) != 7:
            raise ValueError(f"validate stdout does not end in {verdict!r}: {lines[-1:]}")
        return hashlib.sha256(stdout.encode()).hexdigest()
    if kind == "sweep":
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if ",".join(rows[0]) != COMPARISON_HEADER or len(rows) - 1 != spec["scenarios"]:
            raise ValueError(f"comparison.csv has {len(rows) - 1} rows, want {spec['scenarios']}")
        names = [r[0] for r in rows[1:]]
        if names[0] != "baseline" or len(set(names)) != len(names):
            raise ValueError("comparison.csv rows are not baseline + distinct scenarios")
        reports = sorted(p.name for p in (out / "reports").iterdir())
        if reports != sorted(f"{n}.json" for n in names):
            raise ValueError("reports/ does not hold one report per comparison row")
        for name in reports:
            meta = _meta(out / "reports" / name)
            if meta["seed"] != seed or meta["replications"] != reps:
                raise ValueError(f"reports/{name} records seed {meta['seed']}")
        return digest_files(out, ["comparison.csv"] + [f"reports/{n}" for n in reports])
    if kind == "run":
        logs = [f"rep_{i:02d}.csv" for i in range(reps)]
        for name in logs:
            with open(out / name) as fh:
                if fh.readline().rstrip("\r\n") != LOG_HEADER:
                    raise ValueError(f"{name} lacks the event-log header")
        meta = _meta(out / "report.json")
        if meta["seed"] != seed or meta["scenario_name"] != spec["scenario"]:
            raise ValueError(f"report.json meta does not match the run: {meta}")
        return digest_files(out, logs + ["report.json"])
    raise ValueError(f"unknown workload kind {kind!r}")


def run_once(spec: dict, seed: int, out: Path, trace: bool) -> dict:
    """Set up, run and check one command in this interpreter.

    `setup_s` and `wall_s` are scaled to the reference CPU speed (speed.py);
    `setup_raw_s` and `wall_raw_s` are the times as measured."""
    speed.start()
    at_start = speed.totals()
    start = time.perf_counter()
    import edsim.cli as cli
    from edsim.stochastics import default_profile_path, load_profile
    imported = time.perf_counter()
    load_profile(default_profile_path())
    ready = time.perf_counter()
    at_ready = speed.totals()
    setup_speed = speed.mean_speed(at_start, at_ready)
    record = {"import_s": imported - start, "profile_load_s": ready - imported,
              "setup_raw_s": ready - start, "setup_s": (ready - start) * setup_speed,
              "setup_speed": setup_speed, "error": None}
    tracer = None
    if trace:
        import tracer as tracer_mod
        tracer = tracer_mod.install(tracer_mod.Tracer())

    argv = spec["argv"] + ["--seed", str(seed), "--out", str(out)]
    stdout = io.StringIO()
    begin = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects flags this way
        exit_code = exc.code
    except Exception:  # a crash fails the iteration; it is reported, not raised
        exit_code = None
        record["error"] = traceback.format_exc()
    wall = time.perf_counter() - begin
    wall_speed = speed.mean_speed(at_ready, speed.totals())
    speed.stop()
    record.update(wall_raw_s=wall, wall_s=wall * wall_speed, wall_speed=wall_speed,
                  exit_code=exit_code)

    record["digest"] = None
    if record["error"] is None:
        if exit_code not in spec["exit_codes"]:
            record["error"] = f"unexpected exit code {exit_code}"
        else:
            try:
                record["digest"] = check_outputs(spec, seed, out, stdout.getvalue(), exit_code)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                record["error"] = f"output check failed: {exc!r}"

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record["peak_rss_mb"] = rss_kb / 1024.0
    if tracer is not None:
        record["layers"] = tracer_mod.layer_metrics(tracer)
        record["spans"] = tracer.spans
    return record


def main(argv: list[str]) -> int:
    spec_json, seed, out, result_path, trace = argv
    record = run_once(json.loads(spec_json), int(seed), Path(out), trace == "1")
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
