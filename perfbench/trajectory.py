"""Run every workload on several seeds and summarize each end-to-end metric.

    python3 perfbench/trajectory.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/trajectory.py --seeds 1 2 3 4 5 6 7 8 9 10 --append "label"

Run from the repository root. For each workload in BENCHMARK.json and each
end-to-end metric it prints the median and quartiles over the seeds
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, next to the
metric's bound; a spread above a third of its bound is marked. With --append the summary is
added as one point to perfbench/trajectory.json, with the provenance of the
measured commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY_PATH = HERE / "trajectory.json"


def run_once(benchmark: dict, workload: str, seed: int) -> tuple[dict, dict]:
    cmd = benchmark["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args(argv)
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    point = {"label": args.append, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in args.seeds:
            result, prov = run_once(benchmark, workload, seed)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds)
                + f" error_rate={result['failed'] / result['attempted']:.4g}", flush=True)
        summary = {name: summarize(v) for name, v in values.items()}
        point["workloads"][workload] = {"failed": failed, "metrics": summary}
        for name, s in summary.items():
            mark = "  <-- above bound/3" if s["spread"] > bounds[name] / 3 else ""
            print(f"{workload:<11} {name:<15} median {s['median']:<10.4g} q1 {s['q1']:<10.4g} "
                  f"q3 {s['q3']:<10.4g} spread {s['spread']:.3f} (bound {bounds[name]}){mark}",
                  flush=True)

    if args.append:
        point["provenance"] = {k: v for k, v in prov.items() if k != "seed"}
        history = json.loads(TRAJECTORY_PATH.read_text()) if TRAJECTORY_PATH.exists() else []
        history.append(point)
        TRAJECTORY_PATH.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
