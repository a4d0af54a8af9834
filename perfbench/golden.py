"""Record the golden output digests of every workload.

    python3 perfbench/golden.py

Run from the repository root, at a commit whose outputs are the reference.
For the default seed and the held-out seed it runs each workload once and
writes the SHA-256 of its outputs and its exit code to perfbench/golden.json:
validate's stdout, sweep's comparison.csv and reports/*.json, run_logged's
rep_*.csv and report.json. A later run on one of these seeds whose digest
differs counts every replication of that iteration as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench" / "golden"
    table: dict = {}
    try:
        for name, spec in run.WORKLOADS.items():
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                record = run.run_child(root, spec, seed, False, work, time.monotonic() + 170)
                if record.get("error"):
                    print(f"{name} seed {seed}: {record['error']}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = {
                    "digest": record["digest"], "exit_code": record["exit_code"]}
                print(f"{name} seed {seed}: {record['digest']} exit {record['exit_code']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
