"""Byte-for-byte gate on the output files of `edsim run`, `sweep` and
`calibrate`.

Each case runs the CLI once with a fixed seed, checks its exit code and
hashes the files it names with SHA-256. The recorded digests in
`tests/data/golden_reports.json` pin the reported figures and their
rendering: a change to the KPI arithmetic, aggregation, the Welch flags, the
calibration search or the JSON/CSV/SVG writers shows here, even when the
event logs stay the same.

Re-record (only when a change to the reported figures or formats is intended):

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from edsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

CALIBRATION_FILES = ("fitted_profile.json", "calibration_trace.json")

# case -> (CLI arguments without --out, expected exit code,
#          glob patterns of the pinned files)
CASES = {
    "run": (["run", "--scenario", "Cb.15", "--replications", "2", "--days", "2",
             "--seed", "42", "--svg"], 0, ("report.json", "kpis.svg")),
    "sweep": (["sweep", "--scenarios", "B.1", "C.4", "F.1", "--replications", "2",
               "--days", "2", "--seed", "42", "--svg"], 0,
              ("comparison.csv", "reports/*.json", "los.svg")),
    # a probe lands in every band and the full-scale check confirms it
    "calibrate": (["calibrate", "--budget", "4", "--probe-replications", "2",
                   "--probe-days", "10", "--replications", "2", "--days", "10",
                   "--seed", "42"], 0, CALIBRATION_FILES),
    # the budget runs out: the best probe's full-scale check fails
    "calibrate/failed": (["calibrate", "--budget", "3", "--probe-replications", "1",
                          "--probe-days", "2", "--replications", "1", "--days", "2",
                          "--seed", "5"], 1, CALIBRATION_FILES),
    # 40 probes past the initial simplex: reflections, expansions, both
    # contractions and shrink steps, then a failed full-scale check
    "calibrate/search": (["calibrate", "--budget", "40", "--probe-replications", "1",
                          "--probe-days", "3", "--replications", "1", "--days", "2",
                          "--seed", "1"], 1, CALIBRATION_FILES),
}


def report_digests(case: str, workdir: Path) -> dict[str, str]:
    argv, code, patterns = CASES[case]
    out = workdir / case
    if main([*argv, "--out", str(out)]) != code:
        raise RuntimeError(f"edsim {' '.join(argv)} did not exit {code}")
    paths = sorted(p for pattern in patterns for p in out.glob(pattern))
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_report_files_match_golden_digests(case, tmp_path):
    assert report_digests(case, tmp_path) == _golden()[case]


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: report_digests(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
