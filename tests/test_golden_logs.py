"""Byte-for-byte gate on the rendered event logs.

Every case below is one seeded replication whose `rep_00.csv` is streamed
to its file while it runs and ended by the run, as `edsim run` writes it,
and hashed with SHA-256. The recorded digests in
`tests/data/golden_logs.json` pin the simulated trajectory itself: a change
to dispatch, queueing, draws or rendering that moves any event shows here,
even when every KPI band still passes.

Re-record (only when a change to the simulated behaviour is intended):

    PYTHONPATH=src python tests/test_golden_logs.py --record
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from edsim.model import run_replication
from edsim.scenario import parse
from edsim.stochastics import Profile, default_profile_path

GOLDEN = Path(__file__).parent / "data" / "golden_logs.json"
SEEDS = (42, 2020, 7)
DAYS = 3

# case -> (scenario spec, routing.pull_low_into_high override or None)
CASES = {
    "baseline": ("baseline", None),
    "A.2": ("A.2", None),            # shifts start two hours later
    "B.1": ("B.1", None),            # last visit before first visit
    "C.3": ("C.3", None),            # green/white promotions
    "F.1": ("F.1", None),            # dedicated last-visit pool
    "Cb.15": ("Cb.15", None),
    "baseline/night_only": ("baseline", "night_only"),
    "baseline/never": ("baseline", "never"),
}


def _raw_profile(routing: str | None) -> dict:
    with open(default_profile_path()) as fh:
        raw = json.load(fh)
    if routing is not None:
        raw = copy.deepcopy(raw)
        raw.setdefault("routing", {})["pull_low_into_high"] = routing
    return raw


def log_digest(case: str, seed: int, workdir: Path) -> str:
    spec, routing = CASES[case]
    path = workdir / "rep_00.csv"
    run_replication(Profile(_raw_profile(routing)), parse(spec), 0, seed, DAYS, log_path=path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(CASES))
def test_rendered_log_matches_golden_digest(case, seed, tmp_path):
    golden = _golden()
    assert golden["days"] == DAYS and golden["seeds"] == list(SEEDS)
    assert log_digest(case, seed, tmp_path) == golden["digests"][case][str(seed)]


def test_golden_file_covers_every_case():
    assert sorted(_golden()["digests"]) == sorted(CASES)


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: {str(seed): log_digest(case, seed, Path(tmp)) for seed in SEEDS}
                   for case in CASES}
    GOLDEN.write_text(json.dumps({"days": DAYS, "seeds": list(SEEDS), "digests": digests},
                                 indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
