"""Toy-size self-tests of the benchmark (a few seconds each).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def toy(kind: str) -> dict:
    if kind == "validate":
        return run._spec("validate", replications=2, days=1, jobs=1, scenarios=1, exit_codes=[0, 1])
    if kind == "sweep":
        spec = run._spec("sweep", replications=2, days=1, jobs=2, scenarios=3, exit_codes=[0])
        spec["argv"] += ["--scenarios", "C.4", "F.1"]
        return spec
    return run._spec("run", replications=2, days=1, jobs=1, scenarios=1, exit_codes=[0],
                     scenario="Cb.15")


@pytest.fixture(scope="module")
def traced_results(tmp_path_factory):
    """One traced toy run per workload kind: an untraced and a traced iteration."""
    return {kind: run.measure(ROOT, toy(kind), 3, 0.0, True, tmp_path_factory.mktemp(kind))
            for kind in ("validate", "sweep", "run")}


def test_benchmark_json_declares_what_run_py_emits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric


@pytest.mark.parametrize("kind", ["validate", "sweep", "run"])
def test_every_metric_is_emitted_with_its_unit(traced_results, kind):
    result = traced_results[kind]
    assert result["failed"] == 0, result["errors"]
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        line = json.loads(json.dumps(run.final_line(result, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == set(units)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    for name in ("setup_s", "wall_s", "rep_days_per_s", "peak_rss_mb"):
        assert result["end_to_end"][name] > 0


def test_worker_records_reach_the_submitting_process(traced_results):
    layers = traced_results["sweep"]["per_layer"]
    assert layers["harness.pool_starts"] == 3
    assert layers["model.replications"] == 6  # 3 scenarios x 2 replications, all in workers
    assert layers["harness.result_bytes"] > 0
    assert layers["model.events"] > 0 and layers["kernel.log_adds"] > 0
    assert traced_results["run"]["per_layer"]["kernel.log_csv_bytes"] > 0


def test_perturbed_digest_fails_every_replication(traced_results):
    result = traced_results["validate"]
    records, spec = result["records"], toy("validate")
    good = {"digest": records[0]["digest"], "exit_code": records[0]["exit_code"]}
    assert run.judge(records, spec, good) == 0
    perturbed = dict(good, digest="0" * 64)
    assert run.judge(records, spec, perturbed) == run.ops(spec) * len(records)


def test_raising_replication_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import edsim.harness

    def boom(*args, **kwargs):
        raise RuntimeError("replication failed")

    spec = toy("validate")
    monkeypatch.setattr(edsim.harness, "run_replication", boom)
    record = child.run_once(spec, 3, tmp_path / "out", trace=False)
    assert "RuntimeError: replication failed" in record["error"]
    assert record["digest"] is None
    ok = {"error": None, "digest": "d", "exit_code": 0}
    assert run.judge([ok, record], spec, None) == run.ops(spec)


def _spin(n: int) -> int:
    return sum(i * i for i in range(n))


def test_speed_samples_cover_forked_workers():
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    speed.start()
    try:
        before = speed.totals()
        _spin(2_000_000)
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            list(pool.map(_spin, [3_000_000] * 2))
        after = speed.totals()
    finally:
        speed.stop()
    workers = [speed._SLOT.unpack_from(speed._shared, i * speed._SLOT.size)[1] for i in (1, 2)]
    assert speed._forks == 2 and all(n > 0 for n in workers), workers
    assert after[1] - before[1] > sum(workers)  # this process sampled too
    assert 0 < speed.mean_speed(before, after) < 100


def test_no_program_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "validate", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
