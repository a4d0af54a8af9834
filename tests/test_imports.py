"""Start-up loads only what the command needs. No command needs scipy:
importing the package and the CLI, running a sweep (which compares
scenarios) and running a calibration (a Nelder-Mead search) load no scipy
module, and no module imports it. No command loads html (and the
html.entities tables it builds): the sweep's SVG chart escapes its text
itself. multiprocessing, concurrent.futures and logging stay off the path
of every run that does not pool: only a run that pools imports them, and a
pooled sweep writes what a serial one writes. The profile is checked
without jsonschema, and numpy.random is loaded with the CLI, before a sweep
forks its workers. Importing edsim starts no BLAS thread."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import edsim, edsim.cli

def unneeded_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "html"))

assert unneeded_modules() == [], unneeded_modules()
for jobs, out in (("1", sys.argv[1]), ("2", sys.argv[2])):
    code = edsim.cli.main(["sweep", "--scenarios", "C.4", "--replications", "2", "--days", "1",
                           "--jobs", jobs, "--out", out])
    assert code == 0, code
    assert unneeded_modules() == [], unneeded_modules()
# the search misses its bands at this size, which exits 1
assert edsim.cli.main(["calibrate", "--budget", "2", "--probe-replications", "1",
                       "--probe-days", "1", "--replications", "1", "--days", "1",
                       "--out", sys.argv[3]]) in (0, 1)
assert unneeded_modules() == [], unneeded_modules()
"""


def _run_probe(probe, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_cli_sweep_and_calibrate_load_no_scipy(tmp_path):
    serial, pooled = tmp_path / "jobs1", tmp_path / "jobs2"
    _run_probe(PROBE, serial, pooled, tmp_path / "calibrate")
    files = _files(serial)
    assert {"comparison.csv", "reports/baseline.json", "reports/C.4.json"} <= set(files)
    assert _files(pooled) == files


POOL_FREE_PROBE = """
import sys
import edsim.cli

def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

POOL = ("multiprocessing", "concurrent.futures", "logging")
out, small = sys.argv[1], ["--replications", "1", "--days", "1"]
assert loaded(*POOL) == [], loaded(*POOL)
# validate and calibrate miss their bands at this size, which exits 1
for argv in (["validate", *small], ["run", *small, "--out", out + "/run"],
             ["run", *small, "--jobs", "2", "--out", out + "/run2"],
             ["calibrate", "--budget", "1", "--probe-replications", "1", "--probe-days", "1",
              *small, "--jobs", "1", "--out", out + "/cal"]):
    assert edsim.cli.main(argv) in (0, 1), argv
    assert loaded(*POOL) == [], (argv, loaded(*POOL))
    assert loaded("html") == [], (argv, loaded("html"))
"""


def test_runs_that_do_not_pool_load_no_pool_machinery(tmp_path):
    _run_probe(POOL_FREE_PROBE, tmp_path)


def test_cli_loads_numpy_random_and_no_jsonschema():
    probe = ("import sys, edsim.cli; "
             "print('numpy.random' in sys.modules, [m for m in sys.modules if m.startswith('jsonschema')])")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "[]"]


THREADS_PROBE = """
import os
import edsim, numpy
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_starts_no_blas_thread_unless_asked(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", THREADS_PROBE],
                          env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    threads, setting = done.stdout.split()
    assert setting == (preset or "1")
    if preset is None:
        assert threads == "1"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield [node.module or ""]


def test_no_module_imports_jsonschema_or_scipy():
    found = [path.name for path in sorted((SRC / "edsim").glob("*.py"))
             for modules in _imported_modules(ast.parse(path.read_text()))
             if any(m.split(".")[0] in ("jsonschema", "scipy") for m in modules)]
    assert found == []
