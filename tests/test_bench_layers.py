"""Runs every case of ``bench_layers.py`` once, with timing off.

Its file name does not match ``test_*.py``, so a plain ``pytest`` run does
not collect it; this test makes a stale import or call signature there
fail the suite.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layer_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", os.path.join("tests", "bench_layers.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
