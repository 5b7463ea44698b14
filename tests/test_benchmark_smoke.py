"""The benchmark's independent checks, run on smoke-size inputs.

``perfbench/checks.py`` recomputes every output the benchmark's workloads
write with numpy, scipy and the standard library.  This test runs the
traced smoke benchmark on a copy of ``src/`` and ``perfbench/``, so a check
that has gone stale fails here rather than only in a benchmark run.
``run.py`` finds its root from its own path, so its scratch directory is
made inside the copy, not in the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATS_CALLS = ("stats.grand_mean_z_test_calls", "stats.repeated_measures_fit_calls")


def test_smoke_benchmark_passes_its_checks_and_traces_the_statistics(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    metrics = result["metrics"]
    for name in STATS_CALLS:
        assert metrics[f"report-paper.{name}"]["value"] > 0
        assert metrics[f"cli-steps.{name}"]["value"] > 0
        assert metrics[f"fig4-sweeps.{name}"]["value"] == 0
