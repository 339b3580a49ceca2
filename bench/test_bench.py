"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run the benchmark on seed 0 and take about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from spans import Tracer


# Per-layer metrics that are counts of work, not times: they must repeat
# exactly for the same program, workload and seed.
def _is_count(name):
    return (name.endswith(".calls") or name.startswith("checks.")
            or name.endswith("zero_operand_share")
            or name.endswith(".term_products"))


def _traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if _is_count(name)}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = _traced_metrics(workload)
    assert first["exactpoly.mul.calls"] > 0
    assert first == _traced_metrics(workload)


def test_tracing_leaves_reports_unchanged():
    work = run.WORK_ROOT / f"test-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        lib, calls, _ = run.set_up("corpus", work, 0, 1)
        plain = [run.sha(o.data) for o in run.run_pass(lib, calls)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run.sha(o.data)
                      for o in run.run_pass(lib, calls, tracer)]
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert traced == plain
    assert tracer.spans and all(s is not None for s in tracer.spans)
