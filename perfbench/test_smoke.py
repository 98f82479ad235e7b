"""Smoke test of the benchmark: a short run of every workload, both modes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Each run must print every metric ``BENCHMARK.json`` names for its mode,
with its unit, and no request may fail (``ok_frac`` is 1, i.e. the
failed fraction is 0).  A checkout without the program must make the
benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(cwd, workload, trace, seconds=2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_present_and_nothing_failed(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["trace.requests"]["value"] >= 1
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program():
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "session-repeat", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
