"""Smoke test of the benchmark harness at tiny sizes (no timing assertions).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload, untraced and traced, through run.py and checks the
result schema against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# heat_uq_classical is not in BENCHMARK.json but still runs on request
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["heat_uq_classical"]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    record, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert record["fail_frac"] == 0.0
    assert record["missing_patches"] == []
    assert record["env"]["nproc"] >= 1 and record["env"]["numpy"]


def test_bypass_counts():
    """Traced counts follow which layers each workload uses."""
    layers = {w: _run(w, 1)[1]["metrics"] for w in WORKLOADS}
    value = lambda w, k: layers[w][k]["value"]  # noqa: E731
    for w in ("heat_uq_learned", "nls_learned"):
        assert value(w, "fdsolver.solves") == 0
    classical = layers["heat_uq_classical"]
    assert value("heat_uq_classical", "specfun.points") == 0
    assert all(v["value"] == 0 for k, v in classical.items()
               if k.startswith("nn.") and not k.endswith("_per_s"))
    for w in layers:
        assert (value(w, "evolution.newton.calls") > 0) == (w == "nls_learned")
        assert (value(w, "nn.backward.ms") > 0) == (w == "train")


def test_missing_sources_fail(tmp_path):
    """Without src/ the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
