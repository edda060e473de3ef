"""Smoke test of the serving benchmark: every workload, 2 s windows.

Each run builds its own world, so this takes a few minutes::

    PYTHONPATH=src python -m pytest benchmarks/serving/test_bench_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent / "bench.py"
SPEC = json.loads((BENCH.parents[2] / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", "7",
         "--seconds", "2", "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit_and_no_errors(workload, trace):
    result = _run(workload, trace)
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate is 0
    if workload == "genuine_closed" and trace:
        assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10
