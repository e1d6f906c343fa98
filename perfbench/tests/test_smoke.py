"""Tiny-size runs of every workload pass the oracle."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracing
from perfbench.run import layer_metrics
from perfbench.workloads import WORKLOADS, metrics

RUN = Path(__file__).resolve().parents[1] / "run.py"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_the_oracle(name):
    workload = WORKLOADS[name](seed=7, seconds=0.2, scale="tiny")
    run = workload.execute(repeats=2)
    correct, failed = workload.check()
    assert correct, run.problems
    assert run.rounds >= workload.min_rounds
    assert sum(run.attempted.values()) == run.rounds * workload.round_size
    if name == "range-3d":
        # Exactly the fixed fault query fails, once per round.
        assert failed == run.rounds == run.budget_exhausted
    else:
        assert failed == 0
    values = metrics(workload)
    assert all(v > 0 for v in values.values()), values


def test_traced_run_accounts_for_wall_time():
    workload = WORKLOADS["keyword-2d"](seed=3, seconds=0.2, scale="tiny")
    tracer = tracing.SpanTracer()
    tracing.instrument(tracer)
    try:
        from time import perf_counter

        start = perf_counter()
        workload.execute(repeats=1)
        wall = perf_counter() - start
    finally:
        tracer.restore()
    assert workload.check()[0]
    values = layer_metrics(workload, tracer, wall)
    assert values["keywords.filter.calls"] > 0 and values["engine.work_entries"] > 0
    layers = sum(v for k, v in values.items() if k.endswith(".self_ms"))
    assert layers == pytest.approx(wall * 1e3, rel=1e-6)


def test_cli_prints_one_json_result_last():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "churn-mix", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ops_per_s"]["unit"] == "1/s"
