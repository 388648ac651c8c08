"""The benchmark drives the public API through ``bench/workloads.py``.

These runs break when a change to ``agentopt`` breaks what the benchmark
uses of it (``build_engine``, ``DelayedBackend``, ``Engine.run``), before
the benchmark itself is run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from agentopt.events import load_checkpoint

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["peptide-long", "smiles-portfolio", "latency-bound"])
def test_benchmark_workload_runs_to_budget(tmp_path, workload):
    workloads = load_workloads()
    cfg = workloads.config_for(workload, seed=7, budget=150)
    engine, ledger = workloads.build_engine(workload, cfg, tmp_path)
    try:
        result = engine.run()
    finally:
        engine.close()
    assert result.stop_reason == "budget"
    assert result.history.evals_used == 150
    assert ledger.report()["total"]["calls"] > 0
    checkpoint = load_checkpoint(tmp_path / "checkpoint.json")
    assert checkpoint.finished and checkpoint.history_len == 150
