"""The benchmark drives the public API through ``bench/workloads.py``.

These runs break when a change to ``agentopt`` breaks what the benchmark
uses of it (``build_engine``, ``DelayedBackend``, ``Engine.run``), before
the benchmark itself is run.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from agentopt.events import HISTORY_FILE, load_checkpoint

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


# Seed 7, as the benchmark's reference runs. The hashes and kernel counts are
# those of the same runs before the edit-distance index: the index may save
# kernel calls, never change a history.
@pytest.mark.parametrize(
    "workload, budget, sha256, kernel_calls_before",
    [
        (
            "peptide-long",
            1000,
            "c8bfb7971e6f108da9e8f6f5d0bf8ec0ccee13a667c59ab421d041cbd848c1e8",
            505,
        ),
        (
            "smiles-portfolio",
            300,
            "85f4e0b91f977560288f8a366aa2162e5da92f141a654933f74397a2b7688ddd",
            1539,
        ),
    ],
)
def test_index_saves_kernel_calls_and_keeps_the_history(
    tmp_path, kernel_calls, workload, budget, sha256, kernel_calls_before
):
    workloads = load_workloads()
    cfg = workloads.config_for(workload, seed=7, budget=budget)
    engine, _ = workloads.build_engine(workload, cfg, tmp_path)
    try:
        assert engine.run().stop_reason == "budget"
    finally:
        engine.close()
    history = (tmp_path / HISTORY_FILE).read_bytes()
    assert hashlib.sha256(history).hexdigest() == sha256
    assert 0 < len(kernel_calls) < kernel_calls_before
