"""The benchmark drives the public API through ``bench/workloads.py``.

These runs break when a change to ``agentopt`` breaks what the benchmark
uses of it (``build_engine``, ``DelayedBackend``, ``Engine.run``), before
the benchmark itself is run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from agentopt.events import EVENTS_FILE, HISTORY_FILE, load_checkpoint

from .conftest import assert_events_agree

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
    assert_events_agree(tmp_path, ledger.report())


def events_without_ts(path: Path) -> bytes:
    """The event log with each line re-encoded without its wall-clock ``ts``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        del event["ts"]
        lines.append(json.dumps(event, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


# Seed 7, as the benchmark's reference runs. The history hashes and kernel
# counts are those of the same runs before the edit-distance index: the index
# may save kernel calls, never change a history. The events hashes are those
# of the runs before the engine's one call-filter-evaluate step: a refactor
# keeps every event, byte for byte apart from its time stamp.
@pytest.mark.parametrize(
    "workload, budget, sha256, events_sha256, kernel_calls_before",
    [
        (
            "peptide-long",
            1000,
            "c8bfb7971e6f108da9e8f6f5d0bf8ec0ccee13a667c59ab421d041cbd848c1e8",
            "883f29245f94906400ce7c23c1b3512b946c20fffff40625b101575ef2b41f8e",
            505,
        ),
        (
            "smiles-portfolio",
            300,
            "85f4e0b91f977560288f8a366aa2162e5da92f141a654933f74397a2b7688ddd",
            "9c27124a08560bb718da1805bf9f337378f30b6eb54bd8f23e2e07233ba047d6",
            1539,
        ),
    ],
)
def test_index_saves_kernel_calls_and_keeps_the_history(
    tmp_path, kernel_calls, workload, budget, sha256, events_sha256, kernel_calls_before
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
    events = events_without_ts(tmp_path / EVENTS_FILE)
    assert hashlib.sha256(events).hexdigest() == events_sha256
    assert 0 < len(kernel_calls) < kernel_calls_before
