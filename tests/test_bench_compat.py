"""The benchmark drives the public API through ``bench/workloads.py``.

These runs break when a change to ``agentopt`` breaks what the benchmark
uses of it (``build_engine``, ``DelayedBackend``, ``Engine.run``) or what
its checker ``bench/run.py:check_run_dir`` reads of a run directory, before
the benchmark itself is run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from agentopt.events import EVENTS_FILE, HISTORY_FILE, load_checkpoint, read_log

from .conftest import assert_events_agree

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["peptide-long", "smiles-portfolio", "latency-bound"])
def test_benchmark_workload_runs_to_budget(tmp_path, workload):
    workloads = load_bench_module("workloads")
    cfg = workloads.config_for(workload, seed=7, budget=150)
    engine, ledger = workloads.build_engine(workload, cfg, tmp_path)
    try:
        result = engine.run()
    finally:
        engine.close()
    assert result.stop_reason == "budget"
    assert result.history.evals_used == 150
    # one checkpoint over several rounds: no per-round copy, no temporary file left
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint.json", "events.jsonl", "history.jsonl",
    ]
    assert ledger.report()["total"]["calls"] > 0
    checkpoint = load_checkpoint(tmp_path / "checkpoint.json")
    assert checkpoint.stop_reason == "budget"
    assert checkpoint.events_seq == len(read_log(tmp_path / EVENTS_FILE))
    assert_events_agree(tmp_path, ledger.report())
    # the benchmark's own checks, with its own rebuild of the history
    checked = {"budget": 150, "evals": 150, "stop_reason": result.stop_reason}
    assert load_bench_module("run").check_run_dir(tmp_path, checked) == []


def events_without_ts(path: Path) -> bytes:
    """The event log with each line re-encoded without its wall-clock ``ts``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        del event["ts"]
        lines.append(json.dumps(event, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


# Seed 7, as the benchmark's reference runs. The history hashes are those of
# the same runs before the edit-distance index: the index may save kernel
# calls, never change a history. Kernel counts repeat exactly, so each bound
# is the count noted beside it plus 3%: a fast path that stops saving calls
# fails here rather than hiding in the benchmark's noise. The events hashes
# are those of the logs with one step event per agent call, which are the
# earlier logs folded (agent_call, filter_report and worker outcome into each
# step), apart from seq, ts and the step's parent: a refactor keeps every
# event, byte for byte apart from its time stamp.
@pytest.mark.parametrize(
    "workload, budget, sha256, events_sha256, kernel_calls_most",
    [
        (
            "peptide-long",
            1000,
            "c8bfb7971e6f108da9e8f6f5d0bf8ec0ccee13a667c59ab421d041cbd848c1e8",
            "36b967c516b7fb6b2f4140ce6fa40771e1244440de2b1bf6cb6097934d8b7216",
            388,  # 377
        ),
        (
            "peptide-long",
            2500,
            "7cb220fad4cbdaa37fe3d64c948b7b7f63831e82951179588e33c5c2e63d7be7",
            "fa3aff05594a7a62a708c7407e2309dfa7694bc6ca26f3901d29ea7c813f4c36",
            902,  # 876
        ),
        (
            "smiles-portfolio",
            300,
            "85f4e0b91f977560288f8a366aa2162e5da92f141a654933f74397a2b7688ddd",
            "09d1e9d60b8891eb0c9e8925c8212c54d871844b7f13bf58c0efbe89b9494fcf",
            847,  # 823
        ),
    ],
)
def test_index_saves_kernel_calls_and_keeps_the_history(
    tmp_path, kernel_calls, workload, budget, sha256, events_sha256, kernel_calls_most
):
    workloads = load_bench_module("workloads")
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
    assert 0 < len(kernel_calls) <= kernel_calls_most
