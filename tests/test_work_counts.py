"""The work a benchmark run does is fixed by its seed, so it is pinned exactly.

Wall time on a small machine cannot resolve a change of a few percent in
the work; a count can. Each count below is the one a workload's run makes
at seed 7, with no slack: a change that moves a count re-pins it here and
says why. The kernel is counted at ``agentopt.distance.levenshtein``, where
every distance path looks it up; its steps are the sum of ``len(a)`` over
the calls, which tracks the bit-parallel kernel's work.
"""

from __future__ import annotations

import pytest

from .test_bench_compat import load_bench_module


@pytest.mark.parametrize(
    "workload, budget, calls, steps",
    [
        ("peptide-long", 5000, 2985, 45754),
        ("smiles-portfolio", 1000, 5346, 50865),
    ],
)
def test_kernel_work_is_pinned(tmp_path, kernel_calls, workload, budget, calls, steps):
    workloads = load_bench_module("workloads")
    cfg = workloads.config_for(workload, seed=7, budget=budget)
    engine, _ = workloads.build_engine(workload, cfg, tmp_path)
    try:
        assert engine.run().stop_reason == "budget"
    finally:
        engine.close()
    assert (len(kernel_calls), sum(len(a) for a, _ in kernel_calls)) == (calls, steps)
