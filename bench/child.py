"""One run of one workload in a fresh process; prints its figures as one JSON line.

    python3 bench/child.py WORKLOAD SEED RUN_DIR [--budget N] [--spans FILE]

With ``--spans`` the run is traced and its spans are written to FILE after
the run ends. ``run.py`` starts this script once per run and checks the run
directory it leaves behind.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Constructions timed for setup_s; the last engine is the one that runs.
SETUP_REPEATS = 20


def last_quarter(marks: list[tuple[float, int]]) -> tuple[int, float]:
    """Evaluations and seconds over the last quarter of the budget.

    ``marks`` holds (clock, evaluations so far) after each oracle batch; the
    last mark is the budget.
    """
    end, budget = marks[-1]
    start, done = next((t, n) for t, n in marks if n >= 0.75 * budget)
    if done >= budget:
        raise ValueError("too few oracle batches to time the last quarter of the budget")
    return budget - done, end - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import agentopt

    if Path(agentopt.__file__).resolve().parent != SRC / "agentopt":
        print(f"agentopt imported from {agentopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import build_engine, config_for

    cfg = config_for(args.workload, args.seed, args.budget)
    budget = cfg["objective"]["budget"]
    args.run_dir.mkdir(parents=True, exist_ok=True)

    setup_times = []
    engine = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        started = time.perf_counter()
        engine, ledger = build_engine(args.workload, cfg, args.run_dir)
        setup_times.append(time.perf_counter() - started)

    tracer = None
    if args.spans is not None:
        from tracing import Tracer, install

        tracer = Tracer(run_id=f"{args.workload}/{args.seed}/{os.getpid()}")
        install(tracer, engine)

    # The probe reads the clock once per oracle batch, traced or not.
    marks: list[tuple[float, int]] = []
    evaluate_many = engine.oracle.evaluate_many
    clock = time.perf_counter

    def probed(candidates):
        scores = evaluate_many(candidates)
        marks.append((clock(), len(engine.history) + len(candidates)))
        return scores

    engine.oracle.evaluate_many = probed

    started = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - started
    engine.close()

    tokens = ledger.report()["total"]["total_tokens"]
    best = result.history.best_record(engine.direction)
    late_evals, late_s = last_quarter(marks)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "budget": budget,
        "stop_reason": result.stop_reason,
        "evals": result.history.evals_used,
        "rounds": result.rounds,
        "wall_s": wall,
        "setup_s": setup_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "tokens": tokens,
        "best_score": best.score,
        "late_evals": late_evals,
        "late_s": late_s,
    }
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer, wall, args.run_dir)
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
