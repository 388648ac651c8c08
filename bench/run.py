"""Run one benchmark workload, check every run's output, print its metrics.

    python3 bench/run.py --workload peptide-long --seed 1 --seconds 40 --trace 0

Each run is a fresh ``child.py`` process, one at a time. With ``--trace 0``
the workload is run for ``--seconds`` on the reference seed and then on
seeds derived from ``--seed``, and the end-to-end metrics are the medians
over those runs. With ``--trace 1`` one derived seed is run untraced and
traced in turn, and the per-layer metrics are the medians of the traced
runs. The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SHA_LEDGER = RUNS / "history_sha256.json"

MIN_RUNS = 3  # per --trace 0 run; a --trace 1 run makes at least two pairs
CHILD_TIMEOUT_S = 150


def load_spec() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    return spec, workloads


def derived_seed(seed: int, index: int) -> int:
    """The ``index``-th engine seed of a benchmark run given ``--seed``."""
    return seed * 100 + index


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run_dir(run_dir: Path, result: dict) -> list[str]:
    """Correctness checks on one finished run; returns what failed."""
    problems = []
    budget = result["budget"]
    if result["stop_reason"] != "budget":
        problems.append(f"stop_reason is {result['stop_reason']!r}, not 'budget'")
    history = read_jsonl(run_dir / "history.jsonl")
    if result["evals"] != budget or len(history) != budget:
        problems.append(
            f"{result['evals']} evaluations, {len(history)} history rows, budget {budget}"
        )
    if [row["eval_index"] for row in history] != list(range(1, len(history) + 1)):
        problems.append("eval_index is not contiguous from 1")
    canonicals = [row["canonical"] for row in history]
    if len(set(canonicals)) != len(canonicals):
        problems.append("a canonical candidate was evaluated twice")
    events = read_jsonl(run_dir / "events.jsonl")
    if [event["seq"] for event in events] != list(range(1, len(events) + 1)):
        problems.append("event seq is not contiguous from 1")
    rebuilt = [
        record
        for event in events
        if event["kind"] == "eval_batch"
        for record in event["payload"]["records"]
    ]
    if rebuilt != history:
        problems.append("history rebuilt from eval_batch events differs from history.jsonl")
    return problems


def check_sha(key: str, sha: str, pinned: str | None) -> list[str]:
    """Same history for the same workload, seed and budget, every time.

    The ledger lives in the checkout, so it compares all runs of one commit.
    """
    problems = []
    if pinned is not None and sha != pinned:
        problems.append(f"{key}: history sha256 {sha} differs from pinned {pinned}")
    ledger = json.loads(SHA_LEDGER.read_text()) if SHA_LEDGER.is_file() else {}
    seen = ledger.setdefault(key, sha)
    if seen != sha:
        problems.append(f"{key}: history sha256 {sha} differs from earlier run {seen}")
    else:
        tmp = SHA_LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(SHA_LEDGER)
    return problems


def run_child(
    workload: str,
    seed: int,
    workloads: dict,
    budget: int | None = None,
    trace: bool = False,
    keep: bool = False,
) -> tuple[dict | None, list[str]]:
    """Start one child run, then check what it left; returns (result, problems)."""
    tag = f"{workload}-s{seed}" + ("-trace" if trace else "")
    run_dir = RUNS / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(run_dir)]
    if budget is not None:
        cmd += ["--budget", str(budget)]
    if trace:
        cmd += ["--spans", str(RUNS / f"{tag}.spans.jsonl")]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return None, [f"{tag}: no result within {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return None, [f"{tag}: exit code {proc.returncode}: " + " | ".join(tail)]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = [f"{tag}: {p}" for p in check_run_dir(run_dir, result)]
    sha = sha256_of(run_dir / "history.jsonl")
    result["history_sha256"] = sha
    result["run_dir_mb"] = sum(
        p.stat().st_size for p in run_dir.rglob("*") if p.is_file()
    ) / 1e6
    pinned = None
    if seed == workloads["reference_seed"] and budget is None:
        pinned = workloads["workloads"][workload].get("history_sha256")
    problems += check_sha(f"{workload}/{seed}/{result['budget']}", sha, pinned)
    if not keep:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, problems


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Combine the runs of one benchmark run into the end-to-end metrics.

    Medians over the runs, because the cost of a run has a long tail across
    seeds. The best score takes few distinct values, so it is averaged.
    """

    def median(figure) -> float:
        return statistics.median(figure(r) for r in results)

    return {
        "evals_per_s": median(lambda r: r["evals"] / r["wall_s"]),
        "late_throughput_ratio": median(
            lambda r: (r["late_evals"] / r["late_s"]) / (r["evals"] / r["wall_s"])
        ),
        "setup_s": statistics.median(t for r in results for t in r["setup_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "run_dir_mb": median(lambda r: r["run_dir_mb"]),
        "tokens_per_eval": median(lambda r: r["tokens"] / r["evals"]),
        "best_score": statistics.mean(r["best_score"] for r in results),
    }


def measure(workload: str, seed: int, seconds: float, workloads: dict, budget=None):
    """--trace 0: the reference seed first, then derived seeds until time is up.

    A run starts only while it is expected to end less than half a run past
    the deadline. Returns one (result or None, problems) pair per run.
    """
    runs = []
    started = time.monotonic()
    while len(runs) < MIN_RUNS or _time_left(started, seconds, len(runs)):
        index = len(runs)
        run_seed = workloads["reference_seed"] if index == 0 else derived_seed(seed, index - 1)
        runs.append(run_child(workload, run_seed, workloads, budget))
        _progress(workload, run_seed, *runs[-1])
    return runs


def _time_left(started: float, seconds: float, done: int) -> bool:
    elapsed = time.monotonic() - started
    return elapsed + 0.5 * elapsed / done < seconds


def measure_traced(workload: str, seed: int, seconds: float, workloads: dict, budget=None):
    """--trace 1: untraced and traced runs of one derived seed, in turn.

    Returns the (result or None, problems) pairs of the untraced and of the
    traced runs.
    """
    run_seed = derived_seed(seed, 0)
    plain, traced = [], []
    started = time.monotonic()
    while len(traced) < 2 or _time_left(started, seconds, len(traced)):
        for trace, runs in ((False, plain), (True, traced)):
            runs.append(run_child(workload, run_seed, workloads, budget, trace=trace))
            _progress(workload, run_seed, *runs[-1], trace=trace)
    return plain, traced


def _progress(workload, seed, result, problems, trace=False) -> None:
    label = f"{workload} seed {seed}" + (" traced" if trace else "")
    if result is None:
        print(f"{label}: FAILED {problems}", file=sys.stderr)
        return
    status = "ok" if not problems else f"FAILED {problems}"
    print(
        f"{label}: {result['wall_s']:.3f} s for {result['evals']} evaluations, "
        f"history {result['history_sha256'][:12]}, {status}",
        file=sys.stderr,
    )


def count_repeat_problems(traced: list[dict], spec: dict) -> list[str]:
    """Every count metric must repeat exactly across traced runs of one seed."""
    problems = []
    for entry in spec["per_layer"]:
        if entry["unit"] != "count":
            continue
        values = {r["layers"][entry["name"]] for r in traced}
        if len(values) != 1:
            problems.append(f"count {entry['name']} differs between runs: {sorted(values)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--budget", type=int, default=None, help="override the workload budget (self-check)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agentopt" / "__init__.py").is_file():
        print(f"no agentopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec, workloads = load_spec()
    if args.workload not in workloads["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)

    if args.trace:
        plain, traced = measure_traced(
            args.workload, args.seed, args.seconds, workloads, args.budget
        )
        runs = plain + traced
        done = [result for result, _ in traced if result is not None]
        if not done or all(result is None for result, _ in plain):
            print("no traced and untraced run pair finished", file=sys.stderr)
            return 1
        repeat_problems = count_repeat_problems(done, spec)
        if repeat_problems:
            runs = plain + [(result, found + repeat_problems) for result, found in traced]
        metrics = {
            name: statistics.median(r["layers"][name] for r in done)
            for name in done[0]["layers"]
        }
        metrics["bench.trace_overhead_s"] = statistics.median(
            r["wall_s"] for r in done
        ) - statistics.median(result["wall_s"] for result, _ in plain if result)
        names = spec["per_layer"]
    else:
        runs = measure(args.workload, args.seed, args.seconds, workloads, args.budget)
        done = [result for result, _ in runs if result is not None]
        if not done:
            print("no run finished", file=sys.stderr)
            return 1
        metrics = end_to_end(done)
        names = spec["end_to_end"]

    problems = [p for _, found in runs for p in found]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    out = {}
    for entry in names:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:32s} {value:14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(runs),
                "failed": sum(1 for _, found in runs if found),
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
