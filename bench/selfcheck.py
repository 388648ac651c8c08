"""Fast self-check of the benchmark, with tiny budgets.

    python3 bench/selfcheck.py

Checks that every workload, untraced and traced, prints every metric named
in BENCHMARK.json with its unit and passes its correctness checks; that the
checks trip on a tampered ``history.jsonl``; and that the benchmark refuses
to run without the ``agentopt`` sources. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

BUDGET = 300  # more than the 100-candidate init batch, so every phase runs


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


def check_metrics(spec: dict, workloads: dict) -> list[str]:
    failures = []
    for workload in workloads["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = bench(
                "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", trace, "--budget", str(BUDGET),
            )
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                failures.append(f"{label}: correct={out['correct']} failed={out['failed']}")
            expected = {e["name"]: e["unit"] for e in spec[kind]}
            got = {name: m.get("unit") for name, m in out["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: metrics differ from BENCHMARK.json {kind}")
            for name, m in out["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    failures.append(f"{label}: {name} has no numeric value")
            print(f"{label}: {len(got)} metrics, correct={out['correct']}")
    return failures


def check_tamper(workloads: dict) -> list[str]:
    """Each kind of damage to history.jsonl must trip the checks."""
    workload, seed = "peptide-long", 1
    result, problems = run.run_child(workload, seed, workloads, budget=BUDGET, keep=True)
    run_dir = run.RUNS / f"{workload}-s{seed}"
    if result is None or problems:
        return [f"untampered run failed its checks: {problems}"]
    path = run_dir / "history.jsonl"
    pristine = path.read_text(encoding="utf-8")
    rows = [json.loads(line) for line in pristine.splitlines()]

    def rescored(rows):
        rows[9]["score"] += 0.5
        return rows

    def dropped(rows):
        return rows[:-1]

    def duplicated(rows):
        rows[5]["canonical"] = rows[4]["canonical"]
        return rows

    failures = []
    for name, damage in (("rescored", rescored), ("dropped", dropped), ("duplicated", duplicated)):
        tampered = damage([dict(row) for row in rows])
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in tampered))
        found = run.check_run_dir(run_dir, result)
        sha = run.sha256_of(path)
        found += run.check_sha(f"{workload}/{seed}/{BUDGET}", sha, None)
        print(f"tampered history ({name}): {len(found)} checks tripped")
        if not found:
            failures.append(f"tampered history ({name}) passed every check")
    path.write_text(pristine)
    if run.check_run_dir(run_dir, result):
        failures.append("restored history fails the checks")
    shutil.rmtree(run_dir)
    return failures


def check_refuses_without_sources() -> list[str]:
    """Holding only BENCHMARK.json and bench/, the benchmark must fail."""
    bare = run.RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "peptide-long", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    print(f"without sources: exit code {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec, workloads = run.load_spec()
    run.RUNS.mkdir(exist_ok=True)
    failures = check_metrics(spec, workloads)
    failures += check_tamper(workloads)
    failures += check_refuses_without_sources()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
