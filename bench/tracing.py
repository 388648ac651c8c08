"""Outside-in tracing: spans and counts recorded around calls into each layer.

Nothing in ``agentopt`` is edited. The tracer replaces module-level names
where the engine looks them up (``agentopt.engine.<name>``, plus
``agentopt.distance.levenshtein``, which every distance path goes through)
and instance methods on the very objects the engine holds. Spans stay in
memory while the run goes and are written once, after it ends.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

import agentopt.distance
import agentopt.engine
from agentopt.backends import ROLES
from agentopt.events import EVENTS_FILE
from agentopt.filtering import (
    REASON_CONSTRAINT,
    REASON_DUP_BATCH,
    REASON_DUP_HISTORY,
    REASON_INVALID,
)

# Name the engine calls, in ``agentopt.engine`` -> the span name it records.
ENGINE_NAMES = {
    "select_diverse_seeds": "diversity.seeds",
    "best_portfolio_greedy": "diversity.portfolio",
    "coverage_sample": "context.sample",
    "render_context": "context.render",
    "filter_batch": "filtering",
    "build_explorer_prompt": "prompts.build",
    "build_planner_prompt": "prompts.build",
    "build_worker_prompts": "prompts.build",
    "parse_candidates": "prompts.parse",
    "parse_planner_reply": "prompts.parse",
    "write_checkpoint": "events.checkpoint",
}

MODULES = (
    "core",
    "distance",
    "diversity",
    "context",
    "filtering",
    "prompts",
    "backends",
    "oracles",
    "registry",
    "events",
)

REJECT_REASONS = (REASON_INVALID, REASON_DUP_BATCH, REASON_DUP_HISTORY, REASON_CONSTRAINT)


class Tracer:
    """Records one span per wrapped call: id, name, start, end, parent.

    Busy time of a span name is the sum of its spans' durations; self time
    subtracts the part covered by child spans, so self times of all layers
    plus the engine's remainder add up to the wall time.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = itertools.count(1).__next__

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        next_id = self._next_id

        def traced(*args, **kwargs):
            span_id = next_id()
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, after the run has ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer, engine) -> None:
    """Wrap every layer boundary the engine crosses; one engine per process."""
    counts = tracer.counts

    def on_filter_report(args, report) -> None:
        counts["filtering.proposed"] += report.n_input
        counts["filtering.accepted"] += len(report.accepted)
        for rejection in report.rejected:
            counts[f"filtering.rejected.{rejection.reason}"] += 1

    def on_checkpoint(args, path) -> None:
        # write_checkpoint writes the payload twice: checkpoint.json (through
        # a temporary file) and the per-round archive copy.
        counts["events.checkpoint.bytes"] += 2 * Path(path).stat().st_size

    def on_outcome(args, result) -> None:
        counts["registry.attempts"] += 1
        counts["registry.successes"] += int(args[1])

    def on_oracle_batch(args, result) -> None:
        counts["oracles.evals"] += len(args[0])

    callbacks = {"filter_batch": on_filter_report, "write_checkpoint": on_checkpoint}
    for attr, name in ENGINE_NAMES.items():
        fn = getattr(agentopt.engine, attr)
        setattr(agentopt.engine, attr, tracer.wrap(name, fn, callbacks.get(attr)))
    agentopt.distance.levenshtein = tracer.wrap("distance", agentopt.distance.levenshtein)

    history = engine.history
    history.ranked = tracer.wrap("core.ranked", history.ranked)
    history.best_record = tracer.wrap("core.best_record", history.best_record)

    constraint = engine.constraint
    constraint.allows = tracer.wrap("filtering.constraint", constraint.allows)

    for backend in engine.router.backends():
        _wrap_backend(tracer, backend)

    oracle = engine.oracle
    oracle.evaluate_many = tracer.wrap("oracles", oracle.evaluate_many, on_oracle_batch)

    registry = engine.registry
    for attr in ("add_task", "render_performance_stats", "render_task_summary"):
        setattr(registry, attr, tracer.wrap("registry", getattr(registry, attr)))
    registry.record_outcome = tracer.wrap("registry", registry.record_outcome, on_outcome)

    engine.events.emit = tracer.wrap("events", engine.events.emit)
    engine.history_log.write_record = tracer.wrap(
        "events.history", engine.history_log.write_record
    )


def _wrap_backend(tracer: Tracer, backend) -> None:
    def count_tokens(args, result) -> None:
        tracer.counts["backends.tokens_in"] += result.input_tokens
        tracer.counts["backends.tokens_out"] += result.output_tokens

    by_role = {
        role: tracer.wrap(f"backends.{role}", backend.complete, count_tokens)
        for role in ROLES
    }
    backend.complete = lambda request: by_role[request.agent_role](request)


def layer_metrics(tracer: Tracer, wall_s: float, run_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    backend_wait = sum(busy[f"backends.{role}"] for role in ROLES)
    proposed = counts["filtering.proposed"]
    attempts = counts["registry.attempts"]
    metrics = {
        "diversity.seeds.calls": calls["diversity.seeds"],
        "diversity.seeds.busy_s": busy["diversity.seeds"],
        "distance.calls": calls["distance"],
        "distance.busy_s": busy["distance"],
        "diversity.portfolio.calls": calls["diversity.portfolio"],
        "diversity.portfolio.busy_s": busy["diversity.portfolio"],
        "core.ranked.calls": calls["core.ranked"],
        "core.ranked.busy_s": busy["core.ranked"],
        "core.best_record.calls": calls["core.best_record"],
        "core.best_record.busy_s": busy["core.best_record"],
        "context.sample.calls": calls["context.sample"],
        "context.sample.busy_s": busy["context.sample"],
        "context.render.busy_s": busy["context.render"],
        "filtering.calls": calls["filtering"],
        "filtering.busy_s": busy["filtering"],
        "filtering.constraint.busy_s": busy["filtering.constraint"],
        "filtering.proposed": proposed,
        "filtering.accepted": counts["filtering.accepted"],
        "filtering.accept_ratio": counts["filtering.accepted"] / proposed if proposed else 0.0,
    }
    for reason in REJECT_REASONS:
        metrics[f"filtering.rejected.{reason}"] = counts[f"filtering.rejected.{reason}"]
    metrics.update(
        {
            "prompts.build.busy_s": busy["prompts.build"],
            "prompts.parse.busy_s": busy["prompts.parse"],
            "backends.calls": sum(calls[f"backends.{role}"] for role in ROLES),
            "backends.wait_s": backend_wait,
            "backends.worker.wait_s": busy["backends.worker"],
            "backends.tokens_in": counts["backends.tokens_in"],
            "backends.tokens_out": counts["backends.tokens_out"],
            "oracles.batches": calls["oracles"],
            "oracles.evals": counts["oracles.evals"],
            "oracles.wait_s": busy["oracles"],
            "registry.worker_success_ratio": (
                counts["registry.successes"] / attempts if attempts else 0.0
            ),
            "events.emits": calls["events"],
            "events.busy_s": busy["events"],
            "events.bytes": (run_dir / EVENTS_FILE).stat().st_size,
            "events.history.busy_s": busy["events.history"],
            "events.checkpoint.calls": calls["events.checkpoint"],
            "events.checkpoint.busy_s": busy["events.checkpoint"],
            "events.checkpoint.bytes": counts["events.checkpoint.bytes"],
        }
    )
    overhead = wall_s - backend_wait - busy["oracles"]
    metrics["engine.overhead_s"] = overhead
    metrics["engine.overhead_share"] = overhead / wall_s
    module_self = defaultdict(float)
    for name, value in tracer.self_time.items():
        module_self[name.split(".", 1)[0]] += value
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module]
    metrics["engine.self_s"] = wall_s - sum(module_self.values())
    return metrics
