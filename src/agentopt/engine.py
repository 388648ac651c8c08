"""Deterministic orchestration of the optimization loop.

Each outer round runs three phases: a global proposal loop with failure
patience, one planning call that refreshes the task list, and one local
hill-climbing trajectory per (task, seed) pair. Every evaluation batch,
agent call (one ``step`` event each) and registry change is emitted to
the event log, and a checkpoint lands at every round boundary. A killed
run resumes by re-running the engine against its log up to the last
checkpoint, which rebuilds every piece of state without storing any.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Iterator, Optional

from .backends import CompletionResult, RoleRouter
from .context import ContextSpec, coverage_sample, render_context
from .core import Candidate, History, ObjectiveSpec, ScoredRecord, format_score
from .diversity import (
    Portfolio,
    Selection,
    best_portfolio_greedy,
    select_diverse_seeds,
)
from .distance import EditDistanceIndex
from .domains import DomainSpec
from .errors import (
    BudgetExhaustedDuringInit,
    InsufficientInit,
    NoCandidatesFound,
    NoPlanFound,
)
from .events import Checkpoint, EventLog, HistoryLog, write_checkpoint
from .filtering import HardConstraint, filter_batch
from .oracles import CandidatePool, Oracle
from .prompts import (
    build_explorer_prompt,
    build_planner_prompt,
    build_worker_prompts,
    parse_candidates,
    parse_planner_reply,
)
from .registry import TaskEntry, TaskRegistry
from .rng import RngHub

logger = logging.getLogger(__name__)


@dataclass
class LoopParams:
    """Knobs of the orchestration loop itself."""

    seed_threshold: float
    max_fails: int = 3
    seeds_m: int = 2
    registry_capacity: int = 20
    context: ContextSpec = field(default_factory=ContextSpec)

    def __post_init__(self) -> None:
        if self.max_fails < 1:
            raise ValueError("max_fails must be >= 1")
        if self.seeds_m < 1:
            raise ValueError("seeds_m must be >= 1")


@dataclass
class InitPlan:
    """Initialization candidates plus the zero-signal guard's floor and pool;
    without a pool the guard is off."""

    candidates: list[Candidate]
    floor: float = 0.0
    pool: Optional[CandidatePool] = None


@dataclass
class RunResult:
    history: History
    registry: TaskRegistry
    stop_reason: str
    rounds: int
    portfolio: Optional[Portfolio] = None


class _BudgetExhausted(Exception):
    """Internal control flow: the oracle budget hit its cap mid-phase."""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Engine:
    """Owns the history, registry, and event stream for one run."""

    def __init__(
        self,
        domain: DomainSpec,
        objective: ObjectiveSpec,
        loop: LoopParams,
        router: RoleRouter,
        oracle: Oracle,
        constraint: HardConstraint,
        init_plan: Optional[InitPlan],
        rng: RngHub,
        run_dir: Path,
        event_log: EventLog,
        history_log: HistoryLog,
    ):
        self.domain = domain
        self.objective = objective
        self.loop = loop
        self.router = router
        self.oracle = oracle
        self.constraint = constraint
        self.init_plan = init_plan
        self.rng = rng
        self.run_dir = Path(run_dir)
        self.events = event_log
        self.history_log = history_log
        self.history = History(objective.direction)
        self.registry = TaskRegistry(domain.default_tasks, capacity=loop.registry_capacity)
        self.round = 0
        self.direction = objective.direction
        self._registry_mutations = 0
        self._distances = EditDistanceIndex()
        # last selections, each updated with the records appended since
        self._seeds: Optional[Selection] = None
        self._portfolio: Optional[Portfolio] = None
        self._phase = "init"

    # -- helpers -----------------------------------------------------------

    def _budget_left(self) -> int:
        return self.objective.budget - self.history.evals_used

    def _check_budget(self) -> None:
        if self._budget_left() <= 0:
            raise _BudgetExhausted

    def _emit(self, kind: str, payload: dict) -> bool:
        return self.events.emit(kind, self.round, self._phase, payload)

    @contextmanager
    def _call(
        self, role: str, system: str, user: str, **fields
    ) -> Iterator[tuple[CompletionResult, dict]]:
        """One agent call; its ``step`` event is written when the block exits.

        The step holds the call (its ``failed_attempts`` only when there were
        any), then ``fields``, then what the block adds to it. A block that
        raises still writes its step, with what it holds by then, before
        ``run`` logs the ``error``.
        """
        result = self.router.complete(role, system, user)
        step = {
            "role": role,
            "backend": self.router.backend_for(role).name,
            "system_sha": _sha(system),
            "user_sha": _sha(user),
            "reply": result.text,
            "input_tokens": result.input_tokens,
            "output_tokens": result.output_tokens,
            "latency_ms": result.latency_ms,
        }
        if result.failed_attempts:
            step["failed_attempts"] = result.failed_attempts
        step.update(fields)
        try:
            yield result, step
        finally:
            self._emit("step", step)

    def _propose(
        self, reply: str, step: dict, origin: str, task: Optional[str] = None
    ) -> Optional[list[ScoredRecord]]:
        """Parse, filter and evaluate the candidates of a proposing call.

        Returns the evaluated records, or None when the reply holds no
        candidates. The count of rejects per reason goes on ``step``.
        """
        try:
            raws = parse_candidates(reply)
        except NoCandidatesFound:
            step["rejected"] = {}
            return None
        report = filter_batch(raws, self.history, self.constraint, self.domain)
        step["rejected"] = dict(Counter(r.reason for r in report.rejected))
        return self._evaluate_and_append(report.accepted, origin, task)

    def _evaluate_and_append(
        self, accepted: list[Candidate], origin: str, task: Optional[str] = None
    ) -> list[ScoredRecord]:
        """The single serialized evaluate-then-append gate.

        Truncates the batch to the remaining budget (candidates beyond it
        are discarded unevaluated), so the history can never exceed the
        budget by even one record.
        """
        take = accepted[: max(0, self._budget_left())]
        truncated = len(accepted) - len(take)
        records: list[ScoredRecord] = []
        rows: list[str] = []
        failed_before = self.oracle.failed_attempts
        if take:
            scores = self.oracle.evaluate_many(take)
            for candidate, score in zip(take, scores):
                record = self.history.append(candidate, score, origin)
                rows.append(self.history_log.write_record(record))
                records.append(record)
        payload = {"origin": origin, "n": len(records), "truncated": truncated, "records": rows}
        if task is not None:
            payload["task"] = task
        if self.oracle.failed_attempts > failed_before:
            payload["failed_attempts"] = self.oracle.failed_attempts - failed_before
        self._emit("eval_batch", payload)
        return records

    def _context_text(self) -> str:
        offsets = self.rng.stream("context_offset")
        records = coverage_sample(self.history, self.loop.context, offsets)
        return render_context(records)

    # -- statistics driving explorer persistence ----------------------------

    def _current_portfolio(self) -> Portfolio:
        """The greedy portfolio of the whole history.

        Records appended since the last call are folded into the last
        portfolio.
        """
        self._portfolio = best_portfolio_greedy(
            self.history,
            self.objective.portfolio,
            self._distances,
            self._portfolio,
        )
        return self._portfolio

    def _explorer_statistic(self) -> tuple[int, float]:
        """(portfolio size, its aggregate), or (0, best score) without a portfolio."""
        if self.objective.portfolio is not None:
            portfolio = self._current_portfolio()
            return (len(portfolio.members), portfolio.agg_value)
        return (0, self.history.best_record().score)

    def _statistic_improved(self, before: tuple[int, float]) -> bool:
        """A larger portfolio, or a strictly better score."""
        size, score = self._explorer_statistic()
        return size > before[0] or self.history.improves(score, before[1])

    # -- phases --------------------------------------------------------------

    def _init_phase(self) -> None:
        self._phase = "init"
        plan = self.init_plan
        if plan is None or not plan.candidates:
            raise InsufficientInit("no initialization candidates configured")
        self._evaluate_and_append(plan.candidates, origin="init")
        if plan.pool is not None:
            # runs before the budget check so an all-floor init that already
            # consumed the whole budget fails with the typed init error
            self._zero_signal_resample(plan)
        self._check_budget()

    def _zero_signal_resample(self, plan: InitPlan) -> None:
        """Keep drawing from the pool until some score leaves the floor.

        Only fires when every initialization score sits exactly at the
        configured floor; each resample is budget-counted like any other
        evaluation.
        """
        if any(r.score != plan.floor for r in self.history.records):
            return
        rng = self.rng.stream("zero_signal_pool")
        draws = 0
        while True:
            if self._budget_left() <= 0:
                raise BudgetExhaustedDuringInit(
                    f"all {self.history.evals_used} budgeted scores sit at the "
                    f"floor {plan.floor}"
                )
            draws += 1
            if draws > 1_000_000:
                raise InsufficientInit("zero-signal resampling pool looks inexhaustible")
            candidate = plan.pool.draw(rng)
            if self.history.contains(candidate.canonical):
                continue
            records = self._evaluate_and_append([candidate], origin="resampled-init")
            if records and records[0].score != plan.floor:
                return

    def _explorer_phase(self) -> None:
        self._phase = "explorer"
        fails = 0
        while fails < self.loop.max_fails:
            stat_before = self._explorer_statistic()
            best = self.history.best_record()
            prompt = build_explorer_prompt(
                self.domain.prompt_pack,
                self._context_text(),
                format_score(best.score),
                self.objective,
            )
            with self._call("explorer", "", prompt) as (result, step):
                records = self._propose(result.text, step, "explorer")
            if records is not None and self._statistic_improved(stat_before):
                fails = 0
            else:
                fails += 1
            self._check_budget()

    def _planner_phase(self) -> list[TaskEntry]:
        self._phase = "planner"
        prompt = build_planner_prompt(
            self.domain.prompt_pack,
            self._context_text(),
            self.registry.render_performance_stats(),
            self.registry.render_task_summary(),
            self.objective,
        )
        with self._call("planner", "", prompt) as (result, _):
            try:
                plan = parse_planner_reply(result.text)
            except NoPlanFound:
                logger.warning("planner reply had no parseable plan; using default tasks")
                plan = {}
        work, changes = self.registry.apply_plan(plan)
        for change in changes:
            self._registry_mutations += 1
            self._emit("registry_change", {"op": change.op, "task": change.name})
        return work

    def _worker_phase(self, work: list[TaskEntry]) -> None:
        self._phase = "worker"
        self._seeds = select_diverse_seeds(
            self.history,
            self.loop.seeds_m,
            self.loop.seed_threshold,
            self._distances,
            self._seeds,
        )
        for index, (task, seed) in enumerate(product(work, self._seeds.members)):
            self._run_trajectory(index, task, seed)

    def _run_trajectory(self, index: int, task: TaskEntry, seed: ScoredRecord) -> None:
        """Hill-climb from ``seed`` until ``max_fails`` steps in a row fail.

        Each step moves to its best strict improvement, ties going to the
        earliest evaluation; a step with none is a fail. A move never lands on
        another trajectory's current point: that point is a record of the
        history, and ``filter_batch`` keeps only texts new to the history.
        """
        current, fails = seed, 0
        while fails < self.loop.max_fails:
            system, user = build_worker_prompts(
                self.domain.prompt_pack, task.text, current.candidate.canonical
            )
            with self._call(
                "worker",
                system,
                user,
                task=task.name,
                trajectory=index,
                parent=current.eval_index,
            ) as (result, step):
                records = self._propose(result.text, step, f"worker:{task.name}", task.name)
                improves = self.history.improves
                moves = [r for r in records or [] if improves(r.score, current.score)]
                success = bool(moves)
                if success:
                    current = min(moves, key=self.history.key)
                    fails = 0
                else:
                    fails += 1
                self.registry.record_outcome(task.name, success)
                step["success"] = success
            self._check_budget()

    # -- run control ---------------------------------------------------------

    def _finish_round(self, stop_reason: Optional[str]) -> None:
        """Emit round_end (after round 0) and checkpoint; a stop reason finishes the run."""
        self._phase = "loop"
        if self.round >= 1:
            self._emit(
                "round_end",
                {
                    "evals_used": self.history.evals_used,
                    "best_score": self.history.best_record().score,
                    "stop_reason": stop_reason,
                },
            )
        # a boundary that a resume replays is in the log, and its checkpoint on disk
        if self._emit("checkpoint", {"finished": stop_reason is not None}):
            checkpoint = Checkpoint(self.round, self.events.last_seq, stop_reason)
            write_checkpoint(self.run_dir, checkpoint)

    def close(self) -> None:
        self.events.close()
        self.history_log.close()

    def run(self) -> RunResult:
        """Drive the loop to budget exhaustion (or stagnation) and report.

        Any other way out (a backend, oracle or agent error, SIGINT) logs one
        ``error`` event at the round and phase where it happened and
        re-raises; the last round-boundary checkpoint stays in place, so
        ``resume`` re-runs the failed round from its start.
        """
        stop_reason: Optional[str] = None
        try:
            self._init_phase()
            self._finish_round(None)  # round 0 ends with its checkpoint alone
            while stop_reason is None:
                self.round += 1
                evals_before = self.history.evals_used
                mutations_before = self._registry_mutations
                self._explorer_phase()
                work = self._planner_phase()
                self._worker_phase(work)
                stagnant = (
                    self.history.evals_used == evals_before
                    and self._registry_mutations == mutations_before
                )
                if stagnant:
                    stop_reason = "stagnation"
                self._finish_round(stop_reason)
        except _BudgetExhausted:
            stop_reason = "budget"
            self._finish_round(stop_reason)
        except BaseException as exc:
            try:
                self._emit("error", {"reason": f"{type(exc).__name__}: {exc}"})
            except Exception:  # the log may be the casualty, or a replay that differs
                pass
            raise
        return RunResult(
            history=self.history,
            registry=self.registry,
            stop_reason=stop_reason,
            rounds=self.round,
            portfolio=self._current_portfolio() if self.objective.portfolio else None,
        )
