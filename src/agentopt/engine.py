"""Deterministic orchestration of the optimization loop.

Each outer round runs three phases: a global proposal loop with failure
patience, one planning call that refreshes the task list, and one local
hill-climbing trajectory per (task, seed) pair. Every agent call, filter
verdict, evaluation batch, and registry change is emitted to the event log,
and a checkpoint lands at every round boundary so runs can be killed and
resumed without losing determinism.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .backends import CompletionResult, RoleRouter
from .context import ContextSpec, coverage_sample, render_context
from .core import (
    RANK_KEYS,
    Candidate,
    History,
    ObjectiveSpec,
    ScoredRecord,
    format_score,
    is_improvement,
)
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
    """Prepared initialization data plus the zero-signal guard settings."""

    candidates: list[Candidate]
    requested: int
    zero_signal_guard: bool = False
    floor: float = 0.0
    pool: Optional[CandidatePool] = None


@dataclass
class TrajectoryState:
    """One live local-search trajectory inside a worker phase."""

    task_name: str
    x_curr: ScoredRecord  # the seed, then each chosen move
    fails: int = 0
    terminated: bool = False


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
        history: Optional[History] = None,
        registry: Optional[TaskRegistry] = None,
        start_round: int = 0,
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
        self.history = history if history is not None else History()
        self.registry = registry or TaskRegistry(
            domain.default_tasks, capacity=loop.registry_capacity
        )
        self.round = start_round
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

    def _emit(self, kind: str, payload: dict) -> None:
        self.events.emit(kind, self.round, self._phase, payload)

    def _complete(self, role: str, system: str, user: str, **tags) -> CompletionResult:
        result = self.router.complete(role, system, user)
        payload = {
            "role": role,
            "backend": self.router.backend_for(role).name,
            "system_sha": _sha(system),
            "user_sha": _sha(user),
            "reply": result.text,
            "input_tokens": result.input_tokens,
            "output_tokens": result.output_tokens,
            "latency_ms": result.latency_ms,
        }
        payload.update(tags)
        self._emit("agent_call", payload)
        return result

    def _step(
        self, role: str, system: str, user: str, origin: str, **tags
    ) -> Optional[list[ScoredRecord]]:
        """One proposing agent call: ask, parse, filter, evaluate.

        Returns the evaluated records, or None when the reply holds no
        candidates. ``tags`` go on the ``agent_call`` and ``filter_report``
        events; ``eval_batch`` carries the task alone.
        """
        result = self._complete(role, system, user, **tags)
        try:
            raws = parse_candidates(result.text)
        except NoCandidatesFound:
            return None
        report = filter_batch(raws, self.history, self.constraint, self.domain)
        payload = {
            "n_in": report.n_input,
            "n_accepted": len(report.accepted),
            "rejected": [
                {"raw": r.raw, "reason": r.reason, "memo_score": r.memo_score}
                for r in report.rejected
            ],
        }
        payload.update(tags)
        self._emit("filter_report", payload)
        return self._evaluate_and_append(report.accepted, origin, tags.get("task"))

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
        if take:
            scores = self.oracle.evaluate_many(take)
            for candidate, score in zip(take, scores):
                record = self.history.append(candidate, score, origin)
                rows.append(self.history_log.write_record(record))
                records.append(record)
        payload = {"origin": origin, "n": len(records), "truncated": truncated, "records": rows}
        if task is not None:
            payload["task"] = task
        self._emit("eval_batch", payload)
        return records

    def _context_text(self) -> str:
        ctx = coverage_sample(
            self.history,
            self.loop.context,
            self.direction,
            self.rng.stream("context_offset"),
        )
        return render_context(ctx)

    # -- statistics driving explorer persistence ----------------------------

    def _current_portfolio(self) -> Portfolio:
        """The greedy portfolio of the whole history.

        Records appended since the last call (by any path, including a
        resumed history) are folded into the last portfolio.
        """
        self._portfolio = best_portfolio_greedy(
            self.history,
            self.objective.portfolio,
            self._distances,
            self.direction,
            self._portfolio,
        )
        return self._portfolio

    def _explorer_statistic(self) -> tuple[int, float]:
        """(portfolio size, its aggregate), or (0, best score) without a portfolio."""
        if self.objective.portfolio is not None:
            portfolio = self._current_portfolio()
            return (len(portfolio.members), portfolio.agg_value)
        return (0, self.history.best_record(self.direction).score)

    def _statistic_improved(self, before: tuple[int, float]) -> bool:
        """A larger portfolio, or a strictly better score."""
        size, score = self._explorer_statistic()
        return size > before[0] or is_improvement(score, before[1], self.direction)

    # -- phases --------------------------------------------------------------

    def _init_phase(self) -> None:
        self._phase = "init"
        plan = self.init_plan
        if plan is None or not plan.candidates:
            raise InsufficientInit("no initialization candidates configured")
        if len(plan.candidates) < plan.requested:
            logger.warning(
                "initialization shortfall: %d distinct candidates for requested %d",
                len(plan.candidates),
                plan.requested,
            )
        self._evaluate_and_append(plan.candidates, origin="init")
        if plan.zero_signal_guard:
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
        if plan.pool is None:
            raise InsufficientInit(
                "zero-signal guard enabled but no resampling pool configured"
            )
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
            best = self.history.best_record(self.direction)
            prompt = build_explorer_prompt(
                self.domain.prompt_pack,
                self._context_text(),
                format_score(best.score),
                self.objective,
            )
            records = self._step("explorer", "", prompt, "explorer")
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
        result = self._complete("planner", "", prompt)
        try:
            directives = parse_planner_reply(result.text, self.registry)
        except NoPlanFound:
            logger.warning("planner reply had no parseable plan; using default tasks")
            directives = []

        work_names: list[str] = []
        for directive in directives:
            if directive.action == "create":
                final_name, changes = self.registry.add_task(
                    directive.name, directive.text or ""
                )
                for change in changes:
                    self._registry_mutations += 1
                    self._emit(
                        "registry_change", {"op": change.op, "task": change.name}
                    )
                work_names.append(final_name)
            else:
                work_names.append(directive.name)

        seen: set[str] = set()
        work: list[TaskEntry] = []
        for name in work_names:
            if name in seen or name not in self.registry.entries:
                continue  # duplicates, or entries evicted by a later add
            seen.add(name)
            work.append(self.registry.entries[name])
        if not work:
            work = [e for e in self.registry.entries.values() if e.is_default]
        return work

    def _worker_phase(self, work: list[TaskEntry]) -> None:
        self._phase = "worker"
        self._seeds = select_diverse_seeds(
            self.history,
            self.loop.seeds_m,
            self.loop.seed_threshold,
            self._distances,
            self.direction,
            self._seeds,
        )
        trajectories = [
            TrajectoryState(task_name=task.name, x_curr=seed)
            for task in work
            for seed in self._seeds.members
        ]
        for index, trajectory in enumerate(trajectories):
            self._run_trajectory(index, trajectory, trajectories)
            trajectory.terminated = True

    def _run_trajectory(
        self,
        index: int,
        trajectory: TrajectoryState,
        trajectories: list[TrajectoryState],
    ) -> None:
        # only the planner phase changes which tasks the registry holds
        task_name = trajectory.task_name
        entry = self.registry.entries[task_name]
        while trajectory.fails < self.loop.max_fails:
            system, user = build_worker_prompts(
                self.domain.prompt_pack, entry.text, trajectory.x_curr.candidate.canonical
            )
            records = self._step(
                "worker", system, user, f"worker:{task_name}", task=task_name, trajectory=index
            )
            chosen = self._pick_improvement(records or [], trajectory, trajectories)
            success = chosen is not None
            if success:
                trajectory.x_curr = chosen
                trajectory.fails = 0
            else:
                trajectory.fails += 1
            self.registry.record_outcome(task_name, success)
            self._emit(
                "registry_change",
                {"op": "outcome", "task": task_name, "success": success, "trajectory": index},
            )
            self._check_budget()

    def _pick_improvement(
        self,
        records: list[ScoredRecord],
        trajectory: TrajectoryState,
        trajectories: list[TrajectoryState],
    ) -> Optional[ScoredRecord]:
        """Best strict improvement that does not collapse onto another trajectory.

        Collapse guard: a move is vetoed when its canonical text equals the
        current point of any other live trajectory, which keeps the
        multi-trajectory search from merging onto a single incumbent.
        """
        live_points = {
            t.x_curr.candidate.canonical
            for t in trajectories
            if t is not trajectory and not t.terminated
        }
        moves = [
            r
            for r in records
            if is_improvement(r.score, trajectory.x_curr.score, self.direction)
            and r.candidate.canonical not in live_points
        ]
        return min(moves, key=RANK_KEYS[self.direction], default=None)

    # -- run control ---------------------------------------------------------

    def _finish_round(self, stop_reason: Optional[str]) -> None:
        """Emit round_end (after round 0) and checkpoint; a stop reason finishes the run."""
        self._phase = "loop"
        if self.round >= 1:
            self._emit(
                "round_end",
                {
                    "evals_used": self.history.evals_used,
                    "best_score": self.history.best_record(self.direction).score,
                    "stop_reason": stop_reason,
                },
            )
        finished = stop_reason is not None
        self._emit("checkpoint", {"finished": finished})
        checkpoint = Checkpoint(
            round_idx=self.round,
            finished=finished,
            history_len=len(self.history),
            events_seq=self.events.last_seq,
            registry=self.registry.snapshot(),
            rng=self.rng.snapshot(),
            ledger=self.router.ledger.snapshot(),
            backends=self.router.state(),
            stop_reason=stop_reason,
        )
        write_checkpoint(self.run_dir, checkpoint)

    def close(self) -> None:
        self.events.close()
        self.history_log.close()

    def run(self) -> RunResult:
        """Drive the loop to budget exhaustion (or stagnation) and report.

        Initialization runs exactly when the history is empty. Any other way
        out (a backend, oracle or agent error, SIGINT) logs one ``error``
        event at the round and phase where it happened and re-raises; the
        last round-boundary checkpoint stays in place, so ``resume`` re-runs
        the failed round from its start.
        """
        stop_reason: Optional[str] = None
        try:
            if not len(self.history):
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
            except Exception:  # the log itself may be the casualty
                pass
            raise
        return self.result(stop_reason)

    def result(self, stop_reason: str) -> RunResult:
        """The outcome of a run that stopped for ``stop_reason`` at this round."""
        return RunResult(
            history=self.history,
            registry=self.registry,
            stop_reason=stop_reason,
            rounds=self.round,
            portfolio=self._current_portfolio() if self.objective.portfolio else None,
        )
