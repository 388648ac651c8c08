from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest
import yaml

import agentopt.distance as distance_module
import agentopt.diversity as diversity_module
import agentopt.engine as engine_module
from agentopt import cli

from agentopt.backends import ROLES, Backend, RoleRouter, ScriptedBackend, TokenLedger
from agentopt.context import ContextSpec
from agentopt.core import (
    Direction,
    DomainKind,
    ObjectiveSpec,
    PortfolioSpec,
    ScoredRecord,
    canonicalize,
)
from agentopt.distance import EditDistanceIndex
from agentopt.diversity import best_portfolio_greedy
from agentopt.domains import make_domain
from agentopt.engine import Engine, InitPlan, LoopParams, TrajectoryState
from agentopt.errors import (
    BackendUnavailable,
    BadResponse,
    BudgetExhaustedDuringInit,
    OracleFailure,
)
from agentopt.events import EventLog, HistoryLog, load_checkpoint, read_log, read_steps
from agentopt.filtering import NO_CONSTRAINT, TemplateSimilarityConstraint
from agentopt.oracles import CandidatePool, HiddenWeightsOracle, PlateauOracle
from agentopt.rng import RngHub

from .conftest import cand, candidates_reply, diverse_init, multi_round_replies

GARBAGE = "thinking out loud, no answer here"


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_engine(
    tmp_path: Path,
    replies: list[tuple[str, str]],
    oracle,
    init_texts: list[str],
    budget: int,
    *,
    direction: Direction = Direction.MAXIMIZE,
    portfolio: PortfolioSpec | None = None,
    max_fails: int = 3,
    seeds_m: int = 2,
    constraint=NO_CONSTRAINT,
    zero_signal: bool = False,
    floor: float = 0.0,
    pool: CandidatePool | None = None,
    seed: int = 0,
    backend: ScriptedBackend | None = None,
) -> tuple[Engine, TokenLedger]:
    domain = make_domain(DomainKind.GENERIC)
    if backend is None:
        backend = ScriptedBackend(
            [{"match": {"role": role}, "reply": reply} for role, reply in replies]
        )
    ledger = TokenLedger()
    router = RoleRouter(ledger, backend)
    seen: set[str] = set()
    init_candidates = []
    for text in init_texts:
        candidate = canonicalize(text, domain.kind)
        if candidate.canonical in seen:
            continue
        seen.add(candidate.canonical)
        init_candidates.append(candidate)
    engine = Engine(
        domain=domain,
        objective=ObjectiveSpec(direction=direction, budget=budget, portfolio=portfolio),
        loop=LoopParams(
            seed_threshold=0.75, max_fails=max_fails, seeds_m=seeds_m, context=ContextSpec()
        ),
        router=router,
        oracle=oracle,
        constraint=constraint,
        init_plan=InitPlan(
            candidates=init_candidates,
            requested=len(init_texts),
            zero_signal_guard=zero_signal,
            floor=floor,
            pool=pool,
        ),
        rng=RngHub(seed),
        run_dir=tmp_path,
        event_log=EventLog(tmp_path / "events.jsonl"),
        history_log=HistoryLog(tmp_path / "history.jsonl"),
    )
    return engine, ledger


def count_a_oracle() -> HiddenWeightsOracle:
    return HiddenWeightsOracle({"A": 1.0}, normalize=False)


def agent_calls(path: Path, role: str, round_idx: int | None = None) -> list[dict]:
    """The payloads of ``role``'s agent calls in the event log at ``path``."""
    return [
        step.call
        for step in read_steps(path)
        if step.call is not None
        and step.call["role"] == role
        and (round_idx is None or step.round == round_idx)
    ]


# -- budget arithmetic ----------------------------------------------------------


def test_budget_exactness_small(tmp_path):
    # 4 always-improving explorer batches of 5: init 10 + 20 == budget 30
    init = [f"B{i}BBBB" for i in range(10)]
    replies = []
    counter = 0
    for _ in range(4):
        batch = []
        for _ in range(5):
            counter += 1
            batch.append("A" * counter)
        replies.append(("explorer", candidates_reply(batch)))
    oracle = count_a_oracle()
    engine, _ = build_engine(tmp_path, replies, oracle, init, budget=30)
    result = engine.run()
    engine.close()
    assert result.stop_reason == "budget"
    assert result.history.evals_used == 30
    assert oracle.calls == 30
    assert len(set(result.history.canonical_index)) == 30


def test_budget_truncates_final_batch(tmp_path):
    init = [f"B{i}BB" for i in range(10)]
    replies = [("explorer", candidates_reply(["A", "AA", "AAA", "AAAA", "AAAAA"]))]
    oracle = count_a_oracle()
    engine, _ = build_engine(tmp_path, replies, oracle, init, budget=12)
    result = engine.run()
    engine.close()
    assert result.history.evals_used == 12
    assert oracle.calls == 12
    events = read_log(tmp_path / "events.jsonl")
    final_eval = [e for e in events if e["kind"] == "eval_batch"][-1]
    assert final_eval["payload"]["truncated"] == 3
    # the improving candidate arriving on the exhausting batch is recorded
    assert result.history.best_record(Direction.MAXIMIZE).candidate.canonical == "AA"


def test_init_exactly_consumes_budget(tmp_path):
    init = [f"B{i}" for i in range(10)]
    engine, _ = build_engine(tmp_path, [], count_a_oracle(), init, budget=10)
    result = engine.run()
    engine.close()
    assert result.stop_reason == "budget"
    assert result.history.evals_used == 10
    assert all(r.origin == "init" for r in result.history.records)


# -- explorer persistence ---------------------------------------------------------


def test_explorer_persistence_pattern_improve_then_three_fails(tmp_path):
    init = [f"B{i}BBB" for i in range(10)]
    replies = [
        ("explorer", candidates_reply(["AA", "A"])),  # improves (score 2)
        ("explorer", candidates_reply(["BC"])),  # 0: fail 1
        ("explorer", candidates_reply(["BCC"])),  # 0: fail 2
        ("explorer", candidates_reply(["BCD"])),  # 0: fail 3 -> phase exit
        ("explorer", GARBAGE),
        ("explorer", GARBAGE),
        ("explorer", GARBAGE),
        ("planner", GARBAGE),
        ("planner", GARBAGE),
    ]
    replies += [("worker", GARBAGE)] * (18 + 18)
    engine, _ = build_engine(tmp_path, replies, count_a_oracle(), init, budget=100)
    result = engine.run()
    engine.close()
    assert len(agent_calls(tmp_path / "events.jsonl", "explorer", round_idx=1)) == 4
    assert result.stop_reason == "stagnation"
    # counter resets on improvement: 4 iterations total, not max_fails alone
    events = read_log(tmp_path / "events.jsonl")
    evals = [e for e in events if e["kind"] == "eval_batch" and e["round"] == 1]
    assert [e["payload"]["n"] for e in evals[:4]] == [2, 1, 1, 1]


def test_parse_failure_counts_as_explorer_fail(tmp_path):
    init = [f"B{i}B" for i in range(5)]
    replies = [("explorer", GARBAGE)] * 3 + [("planner", GARBAGE)]
    replies += [("worker", GARBAGE)] * 18
    engine, _ = build_engine(tmp_path, replies, count_a_oracle(), init, budget=50)
    result = engine.run()
    engine.close()
    explorer = agent_calls(tmp_path / "events.jsonl", "explorer", round_idx=1)
    assert len(explorer) == 3
    assert result.stop_reason == "stagnation"


def test_duplicate_only_agents_stagnate_at_init_count(tmp_path):
    init = [f"B{i}BB" for i in range(8)]
    dup = candidates_reply(["B0BB"])  # already in history
    replies = [("explorer", dup)] * 3 + [("planner", GARBAGE)]
    replies += [("worker", dup)] * 18
    engine, _ = build_engine(tmp_path, replies, count_a_oracle(), init, budget=50)
    result = engine.run()
    engine.close()
    assert result.stop_reason == "stagnation"
    assert result.history.evals_used == 8
    events = read_log(tmp_path / "events.jsonl")
    reasons = [
        r["reason"]
        for e in events
        if e["kind"] == "filter_report"
        for r in e["payload"]["rejected"]
    ]
    assert set(reasons) == {"duplicate_in_history"}
    memo = [
        r["memo_score"]
        for e in events
        if e["kind"] == "filter_report"
        for r in e["payload"]["rejected"]
    ]
    assert all(score == 0.0 for score in memo)


# -- planner phase -----------------------------------------------------------------


def test_planner_creates_tasks_and_renames_default_collision(tmp_path):
    plan = json.dumps(
        {
            "SIMILAR": "USE_EXISTING",
            "ALPHA": "TASK: plan alpha.",
            "BETA": "TASK: plan beta.",
            "SHUFFLE": "TASK: an improved shuffle.",
        }
    )
    replies = [
        ("explorer", GARBAGE),
        ("planner", plan),
        ("explorer", GARBAGE),
        ("planner", GARBAGE),
    ]
    replies += [("worker", GARBAGE)] * (4 + 3)
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), ["BBBBBBBB"], budget=50,
        max_fails=1, seeds_m=1,
    )
    result = engine.run()
    engine.close()
    assert {"ALPHA", "BETA", "SHUFFLE_V2"} <= set(result.registry.entries)
    assert result.registry.get("SHUFFLE").text != "TASK: an improved shuffle."
    round1_tasks = [
        call["task"] for call in agent_calls(tmp_path / "events.jsonl", "worker", round_idx=1)
    ]
    assert round1_tasks == ["SIMILAR", "ALPHA", "BETA", "SHUFFLE_V2"]
    adds = [
        e["payload"]["task"]
        for e in read_log(tmp_path / "events.jsonl")
        if e["kind"] == "registry_change" and e["payload"]["op"] == "add"
    ]
    assert adds == ["ALPHA", "BETA", "SHUFFLE_V2"]


def test_unparseable_plan_falls_back_to_defaults(tmp_path):
    replies = [("explorer", GARBAGE), ("planner", GARBAGE)]
    replies += [("worker", GARBAGE)] * 3
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), ["BBBBBBBB"], budget=50,
        max_fails=1, seeds_m=1,
    )
    result = engine.run()
    engine.close()
    tasks = [call["task"] for call in agent_calls(tmp_path / "events.jsonl", "worker")]
    assert tasks == ["SIMILAR", "EXPLORE", "SHUFFLE"]


# -- worker phase -------------------------------------------------------------------


def worker_scenario_replies() -> list[tuple[str, str]]:
    replies = [("explorer", GARBAGE)] * 3
    replies.append(("planner", '{"SIMILAR": "USE_EXISTING"}'))
    # trajectory 0 (seed BBBBBBBB): improve twice, then fail three times
    replies += [
        ("worker", candidates_reply(["AB"])),
        ("worker", candidates_reply(["AAB"])),
        ("worker", candidates_reply(["BC"])),
        ("worker", candidates_reply(["BCC"])),
        ("worker", candidates_reply(["BCD"])),
    ]
    # trajectory 1 (seed DDDDDDDD): three failures
    replies += [
        ("worker", candidates_reply(["DE"])),
        ("worker", candidates_reply(["DEE"])),
        ("worker", candidates_reply(["DEF"])),
    ]
    # round 2 goes nowhere and triggers the stagnation stop
    replies += [("explorer", GARBAGE)] * 3
    replies.append(("planner", GARBAGE))
    replies += [("worker", GARBAGE)] * 18
    return replies


def test_worker_hill_climb_updates_and_outcome_counts(tmp_path):
    engine, _ = build_engine(
        tmp_path,
        worker_scenario_replies(),
        count_a_oracle(),
        ["BBBBBBBB", "DDDDDDDD"],
        budget=100,
    )
    result = engine.run()
    engine.close()

    traj0 = [
        call
        for call in agent_calls(tmp_path / "events.jsonl", "worker", round_idx=1)
        if call["trajectory"] == 0
    ]
    assert len(traj0) == 5  # two improvements plus three final failures
    # the third call must carry the updated incumbent AAB
    expected_user = "Input Candidate: AAB\nModify it to generate 5-10 new candidates."
    assert traj0[2]["user_sha"] == sha16(expected_user)

    similar = result.registry.get("SIMILAR")
    assert (similar.attempts, similar.successes) == (14, 2)  # 8 in round 1, 6 in round 2
    assert result.registry.get("EXPLORE").attempts == 6
    assert result.registry.get("SHUFFLE").attempts == 6

    outcomes_round1 = [
        step.events["registry_change"]
        for step in read_steps(tmp_path / "events.jsonl")
        if step.call is not None and "registry_change" in step.events and step.round == 1
    ]
    flags = [o["success"] for o in outcomes_round1 if o["task"] == "SIMILAR"]
    assert flags == [True, True, False, False, False, False, False, False]
    assert "AAB" in result.history.canonical_index


def test_kxm_trajectories_spawned(tmp_path):
    plan = json.dumps(
        {"SIMILAR": "USE_EXISTING", "T1": "TASK: one.", "T2": "TASK: two."}
    )
    replies = [("explorer", GARBAGE), ("planner", plan)]
    replies += [("worker", GARBAGE)] * 6  # 3 tasks x 2 seeds x 1 fail
    replies += [("explorer", GARBAGE), ("planner", GARBAGE)]
    replies += [("worker", GARBAGE)] * 6
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), ["BBBBBBBB", "DDDDDDDD"], budget=50,
        max_fails=1,
    )
    engine.run()
    engine.close()
    round1 = agent_calls(tmp_path / "events.jsonl", "worker", round_idx=1)
    assert len(round1) == 6
    assert {(call["task"], call["trajectory"]) for call in round1} == {
        ("SIMILAR", 0),
        ("SIMILAR", 1),
        ("T1", 2),
        ("T1", 3),
        ("T2", 4),
        ("T2", 5),
    }


def test_seed_selection_reuses_the_engine_distance_memo(tmp_path, kernel_calls):
    # one round in which no agent reply parses: the history stays the init
    replies = [("explorer", GARBAGE), ("planner", GARBAGE)] + [("worker", GARBAGE)] * 9
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), diverse_init(6), budget=50,
        max_fails=1, seeds_m=3,
    )
    result = engine.run()
    engine.close()
    assert result.stop_reason == "stagnation"
    assert len(agent_calls(tmp_path / "events.jsonl", "worker")) == 9
    assert kernel_calls  # the worker phase's seed selection

    before = len(kernel_calls)
    args = (engine.history, 3, engine.loop.seed_threshold)
    seeds = engine_module.select_diverse_seeds(
        *args, engine._distances, Direction.MAXIMIZE
    )
    assert len(kernel_calls) == before
    # the same selection through a fresh index does reach the kernel
    fresh = engine_module.select_diverse_seeds(
        *args, EditDistanceIndex(), Direction.MAXIMIZE
    )
    assert fresh == seeds
    assert len(kernel_calls) > before

    # the template constraint reaches the same kernel, for the templates the
    # length bound leaves open
    constraint = TemplateSimilarityConstraint([cand("B" * 16), cand("BBBBBB")], 0.75)
    before = len(kernel_calls)
    assert constraint.allows(cand("BBBBBC"))
    assert kernel_calls[before:] == [("BBBBBC", "BBBBBB")]

    # each export builds one index for its whole replay: a pair reaches the
    # kernel at most once
    history = str(tmp_path / "history.jsonl")
    for command in ("export-curve", "export-portfolio"):
        before = len(kernel_calls)
        flags = ["--portfolio-size", "3", "--portfolio-beta", "0.5"]
        out = str(tmp_path / f"{command}.out")
        assert cli.main([command, history, "--out", out, *flags]) == 0
        pairs = [frozenset(pair) for pair in kernel_calls[before:]]
        assert pairs and len(set(pairs)) == len(pairs)


class CountingIndex:
    """Records every question asked of an index, and passes it on."""

    def __init__(self, index: EditDistanceIndex):
        self.index = index
        self.lookups: list[tuple[str, str]] = []

    def far(self, a: str, b: str, threshold: float) -> bool:
        self.lookups.append((a, b))
        return self.index.far(a, b, threshold)


def test_seed_update_looks_up_only_the_new_records(tmp_path):
    # one round in which no agent reply parses: the history stays the init,
    # six mutually distant records, fewer than the eight seeds asked for
    replies = [("explorer", GARBAGE), ("planner", GARBAGE)] + [("worker", GARBAGE)] * 18
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), diverse_init(6), budget=50,
        max_fails=1, seeds_m=8,
    )
    assert engine.run().stop_reason == "stagnation"
    engine.close()
    previous = engine._seeds
    assert len(previous.members) == 6 and previous.seen == 6

    counting = CountingIndex(engine._distances)
    lookups = counting.lookups

    def select(previous):
        return engine_module.select_diverse_seeds(
            engine.history,
            8,
            engine.loop.seed_threshold,
            counting,
            Direction.MAXIMIZE,
            previous,
        )

    assert select(previous).members == previous.members
    assert lookups == []  # unchanged history
    # both score 0 and come later, so they rank below the last seed
    new = ["BBBBBD", "KKKKKK"]  # a near-copy of the best seed, and a far record
    for text in new:
        engine.history.append(canonicalize(text, engine.domain.kind), 0.0, "explorer")
    seeds = select(previous)
    # each new record against the seeds above it, until one rejects it
    assert len(lookups) == 1 + 6
    assert all(set(pair) & set(new) for pair in lookups)
    assert [r.candidate.canonical for r in seeds.members[6:]] == ["KKKKKK"]
    assert seeds == select(None)


def point_elsewhere(engine, text: str, score: float) -> ScoredRecord:
    """The current point of a trajectory whose batch this history has not seen."""
    candidate = canonicalize(text, engine.domain.kind)
    return ScoredRecord(candidate, score, eval_index=len(engine.history) + 1, origin="worker")


def test_collapse_guard_vetoes_move_onto_live_trajectory(tmp_path):
    # Scripted interleaving state: another live trajectory already sits at
    # "AAAB" (as happens when batches race under concurrent execution), and
    # this trajectory's only improving candidate is exactly that point.
    replies = [("worker", candidates_reply(["AAAB"]))] * 3
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), ["BBBBBBBB", "DDDDDDDD"], budget=50,
    )
    engine._init_phase()
    mine = TrajectoryState(task_name="SIMILAR", x_curr=engine.history.records[0])
    other = TrajectoryState(task_name="SIMILAR", x_curr=point_elsewhere(engine, "AAAB", 3.0))
    engine._phase = "worker"
    engine._run_trajectory(0, mine, [mine, other])
    engine.close()
    # the improving move was vetoed every time: trajectory never advanced
    assert mine.x_curr.candidate.canonical == "BBBBBBBB"
    assert mine.fails == 3
    similar = engine.registry.get("SIMILAR")
    assert (similar.attempts, similar.successes) == (3, 0)
    # but the candidate itself was still evaluated once (budget spent)
    assert "AAAB" in engine.history.canonical_index


def test_collapse_guard_allows_distinct_improvements(tmp_path):
    replies = [
        ("worker", candidates_reply(["AAAB", "AAAA"])),
        ("worker", GARBAGE),  # the improvement resets patience; fail once to stop
    ]
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), ["BBBBBBBB", "DDDDDDDD"], budget=50,
        max_fails=1,
    )
    engine._init_phase()
    mine = TrajectoryState(task_name="SIMILAR", x_curr=engine.history.records[0])
    other = TrajectoryState(task_name="SIMILAR", x_curr=point_elsewhere(engine, "AAAB", 3.0))
    engine._phase = "worker"
    engine._run_trajectory(0, mine, [mine, other])
    engine.close()
    # AAAB vetoed by the guard, AAAA chosen even though both improve
    assert mine.x_curr.candidate.canonical == "AAAA"
    assert mine.fails == 1
    similar = engine.registry.get("SIMILAR")
    assert (similar.attempts, similar.successes) == (2, 1)


# -- minimization end-to-end -------------------------------------------------------


def test_minimize_direction_full_round(tmp_path):
    # lower is better under a count-of-A objective; raw scores are carried
    # everywhere (no negation trick)
    init = ["AAAAAAAA", "DDDDDDDDDDAA"]  # scores 8 and 2; diverse; best is 2
    replies = [("explorer", GARBAGE)] * 3
    replies.append(("planner", '{"SIMILAR": "USE_EXISTING"}'))
    replies += [
        # trajectory 0, seed DDDDDDDDDDAA (2): improve to 0, then 3 fails
        ("worker", candidates_reply(["DDDDDDDDDDD"])),
        ("worker", candidates_reply(["KBBBA"])),
        ("worker", candidates_reply(["KBBBAA"])),
        ("worker", candidates_reply(["KBBBAAA"])),
        # trajectory 1, seed AAAAAAAA (8): improve to 4, then 3 fails
        ("worker", candidates_reply(["WWWWAAAA"])),
        ("worker", candidates_reply(["WWWAAAAA"])),
        ("worker", candidates_reply(["WWAAAAAA"])),
        ("worker", candidates_reply(["WAAAAAAA"])),
    ]
    replies += [("explorer", GARBAGE)] * 3
    replies.append(("planner", GARBAGE))
    replies += [("worker", GARBAGE)] * 18
    engine, _ = build_engine(
        tmp_path, replies, count_a_oracle(), init, budget=100,
        direction=Direction.MINIMIZE,
    )
    result = engine.run()
    engine.close()
    best = result.history.best_record(Direction.MINIMIZE)
    assert best.candidate.canonical == "DDDDDDDDDDD"
    assert best.score == 0.0
    similar = result.registry.get("SIMILAR")
    assert similar.successes == 2  # one improving move per trajectory
    assert similar.attempts == 8 + 6  # round 1 plus round 2 defaults


# -- statistics in portfolio mode ------------------------------------------------------


def test_portfolio_statistic_drives_explorer_persistence(tmp_path):
    engine, _ = build_engine(
        tmp_path,
        [],
        count_a_oracle(),
        ["KLWRKLLR"],
        budget=50,
        portfolio=PortfolioSpec(size=2, beta=0.75),
    )
    engine._init_phase()
    before = engine._explorer_statistic()
    assert before == (1, 0.0)
    # gaining a member counts as improvement even if the mean drops
    engine.history.append(canonicalize("DDDDDDDD", engine.domain.kind), 0.0, "explorer")
    assert engine._statistic_improved(before) is True
    before = engine._explorer_statistic()
    engine.history.append(canonicalize("WWWWWWWW", engine.domain.kind), 0.0, "explorer")
    assert engine._statistic_improved(before) is False
    before = engine._explorer_statistic()
    # a stronger diverse member lifts the portfolio mean
    engine.history.append(canonicalize("AAAAAAAA", engine.domain.kind), 4.0, "explorer")
    assert engine._statistic_improved(before) is True
    engine.close()


def test_run_result_portfolio_matches_scratch_after_run_and_resume(tmp_path, monkeypatch):
    outcomes: list[tuple] = []
    write_summary = cli._write_summary

    def capture(run_dir, config, result, ledger, wall_time_s):
        outcomes.append((config, result))
        return write_summary(run_dir, config, result, ledger, wall_time_s)

    walks: list[int] = []
    greedy_select = diversity_module._greedy_select

    def counting_select(*args):
        walks.append(1)
        return greedy_select(*args)

    # one entry per update of an earlier portfolio: did it re-walk the ranking?
    rewalked: list[bool] = []
    update = engine_module.best_portfolio_greedy

    def classify(history, spec, dist, direction, previous=None):
        before = len(walks)
        portfolio = update(history, spec, dist, direction, previous)
        if previous is not None:
            rewalked.append(len(walks) > before)
            if not rewalked[-1]:
                assert portfolio.members is previous.members
        return portfolio

    monkeypatch.setattr(cli, "_write_summary", capture)
    monkeypatch.setattr(diversity_module, "_greedy_select", counting_select)
    monkeypatch.setattr(engine_module, "best_portfolio_greedy", classify)
    config = {
        "run": {"seed": 3, "output_dir": str(tmp_path / "out")},
        "domain": {"kind": "peptide"},
        "objective": {
            "direction": "maximize",
            "budget": 400,
            "portfolio": {"size": 4, "beta": 0.3},
        },
        "backends": {"default": {"kind": "mutator", "seed": 5}},
        "oracle": {
            "kind": "synthetic",
            "name": "motif-match",
            "params": {"target": "KLWKKLRWRLLK"},
        },
        "init": {
            "source": {
                "kind": "templates_plus_mutations",
                "templates": ["KTLKIIRLLF", "RQKNHGIHFRVLAKALR"],
            },
            "count": 20,
        },
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path)]) == 0
    resumed = tmp_path / "resumed"
    shutil.copytree(out_dir, resumed)
    shutil.copy(resumed / "checkpoints" / "round_00001.json", resumed / "checkpoint.json")
    assert cli.main(["resume", str(resumed)]) == 0

    assert len(outcomes) == 2
    assert any(rewalked) and not all(rewalked)  # both the unchanged and the re-walk branch ran
    assert len(outcomes[1][1].history) == 400
    for run_config, result in outcomes:
        expected = best_portfolio_greedy(
            result.history,
            run_config.objective.portfolio,
            EditDistanceIndex(),
            run_config.objective.direction,
        )
        assert result.portfolio == expected
        assert result.portfolio.complete


def load_bench_tracing():
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_benchmark_names_exist_in_engine():
    # bench/tracing.py replaces agentopt.engine.<name> for each of these
    tracing = load_bench_tracing()
    assert tracing.ENGINE_NAMES
    assert [n for n in tracing.ENGINE_NAMES if not hasattr(engine_module, n)] == []


def test_traced_run_records_seed_and_portfolio_spans(tmp_path, monkeypatch):
    # selection and each agent step must go through the names the
    # benchmark's tracer wraps
    tracing = load_bench_tracing()
    for name in tracing.ENGINE_NAMES:  # restored after the test
        monkeypatch.setattr(engine_module, name, getattr(engine_module, name))
    monkeypatch.setattr(distance_module, "levenshtein", distance_module.levenshtein)
    engine, _ = build_engine(
        tmp_path, multi_round_replies(2), count_a_oracle(), diverse_init(10), budget=18,
        portfolio=PortfolioSpec(size=3, beta=0.5),
    )
    tracer = tracing.Tracer(run_id="test")
    tracing.install(tracer, engine)
    result = engine.run()
    engine.close()
    assert result.stop_reason == "budget"
    spans = Counter(name for _, name, _, _, _ in tracer.spans)
    assert spans["diversity.seeds"] >= 1
    assert spans["diversity.portfolio"] >= 1
    # every agent call builds one prompt and parses one reply, and every
    # filter report comes from one traced filter call
    agent_calls = sum(spans[f"backends.{role}"] for role in ROLES)
    assert spans["prompts.build"] == spans["prompts.parse"] == agent_calls > 0
    events = read_log(tmp_path / "events.jsonl")
    filter_reports = sum(e["kind"] == "filter_report" for e in events)
    assert spans["filtering"] == filter_reports >= 1
    # every log line is written through the two traced writers
    assert spans["events.history"] == result.history.evals_used
    assert spans["events"] == len(events)


# -- zero-signal guard -------------------------------------------------------------------


def plateau_floor_texts(oracle: PlateauOracle, n: int, floor: float) -> list[str]:
    texts = []
    i = 0
    while len(texts) < n:
        text = f"FLOOR{i:05d}"
        if oracle._score(text) == floor:
            texts.append(text)
        i += 1
    return texts


def test_zero_signal_guard_resamples_until_nonfloor(tmp_path):
    oracle = PlateauOracle(floor=0.0, mass=0.5, seed=13)
    init = plateau_floor_texts(oracle, 10, 0.0)
    pool_items = [canonicalize(f"POOL{i:04d}", DomainKind.GENERIC) for i in range(200)]
    engine, _ = build_engine(
        tmp_path, [("explorer", GARBAGE)] * 3 + [("planner", GARBAGE)]
        + [("worker", GARBAGE)] * 18,
        oracle, init, budget=100,
        zero_signal=True, floor=0.0, pool=CandidatePool(items=pool_items),
    )
    result = engine.run()
    engine.close()
    resampled = [r for r in result.history.records if r.origin == "resampled-init"]
    assert resampled, "guard must have drawn from the pool"
    assert all(r.score == 0.0 for r in resampled[:-1])
    assert resampled[-1].score > 0.0
    # everything was budget-counted
    assert result.history.evals_used == 10 + len(resampled)


def test_zero_signal_guard_skips_when_signal_present(tmp_path):
    oracle = PlateauOracle(floor=0.0, mass=0.99, seed=7)  # almost surely non-floor
    init = ["GOOD0", "GOOD1", "GOOD2"]
    engine, _ = build_engine(
        tmp_path, [("explorer", GARBAGE)] * 3 + [("planner", GARBAGE)]
        + [("worker", GARBAGE)] * 18,
        oracle, init, budget=50,
        zero_signal=True, floor=0.0, pool=CandidatePool(items=[]),
    )
    result = engine.run()
    engine.close()
    assert not [r for r in result.history.records if r.origin == "resampled-init"]


def test_zero_signal_budget_exhaustion_raises_typed_error(tmp_path):
    oracle = PlateauOracle(floor=0.0, mass=0.001, seed=3)
    init = plateau_floor_texts(oracle, 5, 0.0)
    pool_texts = plateau_floor_texts(oracle, 50, 0.0)[5:]
    pool_items = [canonicalize(t, DomainKind.GENERIC) for t in pool_texts]
    engine, _ = build_engine(
        tmp_path, [], oracle, init, budget=8,
        zero_signal=True, floor=0.0, pool=CandidatePool(items=pool_items),
    )
    with pytest.raises(BudgetExhaustedDuringInit):
        engine.run()
    engine.close()


# -- record/replay -----------------------------------------------------------------------


def test_replay_of_recorded_run_reproduces_history_bytes(tmp_path):
    first_dir = tmp_path / "first"
    first_dir.mkdir()
    engine, _ = build_engine(
        first_dir,
        worker_scenario_replies(),
        count_a_oracle(),
        ["BBBBBBBB", "DDDDDDDD"],
        budget=100,
    )
    engine.run()
    engine.close()

    recorded = [
        (step.call["role"], step.call["reply"])
        for step in read_steps(first_dir / "events.jsonl")
        if step.call is not None
    ]
    replay_dir = tmp_path / "replay"
    replay_dir.mkdir()
    engine2, _ = build_engine(
        replay_dir, recorded, count_a_oracle(),
        ["BBBBBBBB", "DDDDDDDD"], budget=100,
    )
    engine2.run()
    engine2.close()
    assert (replay_dir / "history.jsonl").read_bytes() == (
        first_dir / "history.jsonl"
    ).read_bytes()


# -- failure handling --------------------------------------------------------------------


class FailOnOracle(HiddenWeightsOracle):
    """Count-of-A oracle that fails on any candidate containing ``trigger``."""

    def __init__(self, trigger: str):
        super().__init__({"A": 1.0}, normalize=False)
        self.trigger = trigger

    def _score(self, canonical: str) -> float:
        if self.trigger in canonical:
            raise OracleFailure(f"cannot score {canonical}")
        return super()._score(canonical)


class BadReplyBackend(Backend):
    def complete(self, request):
        raise BadResponse("reply has no choices")


def assert_stopped_at_boundary(
    run_dir: Path, error: str, round_idx: int, phase: str, boundary: int
) -> None:
    """One ``error`` event, last, where the run stopped; checkpoint at ``boundary``."""
    events = read_log(run_dir / "events.jsonl")
    assert [e["kind"] for e in events].count("error") == 1
    last = events[-1]
    assert (last["kind"], last["round"], last["phase"]) == ("error", round_idx, phase)
    assert last["payload"]["reason"].startswith(f"{error}: ")
    checkpoint = load_checkpoint(run_dir / "checkpoint.json")
    assert (checkpoint.round_idx, checkpoint.finished) == (boundary, False)
    assert events[checkpoint.events_seq - 1]["kind"] == "checkpoint"
    archived = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
    assert archived[-1] == f"round_{boundary:05d}.json"


def test_backend_exhaustion_checkpoints_then_raises(tmp_path):
    replies = [("explorer", candidates_reply(["A"]))]  # improving; loop wants more
    engine, _ = build_engine(tmp_path, replies, count_a_oracle(), ["BBB"], budget=50)
    with pytest.raises(BackendUnavailable):
        engine.run()
    engine.close()
    assert_stopped_at_boundary(
        tmp_path, "BackendUnavailable", round_idx=1, phase="explorer", boundary=0
    )
    assert load_checkpoint(tmp_path / "checkpoint.json").history_len == 1


def test_oracle_failure_mid_round_keeps_previous_boundary(tmp_path):
    # round 2's second explorer batch proposes Z2B0, which the oracle rejects
    engine, _ = build_engine(
        tmp_path, multi_round_replies(3), FailOnOracle("Z2"), diverse_init(10), budget=22
    )
    with pytest.raises(OracleFailure):
        engine.run()
    engine.close()
    assert_stopped_at_boundary(
        tmp_path, "OracleFailure", round_idx=2, phase="explorer", boundary=1
    )
    assert load_checkpoint(tmp_path / "checkpoint.json").history_len == 14


def test_bad_response_logs_error_event(tmp_path):
    engine, _ = build_engine(
        tmp_path, [], count_a_oracle(), ["BBB"], budget=50, backend=BadReplyBackend()
    )
    with pytest.raises(BadResponse):
        engine.run()
    engine.close()
    assert_stopped_at_boundary(
        tmp_path, "BadResponse", round_idx=1, phase="explorer", boundary=0
    )
