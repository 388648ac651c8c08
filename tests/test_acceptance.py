"""Acceptance suite: one test per release criterion, scripted agents only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. Everything here executes offline against scripted or rule-based
backends and synthetic objectives; the single live end-to-end smoke test is
opt-in via environment variables and skipped otherwise.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from agentopt.backends import MutatorBackend, RoleRouter, ScriptedBackend, TokenLedger
from agentopt.cli import main
from agentopt.config import default_config, validate_config
from agentopt.context import ContextSpec, coverage_sample
from agentopt.core import (
    Direction,
    DomainKind,
    History,
    ObjectiveSpec,
    PortfolioSpec,
    canonicalize,
)
from agentopt.distance import (
    EditDistanceIndex,
    levenshtein,
    normalized_edit_distance,
)
from agentopt.diversity import best_portfolio_greedy
from agentopt.domains import make_domain
from agentopt.engine import Engine, InitPlan, LoopParams
from agentopt.errors import NoCandidatesFound
from agentopt.events import EventLog, HistoryLog, read_log, read_steps
from agentopt.filtering import NO_CONSTRAINT, TemplateSimilarityConstraint
from agentopt.oracles import CandidatePool, HiddenWeightsOracle, PlateauOracle
from agentopt.prompts import parse_candidates
from agentopt.rng import RngHub

from .conftest import (
    candidates_reply,
    diverse_init,
    random_history,
    reference_similarity,
    write_script,
)

DATA_DIR = Path(__file__).parent / "data"


def ok(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


def build_engine(tmp_path, replies, oracle, init_texts, budget, **kwargs):
    domain = kwargs.pop("domain", None) or make_domain(DomainKind.GENERIC)
    backend = kwargs.pop("backend", None)
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
        if candidate.canonical not in seen:
            seen.add(candidate.canonical)
            init_candidates.append(candidate)
    zero_signal = kwargs.pop("zero_signal", False)
    init_plan = InitPlan(
        candidates=init_candidates,
        floor=kwargs.pop("floor", 0.0),
        pool=kwargs.pop("pool", None) if zero_signal else None,
    )
    objective = ObjectiveSpec(
        direction=kwargs.pop("direction", Direction.MAXIMIZE),
        budget=budget,
        portfolio=kwargs.pop("portfolio", None),
    )
    loop = LoopParams(
        seed_threshold=0.75,
        max_fails=kwargs.pop("max_fails", 3),
        seeds_m=kwargs.pop("seeds_m", 2),
        context=ContextSpec(),
    )
    engine = Engine(
        domain=domain,
        objective=objective,
        loop=loop,
        router=router,
        oracle=oracle,
        constraint=kwargs.pop("constraint", NO_CONSTRAINT),
        init_plan=init_plan,
        rng=RngHub(kwargs.pop("seed", 0)),
        run_dir=tmp_path,
        event_log=EventLog(tmp_path / "events.jsonl"),
        history_log=HistoryLog(tmp_path / "history.jsonl"),
    )
    assert not kwargs, f"unused engine options: {kwargs}"
    return engine, ledger


# -- 1. budget exactness ---------------------------------------------------------


@pytest.mark.parametrize("budget", [120, 500, 2000])
def test_budget_exactness(tmp_path, budget):
    started = time.monotonic()
    init = [f"B{i:03d}XYZ" for i in range(100)]
    n_batches = (budget - 100) // 20
    replies = []
    k = 0
    for _ in range(n_batches):
        batch = []
        for _ in range(20):
            k += 1
            batch.append("A" * k)
        replies.append(("explorer", candidates_reply(batch)))
    oracle = HiddenWeightsOracle({"A": 1.0}, normalize=False)
    engine, _ = build_engine(tmp_path, replies, oracle, init, budget)
    result = engine.run()
    engine.close()
    elapsed = time.monotonic() - started
    assert result.history.evals_used == budget
    assert oracle.calls == budget  # oracle calls map 1:1 onto records
    assert len(result.history.canonical_index) == budget  # no repeat evaluations
    assert elapsed < 10.0, f"budget {budget} run took {elapsed:.1f}s"
    ok(f"budget exactness (budget={budget}, {elapsed:.2f}s)")


# -- 2. control-flow trace conformance ----------------------------------------------


def test_algorithm_trace_conformance(tmp_path):
    # Improvement pattern I,F,F,F in the proposal phase; a plan of two new
    # tasks plus one reuse (K=3); M=2 seeds; every local iteration fails.
    # 10 init + 5 proposal evals + 18 worker evals == budget 33.
    init = diverse_init(10)
    replies = [
        ("explorer", candidates_reply(["A", "AA"])),
        ("explorer", candidates_reply(["Z1B0"])),
        ("explorer", candidates_reply(["Z1B1"])),
        ("explorer", candidates_reply(["Z1B2"])),
        (
            "planner",
            json.dumps(
                {
                    "SIMILAR": "USE_EXISTING",
                    "ALPHA": "TASK: try alpha edits.",
                    "BETA": "TASK: try beta edits.",
                }
            ),
        ),
    ]
    counter = itertools.count()
    for _ in range(18):
        replies.append(("worker", candidates_reply([f"W{next(counter):03d}"])))
    oracle = HiddenWeightsOracle({"A": 1.0}, normalize=False)
    engine, _ = build_engine(tmp_path, replies, oracle, init, budget=33)
    result = engine.run()
    engine.close()
    assert result.stop_reason == "budget"
    assert result.history.evals_used == 33

    events = read_log(tmp_path / "events.jsonl")
    produced = "round,phase,kind\n" + "\n".join(
        f"{e['round']},{e['phase']},{e['kind']}" for e in events
    ) + "\n"
    golden = (DATA_DIR / "golden_trace.csv").read_text(encoding="utf-8")
    assert produced == golden  # byte-exact on the projected columns

    outcomes = [
        (step.call["task"], step.call["success"])
        for step in read_steps(tmp_path / "events.jsonl")
        if step.call is not None and step.call["role"] == "worker"
    ]
    assert len(outcomes) == 18
    assert all(success is False for _, success in outcomes)
    expected_task_order = [
        task for task in ("SIMILAR", "ALPHA", "BETA") for _ in range(2) for _ in range(3)
    ]
    assert [task for task, _ in outcomes] == expected_task_order
    ok("control-flow trace conformance (byte-exact golden columns)")


# -- 3. hyperparameter defaults -------------------------------------------------------


# The built-in per-kind defaults, pinned. The alphabet feeds the mutator's
# rng.choice, so reordering it would change every mutator history.
KIND_DEFAULTS = {
    "peptide": {
        "direction": "minimize",
        "alphabet": "ACDEFGHIKLMNPQRSTVWY",
        "seed_threshold": 0.75,
        "tasks": ["SIMILAR", "EXPLORE", "SHUFFLE"],
        "templates": ["KLWKKLLKWLKKLL", "RWLRWLARWLARLA", "FKKLWKLWKKFLKL"],
    },
    "smiles": {
        "direction": "maximize",
        "alphabet": "CNOSPFIcnos",
        "seed_threshold": 0.5,
        "tasks": ["SIMILAR", "EXPLORE", "SCAFFOLD_HOP"],
        "templates": ["CCO", "CC(=O)O", "c1ccccc1", "CCN(CC)CC", "CC(C)CCO"],
    },
    "generic": {
        "direction": "maximize",
        "alphabet": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
        "seed_threshold": 0.75,
        "tasks": ["SIMILAR", "EXPLORE", "SHUFFLE"],
        "templates": ["ABABABABAB", "CDCDCDCDCD", "EFEFEFEFEF"],
    },
}
VALIDATOR_PROBES = ["KLWRK", "KLWR", "KLXZK", "K" * 60, "K" * 61, "CCO", "C(C", "c1cccc", ""]
VALIDATOR_VERDICTS = {
    "peptide": [True, False, False, True, False, False, False, False, False],
    "smiles": [True, True, True, True, True, True, False, False, False],
    "generic": [True, True, True, True, True, True, True, True, False],
}


def test_hyperparameter_defaults():
    for kind, want in KIND_DEFAULTS.items():
        cfg = default_config(kind)
        assert cfg["objective"]["direction"] == want["direction"]
        assert cfg["loop"]["context"]["context_size"] == 20
        assert cfg["loop"]["context"]["top_k"] == 8
        assert cfg["loop"]["max_fails"] == 3
        assert cfg["loop"]["seeds_m"] == 2
        assert cfg["loop"]["registry_capacity"] == 20
        assert cfg["loop"]["seed_threshold"] == want["seed_threshold"]
        assert cfg["init"]["count"] == 100
        assert cfg["init"]["source"]["templates"] == want["templates"]
        config = validate_config({"domain": {"kind": kind}})
        assert config.objective.direction.value == want["direction"]
        assert config.loop.max_fails == 3
        assert config.loop.seeds_m == 2
        assert config.loop.context.context_size == 20
        assert config.loop.context.top_k == 8
        assert config.loop.registry_capacity == 20
        assert config.loop.seed_threshold == want["seed_threshold"]
        assert config.domain.alphabet == want["alphabet"]
        assert [name for name, _ in config.domain.default_tasks] == want["tasks"]
        assert [c.canonical for c in config.init_source.templates] == want["templates"]
        verdicts = [bool(config.domain.validator(p)) for p in VALIDATOR_PROBES]
        assert verdicts == VALIDATOR_VERDICTS[kind]
    ok("hyperparameter defaults")


# -- 4. distance oracle equivalence -----------------------------------------------------


def test_distance_equivalence_10k_pairs():
    def reference(a: str, b: str) -> int:
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                table[i][j] = min(
                    table[i - 1][j] + 1,
                    table[i][j - 1] + 1,
                    table[i - 1][j - 1] + cost,
                )
        return table[len(a)][len(b)]

    rng = random.Random(2024)
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        expected = reference(a, b)
        assert levenshtein(a, b) == expected
        assert normalized_edit_distance(a, b) == expected / min(len(a), len(b))
    ok("normalized edit distance equals independent DP on 10,000 pairs")


# -- 5. portfolio feasibility + optimality gap --------------------------------------------


def _clustered_history(rng: random.Random) -> History:
    """A history of near-duplicate clusters so the distance constraint bites."""
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    bases = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(8, 12)))
        for _ in range(rng.randint(2, 4))
    ]
    history = History(Direction.MAXIMIZE)
    seen: set[str] = set()
    size = rng.randint(4, 12)
    while len(history) < size:
        chars = list(rng.choice(bases))
        for _ in range(rng.randint(0, 2)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        text = "".join(chars)
        if text in seen:
            continue
        seen.add(text)
        history.append(
            canonicalize(text, DomainKind.GENERIC), rng.uniform(0, 100), "init"
        )
    return history


def test_portfolio_feasibility_and_gap():
    started = time.monotonic()
    rng = random.Random(404)
    spec = PortfolioSpec(size=3, beta=0.75)
    gaps = []
    complete_count = 0
    constraint_bit = 0
    for _ in range(200):
        history = _clustered_history(rng)
        dist = functools.cache(normalized_edit_distance)  # the exact distance
        portfolio = best_portfolio_greedy(history, spec, EditDistanceIndex())
        for a, b in itertools.combinations(portfolio.members, 2):
            assert dist(a.candidate.canonical, b.candidate.canonical) >= spec.beta
        top_by_score = [r.eval_index for r in history.ranked(0, spec.size)]
        if [r.eval_index for r in portfolio.members] != top_by_score:
            constraint_bit += 1
        if not portfolio.complete:
            continue
        complete_count += 1
        best_exact = None
        for combo in itertools.combinations(history.records, spec.size):
            if all(
                dist(x.candidate.canonical, y.candidate.canonical) >= spec.beta
                for x, y in itertools.combinations(combo, 2)
            ):
                agg = sum(r.score for r in combo) / spec.size
                if best_exact is None or agg > best_exact:
                    best_exact = agg
        assert best_exact is not None
        assert portfolio.agg_value <= best_exact + 1e-9
        # clamp away summation-order float noise; the true gap is >= 0
        gaps.append(max(0.0, best_exact - portfolio.agg_value))
    elapsed = time.monotonic() - started
    assert complete_count > 0
    assert constraint_bit > 0, "scenario never exercised the pairwise constraint"
    assert elapsed < 30.0, f"portfolio criterion took {elapsed:.1f}s"
    mean_gap = sum(gaps) / len(gaps)
    ok(
        "portfolio feasibility on 200 clustered histories "
        f"(complete={complete_count}, constraint bit on {constraint_bit}, "
        f"mean optimality gap={mean_gap:.4f}, {elapsed:.2f}s)"
    )


# -- 6. template-constraint soundness -------------------------------------------------------


def _peptide_string(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(length))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_template_constraint_soundness(tmp_path, seed):
    rng = random.Random(seed)
    domain = make_domain(DomainKind.PEPTIDE)
    templates = [
        canonicalize(_peptide_string(rng, rng.randint(12, 18)), DomainKind.PEPTIDE)
        for _ in range(5)
    ]
    constraint = TemplateSimilarityConstraint(templates, 0.75)

    def feasible() -> str:
        base = rng.choice(templates).canonical
        chars = list(base)
        chars[rng.randrange(len(chars))] = rng.choice("ACDEFGHIKLMNPQRSTVWY")
        return "".join(chars)

    def infeasible() -> str:
        while True:
            text = _peptide_string(rng, rng.randint(12, 18))
            candidate = canonicalize(text, DomainKind.PEPTIDE)
            if not constraint.allows(candidate):
                return text

    init = [t.canonical for t in templates]
    while len(init) < 12:
        mutant = feasible()
        if mutant not in init:
            init.append(mutant)

    replies = []
    for _ in range(3):  # three proposal batches, 30% infeasible injections
        batch = [infeasible() if i < 3 else feasible() for i in range(10)]
        rng.shuffle(batch)
        replies.append(("explorer", candidates_reply(batch)))
    replies.append(("planner", "no plan"))
    replies += [("worker", "no json")] * 18
    replies += [("explorer", "no json")] * 3
    replies.append(("planner", "no plan"))
    replies += [("worker", "no json")] * 18

    # constant objective: ties never improve, so every phase runs its full
    # patience window and the scripted call counts stay fixed
    oracle = HiddenWeightsOracle({}, normalize=False)
    engine, _ = build_engine(
        tmp_path, replies, oracle, init, budget=200,
        domain=domain, constraint=constraint, seed=seed,
    )
    result = engine.run()
    engine.close()

    beyond_init = [r for r in result.history.records if r.origin != "init"]
    assert beyond_init, "scenario must evaluate post-init candidates"
    for record in beyond_init:
        text = record.candidate.canonical
        best = max(reference_similarity(text, t.canonical) for t in templates)
        assert best >= 0.75, f"{record.candidate.canonical} violates the constraint"

    rejected_reasons = [
        reason
        for step in read_steps(tmp_path / "events.jsonl")
        if step.call is not None and step.call["role"] == "explorer"
        for reason in step.call["rejected"]
    ]
    assert "constraint_violation" in rejected_reasons
    ok(f"template-constraint soundness (seed={seed})")


# -- 7. coverage sampling structure ---------------------------------------------------------


def test_coverage_sampling_structure():
    rng = random.Random(777)
    spec = ContextSpec()
    for _ in range(1000):
        n = rng.randint(25, 500)
        history = History(Direction.MAXIMIZE)
        for i in range(n):
            history.append(
                canonicalize(f"C{i:05d}", DomainKind.GENERIC),
                rng.uniform(0, 100),
                "init",
            )
        records = coverage_sample(history, spec, rng)
        position = {id(r): i for i, r in enumerate(history.ranked(), 1)}
        ranks = [position[id(r)] for r in records]
        assert ranks[:8] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert len(records) == 20
        assert len(set(ranks)) == 20
        if n >= 80:
            worst_quartile_start = n - n // 4 + 1
            assert max(ranks) >= worst_quartile_start, (
                f"n={n}: max sampled rank {max(ranks)} misses the worst quartile"
            )
    ok("coverage sampling structure over 1,000 histories")


# -- 8. parser robustness ----------------------------------------------------------------


def _parser_corpus() -> list[tuple[str, list[str] | None]]:
    """100 deterministic cases: (reply text, expected list or None)."""
    rng = random.Random(31337)
    cases: list[tuple[str, list[str] | None]] = []
    wrappers = [
        "{payload}",
        "Sure! Here you go:\n{payload}",
        "```json\n{payload}\n```",
        "```\n{payload}\n```",
        "<think>maybe {{\"candidates\": 1}} no</think>\n{payload}",
        "draft {\"candidates\": [\"STALE\"]} ... final: {payload}",
        "{payload}\nHope this helps!",
        "reasoning.... {payload} done {{unclosed",
    ]
    for i in range(60):
        items = [
            "".join(rng.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(rng.randint(3, 12)))
            for _ in range(rng.randint(1, 8))
        ]
        payload = json.dumps({"candidates": items})
        text = wrappers[i % len(wrappers)].replace("{payload}", payload)
        cases.append((text, items))
    malformed = [
        "",
        "   ",
        "no json at all",
        '{"candidates": "not-a-list"}',
        '{"other_key": ["A"]}',
        '{"candidates": [1, 2, 3]}',
        '{"candidates": ["", "  "]}',
        "{'candidates': ['single-quotes']}",
        '{"candidates": ["A"',  # truncated
        '{"candidates": }',
        "]][[",
        "{}",
        '{"candidates": null}',
        "unicode éø☃ {not json}",
        '{"candidates": {"nested": "map"}}',
        "prefix } suffix {",
    ]
    for text in malformed:
        expected: list[str] | None
        if text == '{"candidates": ["", "  "]}':
            expected = []
        elif text == '{"candidates": [1, 2, 3]}':
            expected = []
        else:
            expected = None
        cases.append((text, expected))
    while len(cases) < 100:
        junk = "".join(rng.choice("{}[]\",:garbage \n") for _ in range(rng.randint(5, 80)))
        cases.append((junk, "UNKNOWN"))  # type: ignore[arg-type]
    return cases[:100]


def test_parser_robustness_corpus():
    cases = _parser_corpus()
    assert len(cases) == 100
    for text, expected in cases:
        try:
            result = parse_candidates(text)
        except NoCandidatesFound:
            result = None
        except Exception as exc:  # anything else is an uncaught failure
            pytest.fail(f"uncaught parser failure on {text!r}: {exc!r}")
        if expected == "UNKNOWN":
            assert result is None or isinstance(result, list)
        else:
            assert result == expected, f"case {text!r}"
    ok("parser robustness over the 100-case corpus")


# -- 9. replay determinism ----------------------------------------------------------------


# Scores count the A's. Given COUNT_FILE READY_FILE, the oracle keeps its
# running count of scored candidates in COUNT_FILE and, once only (while
# READY_FILE is absent), pauses after candidate PAUSE_AT with READY_FILE
# written: the run is then blocked inside that oracle batch.
PAUSE_AT = 12
PAUSING_ORACLE = (
    "import os, sys, time\n"
    "pause = sys.argv[1:]\n"
    "n = int(open(pause[0]).read()) if pause and os.path.exists(pause[0]) else 0\n"
    "for line in sys.stdin:\n"
    "    print(line.count('A'))\n"
    "    n += 1\n"
    f"    if pause and n == {PAUSE_AT} and not os.path.exists(pause[1]):\n"
    "        open(pause[1], 'w').close()\n"
    "        time.sleep(30)\n"
    "if pause:\n"
    "    open(pause[0], 'w').write(str(n))\n"
)


def _replay_config(
    base: Path, out_name: str, n_rounds: int = 3, pause_files: tuple[Path, ...] = ()
) -> Path:
    from .conftest import multi_round_replies

    init_file = base / "init.txt"
    if not init_file.exists():
        init_file.write_text("\n".join(diverse_init(10)) + "\n", encoding="utf-8")
    script_file = base / "script.jsonl"
    if not script_file.exists():
        write_script(script_file, multi_round_replies(n_rounds))
    oracle_file = base / "oracle.py"
    if not oracle_file.exists():
        oracle_file.write_text(PAUSING_ORACLE, encoding="utf-8")
    config = {
        "run": {"seed": 0, "output_dir": str(base / out_name)},
        "domain": {"kind": "generic"},
        "objective": {"direction": "maximize", "budget": 10 + 4 * n_rounds},
        "backends": {"default": {"kind": "scripted", "script": str(script_file)}},
        "oracle": {
            "kind": "subprocess",
            "command": [sys.executable, str(oracle_file), *map(str, pause_files)],
        },
        "init": {"source": {"kind": "file", "path": str(init_file)}, "count": 10},
    }
    path = base / f"{out_name}.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def test_replay_determinism(tmp_path, checkpoint_recorder):
    baseline_cfg = _replay_config(tmp_path, "baseline")
    assert main(["run", "--config", str(baseline_cfg)]) == 0
    baseline_dir = tmp_path / "baseline"
    baseline_history = (baseline_dir / "history.jsonl").read_bytes()

    # resume from every round-boundary checkpoint
    checkpoints = checkpoint_recorder.rounds(baseline_dir)
    assert len(checkpoints) >= 3  # rounds 0..2 at least
    for round_idx, data in sorted(checkpoints.items()):
        if json.loads(data)["stop_reason"] is not None:  # finished
            continue
        variant = tmp_path / f"variant_round_{round_idx:05d}"
        shutil.copytree(baseline_dir, variant)
        checkpoint_recorder.rewind(baseline_dir, round_idx, to=variant)
        assert main(["resume", str(variant)]) == 0
        assert (variant / "history.jsonl").read_bytes() == baseline_history, (
            f"resume from round {round_idx} diverged"
        )

    # SIGINT while the oracle pauses in mid-batch, then resume
    ready = tmp_path / "oracle_paused"
    sigint_cfg = _replay_config(
        tmp_path, "sigint", pause_files=(tmp_path / "oracle_count", ready)
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    sigint_history = tmp_path / "sigint" / "history.jsonl"
    deadline = time.monotonic() + 30
    with subprocess.Popen(
        [sys.executable, "-m", "agentopt", "run", "--config", str(sigint_cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        try:
            while time.monotonic() < deadline:
                if ready.exists() or proc.poll() is not None:
                    break
                time.sleep(0.02)
            if not ready.exists():
                pytest.fail(f"oracle never paused after its candidate {PAUSE_AT}")
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
    rc = proc.returncode
    assert rc == 130, f"interrupted run exited {rc}"
    last = read_log(tmp_path / "sigint" / "events.jsonl")[-1]
    assert last["kind"] == "error"
    assert last["payload"]["reason"].startswith("KeyboardInterrupt")
    assert len(read_log(sigint_history)) < PAUSE_AT  # the paused batch never landed
    # READY_FILE is there now, so the resumed run's oracle does not pause
    assert main(["resume", str(tmp_path / "sigint")]) == 0
    assert sigint_history.read_bytes() == baseline_history
    ok(
        "replay determinism (every round checkpoint + mid-run SIGINT "
        "reproduce history.jsonl byte-identically)"
    )


# -- 10. zero-signal guard ----------------------------------------------------------------


def _floor_texts(oracle: PlateauOracle, n: int, rng: random.Random) -> list[str]:
    texts: list[str] = []
    seen: set[str] = set()
    while len(texts) < n:
        text = "".join(rng.choice("BCDEFGHI") for _ in range(10))
        if text in seen:
            continue
        seen.add(text)
        if oracle._score(text) == oracle.floor:
            texts.append(text)
    return texts


def _zero_signal_trial(tmp_path: Path, seed: int) -> bool:
    oracle = PlateauOracle(floor=0.0, mass=0.01, seed=seed)
    rng = random.Random(seed)
    init = _floor_texts(oracle, 100, rng)
    templates = [canonicalize(t, DomainKind.GENERIC) for t in init[:20]]
    pool = CandidatePool(templates=templates, alphabet="ABCDEFGHIKLMNPQRSTVWY")
    run_dir = tmp_path / f"trial_{seed}"
    run_dir.mkdir()
    engine, _ = build_engine(
        run_dir,
        [],
        oracle,
        init,
        budget=500,
        backend=MutatorBackend(seed=seed, alphabet="ABCDEFGHIKLMNPQRSTVWY"),
        zero_signal=True,
        floor=0.0,
        pool=pool,
        seed=seed,
    )
    try:
        result = engine.run()
    except Exception:
        return False
    finally:
        engine.close()
    resampled = [r for r in result.history.records if r.origin == "resampled-init"]
    if not resampled or resampled[-1].score <= 0.0:
        return False  # the guard must be the thing that found the signal
    best = result.history.best_record()
    return best.score > 0.0 and best.eval_index <= 500


def test_zero_signal_guard_trials(tmp_path):
    successes = sum(_zero_signal_trial(tmp_path, seed) for seed in range(100))
    assert successes >= 95, f"only {successes}/100 trials escaped the plateau"
    ok(f"zero-signal guard ({successes}/100 seeded trials escaped the floor)")


# -- 11. optional live smoke (not part of CI) ------------------------------------------------


@pytest.mark.skipif(
    "AGENTOPT_LIVE_ENDPOINT" not in os.environ,
    reason="live smoke runs only with AGENTOPT_LIVE_ENDPOINT configured",
)
def test_live_endpoint_smoke(tmp_path):
    config = {
        "run": {"seed": 0, "output_dir": str(tmp_path / "live")},
        "domain": {"kind": "peptide"},
        "objective": {"direction": "maximize", "budget": 300},
        "backends": {
            "default": {
                "kind": "http",
                "endpoint_url": os.environ["AGENTOPT_LIVE_ENDPOINT"],
                "model_name": os.environ.get("AGENTOPT_LIVE_MODEL", "default"),
                "api_key_env_var": os.environ.get(
                    "AGENTOPT_LIVE_KEY_ENV", "AGENTOPT_LIVE_API_KEY"
                ),
            }
        },
        "oracle": {
            "kind": "synthetic",
            "name": "motif-match",
            "params": {"target": "KLWKKLRWRLLKWLKK"},
        },
        "init": {
            "source": {
                "kind": "templates_plus_mutations",
                "templates": ["KTLKIIRLLF", "GHLLIHLIGKATLAL", "HWITINTIKLSISLKI"],
            },
            "count": 100,
        },
    }
    config_path = tmp_path / "live.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    summary = json.loads((tmp_path / "live" / "summary.json").read_text())
    history = read_log(tmp_path / "live" / "history.jsonl")
    init_best = max(r["score"] for r in history[:100])
    assert summary["best_score"] > init_best
    for role in ("explorer", "planner", "worker"):
        assert summary["tokens"]["per_role"][role]["total_tokens"] > 0
    ok("live endpoint smoke")
