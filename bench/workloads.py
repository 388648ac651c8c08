"""The benchmark's three offline workloads and how one engine is set up.

Every workload runs the public API with the ``mutator`` backend and a
synthetic oracle, so a run needs no network and no model. A workload is a
function of its seed only: the seed becomes the run seed and the mutator
seed, and nothing else about the config changes between seeds.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Sequence

from agentopt.backends import (
    Backend,
    CompletionRequest,
    CompletionResult,
    RoleRouter,
    TokenLedger,
)
from agentopt.config import build_init_plan, build_oracle, build_router, validate_config
from agentopt.core import Candidate
from agentopt.engine import Engine
from agentopt.events import EVENTS_FILE, HISTORY_FILE, EventLog, HistoryLog
from agentopt.oracles import Oracle
from agentopt.rng import RngHub

# The peptide demo from the README: a 16-residue motif target and three
# unrelated templates, so seed selection has to walk past a growing family
# of near-copies of the best record.
PEPTIDE_TARGET = "KLWKKLRWRLLKWLKK"
PEPTIDE_TEMPLATES = ["KTLKIIRLLFAA", "RQKNHGIHFRVLAKALRR", "HWITINTIKLSISLKIAA"]

# The default SMILES init templates double as the constraint templates; at
# similarity 0.5 about half of the proposals pass, which keeps the filter
# and the portfolio busy on short strings.
SMILES_TARGET = "CCN(CC)CCOc1ccccc1"
SMILES_TEMPLATES = ["CCO", "CC(=O)O", "c1ccccc1", "CCN(CC)CC", "CC(C)CCO"]

# Injected latency for ``latency-bound``: per agent call and per candidate.
AGENT_DELAY_S = 0.010
ORACLE_DELAY_PER_CANDIDATE_S = 0.001

# peptide-long needs 5k evaluations for the cost per evaluation to grow
# visibly. smiles-portfolio is kept short so that one benchmark run covers
# many seeds: its token and byte counts vary widely from seed to seed.
BUDGETS = {"peptide-long": 5000, "smiles-portfolio": 1000, "latency-bound": 1500}


def config_for(workload: str, seed: int, budget: Optional[int] = None) -> dict:
    """The config dict of one run; ``budget`` overrides the workload's own."""
    if workload not in BUDGETS:
        raise ValueError(f"unknown workload {workload!r}")
    budget = BUDGETS[workload] if budget is None else budget
    if workload == "smiles-portfolio":
        return {
            "run": {"seed": seed, "output_dir": "unused"},
            "domain": {"kind": "smiles"},
            "objective": {
                "direction": "maximize",
                "budget": budget,
                "portfolio": {"size": 20, "beta": 0.5},
            },
            "backends": {"default": {"kind": "mutator", "seed": seed}},
            "oracle": {
                "kind": "synthetic",
                "name": "motif-match",
                "params": {"target": SMILES_TARGET},
            },
            "constraint": {
                "kind": "template_similarity",
                "templates": list(SMILES_TEMPLATES),
                "min_similarity": 0.5,
            },
        }
    return {
        "run": {"seed": seed, "output_dir": "unused"},
        "domain": {"kind": "peptide"},
        "objective": {"direction": "maximize", "budget": budget},
        "backends": {"default": {"kind": "mutator", "seed": seed}},
        "oracle": {
            "kind": "synthetic",
            "name": "motif-match",
            "params": {"target": PEPTIDE_TARGET},
        },
        "init": {
            "source": {
                "kind": "templates_plus_mutations",
                "templates": list(PEPTIDE_TEMPLATES),
            },
            "count": 100,
        },
    }


class DelayedBackend(Backend):
    """Sleep a fixed time per call, then delegate to the wrapped backend.

    The sleep comes first and touches no state, so the wrapped mutator sees
    the same calls in the same order as without it, and several callers can
    go through one instance at once.
    """

    def __init__(self, inner: Backend, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.name = inner.name  # events and the ledger stay as without delay

    def complete(self, request: CompletionRequest) -> CompletionResult:
        time.sleep(self.delay_s)
        return self.inner.complete(request)

    def seek(self, positions: dict[str, int]) -> None:
        self.inner.seek(positions)

    def positions(self) -> dict[str, int]:
        return self.inner.positions()


class DelayedOracle(Oracle):
    """Sleep a fixed time per candidate around the wrapped oracle's batch."""

    def __init__(self, inner: Oracle, delay_per_candidate_s: float):
        super().__init__()
        self.inner = inner
        self.delay_per_candidate_s = delay_per_candidate_s
        self.name = inner.name

    def evaluate_many(self, candidates: Sequence[Candidate]) -> list[float]:
        time.sleep(self.delay_per_candidate_s * len(candidates))
        return self.inner.evaluate_many(candidates)


def build_engine(workload: str, cfg: dict, run_dir: Path) -> tuple[Engine, TokenLedger]:
    """From a config dict to a constructed ``Engine`` writing into ``run_dir``.

    This is the span ``setup_s`` times: config validation with template
    loading, the oracle, the router, the init plan and the engine itself.
    """
    config = validate_config(cfg)
    ledger = TokenLedger()
    rng = RngHub(config.seed)
    oracle = build_oracle(config.raw)
    router = build_router(config, ledger)
    if workload == "latency-bound":
        oracle = DelayedOracle(oracle, ORACLE_DELAY_PER_CANDIDATE_S)
        # Role settings only fill in request fields the mutator ignores.
        delayed = DelayedBackend(router.backend_for("worker"), AGENT_DELAY_S)
        router = RoleRouter(ledger, delayed)
    engine = Engine(
        domain=config.domain,
        objective=config.objective,
        loop=config.loop,
        router=router,
        oracle=oracle,
        constraint=config.constraint,
        init_plan=build_init_plan(config, rng),
        rng=rng,
        run_dir=run_dir,
        event_log=EventLog(run_dir / EVENTS_FILE),
        history_log=HistoryLog(run_dir / HISTORY_FILE),
    )
    return engine, ledger
