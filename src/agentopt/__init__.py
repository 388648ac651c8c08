"""Agent-driven black-box optimization over discrete design spaces.

The package wires three chat-agent roles (global proposer, strategy planner,
local-search workers) into a deterministic budgeted loop with strict
pre-evaluation filtering, a performance-tracked task library, and diverse
portfolio tracking. Backends and oracles are pluggable, so the entire loop
runs and tests offline against scripted agents and synthetic objectives.
"""

from .core import (
    Candidate,
    Direction,
    DomainKind,
    History,
    ObjectiveSpec,
    PortfolioSpec,
    ScoredRecord,
    canonicalize,
    format_score,
)
from .engine import Engine, InitPlan, LoopParams, RunResult
from .errors import AgentOptError

__version__ = "0.1.0"

__all__ = [
    "AgentOptError",
    "Candidate",
    "Direction",
    "DomainKind",
    "Engine",
    "History",
    "InitPlan",
    "LoopParams",
    "ObjectiveSpec",
    "PortfolioSpec",
    "RunResult",
    "ScoredRecord",
    "canonicalize",
    "format_score",
    "__version__",
]
