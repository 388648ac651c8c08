"""Global-context construction: top-k exemplars plus rank-coverage samples.

The sampled slice is what the proposal and planning agents actually see, so
it must always contain the best records and still reach into the bad tail of
the history (the full performance spectrum, not just winners).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import History, ScoredRecord, format_score
from .errors import EmptyHistory


@dataclass(frozen=True)
class ContextSpec:
    """Size of the rendered context and of its best-records head."""

    context_size: int = 20
    top_k: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.top_k <= self.context_size:
            raise ValueError("require 1 <= top_k <= context_size")


def coverage_sample(
    history: History,
    spec: ContextSpec,
    rng: random.Random,
) -> list[ScoredRecord]:
    """The records the agents see, best first.

    Histories no larger than the context are passed through whole. Otherwise
    the top-k best records come first, then ``context_size - top_k`` records
    at the rank stride ``(n - top_k) // (context_size - top_k)``, starting at
    a random offset below the stride drawn from ``rng``.
    """
    n = len(history)
    if n == 0:
        raise EmptyHistory("cannot sample context from an empty history")
    if n <= spec.context_size:
        return history.ranked()
    n_samples = spec.context_size - spec.top_k
    stride = (n - spec.top_k) // n_samples if n_samples else 1
    start = spec.top_k + (rng.randrange(stride) if stride > 1 else 0)
    return history.ranked(0, spec.top_k) + history.ranked(
        start, start + n_samples * stride, stride
    )


def render_context(records: list[ScoredRecord]) -> str:
    """Render the records as one ``score: candidate`` line each, in order."""
    if not records:
        raise EmptyHistory("cannot render an empty context")
    return "\n".join(f"{format_score(r.score)}: {r.candidate.canonical}" for r in records)
