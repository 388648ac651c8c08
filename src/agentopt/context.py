"""Global-context construction: top-k exemplars plus rank-coverage samples.

The sampled slice is what the proposal and planning agents actually see, so
it must always contain the best records and still reach into the bad tail of
the history (the full performance spectrum, not just winners).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Direction, History, ScoredRecord, format_score
from .errors import EmptyHistory


@dataclass(frozen=True)
class ContextSpec:
    """Size of the rendered context and of its best-records head."""

    context_size: int = 20
    top_k: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.top_k <= self.context_size:
            raise ValueError("require 1 <= top_k <= context_size")


@dataclass
class GlobalContext:
    """Rank-annotated slice of history, ordered best-to-worst."""

    entries: list[tuple[int, ScoredRecord]]


def sampled_ranks(n_records: int, spec: ContextSpec, offset: int) -> list[int]:
    """1-based ranks selected for a history of ``n_records`` entries.

    Ranks 1..top_k are always taken. The remainder is sampled at a uniform
    rank stride ``(n - top_k) // (context_size - top_k)`` starting at
    ``top_k + 1 + offset``. Exposed separately so the arithmetic is testable
    without drawing randomness.
    """
    if n_records <= spec.context_size:
        return list(range(1, n_records + 1))
    ranks = list(range(1, spec.top_k + 1))
    n_samples = spec.context_size - spec.top_k
    if n_samples == 0:
        return ranks
    remainder = n_records - spec.top_k
    stride = remainder // n_samples
    if offset >= stride:
        raise ValueError("offset must be in [0, stride)")
    for i in range(n_samples):
        ranks.append(spec.top_k + 1 + offset + i * stride)
    return ranks


def coverage_sample(
    history: History,
    spec: ContextSpec,
    direction: Direction,
    rng: random.Random,
) -> GlobalContext:
    """Build the global context from a history snapshot.

    Histories no larger than the context are passed through whole. Otherwise
    the top-k best records are kept and the rest of the context is filled at
    uniform rank intervals with a random initial offset drawn from ``rng``.
    """
    if len(history) == 0:
        raise EmptyHistory("cannot sample context from an empty history")
    ranked = history.ranked(direction)
    n = len(ranked)
    if n <= spec.context_size:
        offset = 0
    else:
        n_samples = spec.context_size - spec.top_k
        stride = (n - spec.top_k) // n_samples if n_samples else 1
        offset = rng.randrange(stride) if stride > 1 else 0
    ranks = sampled_ranks(n, spec, offset)
    return GlobalContext(entries=[(rank, ranked[rank - 1]) for rank in ranks])


def render_context(ctx: GlobalContext) -> str:
    """Render the context as one ``score: candidate`` line per entry.

    Lines keep the context's best-first order: highest score first when
    maximizing, lowest first when minimizing.
    """
    if not ctx.entries:
        raise EmptyHistory("cannot render an empty context")
    return "\n".join(
        f"{format_score(record.score)}: {record.candidate.canonical}"
        for _, record in ctx.entries
    )
