"""Candidate/score/history data model shared by every other module.

Scores are plain floats carried together with an explicit optimization
direction; minimization is never rewritten as negated maximization, so the
numbers agents see in prompts are always raw objective values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .errors import DuplicateCandidate, EmptyCandidate, EmptyHistory


class DomainKind(str, Enum):
    PEPTIDE = "peptide"
    SMILES = "smiles"
    GENERIC = "generic"


class Direction(str, Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class Candidate:
    """A design candidate: the raw agent text plus its canonical form.

    Two candidates are equal iff their canonical texts are equal; the raw
    spelling an agent happened to use is kept only for logging.
    """

    __slots__ = ("raw", "canonical", "kind")

    def __init__(self, raw: str, canonical: str, kind: DomainKind):
        self.raw = raw
        self.canonical = canonical
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Candidate):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def __repr__(self) -> str:
        return f"Candidate({self.canonical!r}, kind={self.kind.value})"


def canonicalize(raw: str, kind: DomainKind) -> Candidate:
    """Normalize agent text into a canonical candidate.

    Peptides are uppercased with all whitespace removed; SMILES and generic
    strings only have surrounding whitespace stripped (no chemical
    canonicalization is attempted here).

    Raises ``EmptyCandidate`` when nothing remains after trimming.
    """
    if kind == DomainKind.PEPTIDE:
        canonical = "".join(raw.split()).upper()
    else:
        canonical = raw.strip()
    if not canonical:
        raise EmptyCandidate(f"candidate is empty after normalization: {raw!r}")
    return Candidate(raw=raw, canonical=canonical, kind=kind)


def is_improvement(a: float, b: float, direction: Direction) -> bool:
    """True iff score ``a`` is strictly better than ``b``. Ties never improve."""
    if direction == Direction.MAXIMIZE:
        return a > b
    return a < b


def format_score(value: float) -> str:
    """Render a score with 4 significant digits for prompts and summaries.

    Values below 1e-3 in magnitude switch to scientific notation
    (e.g. ``1.957e-04``); larger values keep plain decimals with trailing
    zeros preserved (``270.0``, ``0.005560``).
    """
    if value != value:  # NaN guard for logging paths only
        return "nan"
    if value == 0:
        return "0.000"
    mag = abs(value)
    if mag < 1e-3:
        return f"{value:.3e}"
    decimals = 3 - math.floor(math.log10(mag))
    if decimals < 0:
        decimals = 0
    return f"{value:.{decimals}f}"


@dataclass(frozen=True)
class ScoredRecord:
    """One oracle evaluation: candidate, score, and its 1-based call index."""

    candidate: Candidate
    score: float
    eval_index: int
    origin: str  # "init" | "explorer" | "worker:<TASK>" | "resampled-init"


# The one ranking of the history: best score first, ties to the earliest eval.
# Keys are unique (eval indices are), so bisect finds a record's rank.
RANK_KEYS = {
    Direction.MAXIMIZE: lambda r: (-r.score, r.eval_index),
    Direction.MINIMIZE: lambda r: (r.score, r.eval_index),
}


class History:
    """Append-only evaluated dataset with a canonical-form uniqueness index.

    Single-writer: all mutation flows through :meth:`append`, which hands out
    contiguous eval indices and keeps the best-first ranking of every
    direction asked for so far. Readers may hold references to ``records``
    freely; the list is never reordered.
    """

    def __init__(self) -> None:
        self.records: list[ScoredRecord] = []
        self.canonical_index: dict[str, int] = {}
        self._ranked: dict[Direction, list[ScoredRecord]] = {}

    @property
    def evals_used(self) -> int:
        return len(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ScoredRecord]:
        return iter(self.records)

    def contains(self, canonical: str) -> bool:
        return canonical in self.canonical_index

    def append(self, candidate: Candidate, score: float, origin: str) -> ScoredRecord:
        """Record a fresh evaluation and return the stored record.

        Raises ``DuplicateCandidate`` if the canonical text was seen before;
        deduplication belongs in the filter, so a collision here is a bug in
        the calling loop.
        """
        if candidate.canonical in self.canonical_index:
            raise DuplicateCandidate(candidate.canonical)
        record = ScoredRecord(
            candidate=candidate,
            score=score,
            eval_index=len(self.records) + 1,
            origin=origin,
        )
        self.records.append(record)
        self.canonical_index[candidate.canonical] = record.eval_index
        for direction, ranked in self._ranked.items():
            bisect.insort(ranked, record, key=RANK_KEYS[direction])
        return record

    def best_record(self, direction: Direction) -> ScoredRecord:
        """Best record under ``direction``; ties go to the earliest eval."""
        if not self.records:
            raise EmptyHistory("history has no records")
        return self._ranking(direction)[0]

    def ranked(self, direction: Direction) -> list[ScoredRecord]:
        """Records best-to-worst, ties broken by earliest eval index.

        The list is the history's own index, built on the first ask for
        ``direction`` and kept up to date by :meth:`append` from then on;
        callers must not modify it.
        """
        return self._ranking(direction)

    def _ranking(self, direction: Direction) -> list[ScoredRecord]:
        ranked = self._ranked.get(direction)
        if ranked is None:
            ranked = sorted(self.records, key=RANK_KEYS[direction])
            self._ranked[direction] = ranked
        return ranked


@dataclass(frozen=True)
class PortfolioSpec:
    """Parameters of diverse-portfolio tracking: size and minimum spacing."""

    size: int = 20
    beta: float = 0.75

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("portfolio size must be at least 2")
        if not 0 < self.beta <= 1:
            raise ValueError("portfolio beta must lie in (0, 1]")


@dataclass
class ObjectiveSpec:
    """What is being optimized: direction, oracle budget, optional extras."""

    direction: Direction
    budget: int
    description: Optional[str] = None  # appended to prompts when set
    portfolio: Optional[PortfolioSpec] = None

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")
