"""Candidate/score/history data model shared by every other module.

Scores are plain floats and stay raw objective values, so the numbers agents
see in prompts are the oracle's own. A run's direction is held by its
``History``, which ranks the records by it; minimization is never rewritten
as negated maximization outside the history's rank key.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
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


class History:
    """Append-only evaluated dataset, ranked by its run's direction.

    Single-writer: all mutation flows through :meth:`append`, which hands out
    contiguous eval indices and inserts each record into the one ranking:
    best score first, ties to the earliest eval. The ranking holds
    ``(*key(record), record)`` tuples; eval indices are unique, so the tuples
    compare in C and never reach the record. Every ranked question is
    answered here. Readers may hold references to ``records`` freely; the
    list is never reordered.
    """

    def __init__(self, direction: Direction) -> None:
        self.direction = direction
        self.records: list[ScoredRecord] = []
        self.canonical_index: dict[str, int] = {}
        self._sign = -1.0 if direction == Direction.MAXIMIZE else 1.0
        self._ranking: list[tuple[float, int, ScoredRecord]] = []

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
        eval_index = len(self.records) + 1
        record = ScoredRecord(candidate, score, eval_index, origin)
        self.records.append(record)
        self.canonical_index[candidate.canonical] = eval_index
        bisect.insort(self._ranking, (self._sign * score, eval_index, record))
        return record

    def key(self, record: ScoredRecord) -> tuple[float, int]:
        """The record's rank key: sorting by it gives the ranking."""
        return (self._sign * record.score, record.eval_index)

    def improves(self, a: float, b: float) -> bool:
        """True iff score ``a`` is strictly better than ``b``. Ties never improve."""
        return self._sign * a < self._sign * b

    def rank(self, record: ScoredRecord) -> int:
        """The 0-based position of a record of this history in the ranking."""
        return bisect.bisect_left(self._ranking, self.key(record))

    def ranked(
        self, start: int = 0, stop: Optional[int] = None, step: int = 1
    ) -> list[ScoredRecord]:
        """The records ``start:stop:step`` of the ranking, best first."""
        return list(map(itemgetter(2), self._ranking[start:stop:step]))

    def best_record(self, direction: Optional[Direction] = None) -> ScoredRecord:
        """The best record; ties go to the earliest eval.

        ``direction``, if given, must be the history's own.
        """
        if direction is not None and direction != self.direction:
            raise ValueError(f"this history ranks by {self.direction.value}")
        if not self._ranking:
            raise EmptyHistory("history has no records")
        return self._ranking[0][2]


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
