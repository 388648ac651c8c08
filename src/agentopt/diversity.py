"""Diverse seed selection and diverse-portfolio tracking.

Both use the same greedy rule: walk the history best-to-worst and keep a
record only if it sits at least ``threshold`` away from everything already
kept. Greedy is not optimal in general, but it is deterministic, cheap, and
always feasible, which is what the loop needs at every step. Every "is it
far enough?" question goes to one ``EditDistanceIndex``.

Both also update an earlier selection instead of rebuilding it as the
history grows. Greedy's verdict on a record depends only on the records kept
above it in the ranking, so the new records are taken in rank order: one that
ranks below the last member of a full selection, or that a member ranked
above it rejects, leaves the selection unchanged. At the first one accepted,
the members ranked above it stay and the walk resumes from its rank.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .core import RANK_KEYS, Direction, History, PortfolioSpec, ScoredRecord
from .distance import EditDistanceIndex
from .errors import EmptyHistory


@dataclass(frozen=True)
class Selection:
    """Greedy diverse selection over the first ``seen`` records of a history."""

    members: list[ScoredRecord]
    seen: int


def _fits(
    record: ScoredRecord,
    kept: list[ScoredRecord],
    threshold: float,
    distances: EditDistanceIndex,
) -> bool:
    text = record.candidate.canonical
    return all(distances.far(text, k.candidate.canonical, threshold) for k in kept)


def _greedy_select(
    ranked: list[ScoredRecord],
    max_size: int,
    threshold: float,
    distances: EditDistanceIndex,
    kept: list[ScoredRecord],
) -> list[ScoredRecord]:
    """Extend ``kept`` in place by a greedy walk over a best-first ranking."""
    for record in ranked:
        if len(kept) == max_size:
            break
        if _fits(record, kept, threshold, distances):
            kept.append(record)
    return kept


def _greedy_update(
    history: History,
    previous: Optional[Selection],
    max_size: int,
    threshold: float,
    distances: EditDistanceIndex,
    direction: Direction,
) -> list[ScoredRecord]:
    """Greedy selection of the whole history, from ``previous`` when given.

    ``previous`` must be this function's selection of an earlier prefix of
    ``history`` under the same size, threshold and direction.
    """
    members, seen = (previous.members, previous.seen) if previous else ([], 0)
    key = RANK_KEYS[direction]
    for record in sorted(history.records[seen:], key=key):
        above = members[: bisect.bisect_left(members, key(record), key=key)]
        if len(above) == max_size:
            break  # greedy filled up above this record and every later one
        if _fits(record, above, threshold, distances):
            ranked = history.ranked(direction)
            start = bisect.bisect_left(ranked, key(record), key=key)
            return _greedy_select(
                ranked[start + 1 :], max_size, threshold, distances, above + [record]
            )
    return members


def select_diverse_seeds(
    history: History,
    m: int,
    threshold: float,
    distances: EditDistanceIndex,
    direction: Direction,
    previous: Optional[Selection] = None,
) -> Selection:
    """Pick up to ``m`` mutually-distant starting points for local search.

    The global best is always included; fewer than ``m`` seeds are returned
    when the history cannot supply that many sufficiently distinct records.
    ``previous``, the seeds of an earlier prefix of this history under the
    same ``m`` and ``threshold``, is updated rather than rebuilt.
    """
    if len(history) == 0:
        raise EmptyHistory("cannot select seeds from an empty history")
    if m < 1:
        raise ValueError("seed count must be >= 1")
    members = _greedy_update(history, previous, m, threshold, distances, direction)
    return Selection(members=members, seen=len(history))


@dataclass(frozen=True)
class Portfolio(Selection):
    """A diverse set of strong records plus its mean score."""

    agg_value: float
    complete: bool  # True when the full requested size was reachable


def best_portfolio_greedy(
    history: History,
    spec: PortfolioSpec,
    distances: EditDistanceIndex,
    direction: Direction,
    previous: Optional[Portfolio] = None,
) -> Portfolio:
    """Best-first greedy portfolio under the pairwise distance constraint.

    ``previous``, the portfolio of an earlier prefix of this history under
    the same ``spec``, is updated rather than rebuilt.
    """
    if len(history) == 0:
        raise EmptyHistory("cannot build a portfolio from an empty history")
    members = _greedy_update(
        history, previous, spec.size, spec.beta, distances, direction
    )
    return Portfolio(
        members=members,
        seen=len(history),
        agg_value=sum(r.score for r in members) / len(members),
        complete=len(members) == spec.size,
    )


@dataclass(frozen=True)
class PortfolioPoint:
    eval_index: int
    agg_value: float
    complete: bool


def portfolio_progress(
    history: History,
    spec: PortfolioSpec,
    distances: EditDistanceIndex,
    direction: Direction,
) -> list[PortfolioPoint]:
    """Portfolio aggregate over every prefix of the history.

    Equal to rebuilding the greedy portfolio from scratch after each
    evaluation; each prefix's portfolio is updated from the one before.
    """
    points: list[PortfolioPoint] = []
    replay = History()
    portfolio = None
    for record in history.records:
        added = replay.append(record.candidate, record.score, record.origin)
        portfolio = best_portfolio_greedy(replay, spec, distances, direction, portfolio)
        points.append(
            PortfolioPoint(
                eval_index=added.eval_index,
                agg_value=portfolio.agg_value,
                complete=portfolio.complete,
            )
        )
    return points
