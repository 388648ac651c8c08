"""Diverse seed selection and diverse-portfolio tracking.

Both use the same greedy rule: walk the history best-to-worst and keep a
record only if it sits at least ``threshold`` away from everything already
kept. Greedy is not optimal in general, but it is deterministic, cheap, and
always feasible, which is what the loop needs at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    Candidate,
    Direction,
    History,
    PortfolioSpec,
    ScoredRecord,
    is_improvement,
)
from .distance import DistanceFn
from .errors import EmptyHistory


def _greedy_select(
    ranked: list[ScoredRecord],
    max_size: int,
    threshold: float,
    dist: DistanceFn,
) -> list[ScoredRecord]:
    """Greedy diverse prefix of a best-first ranking."""
    kept: list[ScoredRecord] = []
    for record in ranked:
        if all(
            dist(record.candidate.canonical, k.candidate.canonical) >= threshold
            for k in kept
        ):
            kept.append(record)
            if len(kept) == max_size:
                break
    return kept


def select_diverse_seeds(
    history: History,
    m: int,
    threshold: float,
    dist: DistanceFn,
    direction: Direction,
) -> list[Candidate]:
    """Pick up to ``m`` mutually-distant starting points for local search.

    The global best is always included; fewer than ``m`` seeds are returned
    when the history cannot supply that many sufficiently distinct records.
    """
    if len(history) == 0:
        raise EmptyHistory("cannot select seeds from an empty history")
    if m < 1:
        raise ValueError("seed count must be >= 1")
    kept = _greedy_select(history.ranked(direction), m, threshold, dist)
    return [record.candidate for record in kept]


@dataclass(frozen=True)
class Portfolio:
    """A diverse set of strong records plus its mean score."""

    members: list[ScoredRecord]
    agg_value: float
    complete: bool  # True when the full requested size was reachable


def best_portfolio_greedy(
    history: History,
    spec: PortfolioSpec,
    dist: DistanceFn,
    direction: Direction,
) -> Portfolio:
    """Best-first greedy portfolio under the pairwise distance constraint."""
    if len(history) == 0:
        raise EmptyHistory("cannot build a portfolio from an empty history")
    members = _greedy_select(history.ranked(direction), spec.size, spec.beta, dist)
    return Portfolio(
        members=members,
        agg_value=sum(r.score for r in members) / len(members),
        complete=len(members) == spec.size,
    )


def portfolio_holds(
    portfolio: Portfolio,
    new_records: Iterable[ScoredRecord],
    direction: Direction,
) -> bool:
    """True when appending ``new_records`` cannot change ``portfolio``.

    That is the case once the portfolio is full and no new record strictly
    beats its last member: such records rank below the point where greedy
    filled up (a later eval loses every tie), so the selection stands.
    """
    if not portfolio.complete:
        return False
    last = portfolio.members[-1]
    return not any(is_improvement(r.score, last.score, direction) for r in new_records)


@dataclass(frozen=True)
class PortfolioPoint:
    eval_index: int
    agg_value: float
    complete: bool


def portfolio_progress(
    history: History,
    spec: PortfolioSpec,
    dist: DistanceFn,
    direction: Direction,
) -> list[PortfolioPoint]:
    """Portfolio aggregate over every prefix of the history.

    Equivalent to rebuilding the greedy portfolio from scratch after each
    evaluation; the rebuild is skipped whenever :func:`portfolio_holds`.
    """
    points: list[PortfolioPoint] = []
    replay = History()
    portfolio = None
    for record in history.records:
        added = replay.append(record.candidate, record.score, record.origin)
        if portfolio is None or not portfolio_holds(portfolio, [added], direction):
            portfolio = best_portfolio_greedy(replay, spec, dist, direction)
        points.append(
            PortfolioPoint(
                eval_index=added.eval_index,
                agg_value=portfolio.agg_value,
                complete=portfolio.complete,
            )
        )
    return points
