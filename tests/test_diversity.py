from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentopt.core import Direction, History, PortfolioSpec
from agentopt.distance import EditDistanceIndex, normalized_edit_distance
from agentopt.diversity import (
    best_portfolio_greedy,
    portfolio_progress,
    select_diverse_seeds,
)
from agentopt.errors import EmptyHistory

from .conftest import cand, random_history

DIST = normalized_edit_distance


def history_of(pairs: list[tuple[str, float]]) -> History:
    history = History()
    for text, score in pairs:
        history.append(cand(text), score, "init")
    return history


def texts(selection) -> list[str]:
    return [r.candidate.canonical for r in selection.members]


def reference_greedy(history: History, m: int, threshold: float, direction):
    """Independent reimplementation of greedy diverse selection, on the bare kernel."""
    ranked = sorted(
        history.records,
        key=lambda r: (
            -r.score if direction == Direction.MAXIMIZE else r.score,
            r.eval_index,
        ),
    )
    kept = []
    for record in ranked:
        if all(
            DIST(record.candidate.canonical, k.candidate.canonical) >= threshold
            for k in kept
        ):
            kept.append(record)
            if len(kept) == m:
                break
    return kept


# -- seeds ---------------------------------------------------------------------


def test_identical_candidates_yield_single_seed():
    # same canonical can only appear once in a history, so "identical" here
    # means distance-zero variants are impossible; use near-zero instead
    history = history_of([("AAAA", 5.0), ("AAAB", 4.0), ("AABA", 3.0)])
    seeds = select_diverse_seeds(history, 3, 0.75, EditDistanceIndex(), Direction.MAXIMIZE)
    assert texts(seeds) == ["AAAA"]


def test_greedy_skips_near_duplicate_of_best():
    history = history_of(
        [("KLWRKLLR", 9.0), ("KLWRKLLK", 8.0), ("DDDDDDDD", 7.0)]
    )
    seeds = select_diverse_seeds(history, 2, 0.75, EditDistanceIndex(), Direction.MAXIMIZE)
    assert texts(seeds) == ["KLWRKLLR", "DDDDDDDD"]


def test_seed_selection_matches_reference_greedy():
    rng = random.Random(23)
    for _ in range(40):
        history = random_history(rng, 30)
        seeds = select_diverse_seeds(
            history, 3, 0.6, EditDistanceIndex(), Direction.MAXIMIZE
        )
        assert seeds.members == reference_greedy(history, 3, 0.6, Direction.MAXIMIZE)
        for a, b in itertools.combinations(texts(seeds), 2):
            assert DIST(a, b) >= 0.6


def test_seeds_always_include_global_best():
    rng = random.Random(29)
    for _ in range(20):
        history = random_history(rng, 25)
        best = history.best_record(Direction.MAXIMIZE)
        seeds = select_diverse_seeds(
            history, 2, 0.75, EditDistanceIndex(), Direction.MAXIMIZE
        )
        assert seeds.members[0] == best


def test_seeds_empty_history_raises():
    with pytest.raises(EmptyHistory):
        select_diverse_seeds(History(), 2, 0.75, EditDistanceIndex(), Direction.MAXIMIZE)


def test_seeds_are_deterministic():
    rng = random.Random(31)
    history = random_history(rng, 40)
    a = select_diverse_seeds(history, 4, 0.5, EditDistanceIndex(), Direction.MINIMIZE)
    b = select_diverse_seeds(history, 4, 0.5, EditDistanceIndex(), Direction.MINIMIZE)
    assert texts(a) == texts(b)


# -- portfolio -------------------------------------------------------------------


def test_portfolio_unconstrained_takes_top_m():
    history = history_of(
        [("AAAAA", 5.0), ("DDDDD", 4.0), ("KKKKK", 3.0), ("WWWWW", 2.0)]
    )
    portfolio = best_portfolio_greedy(
        history, PortfolioSpec(size=3, beta=0.75), EditDistanceIndex(), Direction.MAXIMIZE
    )
    assert [r.score for r in portfolio.members] == [5.0, 4.0, 3.0]
    assert portfolio.agg_value == 4.0
    assert portfolio.complete is True


def test_portfolio_constraint_skips_second_best():
    history = history_of(
        [("KLWRKLLR", 9.0), ("KLWRKLLK", 8.0), ("DDDDDDDD", 7.0), ("WWWWWWWW", 6.0)]
    )
    portfolio = best_portfolio_greedy(
        history, PortfolioSpec(size=3, beta=0.75), EditDistanceIndex(), Direction.MAXIMIZE
    )
    texts = [r.candidate.canonical for r in portfolio.members]
    assert "KLWRKLLK" not in texts
    assert texts[0] == "KLWRKLLR"


def test_portfolio_incomplete_flagged():
    history = history_of([("AAAA", 2.0), ("AAAB", 1.0)])
    portfolio = best_portfolio_greedy(
        history, PortfolioSpec(size=3, beta=0.75), EditDistanceIndex(), Direction.MAXIMIZE
    )
    assert portfolio.complete is False
    assert len(portfolio.members) == 1


def brute_force_best(history: History, spec: PortfolioSpec, direction):
    """Exhaustive search over all feasible size-M subsets."""
    best_agg = None
    feasible_exists = False
    for combo in itertools.combinations(history.records, spec.size):
        ok = all(
            DIST(a.candidate.canonical, b.candidate.canonical) >= spec.beta
            for a, b in itertools.combinations(combo, 2)
        )
        if not ok:
            continue
        feasible_exists = True
        agg = sum(r.score for r in combo) / spec.size
        if best_agg is None:
            best_agg = agg
        elif direction == Direction.MAXIMIZE:
            best_agg = max(best_agg, agg)
        else:
            best_agg = min(best_agg, agg)
    return best_agg if feasible_exists else None


def test_portfolio_feasibility_and_gap_vs_brute_force():
    rng = random.Random(37)
    spec = PortfolioSpec(size=3, beta=0.75)
    gaps = []
    for _ in range(40):
        history = random_history(rng, rng.randint(4, 10), min_len=4, max_len=9)
        portfolio = best_portfolio_greedy(
            history, spec, EditDistanceIndex(), Direction.MAXIMIZE
        )
        for a, b in itertools.combinations(portfolio.members, 2):
            assert DIST(a.candidate.canonical, b.candidate.canonical) >= spec.beta
        exact = brute_force_best(history, spec, Direction.MAXIMIZE)
        if portfolio.complete:
            assert exact is not None
            assert portfolio.agg_value <= exact + 1e-12
            gaps.append(exact - portfolio.agg_value)
        else:
            # greedy found < M members; exact may or may not have a full set
            continue
    assert gaps, "expected at least one complete portfolio in the sample"


def test_greedy_can_be_suboptimal_and_gap_oracle_sees_it():
    # the best record sits midway between two mutually-far runners-up:
    # greedy locks onto it and blocks both, while the exact optimum takes
    # the runner-up pair
    history = history_of(
        [
            ("K" * 8 + "W" * 8, 10.0),  # 0.5 away from each of the next two
            ("K" * 16, 9.0),
            ("W" * 16, 8.0),  # 1.0 away from K*16
            ("D" * 16, 1.0),  # far from everything
        ]
    )
    spec = PortfolioSpec(size=2, beta=0.75)
    greedy = best_portfolio_greedy(history, spec, EditDistanceIndex(), Direction.MAXIMIZE)
    assert [r.score for r in greedy.members] == [10.0, 1.0]
    assert greedy.complete is True
    exact = brute_force_best(history, spec, Direction.MAXIMIZE)
    assert exact == pytest.approx(8.5)
    assert exact - greedy.agg_value == pytest.approx(3.0)  # measurable gap


def test_portfolio_progress_matches_scratch_recompute():
    rng = random.Random(41)
    history = random_history(rng, 50, min_len=4, max_len=12)
    spec = PortfolioSpec(size=3, beta=0.6)
    points = portfolio_progress(history, spec, EditDistanceIndex(), Direction.MAXIMIZE)
    assert len(points) == 50
    for t, point in enumerate(points, start=1):
        prefix = History()
        for record in history.records[:t]:
            prefix.append(record.candidate, record.score, record.origin)
        expected = best_portfolio_greedy(
            prefix, spec, EditDistanceIndex(), Direction.MAXIMIZE
        )
        assert point.eval_index == t
        assert point.agg_value == pytest.approx(expected.agg_value)
        assert point.complete == expected.complete


def test_portfolio_progress_full_agg_never_worsens():
    rng = random.Random(43)
    for _ in range(10):
        history = random_history(rng, 40, min_len=4, max_len=10)
        points = portfolio_progress(
            history,
            PortfolioSpec(size=3, beta=0.5),
            EditDistanceIndex(),
            Direction.MAXIMIZE,
        )
        previous = None
        for point in points:
            if point.complete and previous is not None:
                assert point.agg_value >= previous - 1e-12
            if point.complete:
                previous = point.agg_value


def test_portfolio_empty_history_raises():
    with pytest.raises(EmptyHistory):
        best_portfolio_greedy(
            History(),
            PortfolioSpec(size=3, beta=0.5),
            EditDistanceIndex(),
            Direction.MAXIMIZE,
        )


# Records append in batches of one to four, as in the engine; texts over three
# letters are often within the threshold, and integer scores tie often.
BATCHES = st.lists(
    st.lists(
        st.tuples(st.text(alphabet="ABC", min_size=2, max_size=5), st.integers(-2, 2)),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("direction", list(Direction))
@settings(max_examples=150, deadline=None)
@given(max_size=st.integers(1, 4), threshold=st.sampled_from([0.3, 0.5, 0.75]), batches=BATCHES)
# An incomplete selection that a new best (maximize) or a last record
# (minimize) completes, then records that tie the last member or land between
# two members.
@example(
    max_size=2,
    threshold=0.5,
    batches=[[("AAAA", 0), ("AAAB", -2)], [("BBBB", 2)], [("CCCB", 0)], [("CCAA", -1)]],
)
# Records landing between two members of a full selection: one rejected, one
# accepted, which pushes the last member out.
@example(
    max_size=3,
    threshold=0.5,
    batches=[[("BBBB", 2), ("AAAA", 0), ("CCCC", -2)], [("AAAB", -1)], [("AACC", -1)]],
)
@example(max_size=4, threshold=0.75, batches=[[("AB", 0)], [("AC", 1), ("BC", 1)], [("CC", 2)]])
def test_incremental_selection_matches_scratch_greedy(direction, max_size, threshold, batches):
    history = History()
    seeds = portfolio = None
    distances = EditDistanceIndex()  # one for the whole history, as in the engine
    for batch in batches:
        for text, score in batch:
            if not history.contains(text):
                history.append(cand(text), float(score), "init")
        scratch = reference_greedy(history, max_size, threshold, direction)
        seeds = select_diverse_seeds(
            history, max_size, threshold, distances, direction, seeds
        )
        assert seeds.members == scratch
        assert seeds.seen == len(history)
        if max_size >= 2:
            spec = PortfolioSpec(size=max_size, beta=threshold)
            portfolio = best_portfolio_greedy(
                history, spec, distances, direction, portfolio
            )
            fresh = best_portfolio_greedy(history, spec, EditDistanceIndex(), direction)
            assert portfolio == fresh
            assert portfolio.members == scratch


# Texts over two letters of 6 to 10 characters: near each other often enough
# that the 0.75 seeds and the 0.5 portfolio reject records, and one index
# answers both, so each reuses what the other learned.
LONG_BATCHES = st.lists(
    st.lists(
        st.tuples(st.text(alphabet="AB", min_size=6, max_size=10), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=25,
)


@pytest.mark.parametrize("direction", list(Direction))
@settings(max_examples=100, deadline=None)
@given(batches=LONG_BATCHES)
def test_seeds_and_portfolio_through_one_index_match_scratch_greedy(direction, batches):
    history = History()
    distances = EditDistanceIndex()
    spec = PortfolioSpec(size=4, beta=0.5)
    seeds = portfolio = None
    for batch in batches:
        for text, score in batch:
            if not history.contains(text):
                history.append(cand(text), float(score), "init")
        seeds = select_diverse_seeds(history, 3, 0.75, distances, direction, seeds)
        assert seeds.members == reference_greedy(history, 3, 0.75, direction)
        portfolio = best_portfolio_greedy(history, spec, distances, direction, portfolio)
        assert portfolio.members == reference_greedy(history, 4, 0.5, direction)
