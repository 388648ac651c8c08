from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agentopt.core import (
    Direction,
    DomainKind,
    History,
    ObjectiveSpec,
    PortfolioSpec,
    canonicalize,
    format_score,
    is_improvement,
)
from agentopt.errors import DuplicateCandidate, EmptyCandidate, EmptyHistory

from .conftest import cand, make_history


# -- canonicalize -----------------------------------------------------------


def test_canonicalize_peptide_uppercases_and_strips_whitespace():
    assert canonicalize("klwr ", DomainKind.PEPTIDE).canonical == "KLWR"
    assert canonicalize("k l\twr\n", DomainKind.PEPTIDE).canonical == "KLWR"


def test_canonicalize_smiles_is_identity_modulo_trim():
    assert canonicalize("CCO", DomainKind.SMILES).canonical == "CCO"
    assert canonicalize("  CCO \n", DomainKind.SMILES).canonical == "CCO"
    # no case folding for molecules: aromatic atoms are lowercase
    assert canonicalize("c1ccccc1", DomainKind.SMILES).canonical == "c1ccccc1"


def test_canonicalize_rejects_whitespace_only():
    with pytest.raises(EmptyCandidate):
        canonicalize("  ", DomainKind.PEPTIDE)
    with pytest.raises(EmptyCandidate):
        canonicalize("\t\n", DomainKind.GENERIC)


@given(st.text(min_size=1), st.sampled_from(list(DomainKind)))
def test_canonicalize_is_idempotent(raw, kind):
    try:
        first = canonicalize(raw, kind)
    except EmptyCandidate:
        return
    second = canonicalize(first.canonical, kind)
    assert second.canonical == first.canonical


def test_candidate_equality_is_canonical_only():
    a = canonicalize("klwr", DomainKind.PEPTIDE)
    b = canonicalize(" KLWR ", DomainKind.PEPTIDE)
    assert a == b
    assert hash(a) == hash(b)
    assert a != canonicalize("KLWK", DomainKind.PEPTIDE)


# -- is_improvement ----------------------------------------------------------


def test_ties_are_never_improvements():
    assert is_improvement(0.5, 0.5, Direction.MAXIMIZE) is False
    assert is_improvement(0.5, 0.5, Direction.MINIMIZE) is False


def test_minimize_improvement_uses_lower_is_better():
    # predicted-activity style values: 17.5 beats 22.0 when minimizing
    assert is_improvement(17.5, 22.0, Direction.MINIMIZE) is True
    assert is_improvement(22.0, 17.5, Direction.MINIMIZE) is False


def test_maximize_improvement():
    assert is_improvement(0.606, 0.421, Direction.MAXIMIZE) is True
    assert is_improvement(0.421, 0.606, Direction.MAXIMIZE) is False


# -- History -----------------------------------------------------------------


def test_history_assigns_contiguous_eval_indices():
    history = make_history([1.0, 2.0, 3.0])
    assert [r.eval_index for r in history.records] == [1, 2, 3]
    assert history.evals_used == 3


def test_history_rejects_canonical_duplicates():
    history = History()
    history.append(cand("AAA"), 1.0, "init")
    with pytest.raises(DuplicateCandidate):
        history.append(cand(" AAA "), 2.0, "explorer")


def test_history_score_memoization_lookup():
    history = make_history([0.41])
    assert history.score_of("S0000") == 0.41
    assert history.score_of("missing") is None


def test_best_record_tie_break_is_earliest():
    history = History()
    history.append(cand("A1"), 1.0, "init")
    history.append(cand("B1"), 1.0, "init")
    assert history.best_record(Direction.MAXIMIZE).candidate.canonical == "A1"


def test_best_record_minimize():
    history = History()
    history.append(cand("A1"), 3.0, "init")
    history.append(cand("B1"), 5.0, "init")
    assert history.best_record(Direction.MINIMIZE).candidate.canonical == "A1"


def test_best_record_empty_history_raises():
    with pytest.raises(EmptyHistory):
        History().best_record(Direction.MAXIMIZE)


def test_best_record_matches_exhaustive_scan_oracle():
    rng = random.Random(7)
    scores = [rng.uniform(-50, 50) for _ in range(100)]
    history = make_history(scores)
    for direction in Direction:
        # independent oracle: linear scan over (score, index) tuples
        if direction == Direction.MAXIMIZE:
            expected = min(
                ((-s, i) for i, s in enumerate(scores, start=1))
            )[1]
        else:
            expected = min(((s, i) for i, s in enumerate(scores, start=1)))[1]
        assert history.best_record(direction).eval_index == expected


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=61),
    st.integers(min_value=1, max_value=61),
)
def test_ranked_index_matches_sorted_under_ties(scores, first_max, first_min):
    # few distinct scores, so most appends land among equal-score records;
    # each direction is first asked for after its own number of appends
    # (or only after the last one), and no ranking exists before that
    first_ask = {Direction.MAXIMIZE: first_max, Direction.MINIMIZE: first_min}
    history = History()

    def check(direction, sign):
        expected = sorted(history.records, key=lambda r: (sign * r.score, r.eval_index))
        if first_ask[direction] % 2:  # odd: the first ask is best_record's
            assert history.best_record(direction) is expected[0]
        assert history.ranked(direction) == expected
        assert history.best_record(direction) is history.ranked(direction)[0]

    directions = ((Direction.MAXIMIZE, -1.0), (Direction.MINIMIZE, 1.0))
    for i, score in enumerate(scores, start=1):
        history.append(cand(f"T{i}"), float(score), "init")
        for direction, sign in directions:
            if i >= first_ask[direction]:
                check(direction, sign)
            else:
                assert direction not in history._ranked
    for direction, sign in directions:
        check(direction, sign)


def test_best_never_worsens_as_records_append():
    rng = random.Random(3)
    history = History()
    best_so_far = None
    for i in range(200):
        history.append(cand(f"X{i}"), rng.uniform(0, 1), "init")
        best = history.best_record(Direction.MAXIMIZE).score
        if best_so_far is not None:
            assert best >= best_so_far
        best_so_far = best


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=60))
def test_history_index_and_records_stay_bijective(scores):
    history = make_history(list(scores))
    assert len(history.canonical_index) == len(history.records)
    for canonical, idx in history.canonical_index.items():
        assert history.records[idx - 1].candidate.canonical == canonical


# -- format_score ------------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.4833, "0.4833"),
        (0.07337, "0.07337"),
        (0.01600, "0.01600"),
        (0.005560, "0.005560"),
        (0.001304, "0.001304"),
        (0.0001957, "1.957e-04"),
        (1.044e-05, "1.044e-05"),
        (3.136e-24, "3.136e-24"),
        (85.12, "85.12"),
        (106.4, "106.4"),
        (270.0, "270.0"),
        (510.3, "510.3"),
        (0.0, "0.000"),
    ],
)
def test_format_score_grid(value, expected):
    assert format_score(value) == expected


def test_format_score_negative_values():
    assert format_score(-85.12) == "-85.12"
    assert format_score(-0.0001957) == "-1.957e-04"


# -- specs -------------------------------------------------------------------


def test_objective_spec_validates_budget():
    with pytest.raises(ValueError):
        ObjectiveSpec(direction=Direction.MAXIMIZE, budget=0)


def test_portfolio_spec_validates_fields():
    with pytest.raises(ValueError):
        PortfolioSpec(size=1)
    with pytest.raises(ValueError):
        PortfolioSpec(size=5, beta=0.0)
    with pytest.raises(ValueError):
        PortfolioSpec(size=5, beta=1.5)
    spec = PortfolioSpec()
    assert (spec.size, spec.beta) == (20, 0.75)
