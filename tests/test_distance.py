from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from agentopt.distance import (
    MemoDistance,
    levenshtein,
    normalized_edit_distance,
    similarity,
)

from .conftest import long_text


def reference_levenshtein(a: str, b: str) -> int:
    """Independent full-matrix Wagner-Fischer implementation."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[n][m]


def test_levenshtein_known_values():
    assert levenshtein("KITTEN", "SITTING") == 3
    assert levenshtein("AB", "XYXYXY") == 6
    assert levenshtein("", "ABC") == 3
    assert levenshtein("SAME", "SAME") == 0


def test_levenshtein_agrees_with_full_matrix_oracle():
    rng = random.Random(11)
    alphabet = "ABCD"
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
        assert levenshtein(a, b) == reference_levenshtein(a, b)


# Lengths past one 64-bit machine word, and letters that occur in only one
# of the two strings (A, B only in ``a``; F, G only in ``b``).
@settings(max_examples=200, deadline=None)
@given(long_text("ABCDE"), long_text("CDEFG"))
def test_levenshtein_matches_full_matrix_past_one_word(a, b):
    expected = reference_levenshtein(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


@given(st.text(alphabet="ABCDE", max_size=20), st.text(alphabet="ABCDE", max_size=20))
def test_levenshtein_symmetry_and_identity(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert levenshtein(a, a) == 0


def test_normalized_divides_by_shorter_length():
    # distance 3, shorter length 6
    assert normalized_edit_distance("KITTEN", "SITTING") == 3 / 6
    # can exceed 1 when lengths differ a lot
    assert normalized_edit_distance("AB", "XYXYXY") == 3.0


def test_normalized_degenerate_lengths():
    assert normalized_edit_distance("", "") == 0.0
    assert normalized_edit_distance("", "ABC") == float("inf")


def test_similarity_examples():
    assert similarity("KLWR", "KLWR") == 1.0
    assert similarity("KITTEN", "SITTING") == 0.5
    # normalized distance 3.0 clamps to similarity 0
    assert similarity("AB", "XYXYXY") == 0.0


@given(st.text(alphabet="ACGT", min_size=1, max_size=15),
       st.text(alphabet="ACGT", min_size=1, max_size=15))
def test_similarity_bounds_symmetry_identity(a, b):
    s = similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert s == similarity(b, a)
    assert similarity(a, a) == 1.0


def test_memo_distance_returns_cached_values():
    calls = []

    def spy(a: str, b: str) -> float:
        calls.append((a, b))
        return normalized_edit_distance(a, b)

    memo = MemoDistance(spy)
    first = memo("ABCD", "ABXD")
    second = memo("ABXD", "ABCD")  # flipped order hits the same cache slot
    assert first == second
    assert len(calls) == 1
