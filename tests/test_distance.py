from __future__ import annotations

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentopt.distance import (
    EditDistanceIndex,
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


def test_index_memoizes_kernel_counts(kernel_calls):
    index = EditDistanceIndex()
    assert index.far("ABCD", "ABXD", 0.25) is True  # 1 edit over 4
    assert index.far("ABXD", "ABCD", 0.3) is False  # flipped order, same memo slot
    assert kernel_calls == [("ABCD", "ABXD")]


def test_length_bound_settles_far_without_the_kernel(kernel_calls):
    index = EditDistanceIndex()
    assert index.far("AB", "ABCDEFGH", 0.75) is True  # at least 6 edits over 2
    assert index.far("ABCDEFGHIJ", "ABCDEFGHIJKLM", 0.3) is True  # 3 over 10
    assert index.far("ABCDEFGHIJ", "ABCDEFGHIJKL", 0.3) is False  # 2 over 10: open
    assert kernel_calls == [("ABCDEFGHIJ", "ABCDEFGHIJKL")]


def test_witness_settles_too_close_without_the_kernel(kernel_calls):
    a, w, b = "AAAAAAAAAA", "AAAAAAAAAB", "AAAAAAAABB"
    index = EditDistanceIndex()
    assert index.far(a, w, 0.5) is False  # 1 edit: a and w witness each other
    assert index.far(w, b, 0.5) is False  # 1 edit
    assert len(kernel_calls) == 2
    # edits(a, b) <= edits(a, w) + edits(w, b) = 2, and 2 / 10 < 0.5
    assert index.far(a, b, 0.5) is False
    assert len(kernel_calls) == 2


def test_witness_bound_at_the_threshold_leaves_the_verdict_to_the_kernel(kernel_calls):
    a, w, b = "AAAAAAAAAA", "AAAAAAAAAB", "AAAAAAABBB"
    index = EditDistanceIndex()
    assert index.far(a, w, 0.3) is False  # 1 edit
    assert index.far(w, b, 0.3) is False  # 2 edits
    # the bound is 1 + 2 = 3 edits, and 3 / 10 is not below 0.3: only the
    # kernel can tell, and the exact 3 edits make the pair far
    assert index.far(a, b, 0.3) is True
    assert kernel_calls[-1] == (a, b)
    assert normalized_edit_distance(a, b) == 0.3


# Texts over two letters sit within every threshold of each other now and
# then; a threshold k / m sits exactly on some pair's distance.
INDEX_TEXTS = st.lists(
    st.text(alphabet="AB", max_size=12), min_size=2, max_size=8, unique=True
)
THRESHOLDS = st.sampled_from([0.25, 0.3, 0.5, 0.75, 1.0, 1.5]) | st.builds(
    lambda k, m: k / m, st.integers(0, 12), st.integers(1, 12)
)


@settings(max_examples=200, deadline=None)
@given(
    texts=INDEX_TEXTS,
    queries=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), THRESHOLDS), max_size=40
    ),
)
@example(
    texts=["AAAAAAAAAA", "AAAAAAAAAB", "AAAAAAABBB"],
    queries=[(0, 1, 0.3), (1, 2, 0.3), (0, 2, 0.3)],
)
def test_index_verdict_equals_exact_distance(texts, queries):
    index = EditDistanceIndex()
    # cold: the first queries meet empty memo and witness tables
    for i, j, threshold in queries:
        a, b = texts[i % len(texts)], texts[j % len(texts)]
        assert index.far(a, b, threshold) == (normalized_edit_distance(a, b) >= threshold)
    # warmed: every pair again, with the witnesses the queries left behind
    for a, b in itertools.product(texts, repeat=2):
        for threshold in (0.3, 0.5, 0.75):
            expected = normalized_edit_distance(a, b) >= threshold
            assert index.far(a, b, threshold) == expected
