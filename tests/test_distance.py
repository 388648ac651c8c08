from __future__ import annotations

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentopt.distance import (
    EditDistanceIndex,
    bit_masks,
    levenshtein,
    normalized_edit_distance,
)

from .conftest import long_text, reference_levenshtein


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


# Non-ASCII letters (one outside the Basic Multilingual Plane), the empty
# string, and lengths past one 64-bit machine word.
@settings(max_examples=200, deadline=None)
@given(long_text("Aß\u0416\u6f22"), long_text("ß\u0416\u6f22\U0001f600"))
@example(a="", b="")
@example(a="", b="\u0416" * 70)
def test_levenshtein_with_and_without_masks_equals_full_matrix(a, b):
    expected = reference_levenshtein(a, b)
    for x, y in ((a, b), (b, a)):
        assert levenshtein(x, y) == expected
        assert levenshtein(x, y, bit_masks(y)) == expected


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


def test_index_memoizes_kernel_counts(kernel_calls):
    index = EditDistanceIndex()
    assert index.fits("ABCD", ["ABXD"], 0.25) is True  # 1 edit over 4
    assert index.fits("ABXD", ["ABCD"], 0.3) is False  # flipped order, same memo slot
    assert kernel_calls == [("ABCD", "ABXD")]


def test_length_bound_settles_far_without_the_kernel(kernel_calls):
    index = EditDistanceIndex()
    assert index.fits("AB", ["ABCDEFGH"], 0.75) is True  # at least 6 edits over 2
    assert index.fits("ABCDEFGHIJ", ["ABCDEFGHIJKLM"], 0.3) is True  # 3 over 10
    assert index.fits("ABCDEFGHIJ", ["ABCDEFGHIJKL"], 0.3) is False  # 2 over 10: open
    assert kernel_calls == [("ABCDEFGHIJ", "ABCDEFGHIJKL")]


def test_witness_settles_too_close_without_the_kernel(kernel_calls):
    a, w, b = "AAAAAAAAAA", "AAAAAAAAAB", "AAAAAAAABB"
    index = EditDistanceIndex()
    assert index.fits(a, [w], 0.5) is False  # 1 edit: w is a's witness
    assert index.fits(w, [b], 0.5) is False  # 1 edit
    assert len(kernel_calls) == 2
    # edits(a, b) <= edits(a, w) + edits(w, b) = 2, and 2 / 10 < 0.5
    assert index.fits(a, [b], 0.5) is False
    assert len(kernel_calls) == 2


def test_witness_bound_at_the_threshold_leaves_the_verdict_to_the_kernel(kernel_calls):
    a, w, b = "AAAAAAAAAA", "AAAAAAAAAB", "AAAAAAABBB"
    index = EditDistanceIndex()
    assert index.fits(a, [w], 0.3) is False  # 1 edit
    assert index.fits(w, [b], 0.3) is False  # 2 edits
    # the bound is 1 + 2 = 3 edits, and 3 / 10 is not below 0.3: only the
    # kernel can tell, and the exact 3 edits make the pair far
    assert index.fits(a, [b], 0.3) is True
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
# The kept text asked first: b is kept when w is walked against it, then
# walked against a. A witness kept on b's side (w, 1 edit) plus the memo's
# edits(w, a) would settle the pair; now only the kernel does.
@example(
    texts=["AAAAAAAAAA", "AAAAAAAAAB", "AAAAAAAABB"],
    queries=[(1, 0, 0.5), (1, 2, 0.5), (2, 0, 0.5)],
)
def test_index_verdict_equals_exact_distance(texts, queries):
    index = EditDistanceIndex()
    # cold: the first queries meet empty memo and witness tables
    for i, j, threshold in queries:
        a, b = texts[i % len(texts)], texts[j % len(texts)]
        assert index.fits(a, [b], threshold) == (normalized_edit_distance(a, b) >= threshold)
    # warmed: every pair again, with the witnesses the queries left behind
    for a, b in itertools.product(texts, repeat=2):
        for threshold in (0.3, 0.5, 0.75):
            expected = normalized_edit_distance(a, b) >= threshold
            assert index.fits(a, [b], threshold) == expected


@st.composite
def near_copies(draw) -> list[str]:
    """Texts over three letters, each after the first one edit away from an
    earlier one: chains of near-copies, along which the witness bound is tight."""
    texts = [draw(st.text(alphabet="ABC", max_size=10))]
    for _ in range(draw(st.integers(1, 9))):
        parent = texts[draw(st.integers(0, len(texts) - 1))]
        at = draw(st.integers(0, len(parent)))
        letter = draw(st.sampled_from("ABC"))
        how = draw(st.sampled_from(["substitute", "insert", "delete"]))
        if how == "insert" or at == len(parent):
            texts.append(parent[:at] + letter + parent[at:])
        elif how == "substitute":
            texts.append(parent[:at] + letter + parent[at + 1 :])
        else:
            texts.append(parent[:at] + parent[at + 1 :])
    return list(dict.fromkeys(texts))


# A question's threshold is drawn, or is exactly the distance of two texts.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    texts=near_copies(),
    questions=st.lists(
        st.tuples(
            st.integers(0, 9),
            st.lists(st.integers(0, 9), max_size=6),
            THRESHOLDS | st.tuples(st.integers(0, 9), st.integers(0, 9)),
        ),
        min_size=1, max_size=30,
    ),
)
# A tight triangle: the text is one edit from its witness, and the witness
# one edit from the kept text of the last question, which is two edits from
# the text. At a threshold of a tenth that bound of two edits over eleven
# settles nothing, where one edit less would.
@example(
    texts=["AAAAAAAAAB", "AAAAAAAAAAB", "AAAAAAAAABA"],
    questions=[(1, [0], 0.25), (2, [0], 0.25), (1, [2], (0, 1))],
)
def test_fits_equals_the_exact_distance_to_every_kept_text(texts, questions):
    index = EditDistanceIndex()  # one for every question, so witnesses and memo carry over
    for i, picks, threshold in questions:
        text = texts[i % len(texts)]
        kept = list(dict.fromkeys(texts[j % len(texts)] for j in picks))
        if isinstance(threshold, tuple):
            threshold = normalized_edit_distance(*(texts[j % len(texts)] for j in threshold))
        expected = all(normalized_edit_distance(text, k) >= threshold for k in kept)
        assert index.fits(text, kept, threshold) == expected
