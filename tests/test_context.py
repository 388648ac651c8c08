from __future__ import annotations

import random

import pytest

from agentopt.context import ContextSpec, coverage_sample, render_context
from agentopt.core import Direction
from agentopt.errors import EmptyHistory

from .conftest import cand, make_history, random_history


class FixedOffsetRng(random.Random):
    """Forces a specific offset draw so the stride arithmetic is testable."""

    def __init__(self, offset: int):
        super().__init__(0)
        self._offset = offset

    def randrange(self, *args, **kwargs):  # noqa: D102 - test double
        return self._offset


class CountingRng(random.Random):
    """Records the arguments of every ``randrange`` call."""

    def __init__(self):
        super().__init__(0)
        self.calls: list[tuple] = []

    def randrange(self, *args, **kwargs):  # noqa: D102 - test double
        self.calls.append(args)
        return super().randrange(*args, **kwargs)


def reference_sampled_ranks(n: int, context_size: int, top_k: int, offset: int):
    """Independent index-arithmetic oracle for the rank selection."""
    if n <= context_size:
        return list(range(1, n + 1))
    ranks = list(range(1, top_k + 1))
    n_samples = context_size - top_k
    stride = (n - top_k) // n_samples
    rank = top_k + 1 + offset
    for _ in range(n_samples):
        ranks.append(rank)
        rank += stride
    return ranks


def ranks_of(history, records) -> list[int]:
    """1-based positions of ``records`` in the history's ranking."""
    position = {id(r): i for i, r in enumerate(history.ranked(), 1)}
    return [position[id(r)] for r in records]


def stride_of(n: int, spec: ContextSpec) -> int:
    return (n - spec.top_k) // (spec.context_size - spec.top_k)


def test_small_history_passes_through_whole():
    history = make_history([float(i) for i in range(15)])
    records = coverage_sample(history, ContextSpec(), random.Random(0))
    assert len(records) == 15
    assert ranks_of(history, records) == list(range(1, 16))
    # a copy: changing it leaves the history's own ranking as it was
    records.clear()
    assert len(history.ranked()) == 15


def test_large_history_keeps_top_k_and_distinct_ranks():
    history = make_history([float(i) for i in range(100)])
    records = coverage_sample(history, ContextSpec(), random.Random(1))
    ranks = ranks_of(history, records)
    assert ranks[:8] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert len(records) == 20
    assert len(set(ranks)) == 20
    assert all(9 <= r <= 100 for r in ranks[8:])


def test_stride_arithmetic_with_forced_zero_offset():
    # |h|=100, top_k=8, 12 samples, stride floor(92/12)=7 -> 9, 16, 23, ...
    history = make_history([float(i) for i in range(100)])
    records = coverage_sample(history, ContextSpec(), FixedOffsetRng(0))
    assert ranks_of(history, records)[8:] == [9, 16, 23, 30, 37, 44, 51, 58, 65, 72, 79, 86]


@pytest.mark.parametrize("n", [21, 50, 100, 137, 400])
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_sampled_ranks_match_independent_oracle(n, offset):
    spec = ContextSpec()
    # the drawn offset is below the stride: clamp the case to its last offset
    offset = min(offset, stride_of(n, spec) - 1)
    history = make_history([float(i) for i in range(n)])
    records = coverage_sample(history, spec, FixedOffsetRng(offset))
    assert ranks_of(history, records) == reference_sampled_ranks(
        n, spec.context_size, spec.top_k, offset
    )


def test_coverage_sample_via_forced_offset_matches_oracle():
    history = make_history([float(i) for i in range(100)])
    records = coverage_sample(history, ContextSpec(), FixedOffsetRng(0))
    ranked = history.ranked()
    expected = reference_sampled_ranks(100, 20, 8, 0)
    assert ranks_of(history, records) == expected
    for rank, record in zip(expected, records):
        assert record is ranked[rank - 1]


@pytest.mark.parametrize(
    ("n", "spec", "draws"),
    [
        (100, ContextSpec(), [(7,)]),
        (400, ContextSpec(context_size=30, top_k=1), [(13,)]),
        (15, ContextSpec(), []),
        (20, ContextSpec(), []),
        (21, ContextSpec(), []),
        (100, ContextSpec(context_size=20, top_k=20), []),
        (100, ContextSpec(context_size=1, top_k=1), []),
    ],
)
def test_offset_drawn_once_below_a_stride_above_one(n, spec, draws):
    history = make_history([float(i) for i in range(n)])
    rng = CountingRng()
    records = coverage_sample(history, spec, rng)
    assert rng.calls == draws
    assert len(records) == min(n, spec.context_size)


def test_contains_global_best_and_spans_spectrum():
    rng = random.Random(5)
    for _ in range(50):
        history = random_history(rng, rng.randint(25, 300))
        records = coverage_sample(history, ContextSpec(), rng)
        ranks = ranks_of(history, records)
        best = history.best_record()
        assert any(rec is best for rec in records)
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)
        n = len(history)
        if n > 20:
            spec = ContextSpec()
            stride = stride_of(n, spec)
            # last sampled rank lands within one stride plus the sample
            # count of the worst rank
            assert max(ranks) > n - (stride + spec.context_size - spec.top_k)


def test_deterministic_given_same_seed():
    history = make_history([float(i) for i in range(200)])
    a = coverage_sample(history, ContextSpec(), random.Random(42))
    b = coverage_sample(history, ContextSpec(), random.Random(42))
    assert ranks_of(history, a) == ranks_of(history, b)


def test_empty_history_raises():
    from agentopt.core import History

    with pytest.raises(EmptyHistory):
        coverage_sample(History(Direction.MAXIMIZE), ContextSpec(), random.Random(0))


def test_context_spec_validates_top_k():
    with pytest.raises(ValueError):
        ContextSpec(context_size=10, top_k=11)
    with pytest.raises(ValueError):
        ContextSpec(context_size=10, top_k=0)


# -- rendering ---------------------------------------------------------------


def test_render_single_entry_line_format():
    history = make_history([])
    record = history.append(cand("CC(C)=CCO"), 0.4833, "init")
    assert render_context([record]) == "0.4833: CC(C)=CCO"


def test_render_minimize_puts_lowest_first():
    history = make_history([], direction=Direction.MINIMIZE)
    history.append(cand("SEQONE"), 90.12, "init")
    history.append(cand("SEQTWO"), 85.12, "init")
    records = coverage_sample(history, ContextSpec(), random.Random(0))
    text = render_context(records)
    assert text.splitlines() == ["85.12: SEQTWO", "90.12: SEQONE"]


def test_render_maximize_sorts_high_to_low():
    history = make_history([])
    history.append(cand("LOW"), 0.1, "init")
    history.append(cand("HIGH"), 0.9, "init")
    records = coverage_sample(history, ContextSpec(), random.Random(0))
    assert render_context(records).splitlines() == [
        "0.9000: HIGH",
        "0.1000: LOW",
    ]


def test_render_empty_context_raises():
    with pytest.raises(EmptyHistory):
        render_context([])
