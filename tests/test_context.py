from __future__ import annotations

import random

import pytest

from agentopt.context import (
    ContextSpec,
    GlobalContext,
    coverage_sample,
    render_context,
    sampled_ranks,
)
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


def test_small_history_passes_through_whole():
    history = make_history([float(i) for i in range(15)])
    ctx = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, random.Random(0))
    assert len(ctx.entries) == 15
    assert [rank for rank, _ in ctx.entries] == list(range(1, 16))


def test_large_history_keeps_top_k_and_distinct_ranks():
    history = make_history([float(i) for i in range(100)])
    ctx = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, random.Random(1))
    ranks = [rank for rank, _ in ctx.entries]
    assert ranks[:8] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert len(ctx.entries) == 20
    assert len(set(ranks)) == 20
    assert all(9 <= r <= 100 for r in ranks[8:])


def test_stride_arithmetic_with_forced_zero_offset():
    # |h|=100, top_k=8, 12 samples, stride floor(92/12)=7 -> 9, 16, 23, ...
    ranks = sampled_ranks(100, ContextSpec(), offset=0)
    assert ranks[8:] == [9, 16, 23, 30, 37, 44, 51, 58, 65, 72, 79, 86]


@pytest.mark.parametrize("n", [21, 50, 100, 137, 400])
@pytest.mark.parametrize("offset", [0, 1, 3])
def test_sampled_ranks_match_independent_oracle(n, offset):
    spec = ContextSpec()
    stride = (n - spec.top_k) // (spec.context_size - spec.top_k)
    if offset >= stride:
        pytest.skip("offset outside stride for this size")
    assert sampled_ranks(n, spec, offset) == reference_sampled_ranks(
        n, spec.context_size, spec.top_k, offset
    )


def test_coverage_sample_via_forced_offset_matches_oracle():
    history = make_history([float(i) for i in range(100)])
    ctx = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, FixedOffsetRng(0))
    ranked = history.ranked(Direction.MAXIMIZE)
    expected = reference_sampled_ranks(100, 20, 8, 0)
    assert [rank for rank, _ in ctx.entries] == expected
    for rank, record in ctx.entries:
        assert record is ranked[rank - 1]


def test_contains_global_best_and_spans_spectrum():
    rng = random.Random(5)
    for _ in range(50):
        history = random_history(rng, rng.randint(25, 300))
        ctx = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, rng)
        ranks = [rank for rank, _ in ctx.entries]
        best = history.best_record(Direction.MAXIMIZE)
        assert any(rec is best for _, rec in ctx.entries)
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)
        n = len(history)
        if n > 20:
            spec = ContextSpec()
            stride = (n - spec.top_k) // (spec.context_size - spec.top_k)
            # last sampled rank lands within one stride plus the sample
            # count of the worst rank
            assert max(ranks) > n - (stride + spec.context_size - spec.top_k)


def test_deterministic_given_same_seed():
    history = make_history([float(i) for i in range(200)])
    a = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, random.Random(42))
    b = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, random.Random(42))
    assert [r for r, _ in a.entries] == [r for r, _ in b.entries]


def test_empty_history_raises():
    from agentopt.core import History

    with pytest.raises(EmptyHistory):
        coverage_sample(History(), ContextSpec(), Direction.MAXIMIZE, random.Random(0))


def test_context_spec_validates_top_k():
    with pytest.raises(ValueError):
        ContextSpec(context_size=10, top_k=11)
    with pytest.raises(ValueError):
        ContextSpec(context_size=10, top_k=0)


# -- rendering ---------------------------------------------------------------


def test_render_single_entry_line_format():
    history = make_history([])
    record = history.append(cand("CC(C)=CCO"), 0.4833, "init")
    ctx = GlobalContext(entries=[(1, record)])
    assert render_context(ctx) == "0.4833: CC(C)=CCO"


def test_render_minimize_puts_lowest_first():
    history = make_history([])
    history.append(cand("SEQONE"), 90.12, "init")
    history.append(cand("SEQTWO"), 85.12, "init")
    ctx = coverage_sample(history, ContextSpec(), Direction.MINIMIZE, random.Random(0))
    text = render_context(ctx)
    assert text.splitlines() == ["85.12: SEQTWO", "90.12: SEQONE"]


def test_render_maximize_sorts_high_to_low():
    history = make_history([])
    history.append(cand("LOW"), 0.1, "init")
    history.append(cand("HIGH"), 0.9, "init")
    ctx = coverage_sample(history, ContextSpec(), Direction.MAXIMIZE, random.Random(0))
    assert render_context(ctx).splitlines() == [
        "0.9000: HIGH",
        "0.1000: LOW",
    ]


def test_render_empty_context_raises():
    with pytest.raises(EmptyHistory):
        render_context(GlobalContext(entries=[]))
