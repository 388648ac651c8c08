"""Edit-distance primitives used for dedup feedback, seeding, and portfolios.

``levenshtein`` is Myers' bit-parallel edit distance (J. ACM 46(3), 1999)
in Hyyrö's formulation ("Explaining and extending the bit-parallel
approximate string matching algorithm of Myers", 2001), with Python ints as
bit-vectors of any length. The normalized form divides it by the length of
the shorter string, so it can exceed 1.0 for very different lengths;
similarity clamps that into [0, 1].
"""

from __future__ import annotations

from typing import Callable

# A distance takes two canonical texts and returns a value >= 0,
# with dist(a, a) == 0 and dist(a, b) == dist(b, a).
DistanceFn = Callable[[str, str], float]


def levenshtein(a: str, b: str) -> int:
    """Edit distance by Myers' bit-vector algorithm (J. ACM 46(3), 1999).

    Hyyrö's 2001 formulation for the global distance: ``pv``/``mv`` hold the
    +1/-1 vertical deltas of one DP column, a bit per character of the
    shorter string, updated once per character of the longer one; ``score``
    follows the bottom cell.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, score = mask, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance divided by the shorter string's length."""
    if not a and not b:
        return 0.0
    shorter = min(len(a), len(b))
    if shorter == 0:
        return float("inf")
    return levenshtein(a, b) / shorter


def similarity(a: str, b: str) -> float:
    """1 minus the normalized edit distance, clamped into [0, 1]."""
    return 1.0 - min(1.0, normalized_edit_distance(a, b))


class MemoDistance:
    """Wrap a distance with an unordered-pair cache.

    The engine holds one for the whole run and serves both seed selection
    and portfolio selection from it: both walk the same strong candidates
    round after round, so after the first round most pairs are cache hits.
    """

    def __init__(self, fn: DistanceFn):
        self._fn = fn
        self._cache: dict[tuple[str, str], float] = {}

    def __call__(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        value = self._cache.get(key)
        if value is None:
            value = self._fn(a, b)
            self._cache[key] = value
        return value
