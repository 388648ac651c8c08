"""Edit-distance primitives used for dedup feedback, seeding, and portfolios.

``levenshtein`` is Myers' bit-parallel edit distance (J. ACM 46(3), 1999)
in Hyyrö's formulation ("Explaining and extending the bit-parallel
approximate string matching algorithm of Myers", 2001), with Python ints as
bit-vectors of any length. The normalized form divides it by the length of
the shorter string, so it can exceed 1.0 for very different lengths;
similarity clamps that into [0, 1].
"""

from __future__ import annotations

from typing import Optional


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


class EditDistanceIndex:
    """Answers "is ``normalized_edit_distance(a, b) >= threshold``?" for a run.

    The engine keeps one for the whole run, shared by seed selection and the
    portfolio, and each export builds its own. Cheap bounds are tried before
    the memoized kernel:

    - the length bound ``edits(a, b) >= |len a - len b|`` proves "far";
    - each text keeps a witness, the last text found too close to it, with
      an upper bound on their edits; the triangle inequality
      ``edits(a, b) <= bound(a, w) + edits(w, b)`` proves "too close".

    A bound goes through the same expression as the exact count,
    ``edits / shorter``, and dividing by the same positive length is
    monotone, so every verdict equals the exact one.
    """

    def __init__(self) -> None:
        self._edits: dict[tuple[str, str], int] = {}
        self._witness: dict[str, tuple[str, int]] = {}

    def _known(self, a: str, b: str) -> Optional[int]:
        """An upper bound on ``edits(a, b)`` already at hand, if any."""
        edits = self._edits.get((a, b) if a <= b else (b, a))
        if edits is not None:
            return edits
        for x, y in ((a, b), (b, a)):
            witness = self._witness.get(x)
            if witness is not None and witness[0] == y:
                return witness[1]
        return None

    def _upper(self, a: str, b: str) -> Optional[int]:
        """An upper bound on ``edits(a, b)`` through either text's witness."""
        best = None
        for x, y in ((a, b), (b, a)):
            witness = self._witness.get(x)
            if witness is None:
                continue
            w, bound = witness
            rest = 0 if w == y else self._known(w, y)
            if rest is not None and (best is None or bound + rest < best):
                best = bound + rest
        return best

    def far(self, a: str, b: str, threshold: float) -> bool:
        """``normalized_edit_distance(a, b) >= threshold``."""
        len_a, len_b = len(a), len(b)
        shorter = len_a if len_a < len_b else len_b
        if shorter == 0:
            return normalized_edit_distance(a, b) >= threshold
        if abs(len_a - len_b) / shorter >= threshold:
            return True
        key = (a, b) if a <= b else (b, a)
        edits = self._edits.get(key)
        if edits is None:
            upper = self._upper(a, b)
            if upper is not None and upper / shorter < threshold:
                self._close(a, b, upper)
                return False
            # looked up as the module global, so a wrapper sees every call
            edits = self._edits[key] = levenshtein(a, b)
        if edits / shorter >= threshold:
            return True
        self._close(a, b, edits)
        return False

    def _close(self, a: str, b: str, bound: int) -> None:
        self._witness[a] = (b, bound)
        self._witness[b] = (a, bound)
