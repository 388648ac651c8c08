"""Edit-distance primitives used for dedup feedback, seeding, and portfolios.

``levenshtein`` is Myers' bit-parallel edit distance (J. ACM 46(3), 1999)
in Hyyrö's formulation ("Explaining and extending the bit-parallel
approximate string matching algorithm of Myers", 2001), with Python ints as
bit-vectors of any length; ``bit_masks`` builds the match masks it runs on,
which a caller asking about one text many times keeps. The normalized form
divides the distance by the length of the shorter string, so it can exceed
1.0 for very different lengths.
"""

from __future__ import annotations

from typing import Optional


def bit_masks(text: str) -> dict[str, int]:
    """Match masks: bit ``i`` of ``masks[ch]`` is set where ``text[i] == ch``."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(text):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def levenshtein(a: str, b: str, masks: Optional[dict[str, int]] = None) -> int:
    """Edit distance by Myers' bit-vector algorithm (J. ACM 46(3), 1999).

    Hyyrö's 2001 formulation for the global distance: ``pv``/``mv`` hold the
    +1/-1 vertical deltas of one DP column, a bit per character of ``b``,
    updated once per character of ``a``. The last column starts at
    ``len(a)`` in the top row, so its bottom cell, the distance, is
    ``len(a) + popcount(pv) - popcount(mv)``. ``masks`` is ``bit_masks(b)``
    when the caller holds it.
    """
    if a == b:
        return 0
    if masks is None:
        masks = bit_masks(b)
    mask = (1 << len(b)) - 1
    pv, mv = mask, 0
    for ch in a:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return len(a) + pv.bit_count() - mv.bit_count()


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance divided by the shorter string's length."""
    if not a and not b:
        return 0.0
    shorter = min(len(a), len(b))
    if shorter == 0:
        return float("inf")
    return levenshtein(a, b) / shorter


class EditDistanceIndex:
    """Answers "is ``normalized_edit_distance(a, b) >= threshold``?" for a run.

    The engine keeps one for the whole run, shared by seed selection and the
    portfolio, and each export builds its own. Cheap bounds are tried before
    the memoized kernel:

    - the length bound ``edits(a, b) >= |len a - len b|`` proves "far";
    - the walked text, the first argument of ``far``, keeps one witness:
      the last kept text it was found too close to, with an upper bound on
      their edits; the triangle inequality
      ``edits(a, b) <= bound(a, w) + edits(w, b)`` proves "too close".

    A bound goes through the same expression as the exact count,
    ``edits / shorter``, and dividing by the same positive length is
    monotone, so every verdict equals the exact one.
    """

    def __init__(self) -> None:
        self._edits: dict[tuple[str, str], int] = {}
        self._witness: dict[str, tuple[str, int]] = {}
        self._masks: dict[str, dict[str, int]] = {}  # of ``b``, the side a walk keeps

    def witness(self, text: str) -> Optional[str]:
        """The last text ``text`` was walked against and found too close to."""
        witness = self._witness.get(text)
        return None if witness is None else witness[0]

    def _upper(self, a: str, b: str) -> Optional[int]:
        """An upper bound on ``edits(a, b)`` through ``a``'s witness, if any."""
        witness = self._witness.get(a)
        if witness is None:
            return None
        w, bound = witness
        rest = 0 if w == b else self._edits.get((w, b) if w <= b else (b, w))
        return None if rest is None else bound + rest

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
            if b not in self._masks:
                self._masks[b] = bit_masks(b)
            # looked up as the module global, so a wrapper sees every call
            edits = self._edits[key] = levenshtein(a, b, self._masks[b])
        if edits / shorter >= threshold:
            return True
        self._close(a, b, edits)
        return False

    def _close(self, a: str, b: str, bound: int) -> None:
        self._witness[a] = (b, bound)
