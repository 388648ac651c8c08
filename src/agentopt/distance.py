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

from typing import Optional, Sequence


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
    """Answers "is ``text`` at least ``threshold`` from every kept text?" for a run.

    The engine keeps one for the whole run, shared by seed selection and the
    portfolio, and each export builds its own. Each pair in :meth:`fits`
    tries cheap bounds before the memoized kernel:

    - the length bound ``edits(a, b) >= |len a - len b|`` proves "far";
    - the walked text keeps one witness: the last kept text it was found
      too close to, with an upper bound on their edits; the triangle
      inequality ``edits(a, b) <= bound(a, w) + edits(w, b)`` proves "too
      close".

    A bound goes through the same expression as the exact count,
    ``edits / shorter``, and dividing by the same positive length is
    monotone, so every verdict equals the exact one.
    """

    def __init__(self) -> None:
        self._edits: dict[tuple[str, str], int] = {}
        self._witness: dict[str, tuple[str, int]] = {}
        self._masks: dict[str, dict[str, int]] = {}  # of the kept side

    def fits(self, text: str, kept: Sequence[str], threshold: float) -> bool:
        """``normalized_edit_distance(text, k) >= threshold`` for every ``k`` in ``kept``.

        The witness is likeliest to be too close, so it is asked first when
        it is in ``kept``; the rest follow in the order of ``kept``.
        """
        w, bound = self._witness.get(text, (None, 0))
        order = kept
        if w in kept:
            order = [w, *(b for b in kept if b != w)]
        len_a = len(text)
        for b in order:
            len_b = len(b)
            shorter = len_a if len_a < len_b else len_b
            if shorter == 0:
                if normalized_edit_distance(text, b) >= threshold:
                    continue
                return False
            if abs(len_a - len_b) / shorter >= threshold:
                continue
            key = (text, b) if text <= b else (b, text)
            edits = self._edits.get(key)
            if edits is None:
                if w is not None:
                    rest = 0 if w == b else self._edits.get((w, b) if w <= b else (b, w))
                    if rest is not None and (bound + rest) / shorter < threshold:
                        self._witness[text] = (b, bound + rest)
                        return False
                if b not in self._masks:
                    self._masks[b] = bit_masks(b)
                # looked up as the module global, so a wrapper sees every call
                edits = self._edits[key] = levenshtein(text, b, self._masks[b])
            if edits / shorter >= threshold:
                continue
            self._witness[text] = (b, edits)
            return False
        return True
