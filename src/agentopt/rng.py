"""Labeled random streams derived from one root seed.

Every stochastic consumer (context offset, init mutations, ...) draws from
its own stream keyed by a stable label, so adding a consumer never perturbs
the draws seen by existing ones. Stream states round-trip through JSON for
checkpointing, packed by :func:`pack_state`.
"""

from __future__ import annotations

import base64
import hashlib
import random
import struct


def _derive_seed(root_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{root_seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def pack_state(rng: random.Random) -> dict:
    """JSON form of ``rng.getstate()``: base64 of the Mersenne Twister words
    (624 plus the index) and the pending ``gauss_next``."""
    _, words, gauss_next = rng.getstate()
    packed = struct.pack(f"<{len(words)}I", *words)
    return {"words": base64.b64encode(packed).decode("ascii"), "gauss_next": gauss_next}


def unpack_state(packed: dict) -> random.Random:
    """A stream in the state :func:`pack_state` stored; ``ValueError`` if damaged."""
    raw = base64.b64decode(packed["words"], validate=True)
    gauss_next = packed["gauss_next"]
    if len(raw) % 4 or not isinstance(gauss_next, (float, type(None))):
        raise ValueError("packed random state is malformed")
    rng = random.Random()
    words = struct.unpack(f"<{len(raw) // 4}I", raw)
    rng.setstate((random.Random.VERSION, words, gauss_next))  # checks the size
    return rng


class RngHub:
    """Factory and registry for labeled ``random.Random`` streams."""

    def __init__(self, root_seed: int):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, label: str) -> random.Random:
        """Return the stream for ``label``, creating it on first use."""
        rng = self._streams.get(label)
        if rng is None:
            rng = random.Random(_derive_seed(self.root_seed, label))
            self._streams[label] = rng
        return rng

    def snapshot(self) -> dict:
        """JSON-serializable state of every stream created so far."""
        return {label: pack_state(rng) for label, rng in self._streams.items()}

    def restore(self, snap: dict) -> None:
        self._streams = {label: unpack_state(packed) for label, packed in snap.items()}
