"""Labeled random streams derived from one root seed.

Every stochastic consumer (context offset, init mutations, ...) draws from
its own stream keyed by a stable label, so adding a consumer never perturbs
the draws seen by existing ones. A resumed run rebuilds every stream by
re-running the engine from the root seed.
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(root_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{root_seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


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
