"""Seeded randomness split into independent named streams.

Every randomized component takes (seed, stream id) rather than a bare RNG,
so trials parallelize without sharing state and identical inputs replay
bit-identically.  Seeding goes through the string path of random.Random,
which hashes with SHA-512 and is stable across platforms and processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHILDREN = 1_000_002  # child indices per stream


def stream_rng(seed: int, stream: int = 0) -> random.Random:
    """Fresh generator fully determined by (seed, stream)."""
    return random.Random(f"{seed}:{stream}")


@dataclass(frozen=True)
class SeededStream:
    """A (seed, stream id) pair; hand ``child(i)`` streams to sub-tasks."""

    seed: int
    stream: int = 0

    def rng(self) -> random.Random:
        return stream_rng(self.seed, self.stream)

    def child(self, index: int) -> "SeededStream":
        """The stream of sub-task ``index``, for 0 <= index < CHILDREN.

        A child's id is its parent's id followed by the base-(CHILDREN + 1)
        digit index + 1, which is never 0.  So every stream reached from
        the root stream 0 by ``child`` calls is a numeral whose digits all
        lie in 1..CHILDREN, one numeral per path: no two of them collide,
        and none is the root.
        """
        if not 0 <= index < CHILDREN:
            raise ValueError(f"child index {index} outside [0, {CHILDREN})")
        return SeededStream(self.seed, self.stream * (CHILDREN + 1) + index + 1)
