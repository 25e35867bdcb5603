"""Deterministic random source for everything in the package.

All randomized operations draw from SplitMix64 seeded once, so a (command,
seed) pair reproduces byte-identical output on any machine or language
runtime.  Generator version tag: "splitmix64-v1"; changing the algorithm
requires bumping the tag.
"""

from __future__ import annotations

GENERATOR_VERSION = "splitmix64-v1"

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix generator (Steele, Lea, Flood 2014)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], unbiased via rejection."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # largest multiple of span that fits in 64 bits
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self.next_u64()
            if x < limit:
                return lo + x % span

    def nonzero_int(self, bound: int) -> int:
        """Uniform nonzero integer in [-bound, bound]; bound must be >= 1."""
        if bound < 1:
            raise ValueError(f"no nonzero integer in [-{bound}, {bound}]")
        while True:
            x = self.randint(-bound, bound)
            if x != 0:
                return x
