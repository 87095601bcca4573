"""Portable deterministic random number generation.

Simulation randomness must reproduce bit-for-bit across platforms and
language runtimes, so we avoid the host's default generator and use
SplitMix64, a published 64-bit generator fully specified by its constants:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

All derived draws (ranges and sampling) are defined on top of the raw
64-bit stream by the fixed rules below, never via platform libraries. A
bulk draw, ``randrange_many(n, count)``, is defined as ``count`` successive
``randrange(n)`` draws; it only computes them faster.
"""

from __future__ import annotations

import functools
import hashlib
import struct

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


# Bulk draws keep one state in the low half of each 128-bit lane of a big
# integer: a 64-bit state times a 64-bit constant fits in its lane, so the
# mixing steps never carry into the next one.
def _fill_lanes(value: int, count: int) -> int:
    """``count`` 128-bit lanes, each holding the 64-bit ``value``."""
    return int.from_bytes((value.to_bytes(8, "little") + bytes(8)) * count, "little")


@functools.lru_cache(maxsize=4)
def _lanes(count: int) -> tuple[int, int, str]:
    """Per-lane low-64 mask, lane i holding (i + 1) * gamma, unpack format."""
    lanes = "<" + "Q8x" * count
    steps = int.from_bytes(struct.pack(lanes, *range(1, count + 1)), "little")
    return _fill_lanes(_MASK, count), steps * _GAMMA, lanes


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Unbiased draw from [0, n) by rejection sampling."""
        if not 0 < n <= 2**64:
            raise ValueError("randrange needs 0 < n <= 2**64")
        limit = (2**64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randrange_many(self, n: int, count: int) -> list[int]:
        """Exactly ``[self.randrange(n) for _ in range(count)]``, same end state.

        Each batch of raw draws runs the mixing steps on one big integer
        holding one state per 128-bit lane; rejected draws are replaced by
        further batches from the continued stream.
        """
        if not 0 < n <= 2**64 or count < 0:
            raise ValueError("randrange_many needs 0 < n <= 2**64 and count >= 0")
        limit = (2**64 // n) * n
        if limit == 2**64:  # n is a power of two: nothing is rejected
            return self._next_u64_many(count, n - 1)
        out: list[int] = []
        while len(out) < count:
            raw = self._next_u64_many(count - len(out), _MASK)
            out += [u % n for u in raw if u < limit]
        return out

    def _next_u64_many(self, count: int, keep: int) -> list[int]:
        """The next ``count`` outputs of ``next_u64``, each ANDed with ``keep``."""
        low, steps, lanes = _lanes(count)
        z = (steps + _fill_lanes(self._state, count)) & low  # state i in lane i
        self._state = (self._state + count * _GAMMA) & _MASK
        z = ((z ^ ((z >> 30) & low)) * _MIX1) & low
        z = ((z ^ ((z >> 27) & low)) * _MIX2) & low
        z = (z ^ (z >> 31)) & _fill_lanes(keep, count)
        return list(struct.unpack(lanes, z.to_bytes(16 * count, "little")))

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via a partial Fisher-Yates pass.

        Returned in draw order (not sorted), deterministically.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named purpose under a scenario seed."""
    material = (seed & _MASK).to_bytes(8, "big") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
