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
64-bit stream by the fixed rules below, never via platform libraries.
``randrange(n)`` is the definition of a ranged draw; every other draw is
defined by it and only computes the same values faster:

* ``randrange_many(n, count)`` is ``count`` successive ``randrange(n)``
  draws, rejections included;
* ``randrange_bytes(n, count)``, for n <= 256, is exactly
  ``bytes(randrange_many(n, count))``;
* ``sample_indices(n, k)`` is a partial Fisher-Yates pass whose step i
  draws ``randrange(n - i)``.

Each takes its raw outputs in bulk from a lane buffer. The state is a
Weyl sequence, ``seed + k * gamma`` mod 2^64 after k outputs, so the next
``count`` states are known at once: one big integer holds state i in the
low half of 128-bit lane i, the mixing steps run on the whole integer (a
64-bit value times a 64-bit constant fits in its lane, so nothing carries
into the next lane), and its little-endian bytes hold output i in the low
8 bytes of lane i. A byte draw for a power-of-two n is every 16th byte of
the buffer, masked by one ``translate``. A draw that rejects asks only for
the raw outputs it still needs if no more are rejected, so it leaves the
stream where the per-draw loop does; ``sample_indices`` checks each step's
rejection limit on the raw outputs in turn.
"""

from __future__ import annotations

import functools
import hashlib
import struct

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@functools.lru_cache(maxsize=4)
def _lanes(count: int) -> tuple[int, int, int, str]:
    """1 in each of ``count`` lanes, the per-lane low-64 mask, lane i holding
    (i + 1) * gamma, and the unpack format of the lanes' low halves."""
    lanes = "<" + "Q8x" * count
    ones = int.from_bytes((b"\1" + bytes(15)) * count, "little")
    steps = int.from_bytes(struct.pack(lanes, *range(1, count + 1)), "little")
    return ones, ones * _MASK, steps * _GAMMA, lanes


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

        Rejected draws are replaced by further outputs of the continued stream.
        """
        if not 0 < n <= 2**64 or count < 0:
            raise ValueError("randrange_many needs 0 < n <= 2**64 and count >= 0")
        limit = (2**64 // n) * n
        out: list[int] = []
        while len(out) < count:
            out += [u % n for u in self._next_u64_many(count - len(out)) if u < limit]
        return out

    def randrange_bytes(self, n: int, count: int) -> bytes:
        """Exactly ``bytes(self.randrange_many(n, count))``, same end state."""
        if not 0 < n <= 256 or count < 0:
            raise ValueError("randrange_bytes needs 0 < n <= 256 and count >= 0")
        if n & (n - 1):  # rejection is possible
            return bytes(self.randrange_many(n, count))
        return self._lane_buffer(count)[::16].translate(bytes(range(n)) * (256 // n))

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via a partial Fisher-Yates pass.

        Step i swaps position i of ``list(range(n))`` with position
        ``i + randrange(n - i)`` and emits what lands at i; only the moved
        positions are kept, in a dict. Returned in draw order (not sorted).
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        raw = self._next_u64_many(k)
        used = 0
        moved: dict[int, int] = {}
        out = []
        for i in range(k):
            m = n - i
            limit = (2**64 // m) * m
            while True:
                if used == len(raw):  # rejections used up the batch
                    raw += self._next_u64_many(k - i)
                u = raw[used]
                used += 1
                if u < limit:
                    break
            j = i + u % m
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        return out

    def _next_u64_many(self, count: int) -> list[int]:
        """The next ``count`` outputs of ``next_u64``."""
        return list(struct.unpack(_lanes(count)[3], self._lane_buffer(count)))

    def _lane_buffer(self, count: int) -> bytes:
        """The next ``count`` outputs, output i in the low 8 bytes of the i-th
        16-byte little-endian lane; the high 8 bytes are scratch."""
        ones, low, steps, _ = _lanes(count)
        z = (self._state * ones + steps) & low  # state i in lane i
        self._state = (self._state + count * _GAMMA) & _MASK
        z = ((z ^ ((z >> 30) & low)) * _MIX1) & low
        z = ((z ^ ((z >> 27) & low)) * _MIX2) & low
        return (z ^ (z >> 31)).to_bytes(16 * count, "little")


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named purpose under a scenario seed."""
    material = (seed & _MASK).to_bytes(8, "big") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
