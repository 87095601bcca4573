"""Hashing and the canonical binary encoding used for all on-chain digests.

Every digest in the system (transaction hashes, block hashes, state roots)
is SHA-256 over a canonical byte string produced by the primitives below.
The encoding is versioned and bit-exact; two implementations that follow
this layout byte for byte will agree on every hash.

Encoding rules (version 1):

* integers       -- big-endian fixed width; ``u8``/``u32``/``u64``
* floats         -- IEEE 754 binary64, big-endian (8 bytes)
* float lists    -- the sparse layout (``enc_f64_sparse``): ``u32`` count +
  a ``ceil(n/8)``-byte bitmap whose bit i (most significant bit first) is
  set iff value i's bits are not all zero + each value whose bit is set, so
  ``+0.0`` is left out and ``-0.0`` is stored
* byte strings   -- ``u32`` length prefix + raw bytes
* text strings   -- UTF-8 bytes, encoded as a byte string
* 256-bit hashes -- 32 raw bytes, no prefix
* lists          -- ``u32`` element count + concatenated elements
* string maps    -- ``u32`` entry count + (key, value) pairs sorted by key;
  a detector's parameter values carry a type tag (``enc_scalar``)
* booleans       -- ``u8``: 0 or 1

Top-level objects (transactions, blocks, state) each start with an ASCII
tag naming the object and the encoding version, so digests of different
object types can never collide byte-wise. The field order of a payload,
record, block or state is fixed by its dataclass declaration in
:mod:`veriledger.core`, whose encoders walk the fields in that order; only
the transaction envelope is written out there. No order depends on
insertion order.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Iterable, Mapping, Sequence

TX_TAG = b"VLTX1\x00"
BLOCK_TAG = b"VLBLOCK1\x00"
STATE_TAG = b"VLSTATE1\x00"

_U64_MAX = 2**64 - 1


@dataclass(frozen=True, slots=True)
class Hash256:
    """A 256-bit digest. Exactly 32 bytes; rendered as 64 lowercase hex chars."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 32:
            raise ValueError("Hash256 requires exactly 32 bytes")

    @classmethod
    def zero(cls) -> "Hash256":
        return cls(b"\x00" * 32)

    @property
    def hex(self) -> str:
        return self.value.hex()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hash256({self.hex[:12]}…)"


def hash_bytes(data: bytes) -> Hash256:
    """SHA-256 digest of ``data``. Deterministic; empty input allowed."""
    return Hash256(hashlib.sha256(data).digest())


def enc_u8(n: int) -> bytes:
    if not 0 <= n <= 0xFF:
        raise ValueError(f"u8 out of range: {n}")
    return n.to_bytes(1, "big")


def enc_u32(n: int) -> bytes:
    if not 0 <= n <= 0xFFFFFFFF:
        raise ValueError(f"u32 out of range: {n}")
    return n.to_bytes(4, "big")


def enc_u64(n: int) -> bytes:
    if not 0 <= n <= _U64_MAX:
        raise ValueError(f"u64 out of range: {n}")
    return n.to_bytes(8, "big")


def enc_f64(x: float) -> bytes:
    return struct.pack(">d", x)


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_NON_ZERO = bytes(1) + b"\x01" * 255  # a byte's 0 stays 0, any other becomes 1


def enc_f64_sparse(values: Sequence[float]) -> bytes:
    """``values`` in the sparse layout: ``-0.0`` is stored, ``+0.0`` is not."""
    n = len(values)
    # OR each value's eight bytes into its last, which is then 0 iff none of
    # the value's bits is set: the three shifts stay inside each value.
    words = int.from_bytes(struct.pack(f">{n}d", *values), "big")
    words |= words >> 32
    words |= words >> 16
    words |= words >> 8
    present = words.to_bytes(8 * n, "big")[7::8].translate(_NON_ZERO)  # 0 or 1 per value
    kept = tuple(compress(values, present))
    digits = present.translate(_TO_DIGITS) + b"0" * (-n % 8)
    bitmap = int(digits or b"0", 2).to_bytes(len(digits) // 8, "big")
    return struct.pack(f">I{len(bitmap)}s{len(kept)}d", n, bitmap, *kept)


def enc_bytes(b: bytes) -> bytes:
    return enc_u32(len(b)) + b


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def enc_hash(h: Hash256) -> bytes:
    return h.value


def enc_bool(b: bool) -> bytes:
    return enc_u8(1 if b else 0)


def enc_str_list(items: Iterable[str]) -> bytes:
    vals = list(items)
    return enc_u32(len(vals)) + b"".join(enc_str(v) for v in vals)


def enc_map(encode_value: Callable[[Any], bytes]) -> Callable[[Mapping[str, Any]], bytes]:
    """The encoder of a string map whose values ``encode_value`` encodes."""

    def encode(m: Mapping[str, Any]) -> bytes:
        return enc_u32(len(m)) + b"".join([enc_str(k) + encode_value(m[k]) for k in sorted(m)])

    return encode


def enc_scalar(v: object) -> bytes:
    """A str, int, float or bool, type-tagged: 1=str, 2=u64 int, 3=f64,
    4=bool. Used for detector parameter maps, whose value types vary."""
    if isinstance(v, bool):
        return enc_u8(4) + enc_bool(v)
    if isinstance(v, int):
        return enc_u8(2) + enc_u64(v)
    if isinstance(v, float):
        return enc_u8(3) + enc_f64(v)
    if isinstance(v, str):
        return enc_u8(1) + enc_str(v)
    raise ValueError(f"unsupported parameter type: {type(v).__name__}")


enc_str_map = enc_map(enc_str)
enc_scalar_map = enc_map(enc_scalar)
