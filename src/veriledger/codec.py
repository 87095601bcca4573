"""Hashing and the canonical binary encoding used for all on-chain digests.

Every digest in the system (transaction hashes, block hashes, state roots)
is SHA-256 over a canonical byte string produced by the primitives below.
The encoding is versioned and bit-exact; two implementations that follow
this layout byte for byte will agree on every hash.

Encoding rules (version 1):

* integers       -- big-endian fixed width; ``u8``/``u32``/``u64``
* floats         -- IEEE 754 binary64, big-endian (8 bytes)
* byte strings   -- ``u32`` length prefix + raw bytes
* text strings   -- UTF-8 bytes, encoded as a byte string
* 256-bit hashes -- 32 raw bytes, no prefix
* lists          -- ``u32`` element count + concatenated elements
* string maps    -- ``u32`` entry count + (key, value) pairs sorted by key
* booleans       -- ``u8``: 0 or 1

Top-level objects (transactions, blocks, state) each start with an ASCII
tag naming the object and the encoding version, so digests of different
object types can never collide byte-wise. The field order of a payload or
record is fixed by its dataclass declaration in :mod:`veriledger.core`
(``encode_record`` walks the fields in that order); the transaction, block
and state layouts are written out there. No order depends on insertion
order.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping

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

    @classmethod
    def from_hex(cls, text: str) -> "Hash256":
        if len(text) != 64 or text != text.lower():
            raise ValueError("Hash256 hex must be 64 lowercase chars")
        return cls(bytes.fromhex(text))

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


def enc_f64_list(values: Iterable[float]) -> bytes:
    vals = list(values)
    return enc_u32(len(vals)) + struct.pack(f">{len(vals)}d", *vals)


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


def enc_str_map(m: Mapping[str, str]) -> bytes:
    keys = sorted(m)
    return enc_u32(len(keys)) + b"".join(enc_str(k) + enc_str(m[k]) for k in keys)


def enc_scalar_map(m: Mapping[str, object]) -> bytes:
    """Map of str -> (str | int | float | bool), type-tagged per value.

    Used for detector parameter maps, whose value types vary. Tags:
    1=str, 2=u64 int, 3=f64, 4=bool.
    """
    out = [enc_u32(len(m))]
    for k in sorted(m):
        v = m[k]
        out.append(enc_str(k))
        if isinstance(v, bool):
            out.append(enc_u8(4) + enc_bool(v))
        elif isinstance(v, int):
            out.append(enc_u8(2) + enc_u64(v))
        elif isinstance(v, float):
            out.append(enc_u8(3) + enc_f64(v))
        elif isinstance(v, str):
            out.append(enc_u8(1) + enc_str(v))
        else:
            raise ValueError(f"unsupported parameter type: {type(v).__name__}")
    return b"".join(out)
