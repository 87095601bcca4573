"""Hashing and the canonical binary encoding used for all on-chain digests.

Every digest in the system (transaction hashes, block hashes, state roots)
is SHA-256 over a canonical byte string produced by the primitives below.
The encoding is versioned and bit-exact; two implementations that follow
this layout byte for byte will agree on every hash.

Encoding rules (version 1):

* integers       -- big-endian fixed width; ``u8``/``u32``/``u64``
* embeddings     -- the sparse layout (``enc_u32_bitmap``) of ``n``
  non-negative ``u32`` values: ``u32`` count + a ``ceil(n/8)``-byte bitmap
  whose bit i (most significant bit first) is set iff value i is not 0 +
  each value whose bit is set, as a ``u32``
* byte strings   -- ``u32`` length prefix + raw bytes
* text strings   -- UTF-8 bytes, encoded as a byte string
* 256-bit hashes -- 32 raw bytes, no prefix
* lists          -- ``u32`` element count + concatenated elements
* sets           -- a list of the entries, sorted
* string maps    -- ``u32`` entry count + (key, value) pairs sorted by key;
  a detector's parameter values carry a type tag (``enc_scalar``)
* enums          -- the member's value, as a text string
* booleans       -- ``u8``: 0 or 1

Top-level objects (transactions, blocks, state) each start with an ASCII
tag naming the object and the encoding version, so digests of different
object types can never collide byte-wise. The field order of a payload,
record, block or state is fixed by its dataclass declaration in
:mod:`veriledger.core`, whose table maps each field annotation to one of
the pairs below. No order depends on insertion order.

Each encoder's strict decoder is defined beside it, and each combinator
(``list_of``, ``set_of``, ``map_of``, ``enum_of``, ``pair_of``) builds both
from the pairs it is given, as one ``Codec``: ``(encode, decode)``. A
decoder takes ``(data, pos)`` and returns ``(value, pos after it)``. It
refuses every byte string its encoder would not write, raising one of
``DECODE_ERRORS``: a count larger than the bytes left (checked before
anything of that size is built), set or map entries out of order or
repeated, a tag, bool or enum value out of range, invalid UTF-8, and in
the sparse layout a bitmap bit past its count or a stored 0. So bytes
decode iff they are the encoding of what they decode to, once the caller
checks that none are left over (``exactly``).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from operator import lt
from typing import Any, Callable, Mapping, Sequence

from .errors import SerializationError

TX_TAG = b"VLTX1\x00"
BLOCK_TAG = b"VLBLOCK1\x00"
STATE_TAG = b"VLSTATE1\x00"

_U64_MAX = 2**64 - 1

Encoder = Callable[[Any], bytes]
Decoder = Callable[[bytes, int], tuple[Any, int]]
Codec = tuple[Encoder, Decoder]

_U8 = struct.Struct(">B").unpack_from
_U32 = struct.Struct(">I").unpack_from
_U64 = struct.Struct(">Q").unpack_from

# What a decoder raises on bytes its encoder would not write: one that runs
# past the end raises ``struct.error``, a short hash or invalid UTF-8 a
# ``ValueError``, any other refusal a ``SerializationError``.
DECODE_ERRORS = (SerializationError, ValueError, struct.error)


def reason(exc: Exception) -> str:
    """Why a decoder raised ``exc``, one of ``DECODE_ERRORS``."""
    return "record ends early" if isinstance(exc, struct.error) else str(exc)


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


def count(data: bytes, pos: int) -> tuple[int, int]:
    """A u32 count or length, refused when it exceeds the bytes left: every
    entry takes at least one byte."""
    (n,) = _U32(data, pos)
    pos += 4
    if n > len(data) - pos:
        raise SerializationError(f"count {n} exceeds the {len(data) - pos} bytes left")
    return n, pos


def exactly(data: bytes, pos: int) -> None:
    """Refuse ``data`` unless ``pos`` is its end."""
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} bytes left over")


def ascending(keys: Sequence) -> None:
    """The encoders list a set's entries and a map's keys sorted, so each
    once."""
    if not all(map(lt, keys, keys[1:])):
        raise SerializationError("entries not sorted and distinct")


def dec_tag(data: bytes, pos: int, tag: bytes, what: str) -> int:
    """The position after ``tag``, which names a top-level ``what``."""
    if not data.startswith(tag, pos):
        raise SerializationError(f"not a {what}")
    return pos + len(tag)


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


def dec_u64(data: bytes, pos: int) -> tuple[int, int]:
    return _U64(data, pos)[0], pos + 8


def enc_u32_bitmap(n: int, bitmap: bytes, stored: Sequence[int]) -> bytes:
    """The sparse layout of ``n`` values: ``stored`` at the indices of
    ``bitmap``'s set bits, and 0 at every other index. ``bitmap`` has
    ``ceil(n/8)`` bytes and no bit past ``n``. A stored value that is not
    an int from 1 to ``2**32 - 1`` raises ``ValueError``: no reader would
    read it back."""
    if 0 in stored:
        raise ValueError("embedding value out of range: 0 is stored")
    try:
        return struct.pack(f">I{len(bitmap)}s{len(stored)}I", n, bitmap, *stored)
    except struct.error as exc:
        raise ValueError(f"embedding value out of range: {exc}") from None


def dec_u32_bitmap(data: bytes, pos: int) -> tuple[tuple[int, bytes, tuple[int, ...]], int]:
    """Strict inverse of ``enc_u32_bitmap``, as ``(n, bitmap, stored)``:
    besides what every decoder refuses, a bitmap bit at or past the count
    and a stored 0. It builds nothing larger than the bytes it reads,
    whatever the count claims: the bitmap is the slice it read."""
    (n,) = _U32(data, pos)
    width = (n + 7) // 8
    pos += 4
    if width > len(data) - pos:
        raise SerializationError(f"{n} values exceed the {len(data) - pos} bytes left")
    bitmap = data[pos : pos + width]
    pos += width
    if n % 8 and bitmap[-1] & (0xFF >> n % 8):
        raise SerializationError(f"bitmap bit set past value {n}")
    stored = struct.unpack_from(f">{int.from_bytes(bitmap, 'big').bit_count()}I", data, pos)
    pos += 4 * len(stored)
    if 0 in stored:
        raise SerializationError("0 is stored")
    return (n, bitmap, stored), pos


def enc_bytes(b: bytes) -> bytes:
    return enc_u32(len(b)) + b


def dec_bytes(data: bytes, pos: int) -> tuple[bytes, int]:
    n, pos = count(data, pos)
    return data[pos : pos + n], pos + n


def enc_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return enc_u32(len(b)) + b


def dec_str(data: bytes, pos: int) -> tuple[str, int]:
    n, pos = count(data, pos)
    return data[pos : pos + n].decode("utf-8"), pos + n


def enc_hash(h: Hash256) -> bytes:
    return h.value


def dec_hash(data: bytes, pos: int) -> tuple[Hash256, int]:
    return Hash256(data[pos : pos + 32]), pos + 32


def enc_bool(b: bool) -> bytes:
    return enc_u8(1 if b else 0)


def dec_bool(data: bytes, pos: int) -> tuple[bool, int]:
    (b,) = _U8(data, pos)
    if b > 1:
        raise SerializationError(f"bool byte {b}")
    return b == 1, pos + 1


U64: Codec = (enc_u64, dec_u64)
BOOL: Codec = (enc_bool, dec_bool)
STR: Codec = (enc_str, dec_str)
HASH: Codec = (enc_hash, dec_hash)

# A detector parameter's type tag and the pair of its value, in the order
# ``enc_scalar`` tries them: a bool is an int too.
_SCALAR_TAGS = ((bool, 4, BOOL), (int, 2, U64), (str, 1, STR))
_SCALAR_DECODERS = {tag: decode for _, tag, (_, decode) in _SCALAR_TAGS}


def enc_scalar(v: object) -> bytes:
    """A str, int or bool, type-tagged: 1=str, 2=u64 int, 4=bool. Used for
    detector parameter maps, whose value types vary. Tag 3, once an f64,
    is refused as unknown."""
    for cls, tag, (encode, _) in _SCALAR_TAGS:
        if isinstance(v, cls):
            return enc_u8(tag) + encode(v)
    raise ValueError(f"unsupported parameter type: {type(v).__name__}")


def dec_scalar(data: bytes, pos: int) -> tuple[object, int]:
    (tag,) = _U8(data, pos)
    decode = _SCALAR_DECODERS.get(tag)
    if decode is None:
        raise SerializationError(f"parameter tag {tag}")
    return decode(data, pos + 1)


SCALAR: Codec = (enc_scalar, dec_scalar)


# --- combinators ------------------------------------------------------------


def list_of(entry: Codec) -> Codec:
    """A list of ``entry`` values, decoded as a tuple."""
    encode_entry, decode_entry = entry

    def encode(items: Sequence) -> bytes:
        return enc_u32(len(items)) + b"".join([encode_entry(x) for x in items])

    def decode(data: bytes, pos: int) -> tuple[tuple, int]:
        n, pos = count(data, pos)
        entries = []
        for _ in range(n):
            value, pos = decode_entry(data, pos)
            entries.append(value)
        return tuple(entries), pos

    return encode, decode


def set_of(entry: Codec) -> Codec:
    """A set of ``entry`` values, listed sorted, decoded as a frozenset."""
    encode_list, decode_list = list_of(entry)

    def encode(items) -> bytes:
        return encode_list(sorted(items))

    def decode(data: bytes, pos: int):
        entries, pos = decode_list(data, pos)
        ascending(entries)
        return frozenset(entries), pos

    return encode, decode


def map_of(value: Codec) -> Codec:
    """A map from strings to ``value`` values, sorted by key."""
    encode_value, decode_value = value

    def encode(m: Mapping[str, Any]) -> bytes:
        return enc_u32(len(m)) + b"".join([enc_str(k) + encode_value(m[k]) for k in sorted(m)])

    def decode(data: bytes, pos: int) -> tuple[dict, int]:
        n, pos = count(data, pos)
        out = {}
        keys = []
        for _ in range(n):
            key, pos = dec_str(data, pos)
            keys.append(key)
            out[key], pos = decode_value(data, pos)
        ascending(keys)
        return out, pos

    return encode, decode


def enum_of(enum_cls: type) -> Codec:
    """A member of ``enum_cls``, as its string value."""
    members = {m.value: m for m in enum_cls}
    encode = {m: enc_str(m.value) for m in enum_cls}.__getitem__

    def decode(data: bytes, pos: int):
        value, pos = dec_str(data, pos)
        member = members.get(value)
        if member is None:
            raise SerializationError(f"unknown {enum_cls.__name__} {value!r}")
        return member, pos

    return encode, decode


def pair_of(first: Codec, second: Codec) -> Codec:
    """A 2-tuple, its items one after the other."""
    (encode_first, decode_first), (encode_second, decode_second) = first, second

    def encode(pair: tuple) -> bytes:
        a, b = pair
        return encode_first(a) + encode_second(b)

    def decode(data: bytes, pos: int) -> tuple[tuple, int]:
        a, pos = decode_first(data, pos)
        b, pos = decode_second(data, pos)
        return (a, b), pos

    return encode, decode
