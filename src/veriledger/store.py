"""Chain persistence: a file of the bytes the hashes cover, replay,
verification.

File format ``v5``, binary, all integers big-endian:

* the file starts with ``HEADER`` (``b"veriledger chain v5\\n"``). A reader
  refuses any other start at height 0: every earlier format ("v1" to "v4")
  was JSON lines, one record per line;
* then one record per height, strictly ordered from 0: the body's length as
  a u32, at most ``MAX_RECORD_BYTES``, then the body;
* a body is the block in the encoding its hash covers
  (``core.encode_block_fields``), then its ``block_hash``. The height-0 body
  then holds the genesis state in the encoding its state root covers
  (``core.encode_state``: no tip metadata, which a genesis state has none
  of, and no content-hash index, which the reader derives), so a chain file
  is self-contained for replay. A record stores no receipts: every reader
  re-executes the block, and its receipts are what that returns.

The file keeps the name ``run.chain.jsonl`` that earlier formats gave it, so
the paths that scripts, benchmarks and the ``run`` command's output name do
not change; the header tells the formats apart.

One table, ``_DECODERS``, holds for each field annotation of
``core.record_schema`` the decoder that inverts its ``core.FIELD_ENCODERS``
entry. A decoder refuses every byte string the writer would not have
written: bytes left over, a count larger than the bytes left (checked
before anything of that size is built), set or map entries out of order or
repeated, a tag, bool or enum value out of range, invalid UTF-8, a
non-finite float, and in an embedding a bitmap bit past its count or a
stored ``+0.0``. So a record decodes iff it is the writer's encoding of
what it decodes to, and no stored byte is cosmetic: what this module does
not check, ``ledger.apply_block`` does. It re-seals every block, the
genesis included, and compares the header, state root and block hash
included, which is the one check of what a block is.

The hash encoding takes a non-finite float, since a transaction is hashed
before a contract rejects it. The reader refuses one, so
``ChainWriter.append`` refuses a block or genesis state that holds one
(``_FLOATS``) before it writes anything.

Reads stream: ``read_chain`` reads the file one record at a time, and
``replay`` re-executes each block as soon as it is read, so a reader holds
the state and one record, at most ``MAX_RECORD_BYTES`` of it, and the first
height that fails any check is the one reported. Any single flipped byte
therefore surfaces as a record that does not decode or a semantic mismatch
at a named height -- never as silent divergence.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from base64 import b64encode
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, lt
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .codec import (
    BLOCK_TAG,
    STATE_TAG,
    TX_TAG,
    Hash256,
    enc_f64_sparse,
    enc_hash,
    enc_u32,
)
from .core import (
    PAYLOAD_TYPES,
    SUPPLY_FIELDS,
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    Block,
    ContentRecord,
    ContractParams,
    DetectorSpec,
    Embedding,
    MediaType,
    NetworkState,
    NotificationEvent,
    Receipt,
    RequestStatus,
    Transaction,
    TxKind,
    Verdict,
    encode_block_fields,
    encode_state,
    record_schema,
)
from .errors import (
    CorruptRecord,
    HeightGap,
    LedgerError,
    SerializationError,
    StoreError,
)
from .ledger import apply_block

FORMAT_VERSION = "v5"
HEADER = f"veriledger chain {FORMAT_VERSION}\n".encode("ascii")

# The longest record body that a writer writes or a reader reads. A reader
# holds one record at a time, so a hostile length costs it at most this much
# memory.
MAX_RECORD_BYTES = 2**26


def canonical_json(value: Any) -> str:
    """The one true JSON rendering: sorted keys, compact, ASCII, finite."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def pretty_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)


# --- decoders -----------------------------------------------------------------
#
# Each takes ``(data, pos)`` and returns ``(value, pos after it)``. One that
# runs past the end raises ``struct.error``, a short hash or invalid UTF-8 a
# ``ValueError``; ``_walk`` turns either into a ``SerializationError`` that
# names the field.

_U8 = struct.Struct(">B").unpack_from
_U32 = struct.Struct(">I").unpack_from
_U64 = struct.Struct(">Q").unpack_from
_F64 = struct.Struct(">d").unpack_from
_DECODE_ERRORS = (SerializationError, ValueError, struct.error)
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _reason(exc: Exception) -> str:
    return "record ends early" if isinstance(exc, struct.error) else str(exc)


def _walk(fields: tuple, data: bytes, pos: int) -> tuple[dict, int]:
    """``{name: value}`` of ``fields``, ``(name, decoder)`` pairs, decoded in
    order from ``pos``."""
    values = {}
    for name, decode in fields:
        try:
            values[name], pos = decode(data, pos)
        except _DECODE_ERRORS as exc:
            raise SerializationError(f"{name}: {_reason(exc)}") from None
    return values, pos


def _count(data: bytes, pos: int) -> tuple[int, int]:
    """A u32 count or length, refused when it exceeds the bytes left: every
    entry takes at least one byte."""
    (n,) = _U32(data, pos)
    pos += 4
    if n > len(data) - pos:
        raise SerializationError(f"count {n} exceeds the {len(data) - pos} bytes left")
    return n, pos


def _dec_u64(data: bytes, pos: int) -> tuple[int, int]:
    return _U64(data, pos)[0], pos + 8


def _dec_f64(data: bytes, pos: int) -> tuple[float, int]:
    (x,) = _F64(data, pos)
    if not math.isfinite(x):
        raise SerializationError(f"non-finite float {x}")
    return x, pos + 8


def _dec_bool(data: bytes, pos: int) -> tuple[bool, int]:
    (b,) = _U8(data, pos)
    if b > 1:
        raise SerializationError(f"bool byte {b}")
    return b == 1, pos + 1


def _dec_bytes(data: bytes, pos: int) -> tuple[bytes, int]:
    n, pos = _count(data, pos)
    return data[pos : pos + n], pos + n


def _dec_str(data: bytes, pos: int) -> tuple[str, int]:
    n, pos = _count(data, pos)
    return data[pos : pos + n].decode("utf-8"), pos + n


def _dec_hash(data: bytes, pos: int) -> tuple[Hash256, int]:
    return Hash256(data[pos : pos + 32]), pos + 32


def _dec_enum(enum_cls) -> Callable:
    members = {m.value: m for m in enum_cls}

    def decode(data: bytes, pos: int):
        value, pos = _dec_str(data, pos)
        member = members.get(value)
        if member is None:
            raise SerializationError(f"unknown {enum_cls.__name__} {value!r}")
        return member, pos

    return decode


def _exactly(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} bytes left over")


def _ascending(keys: Sequence) -> None:
    """The writer lists a set's entries and a map's keys sorted, so each
    once."""
    if not all(map(lt, keys, keys[1:])):
        raise SerializationError("entries not sorted and distinct")


def _dec_list(decode_entry: Callable) -> Callable:
    def decode(data: bytes, pos: int) -> tuple[tuple, int]:
        n, pos = _count(data, pos)
        entries = []
        for _ in range(n):
            entry, pos = decode_entry(data, pos)
            entries.append(entry)
        return tuple(entries), pos

    return decode


def _dec_set(decode_entry: Callable, cls: type = frozenset) -> Callable:
    decode_list = _dec_list(decode_entry)

    def decode(data: bytes, pos: int):
        entries, pos = decode_list(data, pos)
        _ascending(entries)
        return cls(entries), pos

    return decode


def _dec_map(decode_value: Callable) -> Callable:
    """A map with string keys, as ``codec.enc_str_map`` writes one."""

    def decode(data: bytes, pos: int) -> tuple[dict, int]:
        n, pos = _count(data, pos)
        out = {}
        keys = []
        for _ in range(n):
            key, pos = _dec_str(data, pos)
            keys.append(key)
            out[key], pos = decode_value(data, pos)
        _ascending(keys)
        return out, pos

    return decode


_SCALARS = {1: _dec_str, 2: _dec_u64, 3: _dec_f64, 4: _dec_bool}  # codec.enc_scalar_map


def _dec_scalar(data: bytes, pos: int) -> tuple[object, int]:
    (tag,) = _U8(data, pos)
    decode = _SCALARS.get(tag)
    if decode is None:
        raise SerializationError(f"parameter tag {tag}")
    return decode(data, pos + 1)


def _dec_match(data: bytes, pos: int) -> tuple[tuple[str, float], int]:
    content_id, pos = _dec_str(data, pos)
    similarity, pos = _dec_f64(data, pos)
    return (content_id, similarity), pos


_dec_media_type = _dec_enum(MediaType)


def _dec_embedding(data: bytes, pos: int) -> tuple[Embedding, int]:
    """Strict inverse of ``core.encode_embedding``: besides what every
    decoder refuses, a bitmap bit at or past the count and a stored
    ``+0.0``."""
    media_type, pos = _dec_media_type(data, pos)
    (n,) = _U32(data, pos)
    width = (n + 7) // 8
    pos += 4
    # Checked before anything proportional to n is built: n may claim far
    # more values than the record holds.
    if width > len(data) - pos:
        raise SerializationError(f"{n} values exceed the {len(data) - pos} bytes left")
    bitmap = int.from_bytes(data[pos : pos + width], "big")
    pos += width
    if bitmap & ((1 << (8 * width - n)) - 1):
        raise SerializationError(f"bitmap bit set past value {n}")
    count = bitmap.bit_count()
    kept = struct.unpack_from(f">{count}d", data, pos)
    pos += 8 * count
    if not all(map(math.isfinite, kept)):
        raise SerializationError("non-finite embedding value")
    # -0.0 == 0.0 (stored, and allowed), so signs are read only when some
    # stored value is zero.
    if 0.0 in kept and any(math.copysign(1.0, x) > 0 for x in kept if x == 0.0):
        raise SerializationError("+0.0 is stored")
    present = format(bitmap, f"0{8 * width}b")[:n].encode("ascii").translate(_FROM_DIGITS)
    values = [0.0] * n
    for i, x in zip(compress(range(n), present), kept):
        values[i] = x
    return Embedding(tuple(values), media_type), pos


def _tag(data: bytes, pos: int, tag: bytes, what: str) -> int:
    if not data.startswith(tag, pos):
        raise SerializationError(f"not a {what}")
    return pos + len(tag)


def _dec_transaction(data: bytes, pos: int) -> tuple[Transaction, int]:
    """One length-prefixed ``core.encode_transaction``, its payload decoded
    as the type its kind names."""
    raw, end = _dec_bytes(data, pos)
    head, at = _walk(_TX_HEAD, raw, _tag(raw, 0, TX_TAG, "transaction"))
    kind = head["kind"]
    try:
        payload, at = _dec_bytes(raw, at)
        _exactly(raw, at)
        decoded, at = _record_decoder(PAYLOAD_TYPES[kind])(payload, 0)
        _exactly(payload, at)
    except _DECODE_ERRORS as exc:
        raise SerializationError(f"payload: {_reason(exc)}") from None
    return Transaction(kind, head["sender"], decoded, head["nonce"]), end


# annotation -> decoder: the inverse of its ``core.FIELD_ENCODERS`` entry, or
# for the transaction list, of ``core.encode_block_fields``' part.
_DECODERS: dict[str, Callable] = {
    "str": _dec_str,
    "int": _dec_u64,
    "float": _dec_f64,
    "Hash256": _dec_hash,
    "Embedding": _dec_embedding,
    "dict[str, str]": _dec_map(_dec_str),
    "dict[str, object]": _dec_map(_dec_scalar),
    "frozenset[MediaType]": _dec_set(_dec_media_type),  # a MediaType orders as its value
    "frozenset[str]": _dec_set(_dec_str),
    "tuple[tuple[str, float], ...]": _dec_list(_dec_match),
    "MediaType": _dec_media_type,
    "Verdict": _dec_enum(Verdict),
    "AlgorithmStatus": _dec_enum(AlgorithmStatus),
    "RequestStatus": _dec_enum(RequestStatus),
    "tuple[Transaction, ...]": _dec_list(_dec_transaction),
}

# ``core.encode_transaction`` writes these before the payload.
_TX_HEAD = (("kind", _dec_enum(TxKind)), ("sender", _dec_str), ("nonce", _dec_u64))


@functools.cache
def _record_decoder(cls: type) -> Callable:
    """The decoder of a record that ``core.encode_record`` encodes: its
    fields' decoders in declaration order."""
    fields = tuple((name, _DECODERS[annotation]) for name, annotation in record_schema(cls))

    def decode(data: bytes, pos: int):
        values, pos = _walk(fields, data, pos)
        return cls(**values), pos  # ContractParams raises ValueError on its own rules

    return decode


def _dec_records(cls: type, id_field: str) -> Callable:
    """A record map of the state: each record's id is its key, so only the
    records are stored, in key order."""
    decode_records = _dec_list(_record_decoder(cls))
    key = attrgetter(id_field)

    def decode(data: bytes, pos: int) -> tuple[dict, int]:
        records, pos = decode_records(data, pos)
        keys = list(map(key, records))
        _ascending(keys)
        return dict(zip(keys, records)), pos

    return decode


# The genesis state's fields in the order ``core.encode_state`` writes them.
_STATE_FIELDS = (
    ("params", _record_decoder(ContractParams)),
    *((name, _dec_map(_dec_u64)) for name in ("validators", "balances", "nonces")),
    ("algorithms", _dec_records(AlgorithmRecord, "algorithm_id")),
    ("contents", _dec_records(ContentRecord, "content_id")),
    ("requests", _dec_records(AnalysisRequest, "request_id")),
    ("results", _dec_records(AnalysisResultRecord, "request_id")),
    ("feedback_done", _dec_set(_dec_str, set)),
    ("detectors", _dec_map(_record_decoder(DetectorSpec))),
    *((name, _dec_u64) for name in SUPPLY_FIELDS),
)


def _dec_state(data: bytes, pos: int) -> tuple[NetworkState, int]:
    values, pos = _walk(_STATE_FIELDS, data, _tag(data, pos, STATE_TAG, "state"))
    state = NetworkState(**values)
    for content in state.contents.values():
        state.content_hash_index[content.content_hash.hex] = content.content_id
    return state, pos


# ``core.encode_block_fields`` writes a block's fields in declaration order,
# and the record adds its hash, so a block is decoded as a record.
def _dec_block(data: bytes, pos: int) -> tuple[Block, int]:
    return _record_decoder(Block)(data, _tag(data, pos, BLOCK_TAG, "block"))


# --- printing -----------------------------------------------------------------
#
# ``inspect``, ``notifications`` and ``report`` print records as JSON: one
# key per field of ``core.record_schema``, each value in its annotation's
# JSON form below. Three quirks of the format stay explicit: an algorithm's
# ``tp``/``fp``/``tn``/``fn`` nest under "perf"; an embedding is printed as
# its values only, its sparse layout in one base64 token (RFC 4648, padded),
# its media type being the record's ``media_type`` field; and a receipt
# event carries a ``"type": "notification"`` tag. A float field or
# similarity is printed as a float even where the record holds an int.

_PERF = frozenset({"tp", "fp", "tn", "fn"})


def _embedding_to_json(e: Embedding) -> str:
    """``e``'s values as one base64 token of their sparse layout."""
    return b64encode(enc_f64_sparse(e.values)).decode("ascii")


@functools.cache
def _json_fields(cls: type) -> tuple:
    return tuple((name, _TO_JSON[annotation]) for name, annotation in record_schema(cls))


def record_to_json(record: Any) -> dict:
    """JSON form of a payload, state record, ``ContractParams``,
    ``DetectorSpec``, transaction or block, and the printed form of a
    receipt or event."""
    doc = {
        name: getattr(record, name) if to_json is None else to_json(getattr(record, name))
        for name, to_json in _json_fields(type(record))
    }
    if type(record) is AlgorithmRecord:
        doc["perf"] = {name: doc.pop(name) for name in _PERF}
    return doc


def _records_to_json(records: Iterable[Any]) -> list:
    return [record_to_json(r) for r in records]


def _events_to_json(events: Iterable[NotificationEvent]) -> list:
    return [{"type": "notification", **record_to_json(e)} for e in events]


# annotation -> to JSON, None for a value that is its own JSON form.
_TO_JSON: dict[str, Callable[[Any], Any] | None] = {
    "str": None,
    "str | None": None,
    "int": None,
    "float": float,
    "Hash256": attrgetter("hex"),
    "Embedding": _embedding_to_json,
    "dict[str, str]": dict,
    "dict[str, object]": dict,
    "frozenset[MediaType]": lambda ms: sorted(m.value for m in ms),
    "frozenset[str]": sorted,
    "tuple[tuple[str, float], ...]": lambda ms: [[cid, float(sim)] for cid, sim in ms],
    "MediaType": attrgetter("_value_"),
    "Verdict": attrgetter("_value_"),
    "AlgorithmStatus": attrgetter("_value_"),
    "RequestStatus": attrgetter("_value_"),
    "TxKind": attrgetter("_value_"),
    "ReceiptStatus": attrgetter("_value_"),
    "Payload": record_to_json,
    "tuple[Transaction, ...]": _records_to_json,
    "tuple[NotificationEvent, ...]": _events_to_json,
}


# --- chain file -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChainRecord:
    height: int
    block: Block
    receipts: tuple[Receipt, ...]


@dataclass(slots=True)
class ChainView:
    """A run's chain: its records and the state after the last of them."""

    records: list[ChainRecord]
    final_state: NetworkState

    @property
    def tip(self) -> Block:
        return self.records[-1].block


def _encode_record(block: Block, genesis_state: NetworkState | None) -> bytes:
    """The body of the record of ``block``, and of the genesis state if one
    is given."""
    body = encode_block_fields(
        block.height, block.parent_hash, block.timestamp, block.proposer,
        block.transactions, block.state_root,
    ) + enc_hash(block.block_hash)
    if genesis_state is not None:
        body += encode_state(genesis_state)
    return body


# annotation -> the floats a field of it holds, for the writer's check.
_FLOATS: dict[str, Callable[[Any], Iterable[float]]] = {
    "float": lambda x: (x,),
    "Embedding": attrgetter("values"),
    "tuple[tuple[str, float], ...]": lambda matches: [s for _, s in matches],
    "dict[str, object]": lambda m: [v for v in m.values() if type(v) is float],
}


def _check_finite(records: Iterable[Any]) -> None:
    """Refuse ``records`` if a field of one holds a non-finite float."""
    for record in records:
        for name, annotation in record_schema(type(record)):
            floats = _FLOATS.get(annotation)
            if floats and not all(map(math.isfinite, floats(getattr(record, name)))):
                raise ValueError(f"non-finite float in {type(record).__name__}.{name}")


def _decode_record(height: int, body: bytes) -> tuple[Block, NetworkState | None]:
    """The block of the record of ``height``, with the genesis state if that
    is 0: the strict inverse of :func:`_encode_record`."""
    try:
        block, pos = _dec_block(body, 0)
        genesis_state = None
        if height == 0:
            genesis_state, pos = _dec_state(body, pos)
        _exactly(body, pos)
    except _DECODE_ERRORS as exc:
        raise CorruptRecord(height, _reason(exc)) from None
    return block, genesis_state


class ChainWriter:
    """Writer of a new chain file, which replaces any file at ``path``; each
    appended record is durable on return."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._last_height = -1
        self._fh = open(self.path, "wb")

    def append(self, block: Block, genesis_state: NetworkState | None = None) -> None:
        if block.height != self._last_height + 1:
            raise HeightGap(
                f"append height {block.height} after {self._last_height}"
            )
        if (genesis_state is None) == (block.height == 0):
            raise SerializationError("the height-0 record, and only it, holds the genesis state")
        records = [tx.payload for tx in block.transactions]
        if genesis_state is not None:
            records += [genesis_state.params, *genesis_state.detectors.values()]
            for name in ("algorithms", "contents", "requests", "results"):
                records += getattr(genesis_state, name).values()
        try:
            _check_finite(records)
            body = _encode_record(block, genesis_state)
        except (TypeError, ValueError) as exc:
            raise SerializationError(str(exc)) from exc
        if len(body) > MAX_RECORD_BYTES:
            raise SerializationError(
                f"record of {len(body)} bytes exceeds {MAX_RECORD_BYTES}"
            )
        # The header goes with the first record, so a refused genesis leaves
        # the file empty.
        self._fh.write((HEADER if block.height == 0 else b"") + enc_u32(len(body)) + body)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._last_height = block.height

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ChainWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_chain(path: str | os.PathLike) -> Iterator[tuple[Block, NetworkState | None]]:
    """Read and decode a chain file one record at a time (no re-execution):
    yield each block with the genesis state its record carries, which only
    the height-0 record does, as soon as its record decodes."""
    height = 0
    with open(path, "rb") as fh:
        header = fh.read(len(HEADER))
        if header != HEADER:
            reason = f"unsupported version: the file starts {header!r}" if header else "empty file"
            raise CorruptRecord(0, reason)
        while prefix := fh.read(4):
            if len(prefix) < 4:
                raise CorruptRecord(height, "record length ends early")
            (size,) = _U32(prefix)
            # Refused before the body is read: a reader holds one record.
            if size > MAX_RECORD_BYTES:
                raise CorruptRecord(height, f"record of {size} bytes exceeds {MAX_RECORD_BYTES}")
            body = fh.read(size)
            if len(body) < size:
                raise CorruptRecord(height, f"record of {size} bytes ends after {len(body)}")
            yield _decode_record(height, body)
            height += 1
    if height == 0:
        raise CorruptRecord(0, "no genesis record")


def _genesis_fault(state: NetworkState) -> str | None:
    """Why replay cannot start from ``state``, or None: its tokens are not
    conserved, or a record names one the state lacks where a handler looks
    it up unchecked (``contracts.submit_feedback``)."""
    if gap := state.conservation_gap():
        return f"genesis balances and stakes differ from the supply by {gap}"
    for rid, request in state.requests.items():
        if request.status is RequestStatus.COMPLETED and rid not in state.results:
            return f"completed request {rid} has no result"
    for result in state.results.values():
        if result.algorithm_id not in state.algorithms:
            return f"result {result.request_id} names unknown algorithm {result.algorithm_id}"
    return None


def replay(path: str | os.PathLike) -> Iterator[tuple[ChainRecord, NetworkState]]:
    """Re-execute a chain file from its genesis, one block at a time, and
    yield each block, with the receipts its execution returned, and the
    state after it once the block has passed every check.

    The genesis block starts from the state its record embeds, which must
    conserve tokens and reference only records it holds, and must carry no
    transactions. Every block, the genesis included, then goes through
    ``ledger.apply_block``, which accepts a block iff re-sealing it
    reproduces every header field, block hash included. Fails loudly with
    the offending height, which is the first height that fails a check of
    either reading or execution; never silently diverges.
    """
    for height, (block, genesis_state) in enumerate(read_chain(path)):
        if genesis_state is not None:
            if fault := _genesis_fault(genesis_state):
                raise CorruptRecord(0, fault)
            if block.transactions:
                raise CorruptRecord(0, "genesis block must carry no transactions")
            state = genesis_state
        try:
            state, receipts = apply_block(state, block)
        except LedgerError as exc:
            # Name the record's height for callers: a block out of place
            # claims another.
            exc.height = height
            raise
        yield ChainRecord(height, block, tuple(receipts)), state


def notifications(records: Iterable[ChainRecord]) -> list[dict]:
    """Every notification event of ``records``, in chain order, with the
    height of the block that emitted it."""
    return [
        {"height": record.height, **record_to_json(event)}
        for record in records
        for receipt in record.receipts
        for event in receipt.events
    ]


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    blocks: int = 0
    tip_hash: str | None = None
    error: str | None = None
    failing_height: int | None = None

    def __str__(self) -> str:
        """The one line that ``veriledger verify`` prints."""
        if self.ok:
            return f"OK tip={self.tip_hash} blocks={self.blocks}"
        where = "" if self.failing_height is None else f" at height {self.failing_height}"
        return f"FAIL{where}: {self.error}"


def failure(exc: StoreError | LedgerError) -> VerifyResult:
    """The result of a replay that raised ``exc``."""
    return VerifyResult(
        ok=False,
        error=f"{type(exc).__name__}: {exc}",
        failing_height=getattr(exc, "height", None),
    )


def verify_chain(path: str | os.PathLike) -> VerifyResult:
    """Replay with all checks; report OK with the tip or the first failure."""
    try:
        for tip, _ in replay(path):
            pass
    except (StoreError, LedgerError) as exc:
        return failure(exc)
    return VerifyResult(ok=True, blocks=tip.height + 1, tip_hash=tip.block.block_hash.hex)
