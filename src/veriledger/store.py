"""Chain persistence: line-delimited JSON records, replay, verification.

File format (extension ``.chain.jsonl``, UTF-8, one record per line):

* every line is the canonical JSON rendering of one record -- sorted keys,
  compact separators, ASCII-only. No stored byte is cosmetic: a reader
  requires each line to equal the canonical rendering of the JSON value it
  parses to, and each decoder refuses every value the writer would not
  have written for the record it decodes to -- a set's entries out of
  order or repeated, an embedding token other than the one its values
  render to, an integer where a float belongs. Together the two checks
  accept exactly the lines the writer renders, without rendering any
  record again;
* every string encodes as UTF-8: a reader refuses a lone surrogate, which
  JSON can escape (``"\\ud800"``) but no hash or state root can encode;
* an embedding's values are one base64 string (RFC 4648, padded) of, all
  big-endian: their count ``n`` as a u32; a ``ceil(n/8)``-byte bitmap whose
  bit i (most significant bit first) is set iff value i's binary64 bits are
  not all zero, so ``-0.0`` is stored and ``+0.0`` is not; then each value
  whose bit is set, as binary64. Every other float is a JSON number;
* every stored type -- transaction, block, receipt, notification event,
  payload, state record, ``ContractParams`` -- is an object with one key
  per field of its dataclass (``core.record_schema``), written and read by
  one codec (``record_to_json``, ``record_from_json``). Three exceptions:
  an algorithm's ``tp``/``fp``/``tn``/``fn`` nest under ``perf``, an event
  carries ``"type": "notification"``, and a payload's type follows from
  its transaction's ``kind``;
* record fields: ``version`` ("v3"), ``height``, ``block``, ``receipts``;
  the height-0 record additionally carries ``genesis_state``, the full
  starting state, which makes a chain file self-contained for replay.
  A reader accepts only its own version and refuses any other at its
  first line: "v1" state roots covered each analysis request's embedding,
  which later roots commit to by hash, and "v2" stored embeddings as lists
  of JSON numbers;
* records are strictly ordered by height starting at 0;
* a line holds at most ``MAX_LINE_BYTES`` bytes before its line end.

Reads stream: ``read_chain`` reads the file one line at a time, and
``replay`` re-executes each record as soon as it is read, so a reader holds
the state and one line, at most ``MAX_LINE_BYTES`` + 1 bytes of it, and the
first height that fails any check is the one reported. The checks split in
two: this module checks what a line is (its form, version and height, and
that it decodes), and ``ledger.apply_block`` checks what a block is (it
re-seals the block and compares every header field, block hash included),
so this module does not know which fields a block hash covers. Replay then
compares the re-executed receipts against the stored ones, which no hash
covers. Any single flipped byte therefore surfaces as a parse failure, a
canonical-form mismatch, or a semantic mismatch at a named height -- never
as silent divergence.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from base64 import b64decode, b64encode
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, lt
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .codec import Hash256
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
    ReceiptStatus,
    RequestStatus,
    Transaction,
    TxKind,
    Verdict,
    record_schema,
)
from .errors import (
    CorruptRecord,
    HeightGap,
    LedgerError,
    SerializationError,
    StateRootMismatch,
    StoreError,
)
from .ledger import apply_block, init_chain

FORMAT_VERSION = "v3"


def canonical_json(value: Any) -> str:
    """The one true JSON rendering: sorted keys, compact, ASCII, finite."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def pretty_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True, allow_nan=False)


# --- strict parse helpers ---------------------------------------------------


_TWO64 = 2**64


def _expect_keys(d: Any, keys: set[str] | frozenset[str], what: str) -> dict:
    d = _as_map(d, what)
    if set(d) != keys:
        raise SerializationError(
            f"{what}: fields {sorted(d)} != expected {sorted(keys)}"
        )
    return d


def _as_map(v: Any, what: str) -> dict:
    if not isinstance(v, dict):
        raise SerializationError(f"{what}: expected object")
    return v


def _as_list(v: Any, what: str) -> list:
    if not isinstance(v, list):
        raise SerializationError(f"{what}: expected list")
    return v


def _as_nonneg(n: Any, what: str) -> int:
    """An integer the canonical encodings can hold as an unsigned 64-bit."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise SerializationError(f"{what}: expected integer")
    if n < 0:
        raise SerializationError(f"{what}: must be non-negative")
    if n >= _TWO64:
        raise SerializationError(f"{what}: exceeds the u64 range")
    return n


def _as_str(v: Any, what: str) -> str:
    if not isinstance(v, str):
        raise SerializationError(f"{what}: expected string")
    if not v.isascii():
        try:
            v.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise SerializationError(f"{what}: {exc}") from None
    return v


def _as_float(v: Any, what: str) -> float:
    # record_to_json writes every float as a float, and canonical JSON writes
    # a float with a point or an exponent, so an integer literal here is never
    # the rendering of a float.
    if type(v) is not float:
        raise SerializationError(f"{what}: expected float")
    return v


def _as_hash(v: Any, what: str) -> Hash256:
    try:
        return Hash256.from_hex(_as_str(v, what))
    except ValueError as exc:
        raise SerializationError(f"{what}: {exc}") from exc


def _as_enum(enum_cls, v: Any, what: str):
    try:
        return enum_cls(_as_str(v, what))
    except ValueError as exc:
        raise SerializationError(f"{what}: {exc}") from exc


def _u64_map(v: Any, what: str) -> dict[str, int]:
    return {_as_str(k, what): _as_nonneg(x, what) for k, x in _as_map(v, what).items()}


def _str_map(v: Any, what: str) -> dict[str, str]:
    return {_as_str(k, what): _as_str(x, what) for k, x in _as_map(v, what).items()}


def _scalar_map(v: Any, what: str) -> dict[str, object]:
    """Detector parameters: each value a bool, a u64 integer, a float or a
    string, the types ``codec.enc_scalar_map`` encodes."""
    out: dict[str, object] = {}
    for k, x in _as_map(v, what).items():
        if isinstance(x, int) and not isinstance(x, bool):
            x = _as_nonneg(x, f"{what}.{k}")
        elif isinstance(x, str):
            x = _as_str(x, f"{what}.{k}")
        elif not isinstance(x, (bool, float)):
            raise SerializationError(f"{what}.{k}: unsupported type")
        out[_as_str(k, what)] = x
    return out


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _embedding_to_json(e: Embedding) -> str:
    """``e``'s values as one base64 token (layout in the module docstring)."""
    values = e.values
    words = memoryview(struct.pack(f">{len(values)}d", *values)).cast("Q")
    present = bytes(map(bool, words))  # 0 or 1 per value: any bit set
    kept = tuple(compress(values, present))
    if not all(map(math.isfinite, kept)):
        raise ValueError("non-finite embedding value")
    digits = present.translate(_TO_DIGITS) + b"0" * (-len(values) % 8)
    bitmap = int(digits or b"0", 2).to_bytes(len(digits) // 8, "big")
    packed = struct.pack(f">I{len(bitmap)}s{len(kept)}d", len(values), bitmap, *kept)
    return b64encode(packed).decode("ascii")


def _embedding_values(v: Any, what: str) -> tuple[float, ...]:
    """Strict inverse of :func:`_embedding_to_json`: a token is accepted only
    if it is the one its values render to, so it refuses non-zero padding
    bits, a bitmap bit at or past ``n`` and a stored ``+0.0`` as well as
    NaN, infinity and a length that does not match the bitmap."""
    token = _as_str(v, what)
    try:
        raw = b64decode(token, validate=True)
        (n,) = struct.unpack_from(">I", raw)
        width = (n + 7) // 8
        bitmap = int.from_bytes(raw[4 : 4 + width], "big")
        count = bitmap.bit_count()
        # Checked before anything proportional to n is built: n is read from
        # the file and may claim far more values than the token holds.
        if len(raw) != 4 + width + 8 * count:
            raise SerializationError(f"{what}: {len(raw)} bytes do not hold {n} values")
        kept = struct.unpack_from(f">{count}d", raw, 4 + width)
    # binascii.Error is a ValueError; b64decode raises a plain ValueError for
    # a str with a non-ASCII character, which an escaped "\u00e9" becomes.
    except (ValueError, struct.error) as exc:
        raise SerializationError(f"{what}: {exc}") from exc
    if b64encode(raw).decode("ascii") != token:
        raise SerializationError(f"{what}: non-zero base64 padding bits")
    if bitmap & ((1 << (8 * width - n)) - 1):
        raise SerializationError(f"{what}: bitmap bit set past value {n}")
    if not all(map(math.isfinite, kept)):
        raise SerializationError(f"{what}: non-finite value")
    # -0.0 == 0.0 (stored, and allowed), so signs are read only when some
    # stored value is zero.
    if 0.0 in kept and any(math.copysign(1.0, x) > 0 for x in kept if x == 0.0):
        raise SerializationError(f"{what}: +0.0 is stored")
    present = format(bitmap, f"0{8 * width}b")[:n].encode().translate(_FROM_DIGITS)
    values = [0.0] * n
    for i, x in zip(compress(range(n), present), kept):
        values[i] = x
    return tuple(values)


def _sorted_strs(v: Any, what: str) -> list[str]:
    """A set's entries: strings, each greater than the one before, which is
    how the writer lists a set (sorted, so each entry once)."""
    items = [_as_str(x, what) for x in _as_list(v, what)]
    if not all(map(lt, items, items[1:])):
        raise SerializationError(f"{what}: entries not sorted and distinct")
    return items


def _matches(v: Any, what: str) -> tuple[tuple[str, float], ...]:
    out = []
    for item in _as_list(v, what):
        if not isinstance(item, list) or len(item) != 2:
            raise SerializationError(f"{what}: expected [content_id, similarity]")
        out.append((_as_str(item[0], what), _as_float(item[1], what)))
    return tuple(out)


def _enum(enum_cls) -> tuple:
    # Read ``_value_`` and look members up by value directly: the ``value``
    # property and ``enum_cls(v)`` each cost Python-level calls, and a chain
    # file holds thousands of enum values.
    members = {m.value: m for m in enum_cls}

    def from_json(v: Any, what: str):
        member = members.get(v) if type(v) is str else None
        return _as_enum(enum_cls, v, what) if member is None else member

    return attrgetter("_value_"), from_json


# --- records ------------------------------------------------------------------
#
# The JSON form of a record has one key per field of ``core.record_schema``,
# each value in its annotation's JSON form below. Four quirks of the format
# stay explicit: an algorithm's ``tp``/``fp``/``tn``/``fn`` nest under
# "perf"; an embedding is stored as its values only, packed into one base64
# token (``_embedding_to_json``), its media type being the record's
# ``media_type`` field; a payload is decoded once its transaction's ``kind``
# is known; and a receipt event carries a ``"type": "notification"`` tag. A
# float field or similarity is written as a float even where the record
# holds an int: both have the same binary64 encoding, and the decoders
# accept only floats.

_PERF = frozenset({"tp", "fp", "tn", "fn"})


@functools.cache
def _json_schema(cls: type) -> tuple[frozenset[str], tuple]:
    """The keys of ``cls``'s JSON form, and ``(name, to JSON, from JSON)``
    per field, with ``None`` to JSON for a value that is its own JSON form."""
    schema = record_schema(cls)
    keys = frozenset(name for name, _ in schema)
    if cls is AlgorithmRecord:
        keys = keys - _PERF | {"perf"}
    return keys, tuple((name, *_JSON_CODECS[annotation]) for name, annotation in schema)


def record_to_json(record: Any) -> dict:
    """JSON form of a payload, state record, ``ContractParams``,
    ``DetectorSpec``, transaction, block, receipt or event."""
    doc = {
        name: getattr(record, name) if to_json is None else to_json(getattr(record, name))
        for name, to_json, _ in _json_schema(type(record))[1]
    }
    if type(record) is AlgorithmRecord:
        doc["perf"] = {name: doc.pop(name) for name in _PERF}
    return doc


def record_from_json(cls: type, d: Any, what: str) -> Any:
    """Strict inverse of :func:`record_to_json`; ``what`` names the record in
    errors."""
    keys, codecs = _json_schema(cls)
    d = _expect_keys(d, keys, what)
    if cls is AlgorithmRecord:
        d = {**d, **_expect_keys(d["perf"], _PERF, f"{what}.perf")}
    values = {name: from_json(d[name], f"{what}.{name}") for name, _, from_json in codecs}
    if cls is Transaction:
        kind = values["kind"]
        values["payload"] = record_from_json(
            PAYLOAD_TYPES[kind], values["payload"], f"payload({kind.value})"
        )
    elif "embedding" in values:
        values["embedding"] = Embedding(values["embedding"], values["media_type"])
    try:
        return cls(**values)
    except ValueError as exc:  # e.g. ContractParams rejects the combination
        raise SerializationError(f"{what}: {exc}") from exc


def _records_to_json(records: Iterable[Any]) -> list:
    return [record_to_json(r) for r in records]


def _transactions_from_json(v: Any, what: str) -> tuple[Transaction, ...]:
    return tuple(
        record_from_json(Transaction, tx, "transaction") for tx in _as_list(v, what)
    )


def _events_to_json(events: Iterable[NotificationEvent]) -> list:
    return [{"type": "notification", **record_to_json(e)} for e in events]


def _events_from_json(v: Any, what: str) -> tuple[NotificationEvent, ...]:
    events = []
    for d in _as_list(v, what):
        if _as_map(d, "event").get("type") != "notification":
            raise SerializationError(f"unknown event type {d.get('type')!r}")
        fields = {k: x for k, x in d.items() if k != "type"}
        events.append(record_from_json(NotificationEvent, fields, "event"))
    return tuple(events)


def _optional_str(v: Any, what: str) -> str | None:
    return None if v is None else _as_str(v, what)


def _payload_later(v: Any, what: str) -> Any:
    # The payload's type follows from the transaction's kind, so
    # record_from_json decodes it once the kind is known.
    return v


# annotation -> (to JSON, from JSON); each decoder type-checks its value.
_JSON_CODECS: dict[str, tuple[Callable[[Any], Any] | None, Callable[[Any, str], Any]]] = {
    "str": (None, _as_str),
    "str | None": (None, _optional_str),
    "int": (None, _as_nonneg),
    "float": (float, _as_float),
    "Hash256": (attrgetter("hex"), _as_hash),
    "Embedding": (_embedding_to_json, _embedding_values),
    "dict[str, str]": (dict, _str_map),
    "dict[str, object]": (dict, _scalar_map),
    "frozenset[MediaType]": (
        lambda ms: sorted(m.value for m in ms),
        lambda v, what: frozenset(
            _as_enum(MediaType, m, what) for m in _sorted_strs(v, what)
        ),
    ),
    "frozenset[str]": (sorted, lambda v, what: frozenset(_sorted_strs(v, what))),
    "tuple[tuple[str, float], ...]": (
        lambda ms: [[cid, float(sim)] for cid, sim in ms],
        _matches,
    ),
    "MediaType": _enum(MediaType),
    "Verdict": _enum(Verdict),
    "AlgorithmStatus": _enum(AlgorithmStatus),
    "RequestStatus": _enum(RequestStatus),
    "TxKind": _enum(TxKind),
    "ReceiptStatus": _enum(ReceiptStatus),
    "Payload": (record_to_json, _payload_later),
    "tuple[Transaction, ...]": (_records_to_json, _transactions_from_json),
    "tuple[NotificationEvent, ...]": (_events_to_json, _events_from_json),
}


# --- state snapshots --------------------------------------------------------

_AMOUNT_MAPS = ("validators", "balances", "nonces")

# Record maps of the state: name -> (record type, field the key must equal).
_RECORD_MAPS = {
    "algorithms": (AlgorithmRecord, "algorithm_id"),
    "contents": (ContentRecord, "content_id"),
    "requests": (AnalysisRequest, "request_id"),
    "results": (AnalysisResultRecord, "request_id"),
    "detectors": (DetectorSpec, None),
}

_STATE_KEYS = {"params", "feedback_done", "supply", *_AMOUNT_MAPS, *_RECORD_MAPS}


def state_to_json(state: NetworkState) -> dict:
    """Snapshot of everything the state root covers (tip metadata excluded)."""
    doc = {
        "params": record_to_json(state.params),
        "feedback_done": sorted(state.feedback_done),
        "supply": {name: getattr(state, name) for name in SUPPLY_FIELDS},
    }
    for name in _AMOUNT_MAPS:
        doc[name] = dict(getattr(state, name))
    for name in _RECORD_MAPS:
        doc[name] = {k: record_to_json(v) for k, v in getattr(state, name).items()}
    return doc


def _records_from_json(name: str, v: Any) -> dict:
    cls, id_field = _RECORD_MAPS[name]
    records = {}
    for key, doc in _as_map(v, name).items():
        record = record_from_json(cls, doc, f"{name}[{_as_str(key, name)}]")
        if id_field is not None and getattr(record, id_field) != key:
            raise SerializationError(f"{name}: key {key} != record id")
        records[key] = record
    return records


def state_from_json(d: Any) -> NetworkState:
    d = _expect_keys(d, _STATE_KEYS, "state")
    supply = _expect_keys(d["supply"], set(SUPPLY_FIELDS), "supply")
    state = NetworkState(
        params=record_from_json(ContractParams, d["params"], "params"),
        feedback_done=set(_sorted_strs(d["feedback_done"], "feedback_done")),
        **{name: _u64_map(d[name], name) for name in _AMOUNT_MAPS},
        **{name: _records_from_json(name, d[name]) for name in _RECORD_MAPS},
        **{name: _as_nonneg(supply[name], f"supply.{name}") for name in SUPPLY_FIELDS},
    )
    for content in state.contents.values():
        state.content_hash_index[content.content_hash.hex] = content.content_id
    return state


# --- chain file -------------------------------------------------------------

# The longest record line, its line end excluded, that a writer writes or a
# reader reads. A reader holds one line at a time, so a hostile line costs it
# at most this much memory.
MAX_LINE_BYTES = 2**26


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


def _record_to_json(
    block: Block, receipts: Iterable[Receipt], genesis_state: NetworkState | None
) -> dict:
    record = {
        "version": FORMAT_VERSION,
        "height": block.height,
        "block": record_to_json(block),
        "receipts": _records_to_json(receipts),
    }
    if block.height == 0:
        if genesis_state is None:
            raise SerializationError("height-0 record requires the genesis state")
        record["genesis_state"] = state_to_json(genesis_state)
    return record


class ChainWriter:
    """Writer of a new chain file, which replaces any file at ``path``; each
    appended record is durable on return."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._last_height = -1
        self._fh = open(self.path, "wb")

    def append(
        self,
        block: Block,
        receipts: Iterable[Receipt],
        genesis_state: NetworkState | None = None,
    ) -> None:
        if block.height != self._last_height + 1:
            raise HeightGap(
                f"append height {block.height} after {self._last_height}"
            )
        try:
            line = canonical_json(_record_to_json(block, receipts, genesis_state))
        except (TypeError, ValueError) as exc:
            raise SerializationError(str(exc)) from exc
        if len(line) > MAX_LINE_BYTES:  # ASCII: one byte per character
            raise SerializationError(
                f"record of {len(line)} bytes exceeds {MAX_LINE_BYTES}"
            )
        self._fh.write(line.encode("ascii") + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._last_height = block.height

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ChainWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name}")


def _parse_line(line_number: int, raw: bytes) -> tuple[str, Any]:
    try:
        text = raw.decode("utf-8")
        return text, json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, NaN, deep nesting
        raise CorruptRecord(line_number, f"unparseable record: {exc}") from exc


def _read_record(height: int, raw: bytes) -> tuple[ChainRecord, NetworkState | None]:
    """The record on the line of ``height``, with its genesis state if it
    carries one."""
    line_number = height + 1
    text, value = _parse_line(line_number, raw)
    genesis_state = None
    try:
        expected = {"version", "height", "block", "receipts"}
        if height == 0:
            expected = expected | {"genesis_state"}
        value = _expect_keys(value, expected, "record")
        if value["version"] != FORMAT_VERSION:
            raise SerializationError(f"unsupported version {value['version']!r}")
        stored_height = _as_nonneg(value["height"], "record.height")
        block = record_from_json(Block, value["block"], "block")
        receipts = tuple(
            record_from_json(Receipt, r, "receipt")
            for r in _as_list(value["receipts"], "record.receipts")
        )
        if height == 0:
            genesis_state = state_from_json(value["genesis_state"])
    except SerializationError as exc:
        raise CorruptRecord(line_number, str(exc)) from exc
    if stored_height != height:
        raise CorruptRecord(line_number, f"record has height {stored_height}, expected {height}")
    if block.height != height:
        raise CorruptRecord(line_number, "record height != block height")
    # No stored byte is cosmetic: the line must be the canonical rendering
    # of the value it parses to. The decoders above refuse every value the
    # writer would not have written for the record they return (a set out
    # of order or repeated, a 0 for a float 0.0, an embedding token with
    # stray bits), so this accepts exactly the writer's lines without
    # rendering the records again.
    try:
        canonical = canonical_json(value) == text
    except ValueError:  # a float literal too large for a double, e.g. 1e999
        canonical = False
    if not canonical:
        raise CorruptRecord(line_number, "record is not in canonical form")
    return ChainRecord(height=height, block=block, receipts=receipts), genesis_state


def read_chain(
    path: str | os.PathLike,
) -> Iterator[tuple[ChainRecord, NetworkState | None]]:
    """Parse and structurally validate a chain file one line at a time (no
    re-execution): yield each record with the genesis state it carries, which
    only the height-0 record does, as soon as its line passes."""
    height = 0
    with open(path, "rb") as fh:
        # One byte past the bound tells a line that is too long from one
        # that just fits, without reading the rest of it.
        while raw := fh.readline(MAX_LINE_BYTES + 1):
            raw = raw.removesuffix(b"\n")
            if len(raw) > MAX_LINE_BYTES:
                raise CorruptRecord(height + 1, f"line longer than {MAX_LINE_BYTES} bytes")
            yield _read_record(height, raw)
            height += 1
    if height == 0:
        raise StoreError(f"empty chain file: {path}")


def replay(path: str | os.PathLike) -> Iterator[tuple[ChainRecord, NetworkState]]:
    """Re-execute a chain file from its genesis, one record at a time, and
    yield each record with the state after it once the record has passed
    every check.

    Checks that the genesis block seals the genesis state and that this
    state conserves tokens, then, per block: ``ledger.apply_block``, which
    accepts a block iff re-sealing it reproduces every header field, block
    hash included, and receipt-for-receipt equality between the stored
    receipts and the re-executed ones. Fails loudly with the offending
    height, which is the first height that fails a check of either reading
    or execution; never silently diverges.
    """
    records = read_chain(path)
    first, embedded_genesis = next(records)
    expected_genesis, state = init_chain(embedded_genesis, timestamp=first.block.timestamp)
    if first.receipts:
        raise CorruptRecord(1, "genesis record must carry no receipts")
    if first.block != expected_genesis:
        exc = StateRootMismatch(
            "genesis block does not match the embedded genesis state"
        )
        exc.height = 0
        raise exc
    gap = state.conservation_gap()
    if gap != 0:
        raise CorruptRecord(
            1,
            f"genesis balances and stakes differ from the supply by {gap}",
        )
    yield first, state

    for record, _ in records:
        block = record.block
        try:
            state, receipts = apply_block(state, block)
        except LedgerError as exc:
            exc.height = block.height  # name the offending height for callers
            raise
        if tuple(receipts) != record.receipts:
            raise CorruptRecord(
                block.height + 1, f"stored receipts diverge at height {block.height}"
            )
        yield record, state


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
    if isinstance(exc, CorruptRecord):
        height = exc.line_number - 1
    else:
        height = getattr(exc, "height", None)
    return VerifyResult(ok=False, error=f"{type(exc).__name__}: {exc}", failing_height=height)


def verify_chain(path: str | os.PathLike) -> VerifyResult:
    """Replay with all checks; report OK with the tip or the first failure."""
    try:
        for tip, _ in replay(path):
            pass
    except (StoreError, LedgerError) as exc:
        return failure(exc)
    return VerifyResult(ok=True, blocks=tip.height + 1, tip_hash=tip.block.block_hash.hex)
