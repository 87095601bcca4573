"""Chain persistence: line-delimited JSON records, replay, verification.

File format (extension ``.chain.jsonl``, UTF-8, one record per line):

* every line is the canonical JSON rendering of one record -- sorted keys,
  compact separators, ASCII-only. Readers re-render each decoded record
  and require byte equality with what is on disk, so no stored byte is
  cosmetic;
* every stored type -- transaction, block, receipt, notification event,
  payload, state record, ``ContractParams`` -- is an object with one key
  per field of its dataclass (``core.record_schema``), written and read by
  one codec (``record_to_json``, ``record_from_json``). Three exceptions:
  an algorithm's ``tp``/``fp``/``tn``/``fn`` nest under ``perf``, an event
  carries ``"type": "notification"``, and a payload's type follows from
  its transaction's ``kind``;
* record fields: ``version`` ("v2"), ``height``, ``block``, ``receipts``;
  the height-0 record additionally carries ``genesis_state``, the full
  starting state, which makes a chain file self-contained for replay.
  A reader accepts only its own version: "v2" state roots commit to each
  analysis request's embedding by hash, so a "v1" chain (whose roots
  covered the embeddings) is refused at its first line;
* records are strictly ordered by height starting at 0.

Verification replays the whole file through the ledger: recomputing every
block hash and state root, re-executing every transaction, and comparing
recomputed receipts against the stored ones. Any single flipped byte
therefore surfaces as a parse failure, a canonical-form mismatch, or a
semantic mismatch at a named height -- never as silent divergence.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable

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
from .ledger import apply_block, compute_block_hash, init_chain

FORMAT_VERSION = "v2"
CHAIN_SUFFIX = ".chain.jsonl"


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


def _as_int(v: Any, what: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise SerializationError(f"{what}: expected integer")
    return v


def _as_nonneg(v: Any, what: str) -> int:
    """An integer the canonical encodings can hold as an unsigned 64-bit."""
    n = _as_int(v, what)
    if n < 0:
        raise SerializationError(f"{what}: must be non-negative")
    if n >= _TWO64:
        raise SerializationError(f"{what}: exceeds the u64 range")
    return n


def _as_str(v: Any, what: str) -> str:
    if not isinstance(v, str):
        raise SerializationError(f"{what}: expected string")
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
        elif not isinstance(x, (bool, float, str)):
            raise SerializationError(f"{what}.{k}: unsupported type")
        out[_as_str(k, what)] = x
    return out


def _floats(v: Any, what: str) -> tuple[float, ...]:
    values = tuple(_as_list(v, what))
    if not set(map(type, values)) <= {float}:  # one C-level pass per embedding
        raise SerializationError(f"{what}: expected floats")
    return values


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
# "perf"; an embedding is stored as its values only, its media type being
# the record's ``media_type`` field; a payload is decoded once its
# transaction's ``kind`` is known; and a receipt event carries a
# ``"type": "notification"`` tag. A float field, similarity or embedding
# value is written as a float even where the record holds an int: both have
# the same binary64 encoding, and the decoders accept only floats.

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
    "Embedding": (lambda e: list(map(float, e.values)), _floats),
    "dict[str, str]": (dict, _str_map),
    "dict[str, object]": (dict, _scalar_map),
    "frozenset[MediaType]": (
        lambda ms: sorted(m.value for m in ms),
        lambda v, what: frozenset(
            _as_enum(MediaType, m, what) for m in _as_list(v, what)
        ),
    ),
    "frozenset[str]": (
        sorted,
        lambda v, what: frozenset(_as_str(x, what) for x in _as_list(v, what)),
    ),
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
        record = record_from_json(cls, doc, f"{name}[{key}]")
        if id_field is not None and getattr(record, id_field) != key:
            raise SerializationError(f"{name}: key {key} != record id")
        records[key] = record
    return records


def state_from_json(d: Any) -> NetworkState:
    d = _expect_keys(d, _STATE_KEYS, "state")
    supply = _expect_keys(d["supply"], set(SUPPLY_FIELDS), "supply")
    state = NetworkState(
        params=record_from_json(ContractParams, d["params"], "params"),
        feedback_done={
            _as_str(x, "feedback_done")
            for x in _as_list(d["feedback_done"], "feedback_done")
        },
        **{name: _u64_map(d[name], name) for name in _AMOUNT_MAPS},
        **{name: _records_from_json(name, d[name]) for name in _RECORD_MAPS},
        **{name: _as_nonneg(supply[name], f"supply.{name}") for name in SUPPLY_FIELDS},
    )
    for content in state.contents.values():
        state.content_hash_index[content.content_hash.hex] = content.content_id
    return state


# --- chain file -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ChainRecord:
    height: int
    block: Block
    receipts: tuple[Receipt, ...]


@dataclass(slots=True)
class ChainView:
    """A fully validated chain: starting state, records, and final state."""

    genesis_state: NetworkState
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
    """Append-only writer; each appended record is durable on return."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._last_height = -1
        if self.path.exists() and self.path.stat().st_size > 0:
            # Resume only after a whole, valid chain: a torn last record would
            # otherwise be glued to the next one.
            data = self.path.read_bytes()
            if not data.endswith(b"\n"):
                raise CorruptRecord(data.count(b"\n") + 1, "torn tail: record has no line end")
            self._last_height = read_chain(self.path)[1][-1].height
        self._fh = open(self.path, "ab")

    @property
    def last_height(self) -> int:
        return self._last_height

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
        self._fh.write(line.encode("utf-8") + b"\n")
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


def read_chain(path: str | os.PathLike) -> tuple[NetworkState, list[ChainRecord]]:
    """Parse and structurally validate a chain file (no re-execution)."""
    path = Path(path)
    raw_lines = path.read_bytes().split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    if not raw_lines:
        raise StoreError(f"empty chain file: {path}")

    genesis_state: NetworkState | None = None
    records: list[ChainRecord] = []
    for i, raw in enumerate(raw_lines):
        line_number = i + 1
        text, value = _parse_line(line_number, raw)
        try:
            expected = {"version", "height", "block", "receipts"}
            if i == 0:
                expected = expected | {"genesis_state"}
            value = _expect_keys(value, expected, "record")
            if value["version"] != FORMAT_VERSION:
                raise SerializationError(f"unsupported version {value['version']!r}")
            height = _as_nonneg(value["height"], "record.height")
            block = record_from_json(Block, value["block"], "block")
            receipts = tuple(
                record_from_json(Receipt, r, "receipt")
                for r in _as_list(value["receipts"], "record.receipts")
            )
            if i == 0:
                genesis_state = state_from_json(value["genesis_state"])
        except SerializationError as exc:
            raise CorruptRecord(line_number, str(exc)) from exc
        if height != i:
            raise CorruptRecord(line_number, f"record has height {height}, expected {i}")
        if block.height != height:
            raise CorruptRecord(line_number, "record height != block height")
        # No stored byte is cosmetic: the decoded record must render back to
        # its line exactly, which also rejects a duplicate set entry or a 0
        # stored for a float 0.0.
        try:
            rendered = canonical_json(_record_to_json(block, receipts, genesis_state))
        except ValueError:  # a float literal too large for a double, e.g. 1e999
            rendered = None
        if rendered != text:
            raise CorruptRecord(line_number, "record is not in canonical form")
        records.append(ChainRecord(height=height, block=block, receipts=receipts))
    assert genesis_state is not None
    return genesis_state, records


def replay(path: str | os.PathLike) -> ChainView:
    """Re-execute a chain file from its genesis and validate every byte.

    Checks that the genesis block seals the genesis state and that this
    state conserves tokens, then, per block: recomputed block hash, parent
    linkage, height, proposer, state root, and receipt-for-receipt equality
    between the stored receipts and the re-executed ones. Fails loudly with
    the offending height; never silently diverges.
    """
    embedded_genesis, records = read_chain(path)
    first = records[0].block
    expected_genesis, state = init_chain(embedded_genesis, timestamp=first.timestamp)
    if records[0].receipts:
        raise CorruptRecord(1, "genesis record must carry no receipts")
    if first != expected_genesis:
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

    for record in records[1:]:
        block = record.block
        recomputed = compute_block_hash(
            block.height,
            block.parent_hash,
            block.timestamp,
            block.proposer,
            block.transactions,
            block.state_root,
        )
        if recomputed != block.block_hash:
            raise CorruptRecord(
                block.height + 1, f"block hash mismatch at height {block.height}"
            )
        try:
            state, receipts = apply_block(state, block)
        except LedgerError as exc:
            exc.height = block.height  # name the offending height for callers
            raise
        if tuple(receipts) != record.receipts:
            raise CorruptRecord(
                block.height + 1, f"stored receipts diverge at height {block.height}"
            )
    return ChainView(
        genesis_state=embedded_genesis, records=records, final_state=state
    )


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


def verify_chain(path: str | os.PathLike) -> VerifyResult:
    """Replay with all checks; report OK with the tip or the first failure."""
    try:
        view = replay(path)
    except CorruptRecord as exc:
        return VerifyResult(
            ok=False,
            error=f"CorruptRecord: {exc}",
            failing_height=exc.line_number - 1,
        )
    except LedgerError as exc:
        return VerifyResult(
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            failing_height=getattr(exc, "height", None),
        )
    except StoreError as exc:
        return VerifyResult(ok=False, error=f"{type(exc).__name__}: {exc}")
    return VerifyResult(
        ok=True,
        blocks=len(view.records),
        tip_hash=view.tip.block_hash.hex,
    )
