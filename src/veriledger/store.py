"""Chain persistence: a file of the bytes the hashes cover, replay,
verification.

File format ``v7``, binary, all integers big-endian:

* the file starts with ``HEADER`` (``b"veriledger chain v7\\n"``). A reader
  refuses any other start at height 0: "v1" to "v4" were JSON lines, one
  record per line, "v5" stored each embedding value as a binary64 where
  later formats store a ``u32`` (``codec.enc_u32_bitmap``), and "v6" held
  scores, accuracy thresholds and a detector's ``tau`` as binary64 where
  ``v7`` holds ints: Q16 scores (``core.ONE``) and percents;
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

A body is decoded by ``core.decode_block`` and ``core.decode_state``, the
strict inverses of the two encoders, so a record decodes iff it is the
writer's encoding of what it decodes to, and no stored byte is cosmetic:
what the decoders do not check, ``ledger.apply_block`` does. It re-seals
every block, the genesis included, and compares the header, state root and
block hash included, which is the one check of what a block is.

A value that no field's encoder can write, such as an embedding value
outside the ``u32`` layout or a detector parameter that is not an int,
str or bool, cannot be hashed at all: its encoder raises ``ValueError``,
and ``ChainWriter.append`` refuses the record before it writes anything.

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
import os
from base64 import b64encode
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .codec import DECODE_ERRORS, enc_hash, enc_str, enc_u32, exactly, reason
from .core import (
    AlgorithmRecord,
    Block,
    Embedding,
    NetworkState,
    NotificationEvent,
    Receipt,
    RequestStatus,
    decode_block,
    decode_state,
    encode_block_fields,
    encode_embedding,
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

FORMAT_VERSION = "v7"
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


# --- printing -----------------------------------------------------------------
#
# ``inspect``, ``notifications`` and ``report`` print records as JSON: one
# key per field of ``core.record_schema``, each value in its annotation's
# JSON form below. Three quirks of the format stay explicit: an algorithm's
# ``tp``/``fp``/``tn``/``fn`` nest under "perf"; an embedding is printed as
# its values only, its sparse layout in one base64 token (RFC 4648, padded),
# its media type being the record's ``media_type`` field; and a receipt
# event carries a ``"type": "notification"`` tag.

_PERF = frozenset({"tp", "fp", "tn", "fn"})


def _embedding_to_json(e: Embedding) -> str:
    """``e``'s values as one base64 token of their sparse layout: its
    cached encoding after the media type's string."""
    return b64encode(encode_embedding(e)[len(enc_str(e.media_type.value)) :]).decode("ascii")


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
    "bool": None,
    "Hash256": attrgetter("hex"),
    "Embedding": _embedding_to_json,
    "dict[str, str]": dict,
    "dict[str, object]": dict,
    "frozenset[MediaType]": lambda ms: sorted(m.value for m in ms),
    "frozenset[str]": sorted,
    "tuple[tuple[str, int], ...]": lambda ms: [list(m) for m in ms],
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
    body = encode_block_fields(block) + enc_hash(block.block_hash)
    if genesis_state is not None:
        body += encode_state(genesis_state)
    return body


def _decode_record(height: int, body: bytes) -> tuple[Block, NetworkState | None]:
    """The block of the record of ``height``, with the genesis state if that
    is 0: the strict inverse of :func:`_encode_record`."""
    try:
        block, pos = decode_block(body, 0)
        genesis_state = None
        if height == 0:
            genesis_state, pos = decode_state(body, pos)
        exactly(body, pos)
    except DECODE_ERRORS as exc:
        raise CorruptRecord(height, reason(exc)) from None
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
        try:
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
            size = int.from_bytes(prefix, "big")
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
        yield ChainRecord(block, tuple(receipts)), state


def notifications(records: Iterable[ChainRecord]) -> list[dict]:
    """Every notification event of ``records``, in chain order, with the
    height of the block that emitted it."""
    return [
        {"height": record.block.height, **record_to_json(event)}
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
    return VerifyResult(ok=True, blocks=tip.block.height + 1, tip_hash=tip.block.block_hash.hex)
