"""Byte-level access to chain files for tests: split a file into its record
bodies, decode a record, edit it and encode it again.

Tests edit a chain file through these helpers, so an edit is stated in
terms of blocks and states, and the bytes follow from the writer's own
encoders (``store._encode_record``). A test that needs bytes no writer
writes passes ``raw`` to ``edit_chain``, which maps the re-encoded body to
the one stored, or patches the encoder of an entry of ``core.FIELD_CODECS``
while it encodes records decoded or built under the patch, whose caches it
drops with them.

``encode`` renders a block and state from their fields alone: a decoded
transaction or embedding caches the bytes it was read from, and a body
encoded from those caches would equal the stored one whatever the fields
hold.
"""

import copy
import dataclasses
import struct

from veriledger import store
from veriledger.core import (
    FIELD_CODECS,
    STATE_MAPS,
    Embedding,
    decode_state,
    encode_record,
    encode_state,
    record_decoder,
    record_schema,
)


def bodies(path) -> list[bytes]:
    """The record bodies of the chain file at ``path``, in height order."""
    data = path.read_bytes()
    assert data.startswith(store.HEADER)
    pos = len(store.HEADER)
    out = []
    while pos < len(data):
        (size,) = struct.unpack_from(">I", data, pos)
        out.append(data[pos + 4 : pos + 4 + size])
        pos += 4 + size
    assert pos == len(data)
    return out


def chain_bytes(records: list[bytes]) -> bytes:
    """A chain file holding ``records``, each a record body."""
    return store.HEADER + b"".join(struct.pack(">I", len(b)) + b for b in records)


def decode(height: int, body: bytes):
    """``(block, genesis_state)`` of the record of ``height``."""
    return store._decode_record(height, body)


def encode(block, genesis_state=None) -> bytes:
    """The record body of ``block`` and ``genesis_state``, each transaction,
    record and embedding encoded from its fields: no cached encoding is
    read."""
    transactions = tuple(map(uncached_transaction, block.transactions))
    block = dataclasses.replace(block, transactions=transactions)
    if genesis_state is not None:
        genesis_state = _uncached_state(genesis_state)
    return store._encode_record(block, genesis_state)


def edit_chain(src, dst, height: int, edit=None, raw=None, keep=None) -> None:
    """Write to ``dst`` the chain at ``src`` with the record of ``height``
    decoded, passed to ``edit(block, genesis_state)``, which returns the
    pair to store, and encoded again; then ``raw(body)``, if given, makes
    the body stored. ``keep`` limits the records written to the first
    ``keep``."""
    records = bodies(src)[:keep]
    body = records[height]
    if edit is not None:
        body = encode(*edit(*decode(height, body)))
    if raw is not None:
        body = raw(body)
    records[height] = body
    dst.write_bytes(chain_bytes(records))


def _uncached(record):
    """A copy of ``record``, and of each embedding it holds, with empty
    caches."""
    embeddings = {
        name: dataclasses.replace(value)
        for name, _ in record_schema(type(record))
        if isinstance(value := getattr(record, name), Embedding)
    }
    return dataclasses.replace(record, **embeddings)


def uncached_transaction(tx):
    """A copy of ``tx``, of its payload and of the embedding this holds, if
    any, with empty caches."""
    return dataclasses.replace(tx, payload=_uncached(tx.payload))


def _uncached_state(state):
    """A clone of ``state`` whose records, params and detectors are copies
    with empty caches, and whose maps are plain dicts, so no map section
    is reused either. The params are copied without ``__post_init__``,
    which refuses the invalid params some tests store on purpose."""
    fresh = state.clone()
    fresh.params = copy.copy(state.params)
    object.__setattr__(fresh.params, "_encoding", None)
    for name in STATE_MAPS:
        setattr(fresh, name, dict(getattr(fresh, name)))
    for name in ("algorithms", "contents", "requests", "results", "detectors"):
        records = getattr(fresh, name)
        for key, record in records.items():
            records[key] = _uncached(record)
    return fresh


def state_bytes(state) -> bytes:
    """``state`` as the chain file stores a genesis state, every record
    encoded from its fields: no cached encoding is read."""
    return encode_state(_uncached_state(state))


def state_copy(state):
    """``state`` read back from its chain-file bytes: new records, empty
    caches."""
    data = state_bytes(state)
    copy, end = decode_state(data, 0)
    assert end == len(data)
    return copy


def record_copy(record):
    """A state record or payload read back from its chain-file bytes."""
    data = encode_record(record)
    copy, end = record_decoder(type(record))(data, 0)
    assert end == len(data)
    return copy


def transaction_copy(tx):
    """A transaction read back from its chain-file bytes, as a block lists
    it."""
    encode, decode = FIELD_CODECS["tuple[Transaction, ...]"]
    data = encode((tx,))
    (copy,), end = decode(data, 0)
    assert end == len(data)
    return copy
