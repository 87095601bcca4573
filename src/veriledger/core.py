"""Domain types shared across the ledger, contracts, and detection layers.

Includes the canonical binary encodings (see :mod:`veriledger.codec` for the
wire rules) of transactions, blocks, and network state, and their strict
decoders. ``FIELD_CODECS`` maps each field annotation to its ``(encode,
decode)`` pair. A record's, a block's and the state's encodings follow
their dataclass fields in declaration order, each by its annotation's
entry, and so do their decoders, so the declarations below are the
contract: reordering or retyping a field changes every digest. A block's
encoding leaves out its own hash, and the state's its tip and derived
content-hash index. The transaction envelope, whose hashed order is not its
declaration order, is walked from ``_TX_ENVELOPE``.

A decoded transaction and embedding keep the bytes they were read from as
their encoding cache, so a reader hashes what it read: the decoders'
strictness is what keeps each hash over the one encoding.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter, mul
from typing import Any, Callable, Sequence

from .codec import (
    BLOCK_TAG,
    BOOL,
    DECODE_ERRORS,
    HASH,
    SCALAR,
    STATE_TAG,
    STR,
    TX_TAG,
    U64,
    Codec,
    Decoder,
    Encoder,
    Hash256,
    ascending,
    dec_bytes,
    dec_tag,
    dec_u32_bitmap,
    enc_bytes,
    enc_str,
    enc_u32,
    enc_u32_bitmap,
    enc_u64,
    enum_of,
    exactly,
    hash_bytes,
    list_of,
    map_of,
    pair_of,
    reason,
    set_of,
)
from .errors import SerializationError

# Account that holds fees escrowed for pending analysis requests. Including
# it in the balance map keeps token conservation a plain sum over balances.
ESCROW_ACCOUNT = "@escrow"

# A score's full scale. A committed confidence or match similarity is an int
# in [0, ONE], in Q16: ``detection`` scores a cosine as ``floor(ONE * cos)``,
# so ONE is an exact match.
ONE = 1 << 16


class MediaType(str, Enum):
    IMAGE = "Image"
    AUDIO = "Audio"
    BYTES = "Bytes"


EMBEDDING_DIMENSIONS = {
    MediaType.IMAGE: 64,
    MediaType.AUDIO: 64,
    MediaType.BYTES: 256,
}


class TxKind(str, Enum):
    REGISTER_ALGORITHM = "RegisterAlgorithm"
    SUBMIT_CHALLENGE_RESULT = "SubmitChallengeResult"
    REGISTER_CONTENT = "RegisterContent"
    SUBMIT_ANALYSIS_REQUEST = "SubmitAnalysisRequest"
    COMMIT_ANALYSIS_RESULT = "CommitAnalysisResult"
    SUBMIT_FEEDBACK = "SubmitFeedback"
    TRANSFER_TOKENS = "TransferTokens"


class AlgorithmStatus(str, Enum):
    PENDING = "Pending"
    ACTIVE = "Active"
    DEPRECATED = "Deprecated"


class RequestStatus(str, Enum):
    PENDING = "Pending"
    COMPLETED = "Completed"


class Verdict(str, Enum):
    AUTHENTIC = "Authentic"
    DEEPFAKE = "Deepfake"
    UNVERIFIED = "Unverified"


class ReceiptStatus(str, Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


def _encoding_cache():
    return field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Embedding:
    """Fixed-dimension integer fingerprint of one piece of content, held in
    the layout its encoding (the sparse layout) stores: of its
    ``dimension`` values, each that is not 0 is in ``stored``, in index
    order, and has its bit set in ``bitmap``, ``ceil(dimension/8)`` bytes,
    bit i being ``0x80 >> i % 8`` of byte ``i // 8``. Every stored value is
    a ``u32`` above 0: the codec writes and reads no other. ``from_dense``
    builds one from a dense vector; a decoded one holds the bitmap it read,
    so decoding builds no index.

    ``__post_init__`` computes what the cosine kernel and its pruning rule
    (``detection``) read: ``norm2``, the squared norm; ``peak``, the largest
    stored value (0 if none); and ``mask``, the bitmap read as one
    big-endian int: index i is its bit ``8 * len(bitmap) - 1 - i``, so a
    higher bit is a lower index. The values are ints, so each is exact and
    no order of summation matters.

    They and the encoding cache stay out of equality, hashing and ``repr``.
    The cache is filled by ``encode_embedding`` on first use or, in an
    embedding read from a chain file, with the bytes it was read from; every
    encoding that holds the embedding reuses it, and ``dataclasses.replace``
    leaves it empty.
    """

    media_type: MediaType
    dimension: int
    bitmap: bytes
    stored: tuple[int, ...]
    norm2: int = field(init=False, compare=False, repr=False)
    mask: int = field(init=False, compare=False, repr=False)
    peak: int = field(init=False, compare=False, repr=False)
    _encoding: bytes | None = _encoding_cache()

    def __post_init__(self) -> None:
        stored = self.stored
        object.__setattr__(self, "norm2", sum(map(mul, stored, stored)))
        object.__setattr__(self, "mask", int.from_bytes(self.bitmap, "big"))
        object.__setattr__(self, "peak", max(stored, default=0))

    @classmethod
    def from_dense(cls, values: Sequence[int], media_type: MediaType) -> Embedding:
        """The embedding of the dense vector ``values``."""
        bitmap = bytearray((len(values) + 7) // 8)
        stored = []
        for i, v in enumerate(values):
            if v:
                bitmap[i >> 3] |= 0x80 >> (i & 7)
                stored.append(v)
        return cls(media_type, len(values), bytes(bitmap), tuple(stored))

    def is_valid(self) -> bool:
        """The right dimension, and some value stored, so the cosine kernel
        does not refuse it as a zero vector."""
        return self.dimension == EMBEDDING_DIMENSIONS[self.media_type] and bool(self.stored)


# --- transaction payloads -------------------------------------------------


@dataclass(frozen=True, slots=True)
class RegisterAlgorithm:
    algorithm_id: str
    media_types: frozenset[MediaType]
    detector_kind: str
    stake: int


@dataclass(frozen=True, slots=True)
class SubmitChallengeResult:
    algorithm_id: str
    challenge_id: str
    predicted_label: Verdict
    true_label: Verdict


@dataclass(frozen=True, slots=True)
class RegisterContent:
    content_id: str
    media_type: MediaType
    content_hash: Hash256
    embedding: Embedding
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class SubmitAnalysisRequest:
    media_type: MediaType
    content_hash: Hash256
    embedding: Embedding
    fee: int


@dataclass(frozen=True, slots=True)
class CommitAnalysisResult:
    request_id: str
    algorithm_id: str
    verdict: Verdict
    confidence: int
    matched_content: tuple[tuple[str, int], ...]


@dataclass(frozen=True, slots=True)
class SubmitFeedback:
    request_id: str
    true_label: Verdict


@dataclass(frozen=True, slots=True)
class TransferTokens:
    recipient: str
    amount: int


Payload = (
    RegisterAlgorithm
    | SubmitChallengeResult
    | RegisterContent
    | SubmitAnalysisRequest
    | CommitAnalysisResult
    | SubmitFeedback
    | TransferTokens
)

PAYLOAD_TYPES: dict[TxKind, type] = {
    TxKind.REGISTER_ALGORITHM: RegisterAlgorithm,
    TxKind.SUBMIT_CHALLENGE_RESULT: SubmitChallengeResult,
    TxKind.REGISTER_CONTENT: RegisterContent,
    TxKind.SUBMIT_ANALYSIS_REQUEST: SubmitAnalysisRequest,
    TxKind.COMMIT_ANALYSIS_RESULT: CommitAnalysisResult,
    TxKind.SUBMIT_FEEDBACK: SubmitFeedback,
    TxKind.TRANSFER_TOKENS: TransferTokens,
}


@dataclass(frozen=True, slots=True)
class Transaction:
    kind: TxKind
    sender: str
    payload: Payload
    nonce: int
    # ``encode_transaction(self)``, filled on first use or, in a
    # transaction read from a chain file, with the bytes it was read from:
    # a block's transactions are encoded for their hashes and again for the
    # block hash. Like the state records' ``_encoding`` it stays out of
    # equality, hashing and ``repr``, and ``dataclasses.replace`` leaves it
    # empty.
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    parent_hash: Hash256
    timestamp: int
    proposer: str
    transactions: tuple[Transaction, ...]
    state_root: Hash256
    block_hash: Hash256


@dataclass(frozen=True, slots=True)
class NotificationEvent:
    """Emitted when a committed Deepfake result matched registered content."""

    provider: str
    content_id: str
    request_id: str
    similarity: int


@dataclass(frozen=True, slots=True)
class Receipt:
    tx_index: int
    status: ReceiptStatus
    error_code: str | None = None
    events: tuple[NotificationEvent, ...] = ()


# --- contract records -----------------------------------------------------
#
# State records, ``DetectorSpec`` and ``ContractParams`` are immutable: a
# contract handler that changes one stores a new record built with
# ``dataclasses.replace``. ``NetworkState.clone`` can therefore share them
# between states, and each caches its canonical encoding in ``_encoding``,
# filled by ``encode_state`` on first use. ``replace`` leaves that slot at
# None, so a changed record never carries a stale encoding.


@dataclass(frozen=True, slots=True)
class AlgorithmRecord:
    algorithm_id: str
    owner: str
    media_types: frozenset[MediaType]
    detector_kind: str
    status: AlgorithmStatus
    stake: int
    registered_at: int
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    challenge_passed: int = 0
    challenges_submitted: frozenset[str] = frozenset()
    epoch_correct: int = 0
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class ContentRecord:
    content_id: str
    provider: str
    media_type: MediaType
    content_hash: Hash256
    embedding: Embedding
    metadata: dict[str, str]
    registered_at: int
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class AnalysisRequest:
    """A submitted request. The state commits to its embedding by hash
    (``hash_embedding``); the embedding itself stays in the submitting
    transaction, and only the oracle reads it."""

    request_id: str
    submitter: str
    media_type: MediaType
    content_hash: Hash256
    embedding_hash: Hash256
    fee: int
    status: RequestStatus
    submitted_at: int
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class AnalysisResultRecord:
    request_id: str
    algorithm_id: str
    verdict: Verdict
    confidence: int
    matched_content: tuple[tuple[str, int], ...]
    committed_at: int
    labelled: bool = False  # its submitter's feedback was accepted
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class DetectorSpec:
    """A detector plugin binding: implementation kind plus its parameters."""

    kind: str
    parameters: dict[str, object] = field(default_factory=dict)
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class ContractParams:
    """Scenario-tunable contract constants. Defaults are the reference values."""

    min_stake: int = 100
    min_fee: int = 10
    fee_owner_pct: int = 70
    fee_proposer_pct: int = 20
    challenge_count: int = 20
    challenge_pass_pct: int = 80
    feedback_window: int = 50
    feedback_min_pct: int = 50
    epoch_length: int = 10
    epoch_reward_pool: int = 100
    oracle_account: str = "oracle"
    _encoding: bytes | None = _encoding_cache()

    def __post_init__(self) -> None:
        if self.fee_owner_pct + self.fee_proposer_pct > 100:
            raise ValueError("fee split exceeds 100%")
        if self.epoch_length < 1 or self.challenge_count < 1:
            raise ValueError("epoch_length and challenge_count must be >= 1")
        if self.challenge_pass_pct > 100 or self.feedback_min_pct > 100:
            raise ValueError("challenge_pass_pct and feedback_min_pct must be <= 100")

    def challenge_ids(self) -> tuple[str, ...]:
        """The scenario's deterministic challenge set."""
        return tuple(f"ch-{i:03d}" for i in range(self.challenge_count))

    def is_challenge(self, challenge_id: str) -> bool:
        """Whether ``challenge_id`` is one of ``challenge_ids()``, without
        building them. The digits are checked to be few and ASCII before
        ``int``, which raises on thousands of digits and on some that
        ``isdigit`` accepts, such as ``²``."""
        digits = challenge_id[3:]
        if not (0 < len(digits) <= 20 and digits.isascii() and digits.isdigit()):
            return False
        index = int(digits)
        return index < self.challenge_count and challenge_id == f"ch-{index:03d}"


# How many written keys ``StateMap.section`` places by bisect: each such
# insertion moves the list's tail, so many of them would cost the square of
# a large map.
_FEW_WRITES = 64


class StateMap(dict):
    """A hashed map of the state that keeps its section of ``encode_state``:
    the keys encoded, sorted, with their entries' encodings in the same
    order; the section those join to; and the keys written or deleted since
    (``_dirty``). Every mutator records the keys it touches, so ``section``
    brings the section up to date by encoding those keys alone.

    ``copy`` shares the encoded lists and section with the copy: ``section``
    builds new lists rather than editing them, so neither map's writes
    reach the other's bytes. A map built from a plain one has every key
    still to encode.
    """

    __slots__ = ("_keys", "_parts", "_section", "_dirty")

    def __init__(self, entries=()) -> None:
        super().__init__(entries)
        self._keys: list[str] = []
        self._parts: list[bytes] = []
        self._section = enc_u32(0)
        self._dirty = set(self)

    def copy(self) -> StateMap:
        clone = StateMap.__new__(StateMap)
        dict.update(clone, self)
        clone._keys, clone._parts, clone._section = self._keys, self._parts, self._section
        clone._dirty = self._dirty.copy()
        return clone

    def __setitem__(self, key, value) -> None:
        self._dirty.add(key)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        self._dirty.add(key)

    # dict's own pop, popitem, setdefault, update, |= and clear would
    # bypass the two above.
    def pop(self, key, *default):
        self._dirty.add(key)
        return dict.pop(self, key, *default)

    def popitem(self):
        key, value = dict.popitem(self)
        self._dirty.add(key)
        return key, value

    def setdefault(self, key, default=None):
        if key not in self:
            self[key] = default
        return self[key]

    def update(self, *args, **kwargs) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __ior__(self, other) -> StateMap:
        self.update(other)
        return self

    def clear(self) -> None:
        self._dirty.update(self)
        dict.clear(self)

    def section(self, entry: Callable[[str, Any], bytes]) -> bytes:
        """The map's encoding: a ``u32`` count, then ``entry(key, value)``
        of each entry in key order. Only the keys written since the last
        call are encoded, in key order, so a ``ValueError`` names the first
        bad entry. Up to ``_FEW_WRITES`` of them are each placed by a
        bisect; more by one sort of all the keys, in which those encoded
        before are already a sorted run, so no large list is built by
        insertion."""
        if not self._dirty:
            return self._section
        changed = sorted(self._dirty)
        if len(changed) <= _FEW_WRITES:
            keys, parts = self._keys.copy(), self._parts.copy()
            for key in changed:
                i = bisect_left(keys, key)
                found = i < len(keys) and keys[i] == key
                if key in self:
                    part = entry(key, self[key])
                    if found:
                        parts[i] = part
                    else:
                        keys.insert(i, key)
                        parts.insert(i, part)
                elif found:
                    del keys[i], parts[i]
        else:
            encoded = dict(zip(self._keys, self._parts))
            for key in changed:
                if key in self:
                    encoded[key] = entry(key, self[key])
                else:
                    encoded.pop(key, None)
            keys = sorted(encoded)
            parts = list(map(encoded.__getitem__, keys))
        self._keys, self._parts, self._dirty = keys, parts, set()
        self._section = enc_u32(len(keys)) + b"".join(parts)
        return self._section


def state_map(entries: dict) -> StateMap:
    """``entries`` as a ``StateMap``: a copy, which shares its encoded
    section if it has one."""
    return entries.copy() if type(entries) is StateMap else StateMap(entries)


@dataclass(slots=True)
class NetworkState:
    """Full network state: token ledger, registries, and chain tip metadata.

    ``tip_height``/``tip_hash`` track the chain position and are excluded
    from the state root (the root is recorded inside the block whose hash
    becomes the tip). Everything else is covered by ``state_root``.
    """

    params: ContractParams
    validators: dict[str, int]
    balances: dict[str, int] = field(default_factory=dict)
    nonces: dict[str, int] = field(default_factory=dict)
    algorithms: dict[str, AlgorithmRecord] = field(default_factory=dict)
    contents: dict[str, ContentRecord] = field(default_factory=dict)
    content_hash_index: dict[str, str] = field(default_factory=dict)
    requests: dict[str, AnalysisRequest] = field(default_factory=dict)
    results: dict[str, AnalysisResultRecord] = field(default_factory=dict)
    detectors: dict[str, DetectorSpec] = field(default_factory=dict)
    initial_supply: int = 0
    fees_to_owners: int = 0
    fees_to_proposers: int = 0
    fees_burned: int = 0
    stake_burned: int = 0
    rewards_minted: int = 0
    tip_height: int = -1
    tip_hash: Hash256 = field(default_factory=Hash256.zero)

    def clone(self) -> "NetworkState":
        """Copy every container; share the immutable records and params,
        and each hashed map's encoded section (``StateMap``)."""
        return replace(
            self,
            content_hash_index=dict(self.content_hash_index),
            **{name: state_map(getattr(self, name)) for name in STATE_MAPS},
        )

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def credit(self, account: str, amount: int) -> None:
        self.balances[account] = self.balances.get(account, 0) + amount

    def debit(self, account: str, amount: int) -> None:
        have = self.balances.get(account, 0)
        if amount > have:
            raise ValueError(f"debit would overdraw {account}: {have} < {amount}")
        self.balances[account] = have - amount

    def conservation_gap(self) -> int:
        """Zero iff token conservation holds.

        balances + algorithm stakes + validator stakes must equal
        initial supply + minted - burned at all times, where minted is
        ``rewards_minted`` and burned is ``fees_burned + stake_burned``.
        """
        held = (
            sum(self.balances.values())
            + sum(a.stake for a in self.algorithms.values())
            + sum(self.validators.values())
        )
        minted = self.rewards_minted
        burned = self.fees_burned + self.stake_burned
        return held - (self.initial_supply + minted - burned)

    def state_root(self) -> Hash256:
        return hash_bytes(encode_state(self))


# --- canonical encodings ---------------------------------------------------
#
# Encoders are looked up in ``FIELD_CODECS`` per call; each class's decoders
# are bound once.


@functools.cache
def record_schema(cls: type) -> tuple[tuple[str, str], ...]:
    """``(name, annotation)`` of each field a record is built from.

    Fields with ``init=False`` (the encoding cache) are not part of it.
    Annotations are strings (``from __future__ import annotations``), which
    is what ``FIELD_CODECS`` keys on.
    """
    return tuple((f.name, f.type) for f in fields(cls) if f.init)


def _encode_fields(tag: bytes, record: Any, schema: tuple[tuple[str, str], ...]) -> bytes:
    # The tag is joined with the fields, not prepended after: prepending
    # would copy a state's whole encoding once more.
    return b"".join(
        [tag, *[FIELD_CODECS[annotation][0](getattr(record, name)) for name, annotation in schema]]
    )


def _decoders(schema: tuple[tuple[str, str], ...]) -> tuple[tuple[str, Decoder], ...]:
    return tuple((name, FIELD_CODECS[annotation][1]) for name, annotation in schema)


def _walk(fields: tuple[tuple[str, Decoder], ...], data: bytes, pos: int) -> tuple[dict, int]:
    """``{name: value}`` of ``fields``, ``(name, decoder)`` pairs, decoded in
    order from ``pos``; a decoder's refusal is raised again naming its
    field."""
    values = {}
    for name, decode in fields:
        try:
            values[name], pos = decode(data, pos)
        except DECODE_ERRORS as exc:
            raise SerializationError(f"{name}: {reason(exc)}") from None
    return values, pos


def encode_record(record: Any) -> bytes:
    """Canonical encoding of a payload, state record, ``ContractParams`` or
    ``DetectorSpec``: its fields' encodings in declaration order, each by
    its annotation's entry in ``FIELD_CODECS``."""
    return _encode_fields(b"", record, record_schema(type(record)))


@functools.cache
def record_decoder(cls: type) -> Decoder:
    """The strict inverse of ``encode_record`` for a ``cls`` record: its
    fields' decoders in declaration order."""
    fields = _decoders(record_schema(cls))

    def decode(data: bytes, pos: int):
        values, pos = _walk(fields, data, pos)
        return cls(**values), pos  # ContractParams raises ValueError on its own rules

    return decode


_MEDIA_TYPE = enum_of(MediaType)


def encode_embedding(e: Embedding) -> bytes:
    """Canonical encoding of ``e``, computed once and cached on it."""
    encoded = e._encoding
    if encoded is None:
        # Media type first: the reverse of the declaration order.
        encoded = enc_str(e.media_type.value) + enc_u32_bitmap(e.dimension, e.bitmap, e.stored)
        object.__setattr__(e, "_encoding", encoded)
    return encoded


def _dec_embedding(data: bytes, pos: int) -> tuple[Embedding, int]:
    """Strict inverse of ``encode_embedding``. The bytes read become the
    embedding's encoding cache: they are ``encode_embedding`` of what they
    decode to."""
    start = pos
    media_type, pos = _MEDIA_TYPE[1](data, pos)
    (dimension, bitmap, stored), pos = dec_u32_bitmap(data, pos)
    e = Embedding(media_type, dimension, bitmap, stored)
    object.__setattr__(e, "_encoding", data[start:pos])
    return e, pos


def hash_embedding(e: Embedding) -> Hash256:
    """The commitment an ``AnalysisRequest`` keeps of its embedding."""
    return hash_bytes(encode_embedding(e))


def _cached(record: Any) -> bytes:
    """``encode_record(record)``, computed once and cached on it."""
    encoded = record._encoding
    if encoded is None:
        encoded = encode_record(record)
        object.__setattr__(record, "_encoding", encoded)
    return encoded


def _record(cls: type) -> Codec:
    """A field holding a ``cls`` record, its encoding cached on it. Its
    decoder is looked up when called: it is bound from this table."""
    return _cached, lambda data, pos: record_decoder(cls)(data, pos)


def _sections(entry: Callable[[str, Any], bytes]) -> Encoder:
    """The encoder of a hashed map of the state, ``entry(key, value)`` of
    each entry in key order; a plain map is encoded as a fresh
    ``StateMap``."""
    return lambda m: (m if type(m) is StateMap else StateMap(m)).section(entry)


def _record_entry(key: str, record: Any) -> bytes:
    # A record's key is its id, so it is not encoded again.
    return record._encoding or _cached(record)  # no call once cached


def _records(cls: type, id_field: str) -> Codec:
    """A record map of the state, keyed by each record's ``id_field``."""
    _, decode_records = list_of(_record(cls))
    key = attrgetter(id_field)

    def decode(data: bytes, pos: int) -> tuple[dict, int]:
        records, pos = decode_records(data, pos)
        keys = list(map(key, records))
        ascending(keys)
        return dict(zip(keys, records)), pos

    return _sections(_record_entry), decode


# What ``encode_transaction`` writes before the payload, in its hashed order,
# which is not its declaration order; then the payload, as the bytes of the
# record its kind names.
_TX_ENVELOPE = (("kind", "TxKind"), ("sender", "str"), ("nonce", "int"))


def encode_transaction(tx: Transaction) -> bytes:
    """Canonical encoding of ``tx``, computed once and cached on it."""
    encoded = tx._encoding
    if encoded is None:
        encoded = _encode_fields(TX_TAG, tx, _TX_ENVELOPE) + enc_bytes(encode_record(tx.payload))
        object.__setattr__(tx, "_encoding", encoded)
    return encoded


def _dec_transaction(data: bytes, pos: int) -> tuple[Transaction, int]:
    """One length-prefixed ``encode_transaction``, its payload decoded as
    the record its kind names; the bytes read become the transaction's
    encoding cache."""
    raw, end = dec_bytes(data, pos)
    envelope, at = _walk(_TX_DECODERS, raw, dec_tag(raw, 0, TX_TAG, "transaction"))
    try:
        payload, at = dec_bytes(raw, at)
        exactly(raw, at)
        decoded, at = record_decoder(PAYLOAD_TYPES[envelope["kind"]])(payload, 0)
        exactly(payload, at)
    except DECODE_ERRORS as exc:
        raise SerializationError(f"payload: {reason(exc)}") from None
    tx = Transaction(payload=decoded, **envelope)
    object.__setattr__(tx, "_encoding", raw)
    return tx, end


def transaction_hash(tx: Transaction) -> Hash256:
    return hash_bytes(encode_transaction(tx))


# annotation -> (encode, decode) for each field a record, the transaction
# envelope, the block or the state may use: the encoding every hash covers,
# and the bytes the chain file stores.
FIELD_CODECS: dict[str, Codec] = {
    "str": STR,
    "int": U64,
    "bool": BOOL,
    "Hash256": HASH,
    "Embedding": (encode_embedding, _dec_embedding),
    "dict[str, str]": map_of(STR),
    "dict[str, object]": map_of(SCALAR),
    "frozenset[MediaType]": set_of(_MEDIA_TYPE),  # a MediaType orders as its value
    "frozenset[str]": set_of(STR),
    "tuple[tuple[str, int], ...]": list_of(pair_of(STR, U64)),
    "MediaType": _MEDIA_TYPE,
    "Verdict": enum_of(Verdict),
    "AlgorithmStatus": enum_of(AlgorithmStatus),
    "RequestStatus": enum_of(RequestStatus),
    "TxKind": enum_of(TxKind),
    "tuple[Transaction, ...]": list_of(
        (lambda tx: enc_bytes(encode_transaction(tx)), _dec_transaction)
    ),
    "ContractParams": _record(ContractParams),
    "dict[str, int]": (
        _sections(lambda key, n: enc_str(key) + enc_u64(n)), map_of(U64)[1]
    ),
    "dict[str, AlgorithmRecord]": _records(AlgorithmRecord, "algorithm_id"),
    "dict[str, ContentRecord]": _records(ContentRecord, "content_id"),
    "dict[str, AnalysisRequest]": _records(AnalysisRequest, "request_id"),
    "dict[str, AnalysisResultRecord]": _records(AnalysisResultRecord, "request_id"),
    "dict[str, DetectorSpec]": (
        _sections(lambda key, spec: enc_str(key) + _cached(spec)),
        map_of(_record(DetectorSpec))[1],
    ),
}

_TX_DECODERS = _decoders(_TX_ENVELOPE)

# What a block's hash covers: every field of the block but the hash.
_BLOCK_SCHEMA = tuple(f for f in record_schema(Block) if f[0] != "block_hash")

# What the state root covers: every field of the state but the tip and the
# derived content-hash index (see ``encode_state``).
STATE_SCHEMA = tuple(
    f for f in record_schema(NetworkState)
    if f[0] not in ("content_hash_index", "tip_height", "tip_hash")
)
_STATE_DECODERS = _decoders(STATE_SCHEMA)
# The hashed maps of the state, each a ``StateMap`` once the state is cloned.
STATE_MAPS = tuple(name for name, annotation in STATE_SCHEMA if annotation.startswith("dict["))


def encode_block_fields(block: Block) -> bytes:
    """Canonical encoding of ``block`` minus its own hash."""
    return _encode_fields(BLOCK_TAG, block, _BLOCK_SCHEMA)


def decode_block(data: bytes, pos: int) -> tuple[Block, int]:
    """A block from ``encode_block_fields`` followed by its hash: ``Block``
    declares its hash last, so that is the block's every field."""
    return record_decoder(Block)(data, dec_tag(data, pos, BLOCK_TAG, "block"))


def encode_state(state: NetworkState) -> bytes:
    """Canonical state serialization hashed into every block's state root:
    ``STATE_SCHEMA``'s fields in declaration order. The tip is left out, as
    the root is recorded in the block whose hash becomes the tip, and so is
    the content-hash index, which is derived from the contents.

    A request is covered with the hash of its embedding
    (``embedding_hash``), not the embedding, so an answered request costs
    each later root about 130 bytes however large its embedding; the
    embedding itself is covered by the block hash, in its
    ``SubmitAnalysisRequest`` transaction. Map entries are sorted by key, so
    the encoding never depends on insertion order. Zero balances stay
    covered: account entries are created deterministically by the
    transaction stream, and every serialized byte must be root-checked.

    Each record's encoding is cached on it, and each hashed map of a cloned
    state (a ``StateMap``) keeps its section: its entries' encodings in key
    order, joined. Only the keys written since the map was last encoded
    are encoded again, so the Python work of a block's root is proportional
    to what the block wrote. What stays proportional to the whole state
    runs in C: the join of the sections, the SHA-256 over it, and the
    copies of a map's dict (``clone``) and of a written map's lists.
    """
    return _encode_fields(STATE_TAG, state, STATE_SCHEMA)


def decode_state(data: bytes, pos: int) -> tuple[NetworkState, int]:
    """The strict inverse of ``encode_state``, with the content-hash index
    derived from the contents and no tip."""
    values, pos = _walk(_STATE_DECODERS, data, dec_tag(data, pos, STATE_TAG, "state"))
    state = NetworkState(**values)
    for content in state.contents.values():
        state.content_hash_index[content.content_hash.hex] = content.content_id
    return state, pos
