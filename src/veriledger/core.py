"""Domain types shared across the ledger, contracts, and detection layers.

Includes the canonical binary encodings (see :mod:`veriledger.codec` for the
wire rules) of transactions, blocks, and network state. A record's encoding
follows its dataclass fields in declaration order (``encode_record``), so
the declarations below are the contract: reordering or retyping a field
changes every digest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import compress
from typing import Any, Callable, Iterable, Sequence

from .codec import (
    BLOCK_TAG,
    STATE_TAG,
    TX_TAG,
    Hash256,
    enc_bytes,
    enc_f64,
    enc_f64_sparse,
    enc_hash,
    enc_scalar_map,
    enc_str,
    enc_str_list,
    enc_str_map,
    enc_u32,
    enc_u64,
    hash_bytes,
)

# Account that holds fees escrowed for pending analysis requests. Including
# it in the balance map keeps token conservation a plain sum over balances.
ESCROW_ACCOUNT = "@escrow"


class MediaType(str, Enum):
    IMAGE = "Image"
    AUDIO = "Audio"
    BYTES = "Bytes"


EMBEDDING_DIMENSIONS = {
    MediaType.IMAGE: 64,
    MediaType.AUDIO: 64,
    MediaType.BYTES: 256,
}

# The range every squared norm must lie in for the cosine kernel, and every
# norm and peak for its pruning rule (``detection``): inside it no product
# or quotient underflows or overflows, so each rounds by a relative 2**-53
# at most.
SCALE = (2.0**-500, 2.0**500)


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


def sparse_values(
    values: Sequence[float],
) -> tuple[tuple[tuple[int, float], ...], float, int, float]:
    """``(pairs, norm2, support, peak)`` of a raw vector, in one pass.

    ``pairs`` are the non-zero ``(index, value)`` pairs in ascending index
    order (a NaN is non-zero). ``norm2`` is the squared norm, a plain
    sequential sum (never ``sum()``, which compensates since Python 3.12)
    over the non-zero values only; its bits match a dense loop over every
    value, because a zero's square is ``+0.0`` and adding ``+0.0`` to a
    sum of squares, which is never ``-0.0``, leaves it unchanged.
    ``support`` has bit ``i`` set for each pair's index. ``peak`` is
    ``max(values)`` when every non-zero value is ``> 0`` and ``inf``
    otherwise (a NaN fails the test too), so an upper bound on a dot product
    built from it is never finite for a vector it does not hold for.
    """
    pairs = []
    norm2 = 0.0
    support = 0
    positive = True
    for i, v in enumerate(values):
        if v != 0.0:
            pairs.append((i, v))
            norm2 += v * v
            support |= 1 << i
            if not v > 0.0:
                positive = False
    peak = max(values, default=0.0) if positive else math.inf
    return tuple(pairs), norm2, support, peak


def _encoding_cache():
    return field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Embedding:
    """Fixed-dimension numeric fingerprint of one piece of content."""

    values: tuple[float, ...]
    media_type: MediaType
    # Two caches, each filled on first use: ``sparse_values(values)`` by
    # ``sparse()``, and the canonical encoding (the sparse layout) by
    # ``encode_embedding``, which the transaction payload, ``hash_embedding``
    # and the ``ContentRecord`` encoding all reuse, and which the chain file
    # stores as it is. Like the records' ``_encoding`` they stay out of
    # equality, hashing, ``repr`` and every encoding, and
    # ``dataclasses.replace`` leaves them empty.
    _sparse: tuple[tuple[tuple[int, float], ...], float, int, float] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    _encoding: bytes | None = _encoding_cache()

    def is_valid(self) -> bool:
        """Right length, every value finite and ``>= 0``, one ``> 0``, and
        the squared norm in ``SCALE``, so the cosine kernel neither refuses
        it as zero (underflow) nor scores it 0.0 against itself (overflow).

        Checked over the non-zero values (``kept``) alone: a zero of either
        sign passes, so it is left out, and a NaN is truthy, so it stays in.
        ``min`` runs only once ``isfinite`` has ruled out NaN, which would
        make it depend on value order. The squared norm is the kernel's,
        ``sparse()[1]``: the same sum over ``kept`` in the same order, here
        without building the pairs that ``sparse()`` caches.
        """
        values = self.values
        if len(values) != EMBEDDING_DIMENSIONS[self.media_type]:
            return False
        kept = list(compress(values, values))
        if not (kept and all(map(math.isfinite, kept)) and min(kept) > 0.0):
            return False
        norm2 = 0.0
        for v in kept:
            norm2 += v * v
        low, high = SCALE
        return low <= norm2 <= high

    def sparse(self) -> tuple[tuple[tuple[int, float], ...], float, int, float]:
        """Cached ``sparse_values(self.values)``."""
        cached = self._sparse
        if cached is None:
            cached = sparse_values(self.values)
            object.__setattr__(self, "_sparse", cached)
        return cached


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
    confidence: float
    matched_content: tuple[tuple[str, float], ...]


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
    # ``encode_transaction(self)``, filled on first use: a block's
    # transactions are encoded for their hashes and again for the block
    # hash. Like the state records' ``_encoding`` it stays out of equality,
    # hashing and ``repr``, and ``dataclasses.replace`` leaves it empty.
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
    similarity: float


@dataclass(frozen=True, slots=True)
class Receipt:
    tx_index: int
    status: ReceiptStatus
    error_code: str | None = None
    events: tuple[NotificationEvent, ...] = ()


# --- contract records -----------------------------------------------------
#
# State records are immutable: a contract handler that changes one stores a
# new record built with ``dataclasses.replace``. ``NetworkState.clone`` can
# therefore share records between states, and each record caches its
# canonical encoding in ``_encoding``, filled by ``encode_state`` on first
# use. ``replace`` leaves that slot at None, so a changed record never
# carries a stale encoding.


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
    confidence: float
    matched_content: tuple[tuple[str, float], ...]
    committed_at: int
    _encoding: bytes | None = _encoding_cache()


@dataclass(frozen=True, slots=True)
class DetectorSpec:
    """A detector plugin binding: implementation kind plus its parameters."""

    kind: str
    parameters: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ContractParams:
    """Scenario-tunable contract constants. Defaults are the reference values."""

    min_stake: int = 100
    min_fee: int = 10
    fee_owner_pct: int = 70
    fee_proposer_pct: int = 20
    challenge_count: int = 20
    challenge_pass_accuracy: float = 0.8
    feedback_window: int = 50
    feedback_min_accuracy: float = 0.5
    epoch_length: int = 10
    epoch_reward_pool: int = 100
    oracle_account: str = "oracle"

    def __post_init__(self) -> None:
        if self.fee_owner_pct + self.fee_proposer_pct > 100:
            raise ValueError("fee split exceeds 100%")
        if self.epoch_length < 1 or self.challenge_count < 1:
            raise ValueError("epoch_length and challenge_count must be >= 1")

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


# NetworkState's token counters: the state encoding ends with them in this
# order.
SUPPLY_FIELDS = (
    "initial_supply",
    "total_minted",
    "total_burned",
    "fees_to_owners",
    "fees_to_proposers",
    "fees_burned",
    "stake_burned",
    "rewards_minted",
)


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
    feedback_done: set[str] = field(default_factory=set)
    detectors: dict[str, DetectorSpec] = field(default_factory=dict)
    initial_supply: int = 0
    total_minted: int = 0
    total_burned: int = 0
    fees_to_owners: int = 0
    fees_to_proposers: int = 0
    fees_burned: int = 0
    stake_burned: int = 0
    rewards_minted: int = 0
    tip_height: int = -1
    tip_hash: Hash256 = field(default_factory=Hash256.zero)

    def clone(self) -> "NetworkState":
        """Copy every container; share the immutable records and params."""
        return replace(
            self,
            validators=dict(self.validators),
            balances=dict(self.balances),
            nonces=dict(self.nonces),
            algorithms=dict(self.algorithms),
            contents=dict(self.contents),
            content_hash_index=dict(self.content_hash_index),
            requests=dict(self.requests),
            results=dict(self.results),
            feedback_done=set(self.feedback_done),
            detectors=dict(self.detectors),
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
        initial supply + minted - burned at all times.
        """
        held = (
            sum(self.balances.values())
            + sum(a.stake for a in self.algorithms.values())
            + sum(self.validators.values())
        )
        return held - (self.initial_supply + self.total_minted - self.total_burned)

    def state_root(self) -> Hash256:
        return hash_bytes(encode_state(self))


# --- canonical encodings ---------------------------------------------------
#
# A record's fields, in the order its dataclass declares them, are its only
# schema: ``encode_record`` here, and the chain file's codec in ``store``,
# both walk ``record_schema``. Reordering, adding or retyping a field
# therefore changes every digest that covers the record.


@functools.cache
def record_schema(cls: type) -> tuple[tuple[str, str], ...]:
    """``(name, annotation)`` of each field a record is built from.

    Fields with ``init=False`` (the encoding cache) are not part of it.
    Annotations are strings (``from __future__ import annotations``), which
    is what the codec tables key on.
    """
    return tuple((f.name, f.type) for f in fields(cls) if f.init)


def encode_embedding(e: Embedding) -> bytes:
    """Canonical encoding of ``e``, computed once and cached on it."""
    encoded = e._encoding
    if encoded is None:
        # Media type first: the reverse of the declaration order.
        encoded = enc_str(e.media_type.value) + enc_f64_sparse(e.values)
        object.__setattr__(e, "_encoding", encoded)
    return encoded


def hash_embedding(e: Embedding) -> Hash256:
    """The commitment an ``AnalysisRequest`` keeps of its embedding."""
    return hash_bytes(encode_embedding(e))


def _enc_enum(value: Enum) -> bytes:
    return enc_str(value.value)


def _enc_matches(matches: tuple[tuple[str, float], ...]) -> bytes:
    return enc_u32(len(matches)) + b"".join(
        enc_str(cid) + enc_f64(sim) for cid, sim in matches
    )


# The encoder for each field annotation a record may use: the encoding every
# hash covers, and the bytes the chain file stores. It encodes a NaN like any
# other float: a transaction is hashed before a contract rejects it.
FIELD_ENCODERS: dict[str, Callable[[Any], bytes]] = {
    "str": enc_str,
    "int": enc_u64,
    "float": enc_f64,
    "Hash256": enc_hash,
    "Embedding": encode_embedding,
    "dict[str, str]": enc_str_map,
    "dict[str, object]": enc_scalar_map,
    "frozenset[MediaType]": lambda ms: enc_str_list(sorted(m.value for m in ms)),
    "frozenset[str]": lambda items: enc_str_list(sorted(items)),
    "tuple[tuple[str, float], ...]": _enc_matches,
    "MediaType": _enc_enum,
    "Verdict": _enc_enum,
    "AlgorithmStatus": _enc_enum,
    "RequestStatus": _enc_enum,
}


def encode_record(record: Any) -> bytes:
    """Canonical encoding of a payload, state record, ``ContractParams`` or
    ``DetectorSpec``: its fields' encodings in declaration order, each by
    its annotation's entry in ``FIELD_ENCODERS``."""
    return b"".join(
        [FIELD_ENCODERS[annotation](getattr(record, name))
         for name, annotation in record_schema(type(record))]
    )


def encode_transaction(tx: Transaction) -> bytes:
    """Canonical encoding of ``tx``, computed once and cached on it."""
    encoded = tx._encoding
    if encoded is None:
        encoded = (
            TX_TAG
            + enc_str(tx.kind.value)
            + enc_str(tx.sender)
            + enc_u64(tx.nonce)
            + enc_bytes(encode_record(tx.payload))
        )
        object.__setattr__(tx, "_encoding", encoded)
    return encoded


def transaction_hash(tx: Transaction) -> Hash256:
    return hash_bytes(encode_transaction(tx))


def encode_block_fields(
    height: int,
    parent_hash: Hash256,
    timestamp: int,
    proposer: str,
    transactions: Iterable[Transaction],
    state_root: Hash256,
) -> bytes:
    """Canonical encoding of a block minus its own hash."""
    txs = list(transactions)
    return (
        BLOCK_TAG
        + enc_u64(height)
        + enc_hash(parent_hash)
        + enc_u64(timestamp)
        + enc_str(proposer)
        + enc_u32(len(txs))
        + b"".join(enc_bytes(encode_transaction(t)) for t in txs)
        + enc_hash(state_root)
    )


def encode_state(state: NetworkState) -> bytes:
    """Canonical state serialization hashed into every block's state root.

    Covers the token ledger, registries, and cumulative counters; excludes
    tip metadata and the derived content-hash index. A request is covered
    with the hash of its embedding (``embedding_hash``), not the embedding,
    so an answered request costs each later root about 130 bytes however
    large its embedding; the embedding itself is covered
    by the block hash, in its ``SubmitAnalysisRequest`` transaction. Map
    entries are sorted by key, so the encoding never depends on insertion
    order; a record map's key is its record's id, so it is not encoded
    again. Zero balances stay covered: account entries are created
    deterministically by the transaction stream, and every serialized byte
    must be root-checked. Each record's encoding is cached on it.
    """
    parts = [STATE_TAG, encode_record(state.params)]

    for amounts in (state.validators, state.balances, state.nonces):
        parts.append(enc_u32(len(amounts)))
        for key in sorted(amounts):
            parts.append(enc_str(key) + enc_u64(amounts[key]))

    for mapping in (state.algorithms, state.contents, state.requests, state.results):
        parts.append(enc_u32(len(mapping)))
        for key in sorted(mapping):
            record = mapping[key]
            encoded = record._encoding
            if encoded is None:
                encoded = encode_record(record)
                object.__setattr__(record, "_encoding", encoded)
            parts.append(encoded)

    parts.append(enc_str_list(sorted(state.feedback_done)))

    parts.append(enc_u32(len(state.detectors)))
    for ident in sorted(state.detectors):
        parts.append(enc_str(ident) + encode_record(state.detectors[ident]))

    parts.extend(enc_u64(getattr(state, name)) for name in SUPPLY_FIELDS)
    return b"".join(parts)
