"""Domain types shared across the ledger, contracts, and detection layers.

Includes the canonical binary encodings (see :mod:`veriledger.codec` for the
wire rules) of transactions, blocks, and network state. Field order in each
``encode_*`` function is the contract: changing it changes every digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable

from .codec import (
    BLOCK_TAG,
    STATE_TAG,
    TX_TAG,
    Hash256,
    enc_bytes,
    enc_f64,
    enc_f64_list,
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


@dataclass(frozen=True, slots=True)
class Embedding:
    """Fixed-dimension numeric fingerprint of one piece of content."""

    values: tuple[float, ...]
    media_type: MediaType

    def dimension(self) -> int:
        return len(self.values)

    def is_valid(self) -> bool:
        if len(self.values) != EMBEDDING_DIMENSIONS[self.media_type]:
            return False
        if any(not math.isfinite(v) or v < 0.0 for v in self.values):
            return False
        return any(v > 0.0 for v in self.values)


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


def _encoding_cache():
    return field(default=None, init=False, compare=False, repr=False)


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

    def feedback_total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


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
    request_id: str
    submitter: str
    media_type: MediaType
    content_hash: Hash256
    embedding: Embedding
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

    def total_balances(self) -> int:
        return sum(self.balances.values())

    def total_algorithm_stake(self) -> int:
        return sum(a.stake for a in self.algorithms.values())

    def total_validator_stake(self) -> int:
        return sum(self.validators.values())

    def conservation_gap(self) -> int:
        """Zero iff token conservation holds.

        balances + algorithm stakes + validator stakes must equal
        initial supply + minted - burned at all times.
        """
        held = (
            self.total_balances()
            + self.total_algorithm_stake()
            + self.total_validator_stake()
        )
        return held - (self.initial_supply + self.total_minted - self.total_burned)

    def state_root(self) -> Hash256:
        return hash_bytes(encode_state(self))


# --- canonical encodings ---------------------------------------------------


def encode_embedding(e: Embedding) -> bytes:
    return enc_str(e.media_type.value) + enc_f64_list(e.values)


def _enc_media_types(media_types: Iterable[MediaType]) -> bytes:
    return enc_str_list(sorted(m.value for m in media_types))


def _enc_matches(matches: Iterable[tuple[str, float]]) -> bytes:
    items = list(matches)
    return enc_u32(len(items)) + b"".join(
        enc_str(cid) + enc_f64(sim) for cid, sim in items
    )


def encode_payload(payload: Payload) -> bytes:
    if isinstance(payload, RegisterAlgorithm):
        return (
            enc_str(payload.algorithm_id)
            + _enc_media_types(payload.media_types)
            + enc_str(payload.detector_kind)
            + enc_u64(payload.stake)
        )
    if isinstance(payload, SubmitChallengeResult):
        return (
            enc_str(payload.algorithm_id)
            + enc_str(payload.challenge_id)
            + enc_str(payload.predicted_label.value)
            + enc_str(payload.true_label.value)
        )
    if isinstance(payload, RegisterContent):
        return (
            enc_str(payload.content_id)
            + enc_str(payload.media_type.value)
            + enc_hash(payload.content_hash)
            + encode_embedding(payload.embedding)
            + enc_str_map(payload.metadata)
        )
    if isinstance(payload, SubmitAnalysisRequest):
        return (
            enc_str(payload.media_type.value)
            + enc_hash(payload.content_hash)
            + encode_embedding(payload.embedding)
            + enc_u64(payload.fee)
        )
    if isinstance(payload, CommitAnalysisResult):
        return (
            enc_str(payload.request_id)
            + enc_str(payload.algorithm_id)
            + enc_str(payload.verdict.value)
            + enc_f64(payload.confidence)
            + _enc_matches(payload.matched_content)
        )
    if isinstance(payload, SubmitFeedback):
        return enc_str(payload.request_id) + enc_str(payload.true_label.value)
    if isinstance(payload, TransferTokens):
        return enc_str(payload.recipient) + enc_u64(payload.amount)
    raise TypeError(f"unknown payload type: {type(payload).__name__}")


def encode_transaction(tx: Transaction) -> bytes:
    return (
        TX_TAG
        + enc_str(tx.kind.value)
        + enc_str(tx.sender)
        + enc_u64(tx.nonce)
        + enc_bytes(encode_payload(tx.payload))
    )


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


def _enc_params(p: ContractParams) -> bytes:
    return (
        enc_u64(p.min_stake)
        + enc_u64(p.min_fee)
        + enc_u64(p.fee_owner_pct)
        + enc_u64(p.fee_proposer_pct)
        + enc_u64(p.challenge_count)
        + enc_f64(p.challenge_pass_accuracy)
        + enc_u64(p.feedback_window)
        + enc_f64(p.feedback_min_accuracy)
        + enc_u64(p.epoch_length)
        + enc_u64(p.epoch_reward_pool)
        + enc_str(p.oracle_account)
    )


def _enc_algorithm(a: AlgorithmRecord) -> bytes:
    return (
        enc_str(a.algorithm_id)
        + enc_str(a.owner)
        + _enc_media_types(a.media_types)
        + enc_str(a.detector_kind)
        + enc_str(a.status.value)
        + enc_u64(a.stake)
        + enc_u64(a.registered_at)
        + enc_u64(a.tp)
        + enc_u64(a.fp)
        + enc_u64(a.tn)
        + enc_u64(a.fn)
        + enc_u64(a.challenge_passed)
        + enc_str_list(sorted(a.challenges_submitted))
        + enc_u64(a.epoch_correct)
    )


def _enc_content(c: ContentRecord) -> bytes:
    return (
        enc_str(c.content_id)
        + enc_str(c.provider)
        + enc_str(c.media_type.value)
        + enc_hash(c.content_hash)
        + encode_embedding(c.embedding)
        + enc_str_map(c.metadata)
        + enc_u64(c.registered_at)
    )


def _enc_request(r: AnalysisRequest) -> bytes:
    return (
        enc_str(r.request_id)
        + enc_str(r.submitter)
        + enc_str(r.media_type.value)
        + enc_hash(r.content_hash)
        + encode_embedding(r.embedding)
        + enc_u64(r.fee)
        + enc_str(r.status.value)
        + enc_u64(r.submitted_at)
    )


def _enc_result(r: AnalysisResultRecord) -> bytes:
    return (
        enc_str(r.request_id)
        + enc_str(r.algorithm_id)
        + enc_str(r.verdict.value)
        + enc_f64(r.confidence)
        + _enc_matches(r.matched_content)
        + enc_u64(r.committed_at)
    )


def encode_state(state: NetworkState) -> bytes:
    """Canonical state serialization hashed into every block's state root.

    Covers the token ledger, registries, and cumulative counters; excludes
    tip metadata and the derived content-hash index. Map entries are sorted
    by key, so the encoding never depends on insertion order. Zero balances
    stay covered: account entries are created deterministically by the
    transaction stream, and every serialized byte must be root-checked.
    """
    parts = [STATE_TAG, _enc_params(state.params)]

    parts.append(enc_u32(len(state.validators)))
    for vid in sorted(state.validators):
        parts.append(enc_str(vid) + enc_u64(state.validators[vid]))

    parts.append(enc_u32(len(state.balances)))
    for acct in sorted(state.balances):
        parts.append(enc_str(acct) + enc_u64(state.balances[acct]))

    parts.append(enc_u32(len(state.nonces)))
    for acct in sorted(state.nonces):
        parts.append(enc_str(acct) + enc_u64(state.nonces[acct]))

    for mapping, enc in (
        (state.algorithms, _enc_algorithm),
        (state.contents, _enc_content),
        (state.requests, _enc_request),
        (state.results, _enc_result),
    ):
        parts.append(enc_u32(len(mapping)))
        for key in sorted(mapping):
            record = mapping[key]
            encoded = record._encoding
            if encoded is None:
                encoded = enc(record)
                object.__setattr__(record, "_encoding", encoded)
            parts.append(encoded)

    parts.append(enc_str_list(sorted(state.feedback_done)))

    parts.append(enc_u32(len(state.detectors)))
    for ident in sorted(state.detectors):
        spec = state.detectors[ident]
        parts.append(enc_str(ident) + enc_str(spec.kind) + enc_scalar_map(spec.parameters))

    parts.append(enc_u64(state.initial_supply))
    parts.append(enc_u64(state.total_minted))
    parts.append(enc_u64(state.total_burned))
    parts.append(enc_u64(state.fees_to_owners))
    parts.append(enc_u64(state.fees_to_proposers))
    parts.append(enc_u64(state.fees_burned))
    parts.append(enc_u64(state.stake_burned))
    parts.append(enc_u64(state.rewards_minted))
    return b"".join(parts)
