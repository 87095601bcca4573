"""Chain persistence: line-delimited JSON records, replay, verification.

File format (extension ``.chain.jsonl``, UTF-8, one record per line):

* every line is the canonical JSON rendering of one record -- sorted keys,
  compact separators, ASCII-only. Readers re-serialize each parsed line
  and require byte equality with what is on disk, so no stored byte is
  cosmetic;
* record fields: ``version`` ("v1"), ``height``, ``block``, ``receipts``;
  the height-0 record additionally carries ``genesis_state``, the full
  starting state, which makes a chain file self-contained for replay;
* records are strictly ordered by height starting at 0.

Verification replays the whole file through the ledger: recomputing every
block hash and state root, re-executing every transaction, and comparing
recomputed receipts against the stored ones. Any single flipped byte
therefore surfaces as a parse failure, a canonical-form mismatch, or a
semantic mismatch at a named height -- never as silent divergence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .codec import Hash256
from .core import (
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    Block,
    CommitAnalysisResult,
    ContentRecord,
    ContractParams,
    DetectorSpec,
    Embedding,
    MediaType,
    NetworkState,
    NotificationEvent,
    Receipt,
    ReceiptStatus,
    RegisterAlgorithm,
    RegisterContent,
    RequestStatus,
    SubmitAnalysisRequest,
    SubmitChallengeResult,
    SubmitFeedback,
    Transaction,
    TransferTokens,
    TxKind,
    Verdict,
)
from .errors import (
    CorruptRecord,
    HeightGap,
    LedgerError,
    SerializationError,
    StateRootMismatch,
    StoreError,
)
from .ledger import apply_block, compute_block_hash, genesis_block

FORMAT_VERSION = "v1"
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


def _expect_keys(d: Any, keys: set[str], what: str) -> dict:
    if not isinstance(d, dict):
        raise SerializationError(f"{what}: expected object")
    if set(d) != keys:
        raise SerializationError(
            f"{what}: fields {sorted(d)} != expected {sorted(keys)}"
        )
    return d

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
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SerializationError(f"{what}: expected number")
    return float(v)


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


# --- embeddings -------------------------------------------------------------


def _embedding_to_json(e: Embedding) -> list[float]:
    return list(e.values)


def _embedding_from_json(v: Any, media_type: MediaType, what: str) -> Embedding:
    if not isinstance(v, list):
        raise SerializationError(f"{what}: expected list")
    return Embedding(
        values=tuple(_as_float(x, what) for x in v), media_type=media_type
    )


# --- transactions -----------------------------------------------------------


def _payload_to_json(payload: Any) -> dict:
    if isinstance(payload, RegisterAlgorithm):
        return {
            "algorithm_id": payload.algorithm_id,
            "media_types": sorted(m.value for m in payload.media_types),
            "detector_kind": payload.detector_kind,
            "stake": payload.stake,
        }
    if isinstance(payload, SubmitChallengeResult):
        return {
            "algorithm_id": payload.algorithm_id,
            "challenge_id": payload.challenge_id,
            "predicted_label": payload.predicted_label.value,
            "true_label": payload.true_label.value,
        }
    if isinstance(payload, RegisterContent):
        return {
            "content_id": payload.content_id,
            "media_type": payload.media_type.value,
            "content_hash": payload.content_hash.hex,
            "embedding": _embedding_to_json(payload.embedding),
            "metadata": dict(payload.metadata),
        }
    if isinstance(payload, SubmitAnalysisRequest):
        return {
            "media_type": payload.media_type.value,
            "content_hash": payload.content_hash.hex,
            "embedding": _embedding_to_json(payload.embedding),
            "fee": payload.fee,
        }
    if isinstance(payload, CommitAnalysisResult):
        return {
            "request_id": payload.request_id,
            "algorithm_id": payload.algorithm_id,
            "verdict": payload.verdict.value,
            "confidence": payload.confidence,
            "matched_content": [[cid, sim] for cid, sim in payload.matched_content],
        }
    if isinstance(payload, SubmitFeedback):
        return {
            "request_id": payload.request_id,
            "true_label": payload.true_label.value,
        }
    if isinstance(payload, TransferTokens):
        return {"recipient": payload.recipient, "amount": payload.amount}
    raise SerializationError(f"unknown payload type {type(payload).__name__}")


def _matches_from_json(v: Any, what: str) -> tuple[tuple[str, float], ...]:
    if not isinstance(v, list):
        raise SerializationError(f"{what}: expected list")
    out = []
    for item in v:
        if not isinstance(item, list) or len(item) != 2:
            raise SerializationError(f"{what}: expected [content_id, similarity]")
        out.append((_as_str(item[0], what), _as_float(item[1], what)))
    return tuple(out)


def _payload_from_json(kind: TxKind, d: Any) -> Any:
    what = f"payload({kind.value})"
    if kind is TxKind.REGISTER_ALGORITHM:
        d = _expect_keys(d, {"algorithm_id", "media_types", "detector_kind", "stake"}, what)
        if not isinstance(d["media_types"], list):
            raise SerializationError(f"{what}: media_types must be a list")
        return RegisterAlgorithm(
            algorithm_id=_as_str(d["algorithm_id"], what),
            media_types=frozenset(
                _as_enum(MediaType, m, what) for m in d["media_types"]
            ),
            detector_kind=_as_str(d["detector_kind"], what),
            stake=_as_nonneg(d["stake"], what),
        )
    if kind is TxKind.SUBMIT_CHALLENGE_RESULT:
        d = _expect_keys(
            d, {"algorithm_id", "challenge_id", "predicted_label", "true_label"}, what
        )
        return SubmitChallengeResult(
            algorithm_id=_as_str(d["algorithm_id"], what),
            challenge_id=_as_str(d["challenge_id"], what),
            predicted_label=_as_enum(Verdict, d["predicted_label"], what),
            true_label=_as_enum(Verdict, d["true_label"], what),
        )
    if kind is TxKind.REGISTER_CONTENT:
        d = _expect_keys(
            d,
            {"content_id", "media_type", "content_hash", "embedding", "metadata"},
            what,
        )
        media_type = _as_enum(MediaType, d["media_type"], what)
        if not isinstance(d["metadata"], dict):
            raise SerializationError(f"{what}: metadata must be an object")
        return RegisterContent(
            content_id=_as_str(d["content_id"], what),
            media_type=media_type,
            content_hash=_as_hash(d["content_hash"], what),
            embedding=_embedding_from_json(d["embedding"], media_type, what),
            metadata={
                _as_str(k, what): _as_str(v, what) for k, v in d["metadata"].items()
            },
        )
    if kind is TxKind.SUBMIT_ANALYSIS_REQUEST:
        d = _expect_keys(d, {"media_type", "content_hash", "embedding", "fee"}, what)
        media_type = _as_enum(MediaType, d["media_type"], what)
        return SubmitAnalysisRequest(
            media_type=media_type,
            content_hash=_as_hash(d["content_hash"], what),
            embedding=_embedding_from_json(d["embedding"], media_type, what),
            fee=_as_nonneg(d["fee"], what),
        )
    if kind is TxKind.COMMIT_ANALYSIS_RESULT:
        d = _expect_keys(
            d,
            {"request_id", "algorithm_id", "verdict", "confidence", "matched_content"},
            what,
        )
        return CommitAnalysisResult(
            request_id=_as_str(d["request_id"], what),
            algorithm_id=_as_str(d["algorithm_id"], what),
            verdict=_as_enum(Verdict, d["verdict"], what),
            confidence=_as_float(d["confidence"], what),
            matched_content=_matches_from_json(d["matched_content"], what),
        )
    if kind is TxKind.SUBMIT_FEEDBACK:
        d = _expect_keys(d, {"request_id", "true_label"}, what)
        return SubmitFeedback(
            request_id=_as_str(d["request_id"], what),
            true_label=_as_enum(Verdict, d["true_label"], what),
        )
    if kind is TxKind.TRANSFER_TOKENS:
        d = _expect_keys(d, {"recipient", "amount"}, what)
        return TransferTokens(
            recipient=_as_str(d["recipient"], what),
            amount=_as_nonneg(d["amount"], what),
        )
    raise SerializationError(f"unknown transaction kind {kind}")


def transaction_to_json(tx: Transaction) -> dict:
    return {
        "kind": tx.kind.value,
        "sender": tx.sender,
        "nonce": tx.nonce,
        "payload": _payload_to_json(tx.payload),
    }


def transaction_from_json(d: Any) -> Transaction:
    d = _expect_keys(d, {"kind", "sender", "nonce", "payload"}, "transaction")
    kind = _as_enum(TxKind, d["kind"], "transaction.kind")
    return Transaction(
        kind=kind,
        sender=_as_str(d["sender"], "transaction.sender"),
        payload=_payload_from_json(kind, d["payload"]),
        nonce=_as_nonneg(d["nonce"], "transaction.nonce"),
    )


def block_to_json(block: Block) -> dict:
    return {
        "height": block.height,
        "parent_hash": block.parent_hash.hex,
        "timestamp": block.timestamp,
        "proposer": block.proposer,
        "transactions": [transaction_to_json(tx) for tx in block.transactions],
        "state_root": block.state_root.hex,
        "block_hash": block.block_hash.hex,
    }


def block_from_json(d: Any) -> Block:
    d = _expect_keys(
        d,
        {
            "height",
            "parent_hash",
            "timestamp",
            "proposer",
            "transactions",
            "state_root",
            "block_hash",
        },
        "block",
    )
    if not isinstance(d["transactions"], list):
        raise SerializationError("block.transactions must be a list")
    return Block(
        height=_as_nonneg(d["height"], "block.height"),
        parent_hash=_as_hash(d["parent_hash"], "block.parent_hash"),
        timestamp=_as_nonneg(d["timestamp"], "block.timestamp"),
        proposer=_as_str(d["proposer"], "block.proposer"),
        transactions=tuple(transaction_from_json(t) for t in d["transactions"]),
        state_root=_as_hash(d["state_root"], "block.state_root"),
        block_hash=_as_hash(d["block_hash"], "block.block_hash"),
    )


def receipt_to_json(receipt: Receipt) -> dict:
    return {
        "tx_index": receipt.tx_index,
        "status": receipt.status.value,
        "error_code": receipt.error_code,
        "events": [
            {
                "type": "notification",
                "provider": e.provider,
                "content_id": e.content_id,
                "request_id": e.request_id,
                "similarity": e.similarity,
            }
            for e in receipt.events
        ],
    }


def receipt_from_json(d: Any) -> Receipt:
    d = _expect_keys(d, {"tx_index", "status", "error_code", "events"}, "receipt")
    if d["error_code"] is not None:
        _as_str(d["error_code"], "receipt.error_code")
    if not isinstance(d["events"], list):
        raise SerializationError("receipt.events must be a list")
    events = []
    for e in d["events"]:
        e = _expect_keys(
            e, {"type", "provider", "content_id", "request_id", "similarity"}, "event"
        )
        if e["type"] != "notification":
            raise SerializationError(f"unknown event type {e['type']!r}")
        events.append(
            NotificationEvent(
                provider=_as_str(e["provider"], "event.provider"),
                content_id=_as_str(e["content_id"], "event.content_id"),
                request_id=_as_str(e["request_id"], "event.request_id"),
                similarity=_as_float(e["similarity"], "event.similarity"),
            )
        )
    return Receipt(
        tx_index=_as_nonneg(d["tx_index"], "receipt.tx_index"),
        status=_as_enum(ReceiptStatus, d["status"], "receipt.status"),
        error_code=d["error_code"],
        events=tuple(events),
    )


# --- state snapshots --------------------------------------------------------


def params_to_json(p: ContractParams) -> dict:
    return {
        "min_stake": p.min_stake,
        "min_fee": p.min_fee,
        "fee_owner_pct": p.fee_owner_pct,
        "fee_proposer_pct": p.fee_proposer_pct,
        "challenge_count": p.challenge_count,
        "challenge_pass_accuracy": p.challenge_pass_accuracy,
        "feedback_window": p.feedback_window,
        "feedback_min_accuracy": p.feedback_min_accuracy,
        "epoch_length": p.epoch_length,
        "epoch_reward_pool": p.epoch_reward_pool,
        "oracle_account": p.oracle_account,
    }


_PARAM_KEYS = set(params_to_json(ContractParams()))


def params_from_json(d: Any) -> ContractParams:
    d = _expect_keys(d, _PARAM_KEYS, "params")
    try:
        return ContractParams(
            min_stake=_as_nonneg(d["min_stake"], "params.min_stake"),
            min_fee=_as_nonneg(d["min_fee"], "params.min_fee"),
            fee_owner_pct=_as_nonneg(d["fee_owner_pct"], "params.fee_owner_pct"),
            fee_proposer_pct=_as_nonneg(
                d["fee_proposer_pct"], "params.fee_proposer_pct"
            ),
            challenge_count=_as_nonneg(d["challenge_count"], "params.challenge_count"),
            challenge_pass_accuracy=_as_float(
                d["challenge_pass_accuracy"], "params.challenge_pass_accuracy"
            ),
            feedback_window=_as_nonneg(d["feedback_window"], "params.feedback_window"),
            feedback_min_accuracy=_as_float(
                d["feedback_min_accuracy"], "params.feedback_min_accuracy"
            ),
            epoch_length=_as_nonneg(d["epoch_length"], "params.epoch_length"),
            epoch_reward_pool=_as_nonneg(
                d["epoch_reward_pool"], "params.epoch_reward_pool"
            ),
            oracle_account=_as_str(d["oracle_account"], "params.oracle_account"),
        )
    except ValueError as exc:  # ContractParams rejects the combination
        raise SerializationError(f"params: {exc}") from exc


def _algorithm_to_json(a: AlgorithmRecord) -> dict:
    return {
        "algorithm_id": a.algorithm_id,
        "owner": a.owner,
        "media_types": sorted(m.value for m in a.media_types),
        "detector_kind": a.detector_kind,
        "status": a.status.value,
        "stake": a.stake,
        "registered_at": a.registered_at,
        "perf": {"tp": a.tp, "fp": a.fp, "tn": a.tn, "fn": a.fn},
        "challenge_passed": a.challenge_passed,
        "challenges_submitted": sorted(a.challenges_submitted),
        "epoch_correct": a.epoch_correct,
    }


def _algorithm_from_json(d: Any) -> AlgorithmRecord:
    what = "algorithm"
    d = _expect_keys(
        d,
        {
            "algorithm_id",
            "owner",
            "media_types",
            "detector_kind",
            "status",
            "stake",
            "registered_at",
            "perf",
            "challenge_passed",
            "challenges_submitted",
            "epoch_correct",
        },
        what,
    )
    perf = _expect_keys(d["perf"], {"tp", "fp", "tn", "fn"}, "algorithm.perf")
    return AlgorithmRecord(
        algorithm_id=_as_str(d["algorithm_id"], what),
        owner=_as_str(d["owner"], what),
        media_types=frozenset(_as_enum(MediaType, m, what) for m in d["media_types"]),
        detector_kind=_as_str(d["detector_kind"], what),
        status=_as_enum(AlgorithmStatus, d["status"], what),
        stake=_as_nonneg(d["stake"], what),
        registered_at=_as_nonneg(d["registered_at"], what),
        tp=_as_nonneg(perf["tp"], what),
        fp=_as_nonneg(perf["fp"], what),
        tn=_as_nonneg(perf["tn"], what),
        fn=_as_nonneg(perf["fn"], what),
        challenge_passed=_as_nonneg(d["challenge_passed"], what),
        challenges_submitted=frozenset(
            _as_str(c, what) for c in d["challenges_submitted"]
        ),
        epoch_correct=_as_nonneg(d["epoch_correct"], what),
    )


def _content_to_json(c: ContentRecord) -> dict:
    return {
        "content_id": c.content_id,
        "provider": c.provider,
        "media_type": c.media_type.value,
        "content_hash": c.content_hash.hex,
        "embedding": _embedding_to_json(c.embedding),
        "metadata": dict(sorted(c.metadata.items())),
        "registered_at": c.registered_at,
    }


def _content_from_json(d: Any) -> ContentRecord:
    what = "content"
    d = _expect_keys(
        d,
        {
            "content_id",
            "provider",
            "media_type",
            "content_hash",
            "embedding",
            "metadata",
            "registered_at",
        },
        what,
    )
    media_type = _as_enum(MediaType, d["media_type"], what)
    return ContentRecord(
        content_id=_as_str(d["content_id"], what),
        provider=_as_str(d["provider"], what),
        media_type=media_type,
        content_hash=_as_hash(d["content_hash"], what),
        embedding=_embedding_from_json(d["embedding"], media_type, what),
        metadata={_as_str(k, what): _as_str(v, what) for k, v in d["metadata"].items()},
        registered_at=_as_nonneg(d["registered_at"], what),
    )


def _request_to_json(r: AnalysisRequest) -> dict:
    return {
        "request_id": r.request_id,
        "submitter": r.submitter,
        "media_type": r.media_type.value,
        "content_hash": r.content_hash.hex,
        "embedding": _embedding_to_json(r.embedding),
        "fee": r.fee,
        "status": r.status.value,
        "submitted_at": r.submitted_at,
    }


def _request_from_json(d: Any) -> AnalysisRequest:
    what = "request"
    d = _expect_keys(
        d,
        {
            "request_id",
            "submitter",
            "media_type",
            "content_hash",
            "embedding",
            "fee",
            "status",
            "submitted_at",
        },
        what,
    )
    media_type = _as_enum(MediaType, d["media_type"], what)
    return AnalysisRequest(
        request_id=_as_str(d["request_id"], what),
        submitter=_as_str(d["submitter"], what),
        media_type=media_type,
        content_hash=_as_hash(d["content_hash"], what),
        embedding=_embedding_from_json(d["embedding"], media_type, what),
        fee=_as_nonneg(d["fee"], what),
        status=_as_enum(RequestStatus, d["status"], what),
        submitted_at=_as_nonneg(d["submitted_at"], what),
    )


def _result_to_json(r: AnalysisResultRecord) -> dict:
    return {
        "request_id": r.request_id,
        "algorithm_id": r.algorithm_id,
        "verdict": r.verdict.value,
        "confidence": r.confidence,
        "matched_content": [[cid, sim] for cid, sim in r.matched_content],
        "committed_at": r.committed_at,
    }


def _result_from_json(d: Any) -> AnalysisResultRecord:
    what = "result"
    d = _expect_keys(
        d,
        {
            "request_id",
            "algorithm_id",
            "verdict",
            "confidence",
            "matched_content",
            "committed_at",
        },
        what,
    )
    return AnalysisResultRecord(
        request_id=_as_str(d["request_id"], what),
        algorithm_id=_as_str(d["algorithm_id"], what),
        verdict=_as_enum(Verdict, d["verdict"], what),
        confidence=_as_float(d["confidence"], what),
        matched_content=_matches_from_json(d["matched_content"], what),
        committed_at=_as_nonneg(d["committed_at"], what),
    )


def _detector_to_json(spec: DetectorSpec) -> dict:
    return {"kind": spec.kind, "parameters": dict(sorted(spec.parameters.items()))}


def _detector_from_json(d: Any) -> DetectorSpec:
    d = _expect_keys(d, {"kind", "parameters"}, "detector")
    if not isinstance(d["parameters"], dict):
        raise SerializationError("detector.parameters must be an object")
    params: dict[str, object] = {}
    for k, v in d["parameters"].items():
        if isinstance(v, bool) or isinstance(v, (int, float, str)):
            params[_as_str(k, "detector")] = v
        else:
            raise SerializationError(f"detector parameter {k}: unsupported type")
    return DetectorSpec(kind=_as_str(d["kind"], "detector"), parameters=params)


def state_to_json(state: NetworkState) -> dict:
    """Snapshot of everything the state root covers (tip metadata excluded)."""
    return {
        "params": params_to_json(state.params),
        "validators": dict(sorted(state.validators.items())),
        "balances": dict(sorted(state.balances.items())),
        "nonces": dict(sorted(state.nonces.items())),
        "algorithms": {
            k: _algorithm_to_json(v) for k, v in sorted(state.algorithms.items())
        },
        "contents": {
            k: _content_to_json(v) for k, v in sorted(state.contents.items())
        },
        "requests": {
            k: _request_to_json(v) for k, v in sorted(state.requests.items())
        },
        "results": {k: _result_to_json(v) for k, v in sorted(state.results.items())},
        "feedback_done": sorted(state.feedback_done),
        "detectors": {
            k: _detector_to_json(v) for k, v in sorted(state.detectors.items())
        },
        "supply": {
            "initial_supply": state.initial_supply,
            "total_minted": state.total_minted,
            "total_burned": state.total_burned,
            "fees_to_owners": state.fees_to_owners,
            "fees_to_proposers": state.fees_to_proposers,
            "fees_burned": state.fees_burned,
            "stake_burned": state.stake_burned,
            "rewards_minted": state.rewards_minted,
        },
    }


def state_from_json(d: Any) -> NetworkState:
    d = _expect_keys(
        d,
        {
            "params",
            "validators",
            "balances",
            "nonces",
            "algorithms",
            "contents",
            "requests",
            "results",
            "feedback_done",
            "detectors",
            "supply",
        },
        "state",
    )
    supply = _expect_keys(
        d["supply"],
        {
            "initial_supply",
            "total_minted",
            "total_burned",
            "fees_to_owners",
            "fees_to_proposers",
            "fees_burned",
            "stake_burned",
            "rewards_minted",
        },
        "state.supply",
    )
    state = NetworkState(
        params=params_from_json(d["params"]),
        validators={
            _as_str(k, "validators"): _as_nonneg(v, "validators")
            for k, v in d["validators"].items()
        },
        balances={
            _as_str(k, "balances"): _as_nonneg(v, "balances")
            for k, v in d["balances"].items()
        },
        nonces={
            _as_str(k, "nonces"): _as_nonneg(v, "nonces")
            for k, v in d["nonces"].items()
        },
        algorithms={k: _algorithm_from_json(v) for k, v in d["algorithms"].items()},
        contents={k: _content_from_json(v) for k, v in d["contents"].items()},
        requests={k: _request_from_json(v) for k, v in d["requests"].items()},
        results={k: _result_from_json(v) for k, v in d["results"].items()},
        feedback_done=set(_as_str(x, "feedback_done") for x in d["feedback_done"]),
        detectors={k: _detector_from_json(v) for k, v in d["detectors"].items()},
        initial_supply=_as_nonneg(supply["initial_supply"], "supply"),
        total_minted=_as_nonneg(supply["total_minted"], "supply"),
        total_burned=_as_nonneg(supply["total_burned"], "supply"),
        fees_to_owners=_as_nonneg(supply["fees_to_owners"], "supply"),
        fees_to_proposers=_as_nonneg(supply["fees_to_proposers"], "supply"),
        fees_burned=_as_nonneg(supply["fees_burned"], "supply"),
        stake_burned=_as_nonneg(supply["stake_burned"], "supply"),
        rewards_minted=_as_nonneg(supply["rewards_minted"], "supply"),
    )
    for content in state.contents.values():
        state.content_hash_index[content.content_hash.hex] = content.content_id
    for key, record in state.algorithms.items():
        if key != record.algorithm_id:
            raise SerializationError(f"algorithm key {key} != id {record.algorithm_id}")
    for mapping, attr in (
        (state.contents, "content_id"),
        (state.requests, "request_id"),
        (state.results, "request_id"),
    ):
        for key, record in mapping.items():
            if key != getattr(record, attr):
                raise SerializationError(f"map key {key} != record id")
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
        "block": block_to_json(block),
        "receipts": [receipt_to_json(r) for r in receipts],
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
            with open(self.path, "rb") as fh:
                for line in fh:
                    parsed = json.loads(line)
                    self._last_height = parsed["height"]
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


def append_block(
    writer: ChainWriter,
    block: Block,
    receipts: Iterable[Receipt],
    genesis_state: NetworkState | None = None,
) -> None:
    writer.append(block, receipts, genesis_state)


def _parse_line(line_number: int, raw: bytes) -> dict:
    try:
        text = raw.decode("utf-8")
        value = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptRecord(line_number, f"unparseable record: {exc}") from exc
    if canonical_json(value) != text:
        raise CorruptRecord(line_number, "record is not in canonical form")
    return value


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
        value = _parse_line(line_number, raw)
        try:
            expected = {"version", "height", "block", "receipts"}
            if i == 0:
                expected = expected | {"genesis_state"}
            value = _expect_keys(value, expected, "record")
            if value["version"] != FORMAT_VERSION:
                raise SerializationError(f"unsupported version {value['version']!r}")
            height = _as_nonneg(value["height"], "record.height")
            block = block_from_json(value["block"])
            if not isinstance(value["receipts"], list):
                raise SerializationError("record.receipts must be a list")
            receipts = tuple(receipt_from_json(r) for r in value["receipts"])
            if i == 0:
                genesis_state = state_from_json(value["genesis_state"])
        except SerializationError as exc:
            raise CorruptRecord(line_number, str(exc)) from exc
        if height != i:
            raise HeightGap(f"record {line_number} has height {height}, expected {i}")
        if block.height != height:
            raise CorruptRecord(line_number, "record height != block height")
        records.append(ChainRecord(height=height, block=block, receipts=receipts))
    assert genesis_state is not None
    return genesis_state, records


def replay(
    path: str | os.PathLike, genesis_state: NetworkState | None = None
) -> ChainView:
    """Re-execute a chain file from its genesis and validate every byte.

    Checks, per block: recomputed block hash, parent linkage, height,
    proposer, state root, and receipt-for-receipt equality between the
    stored receipts and the re-executed ones. Fails loudly with the
    offending height; never silently diverges.
    """
    embedded_genesis, records = read_chain(path)
    state = genesis_state.clone() if genesis_state is not None else embedded_genesis

    first = records[0].block
    expected_genesis = genesis_block(state, timestamp=first.timestamp)
    if records[0].receipts:
        raise CorruptRecord(1, "genesis record must carry no receipts")
    if first != expected_genesis:
        exc = StateRootMismatch(
            "genesis block does not match the embedded genesis state"
        )
        exc.height = 0
        raise exc
    state = state.clone()
    state.tip_height = 0
    state.tip_hash = first.block_hash

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


def replay_chain(
    path: str | os.PathLike, genesis_state: NetworkState | None = None
) -> NetworkState:
    """Replay a chain file and return the final state (see :func:`replay`)."""
    return replay(path, genesis_state).final_state


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
