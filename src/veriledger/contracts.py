"""On-chain state machines: algorithm registry, content registry, tokens.

Every operation validates all of its preconditions before touching state,
so a rejected transaction is exactly state-neutral. Rejections surface as
:class:`~veriledger.errors.Rejection` and become rejected receipts; they
never abort the enclosing block.

Token movements and their conservation story:

* registration escrows the stake out of the owner's balance;
* failed validation or poor performance burns half the stake and refunds
  the rest;
* analysis fees sit in the escrow account until the result is committed,
  then split 70% to the algorithm owner, 20% to the block proposer, and
  the remainder (including integer-division leftovers) is burned;
* epoch rewards are minted against this-epoch correct outcomes.

State records are immutable. A handler never changes a record in place:
it stores a new one built with ``dataclasses.replace``. That is what lets
``NetworkState.clone`` copy only the containers and share the records,
and lets each record keep its cached canonical encoding until it is
replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import Hash256
from .core import (
    ESCROW_ACCOUNT,
    EMBEDDING_DIMENSIONS,
    ONE,
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    CommitAnalysisResult,
    ContentRecord,
    Embedding,
    MediaType,
    NetworkState,
    NotificationEvent,
    PAYLOAD_TYPES,
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
    hash_embedding,
    transaction_hash,
)
from . import errors
from .errors import Rejection

REQUEST_ID_LENGTH = 16


@dataclass(frozen=True, slots=True)
class ExecContext:
    """Where a transaction executes: block position and its own hash."""

    height: int
    proposer: str
    tx_index: int
    tx_hash: Hash256


def _check_embedding(embedding: Embedding, media_type: MediaType) -> None:
    expected = EMBEDDING_DIMENSIONS[media_type]
    if embedding.media_type is not media_type or embedding.dimension != expected:
        raise Rejection(
            errors.BAD_EMBEDDING_DIMENSION,
            f"expected {expected}-dim {media_type.value} embedding",
        )
    if not embedding.is_valid():
        raise Rejection(
            errors.BAD_EMBEDDING_VALUES,
            "no value stored: every entry is 0",
        )


def _check_label(label: Verdict) -> None:
    if label not in (Verdict.AUTHENTIC, Verdict.DEEPFAKE):
        raise Rejection(errors.BAD_LABEL, f"label must not be {label.value}")


def _deprecate_with_burn(state: NetworkState, record: AlgorithmRecord) -> None:
    """Burn half the stake (floor), refund the rest, retire the algorithm."""
    burn = record.stake // 2
    refund = record.stake - burn
    state.algorithms[record.algorithm_id] = replace(
        record, stake=0, status=AlgorithmStatus.DEPRECATED
    )
    if refund:
        state.credit(record.owner, refund)
    state.stake_burned += burn


def register_algorithm(
    state: NetworkState, ctx: ExecContext, sender: str, payload: RegisterAlgorithm
) -> list[NotificationEvent]:
    if payload.algorithm_id in state.algorithms:
        raise Rejection(errors.DUPLICATE_ALGORITHM, payload.algorithm_id)
    if payload.detector_kind not in state.detectors:
        raise Rejection(errors.UNKNOWN_DETECTOR, payload.detector_kind)
    if payload.stake < state.params.min_stake:
        raise Rejection(
            errors.INSUFFICIENT_STAKE,
            f"{payload.stake} < minimum {state.params.min_stake}",
        )
    if state.balance(sender) < payload.stake:
        raise Rejection(errors.INSUFFICIENT_BALANCE, sender)

    state.debit(sender, payload.stake)
    state.algorithms[payload.algorithm_id] = AlgorithmRecord(
        algorithm_id=payload.algorithm_id,
        owner=sender,
        media_types=frozenset(payload.media_types),
        detector_kind=payload.detector_kind,
        status=AlgorithmStatus.PENDING,
        stake=payload.stake,
        registered_at=ctx.height,
    )
    return []


def submit_challenge_result(
    state: NetworkState, ctx: ExecContext, sender: str, payload: SubmitChallengeResult
) -> list[NotificationEvent]:
    record = state.algorithms.get(payload.algorithm_id)
    if record is None:
        raise Rejection(errors.UNKNOWN_ALGORITHM, payload.algorithm_id)
    if record.status is not AlgorithmStatus.PENDING:
        raise Rejection(errors.NOT_PENDING, record.status.value)
    if not state.params.is_challenge(payload.challenge_id):
        raise Rejection(errors.UNKNOWN_CHALLENGE, payload.challenge_id)
    if payload.challenge_id in record.challenges_submitted:
        raise Rejection(errors.DUPLICATE_CHALLENGE, payload.challenge_id)
    _check_label(payload.predicted_label)
    _check_label(payload.true_label)

    passed = record.challenge_passed
    if payload.predicted_label is payload.true_label:
        passed += 1
    record = replace(
        record,
        challenges_submitted=record.challenges_submitted | {payload.challenge_id},
        challenge_passed=passed,
    )
    state.algorithms[record.algorithm_id] = record
    if len(record.challenges_submitted) == state.params.challenge_count:
        if passed * 100 >= state.params.challenge_pass_pct * state.params.challenge_count:
            state.algorithms[record.algorithm_id] = replace(
                record, status=AlgorithmStatus.ACTIVE
            )
        else:
            _deprecate_with_burn(state, record)
    return []


def register_content(
    state: NetworkState, ctx: ExecContext, sender: str, payload: RegisterContent
) -> list[NotificationEvent]:
    if payload.content_id in state.contents:
        raise Rejection(errors.DUPLICATE_CONTENT, payload.content_id)
    if payload.content_hash.hex in state.content_hash_index:
        raise Rejection(errors.DUPLICATE_CONTENT, payload.content_hash.hex)
    _check_embedding(payload.embedding, payload.media_type)

    state.contents[payload.content_id] = ContentRecord(
        content_id=payload.content_id,
        provider=sender,
        media_type=payload.media_type,
        content_hash=payload.content_hash,
        embedding=payload.embedding,
        metadata=dict(payload.metadata),
        registered_at=ctx.height,
    )
    state.content_hash_index[payload.content_hash.hex] = payload.content_id
    return []


def submit_analysis_request(
    state: NetworkState, ctx: ExecContext, sender: str, payload: SubmitAnalysisRequest
) -> list[NotificationEvent]:
    if payload.fee < state.params.min_fee:
        raise Rejection(
            errors.INSUFFICIENT_FEE, f"{payload.fee} < minimum {state.params.min_fee}"
        )
    if state.balance(sender) < payload.fee:
        raise Rejection(errors.INSUFFICIENT_BALANCE, sender)
    _check_embedding(payload.embedding, payload.media_type)
    request_id = ctx.tx_hash.hex[:REQUEST_ID_LENGTH]
    if request_id in state.requests:
        raise Rejection(errors.DUPLICATE_REQUEST, request_id)

    state.debit(sender, payload.fee)
    state.credit(ESCROW_ACCOUNT, payload.fee)
    state.requests[request_id] = AnalysisRequest(
        request_id=request_id,
        submitter=sender,
        media_type=payload.media_type,
        content_hash=payload.content_hash,
        embedding_hash=hash_embedding(payload.embedding),
        fee=payload.fee,
        status=RequestStatus.PENDING,
        submitted_at=ctx.height,
    )
    return []


def _check_result(state: NetworkState, payload: CommitAnalysisResult) -> None:
    if not 0 <= payload.confidence <= ONE:
        raise Rejection(errors.BAD_RESULT, "confidence outside [0, ONE]")
    for content_id, sim in payload.matched_content:
        if content_id not in state.contents:
            raise Rejection(errors.BAD_RESULT, f"unregistered match {content_id}")
        if not 0 <= sim <= ONE:
            raise Rejection(errors.BAD_RESULT, "similarity outside [0, ONE]")
    if payload.verdict is Verdict.AUTHENTIC:
        if payload.confidence != ONE or not any(
            sim == ONE for _, sim in payload.matched_content
        ):
            raise Rejection(errors.BAD_RESULT, "Authentic requires an exact match")
    if payload.verdict is Verdict.UNVERIFIED and payload.matched_content:
        raise Rejection(errors.BAD_RESULT, "Unverified must carry no matches")


def commit_analysis_result(
    state: NetworkState, ctx: ExecContext, sender: str, payload: CommitAnalysisResult
) -> list[NotificationEvent]:
    if sender != state.params.oracle_account:
        raise Rejection(errors.UNAUTHORIZED_ORACLE, sender)
    request = state.requests.get(payload.request_id)
    if request is None:
        raise Rejection(errors.UNKNOWN_REQUEST, payload.request_id)
    if request.status is RequestStatus.COMPLETED:
        raise Rejection(errors.REQUEST_COMPLETED, payload.request_id)
    record = state.algorithms.get(payload.algorithm_id)
    if (
        record is None
        or record.status is not AlgorithmStatus.ACTIVE
        or request.media_type not in record.media_types
    ):
        raise Rejection(errors.ALGORITHM_NOT_ACTIVE, payload.algorithm_id)
    _check_result(state, payload)
    if state.balance(ESCROW_ACCOUNT) < request.fee:
        raise Rejection(errors.INSUFFICIENT_BALANCE, ESCROW_ACCOUNT)

    state.requests[payload.request_id] = replace(
        request, status=RequestStatus.COMPLETED
    )
    state.results[payload.request_id] = AnalysisResultRecord(
        request_id=payload.request_id,
        algorithm_id=payload.algorithm_id,
        verdict=payload.verdict,
        confidence=payload.confidence,
        matched_content=tuple(payload.matched_content),
        committed_at=ctx.height,
    )

    fee = request.fee
    owner_share = fee * state.params.fee_owner_pct // 100
    proposer_share = fee * state.params.fee_proposer_pct // 100
    burn = fee - owner_share - proposer_share
    state.debit(ESCROW_ACCOUNT, fee)
    state.credit(record.owner, owner_share)
    state.credit(ctx.proposer, proposer_share)
    state.fees_to_owners += owner_share
    state.fees_to_proposers += proposer_share
    state.fees_burned += burn

    if payload.verdict is Verdict.DEEPFAKE:
        return [
            NotificationEvent(
                provider=state.contents[content_id].provider,
                content_id=content_id,
                request_id=payload.request_id,
                similarity=sim,
            )
            for content_id, sim in payload.matched_content
        ]
    return []


def submit_feedback(
    state: NetworkState, ctx: ExecContext, sender: str, payload: SubmitFeedback
) -> list[NotificationEvent]:
    request = state.requests.get(payload.request_id)
    if request is None:
        raise Rejection(errors.UNKNOWN_REQUEST, payload.request_id)
    if request.status is not RequestStatus.COMPLETED:
        raise Rejection(errors.REQUEST_NOT_COMPLETED, payload.request_id)
    result = state.results[payload.request_id]
    if result.labelled:
        raise Rejection(errors.DUPLICATE_FEEDBACK, payload.request_id)
    if sender != request.submitter:
        raise Rejection(errors.NOT_SUBMITTER, sender)
    _check_label(payload.true_label)

    state.results[payload.request_id] = replace(result, labelled=True)
    record = state.algorithms[result.algorithm_id]
    # Unverified counts as an Authentic prediction.
    predicted_fake = result.verdict is Verdict.DEEPFAKE
    actual_fake = payload.true_label is Verdict.DEEPFAKE
    if predicted_fake:
        outcome = "tp" if actual_fake else "fp"
    else:
        outcome = "fn" if actual_fake else "tn"
    changes = {outcome: getattr(record, outcome) + 1}
    if predicted_fake == actual_fake:
        changes["epoch_correct"] = record.epoch_correct + 1
    record = replace(record, **changes)
    state.algorithms[record.algorithm_id] = record

    total = record.tp + record.fp + record.tn + record.fn
    if (
        record.status is AlgorithmStatus.ACTIVE
        and total >= state.params.feedback_window
        and (record.tp + record.tn) * 100 < state.params.feedback_min_pct * total
    ):
        _deprecate_with_burn(state, record)
    return []


def transfer_tokens(
    state: NetworkState, ctx: ExecContext, sender: str, payload: TransferTokens
) -> list[NotificationEvent]:
    if payload.amount <= 0:
        raise Rejection(errors.BAD_AMOUNT, str(payload.amount))
    if state.balance(sender) < payload.amount:
        raise Rejection(errors.INSUFFICIENT_BALANCE, sender)
    state.debit(sender, payload.amount)
    state.credit(payload.recipient, payload.amount)
    return []


_HANDLERS = {
    TxKind.REGISTER_ALGORITHM: register_algorithm,
    TxKind.SUBMIT_CHALLENGE_RESULT: submit_challenge_result,
    TxKind.REGISTER_CONTENT: register_content,
    TxKind.SUBMIT_ANALYSIS_REQUEST: submit_analysis_request,
    TxKind.COMMIT_ANALYSIS_RESULT: commit_analysis_result,
    TxKind.SUBMIT_FEEDBACK: submit_feedback,
    TxKind.TRANSFER_TOKENS: transfer_tokens,
}


def execute_transaction(
    state: NetworkState, tx: Transaction, ctx: ExecContext
) -> Receipt:
    """Apply one transaction in place, returning its receipt.

    An accepted transaction must carry a nonce strictly greater than the
    sender's last accepted nonce; rejected transactions consume nothing,
    so deleting them from a block leaves the resulting state unchanged.
    """
    try:
        handler = _HANDLERS.get(tx.kind)
        if handler is None or not isinstance(tx.payload, PAYLOAD_TYPES[tx.kind]):
            raise Rejection(errors.UNKNOWN_KIND, tx.kind.value)
        last = state.nonces.get(tx.sender, -1)
        if tx.nonce <= last:
            raise Rejection(errors.BAD_NONCE, f"{tx.nonce} <= {last}")
        events = handler(state, ctx, tx.sender, tx.payload)
    except Rejection as rej:
        return Receipt(
            tx_index=ctx.tx_index,
            status=ReceiptStatus.REJECTED,
            error_code=rej.code,
        )
    state.nonces[tx.sender] = tx.nonce
    return Receipt(
        tx_index=ctx.tx_index,
        status=ReceiptStatus.ACCEPTED,
        events=tuple(events),
    )


def request_id_for(tx: Transaction) -> str:
    """The deterministic request id an analysis submission will receive."""
    return transaction_hash(tx).hex[:REQUEST_ID_LENGTH]


def distribute_epoch_rewards(
    state: NetworkState, epoch_end_height: int
) -> list[tuple[str, int]]:
    """Mint the epoch pool to Active algorithm owners, weighted by this
    epoch's correct outcomes (tp+tn accrued since the last boundary).

    Integer floors; the remainder goes to the highest-scoring algorithm,
    ties broken by smallest algorithm id. Epoch counters reset afterwards
    whether or not anything was minted.
    """
    if epoch_end_height <= 0 or epoch_end_height % state.params.epoch_length != 0:
        raise ValueError(f"not an epoch boundary: {epoch_end_height}")
    scores = {
        a.algorithm_id: a.epoch_correct
        for a in state.algorithms.values()
        if a.status is AlgorithmStatus.ACTIVE
    }
    for aid, record in state.algorithms.items():
        if record.epoch_correct:
            state.algorithms[aid] = replace(record, epoch_correct=0)

    total = sum(scores.values())
    if total == 0:
        return []
    pool = state.params.epoch_reward_pool
    rewards = {aid: pool * score // total for aid, score in scores.items()}
    remainder = pool - sum(rewards.values())
    if remainder:
        top = min(scores, key=lambda aid: (-scores[aid], aid))
        rewards[top] += remainder

    distribution = []
    for aid in sorted(rewards):
        amount = rewards[aid]
        if amount == 0:
            continue
        owner = state.algorithms[aid].owner
        state.credit(owner, amount)
        state.rewards_minted += amount
        distribution.append((owner, amount))
    return distribution
