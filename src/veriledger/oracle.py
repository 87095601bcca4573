"""Off-chain/on-chain bridge: turns pending analysis requests into commits.

The oracle runs synchronously between blocks on a read-only state
snapshot. It picks up to ``batch_limit`` pending requests in request-id
order, selects the best eligible algorithm per request, executes that
algorithm's detector against the trusted-content registry, and emits the
commit transactions for the next block, signed by the state's
``params.oracle_account`` with sequential nonces. Processing the same
snapshot twice yields an identical batch.

The state holds each request's embedding only as a hash
(``AnalysisRequest.embedding_hash``). The embedding itself is in the
``SubmitAnalysisRequest`` transaction on chain; the caller hands the oracle
a ``request_id -> Embedding`` map, and the oracle serves a request only
with an embedding that hashes to the request's commitment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    AnalysisRequest,
    CommitAnalysisResult,
    Embedding,
    NetworkState,
    RequestStatus,
    Transaction,
    TxKind,
    hash_embedding,
)
from .detection import AnalysisTarget, run_detector, select_model
from .errors import EmbeddingUnavailable, NoEligibleAlgorithm


@dataclass(slots=True)
class OracleBatch:
    """One polling round: commit transactions plus the oracle's log lines.

    Log lines are tab-separated: request_id, algorithm_id, verdict,
    elapsed ticks from submission to the block the commit lands in.
    A request with no eligible algorithm, or without an embedding that
    matches its ``embedding_hash``, is logged once as
    ``request_id - NoEligibleAlgorithm -`` (or ``EmbeddingUnavailable``),
    listed in ``skipped`` and left pending.
    """

    transactions: list[Transaction] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


def _checked_embedding(
    request: AnalysisRequest, embeddings: Mapping[str, Embedding]
) -> Embedding:
    embedding = embeddings.get(request.request_id)
    if embedding is None or hash_embedding(embedding) != request.embedding_hash:
        raise EmbeddingUnavailable(request.request_id)
    return embedding


def process_pending(
    state: NetworkState,
    batch_limit: int,
    embeddings: Mapping[str, Embedding],
) -> OracleBatch:
    if batch_limit < 1:
        raise ValueError("batch_limit must be >= 1")
    oracle_account = state.params.oracle_account
    pending = sorted(
        rid
        for rid, req in state.requests.items()
        if req.status is RequestStatus.PENDING
    )
    batch = OracleBatch()
    commit_height = state.tip_height + 1
    next_nonce = state.nonces.get(oracle_account, -1) + 1

    for request_id in pending[:batch_limit]:
        request = state.requests[request_id]
        try:
            algorithm_id = select_model(
                request.media_type, state.algorithms.values()
            )
            embedding = _checked_embedding(request, embeddings)
        except (NoEligibleAlgorithm, EmbeddingUnavailable) as exc:
            batch.skipped.append(request_id)
            batch.log_lines.append(
                f"{request_id}\t-\t{type(exc).__name__}\t-"
            )
            continue
        spec = state.detectors[state.algorithms[algorithm_id].detector_kind]
        target = AnalysisTarget(
            request_id=request_id,
            media_type=request.media_type,
            content_hash=request.content_hash,
            embedding=embedding,
        )
        verdict, confidence, matches = run_detector(
            spec, target, state.contents.values()
        )
        batch.transactions.append(
            Transaction(
                kind=TxKind.COMMIT_ANALYSIS_RESULT,
                sender=oracle_account,
                payload=CommitAnalysisResult(
                    request_id=request_id,
                    algorithm_id=algorithm_id,
                    verdict=verdict,
                    confidence=float(confidence),
                    matched_content=tuple(
                        (m.content_id, float(m.similarity)) for m in matches
                    ),
                ),
                nonce=next_nonce,
            )
        )
        next_nonce += 1
        elapsed = commit_height - request.submitted_at
        batch.log_lines.append(
            f"{request_id}\t{algorithm_id}\t{verdict.value}\t{elapsed}"
        )
    return batch
