import math
from dataclasses import replace

import pytest

from veriledger.codec import hash_bytes
from veriledger.core import (
    AlgorithmStatus,
    Embedding,
    MediaType,
    NetworkState,
    ReceiptStatus,
    RequestStatus,
    SubmitAnalysisRequest,
    TxKind,
    transaction_hash,
)
from veriledger.contracts import request_id_for
from veriledger.ledger import init_chain, seal_block
from veriledger.oracle import process_pending
from veriledger.rng import SplitMix64

from test_contracts import make_state, Driver, register_algo, activate_algo

ORACLE = "oracle"
BATCH_LIMIT = 16


def embedding(rng: SplitMix64) -> Embedding:
    return Embedding(
        values=tuple((1 + rng.randrange(999)) / 1000 for _ in range(256)),
        media_type=MediaType.BYTES,
    )


def pending_state(request_count: int) -> tuple[NetworkState, dict[str, Embedding]]:
    """A state with ``request_count`` pending requests, and the embedding
    each was submitted with, by request id."""
    driver = Driver(make_state({"alice": 10_000, "bob": 10_000}))
    register_algo(driver)
    activate_algo(driver)
    rng = SplitMix64(100)
    embeddings = {}
    for i in range(request_count):
        receipt, tx = driver.submit(
            TxKind.SUBMIT_ANALYSIS_REQUEST,
            "bob",
            SubmitAnalysisRequest(
                media_type=MediaType.BYTES,
                content_hash=hash_bytes(f"q-{i}".encode()),
                embedding=embedding(rng),
                fee=10,
            ),
        )
        assert receipt.status is ReceiptStatus.ACCEPTED
        embeddings[request_id_for(tx)] = tx.payload.embedding
    driver.state.tip_height = 5
    return driver.state, embeddings


def test_no_pending_requests_gives_empty_batch():
    state, embeddings = pending_state(0)
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert batch.transactions == []
    assert batch.log_lines == []


def test_batch_limit_takes_smallest_request_ids():
    state, embeddings = pending_state(20)
    batch = process_pending(state, 16, embeddings)
    assert len(batch.transactions) == 16
    all_ids = sorted(state.requests)
    picked = [tx.payload.request_id for tx in batch.transactions]
    assert picked == all_ids[:16]


def test_same_snapshot_twice_is_identical():
    state, embeddings = pending_state(7)
    a = process_pending(state, BATCH_LIMIT, embeddings)
    b = process_pending(state, BATCH_LIMIT, embeddings)
    assert [transaction_hash(t) for t in a.transactions] == [
        transaction_hash(t) for t in b.transactions
    ]
    assert a.log_lines == b.log_lines


def test_commits_carry_sequential_nonces():
    state, embeddings = pending_state(5)
    state.nonces[ORACLE] = 9
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert [tx.nonce for tx in batch.transactions] == [10, 11, 12, 13, 14]
    assert all(tx.sender == ORACLE for tx in batch.transactions)


def test_commits_are_signed_by_the_oracle_account_of_the_params():
    state, embeddings = pending_state(2)
    state.params = replace(state.params, oracle_account="oracle-2")
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert [tx.sender for tx in batch.transactions] == ["oracle-2", "oracle-2"]
    assert [tx.nonce for tx in batch.transactions] == [0, 1]


@pytest.mark.parametrize("limit", [0, -1])
def test_batch_limit_below_one_is_refused(limit):
    state, embeddings = pending_state(1)
    with pytest.raises(ValueError, match="batch_limit must be >= 1"):
        process_pending(state, limit, embeddings)


def test_no_eligible_algorithm_leaves_request_pending():
    state, embeddings = pending_state(3)
    for aid, record in state.algorithms.items():
        state.algorithms[aid] = replace(record, status=AlgorithmStatus.DEPRECATED)
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert batch.transactions == []
    assert len(batch.skipped) == 3
    assert all("NoEligibleAlgorithm" in line for line in batch.log_lines)
    assert all(
        req.status is RequestStatus.PENDING for req in state.requests.values()
    )


def _assert_served_all_but(state, embeddings, withheld):
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert batch.skipped == [withheld]
    assert [line for line in batch.log_lines if line.startswith(withheld)] == [
        f"{withheld}\t-\tEmbeddingUnavailable\t-"
    ]
    served = {tx.payload.request_id for tx in batch.transactions}
    assert served == set(state.requests) - {withheld}
    _, chained = init_chain(state.clone())
    _, after, receipts = seal_block(chained, batch.transactions, timestamp=1)
    assert all(r.status is ReceiptStatus.ACCEPTED for r in receipts)
    assert after.requests[withheld].status is RequestStatus.PENDING


def test_missing_embedding_is_not_served():
    state, embeddings = pending_state(3)
    withheld = sorted(state.requests)[1]
    del embeddings[withheld]
    _assert_served_all_but(state, embeddings, withheld)


def test_embedding_that_misses_the_commitment_is_not_served():
    state, embeddings = pending_state(3)
    withheld = sorted(state.requests)[0]
    honest = embeddings[withheld]
    # One value one ulp away: the detector would see other content than the
    # submitter paid to have analysed.
    values = list(honest.values)
    values[7] = math.nextafter(values[7], 1.0)
    embeddings[withheld] = Embedding(values=tuple(values), media_type=honest.media_type)
    _assert_served_all_but(state, embeddings, withheld)


def test_log_lines_have_elapsed_ticks():
    state, embeddings = pending_state(2)
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    for line in batch.log_lines:
        request_id, algo_id, verdict, elapsed = line.split("\t")
        assert request_id in state.requests
        assert algo_id == "algo-1"
        assert verdict in {"Authentic", "Deepfake", "Unverified"}
        # requests were submitted at height 1, commits land at tip+1 = 6
        assert elapsed == "5"


def test_commits_apply_cleanly_in_next_block():
    state, embeddings = pending_state(4)
    genesis_balance_state = state.clone()
    genesis_balance_state.tip_height = -1
    _, chained = init_chain(genesis_balance_state)
    batch = process_pending(chained, BATCH_LIMIT, embeddings)
    block, new_state, receipts = seal_block(chained, batch.transactions, timestamp=1)
    assert all(r.status is ReceiptStatus.ACCEPTED for r in receipts)
    completed = [
        r for r in new_state.requests.values() if r.status is RequestStatus.COMPLETED
    ]
    assert len(completed) == 4


def test_batch_partitioning_does_not_change_outcome(golden_config):
    # Any admissible batch split of the same pending set reaches the same
    # Completed set and the same per-class fee totals; only which proposer
    # collects each block's share may move.
    from veriledger.sim import ScenarioRunner

    runs = {}
    for limit in (16, 5):
        config = replace(golden_config, oracle_batch_limit=limit)
        runs[limit] = ScenarioRunner(config).run()

    states = {limit: r.chain.final_state for limit, r in runs.items()}
    completed = {
        limit: {
            rid
            for rid, req in s.requests.items()
            if req.status is RequestStatus.COMPLETED
        }
        for limit, s in states.items()
    }
    assert completed[16] == completed[5]
    for field in (
        "fees_to_owners",
        "fees_to_proposers",
        "fees_burned",
        "stake_burned",
        "total_burned",
        "total_minted",
    ):
        assert getattr(states[16], field) == getattr(states[5], field), field
