from collections.abc import Sequence
from dataclasses import replace

import pytest

from veriledger.codec import hash_bytes
from veriledger import detection, oracle, sim
from veriledger.core import (
    AlgorithmStatus,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    NetworkState,
    ReceiptStatus,
    RequestStatus,
    SubmitAnalysisRequest,
    TxKind,
    Verdict,
    transaction_hash,
)
from veriledger.contracts import request_id_for
from veriledger.ledger import init_chain, seal_block
from veriledger.oracle import process_pending
from veriledger.rng import SplitMix64
from veriledger.sim import ScenarioRunner

from conftest import dense
from test_contracts import make_state, Driver, register_algo, activate_algo

ORACLE = "oracle"
BATCH_LIMIT = 16


def embedding(rng: SplitMix64) -> Embedding:
    return Embedding.from_dense(tuple(1 + rng.randrange(999) for _ in range(256)), MediaType.BYTES)


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


def test_the_model_is_chosen_once_per_media_type_per_poll(monkeypatch):
    state, embeddings = pending_state(3)
    template = state.requests[sorted(state.requests)[0]]
    for rid in ("img-0", "img-1"):  # no algorithm serves Image
        state.requests[rid] = replace(template, request_id=rid, media_type=MediaType.IMAGE)
    choices = []

    def counted(media_type, algorithms):
        choices.append(media_type)
        return detection.select_model(media_type, algorithms)

    monkeypatch.setattr(oracle, "select_model", counted)
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert sorted(choices) == [MediaType.BYTES, MediaType.IMAGE]
    assert len(batch.transactions) == 3
    assert sorted(batch.skipped) == ["img-0", "img-1"]
    assert sorted(line for line in batch.log_lines if line.startswith("img-")) == [
        f"{rid}\t-\tNoEligibleAlgorithm\t-" for rid in ("img-0", "img-1")
    ]


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
    # One value one larger: the detector would see other content than the
    # submitter paid to have analysed.
    values = list(dense(honest))
    values[7] += 1
    embeddings[withheld] = Embedding.from_dense(tuple(values), honest.media_type)
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
        "rewards_minted",
    ):
        assert getattr(states[16], field) == getattr(states[5], field), field


def test_a_plugin_receives_the_registry_in_registry_order(monkeypatch):
    state, embeddings = pending_state(3)
    rng = SplitMix64(7)
    for cid in ("c-3", "c-1", "c-2"):  # registry order is not id order
        state.contents[cid] = ContentRecord(
            content_id=cid,
            provider="alice",
            media_type=MediaType.BYTES,
            content_hash=hash_bytes(cid.encode()),
            embedding=embedding(rng),
            metadata={},
            registered_at=1,
        )
    seen = []

    def capture(params, target, registry):
        seen.append(registry)
        return Verdict.UNVERIFIED, 0.0, []

    monkeypatch.setitem(detection._PLUGINS, "test-capture", capture)
    state.detectors["near-duplicate"] = DetectorSpec(kind="test-capture")
    batch = process_pending(state, BATCH_LIMIT, embeddings)
    assert len(batch.transactions) == 3
    records = list(state.contents.values())
    assert [r.content_id for r in records] == ["c-3", "c-1", "c-2"]
    # One registry per poll, handed to every request's detector.
    assert len(seen) == 3 and all(registry is seen[0] for registry in seen)
    registry = seen[0]
    assert isinstance(registry, Sequence)
    assert len(registry) == 3
    assert all(registry[i] is record for i, record in enumerate(records))
    assert registry[-1] is records[-1] and registry[:2] == tuple(records[:2])
    assert all(a is b for a, b in zip(registry, records, strict=True))
    assert records[1] in registry


def test_one_registry_per_poll_gives_the_batch_of_one_per_request(
    golden_config, monkeypatch
):
    # The reference hands ``state.contents.values()`` to ``run_detector``
    # itself, which wraps it afresh for every request.
    polls = []

    def checked(state, batch_limit, embeddings):
        batch = process_pending(state, batch_limit, embeddings)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "RegistryIndex", lambda records: records)
            reference = process_pending(state, batch_limit, embeddings)
        assert batch == reference
        assert [transaction_hash(t) for t in batch.transactions] == [
            transaction_hash(t) for t in reference.transactions
        ]
        polls.append((state.tip_height, len(batch.transactions)))
        return batch

    monkeypatch.setattr(sim, "process_pending", checked)
    result = ScenarioRunner(golden_config).run()
    heights = [height for height, _ in polls]
    assert heights == list(range(len(result.chain.records) - 1))
    assert sum(commits for _, commits in polls) == len(result.chain.final_state.results)
