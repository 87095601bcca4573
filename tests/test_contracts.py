from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from veriledger.codec import hash_bytes
from veriledger.contracts import (
    ExecContext,
    distribute_epoch_rewards,
    execute_transaction,
    request_id_for,
)
from veriledger.core import (
    EMBEDDING_DIMENSIONS,
    ESCROW_ACCOUNT,
    AlgorithmRecord,
    AlgorithmStatus,
    CommitAnalysisResult,
    ContractParams,
    Embedding,
    MediaType,
    NetworkState,
    ONE,
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
    transaction_hash,
)
from veriledger import errors
from veriledger.ledger import init_chain, seal_block
from veriledger.rng import SplitMix64
from veriledger.sim import BUILTIN_DETECTORS

from conftest import dense
from fuzz import BOGUS_CHALLENGE_IDS, FuzzStream, build_fuzz_state
from naive_rules import naive_run

ORACLE = "oracle"
NEAR = 64880  # a Q16 score, floor(0.99 * ONE)


def make_state(balances=None, params=None) -> NetworkState:
    balances = balances if balances is not None else {"alice": 500, "bob": 500}
    params = params or ContractParams(oracle_account=ORACLE)
    return NetworkState(
        params=params,
        validators={"v1": 100},
        balances=dict(balances),
        detectors=dict(BUILTIN_DETECTORS),
        initial_supply=sum(balances.values()) + 100,
    )


class Driver:
    """Applies payloads directly through execute_transaction."""

    def __init__(self, state: NetworkState, height=1, proposer="v1"):
        self.state = state
        self.height = height
        self.proposer = proposer
        self.nonces = {}
        self.index = 0

    def submit(self, kind: TxKind, sender: str, payload):
        nonce = self.nonces.get(sender, -1) + 1
        self.nonces[sender] = nonce
        tx = Transaction(kind=kind, sender=sender, payload=payload, nonce=nonce)
        ctx = ExecContext(
            height=self.height,
            proposer=self.proposer,
            tx_index=self.index,
            tx_hash=transaction_hash(tx),
        )
        self.index += 1
        return execute_transaction(self.state, tx, ctx), tx


def bytes_embedding(fill=1) -> Embedding:
    return Embedding.from_dense(tuple([fill] * 256), MediaType.BYTES)


def register_algo(driver, algo_id="algo-1", sender="alice", stake=100,
                  detector="near-duplicate", media=frozenset({MediaType.BYTES})):
    return driver.submit(
        TxKind.REGISTER_ALGORITHM,
        sender,
        RegisterAlgorithm(
            algorithm_id=algo_id, media_types=media,
            detector_kind=detector, stake=stake,
        ),
    )


def activate_algo(driver, algo_id="algo-1", sender="alice", correct=None):
    params = driver.state.params
    correct = params.challenge_count if correct is None else correct
    for i, cid in enumerate(params.challenge_ids()):
        truth = Verdict.DEEPFAKE
        predicted = truth if i < correct else Verdict.AUTHENTIC
        receipt, _ = driver.submit(
            TxKind.SUBMIT_CHALLENGE_RESULT,
            sender,
            SubmitChallengeResult(
                algorithm_id=algo_id, challenge_id=cid,
                predicted_label=predicted, true_label=truth,
            ),
        )
        assert receipt.status is ReceiptStatus.ACCEPTED


# --- register_algorithm -------------------------------------------------------


def test_register_exact_balance_escrows_stake():
    driver = Driver(make_state({"alice": 100}))
    receipt, _ = register_algo(driver, stake=100)
    assert receipt.status is ReceiptStatus.ACCEPTED
    assert driver.state.balances["alice"] == 0
    record = driver.state.algorithms["algo-1"]
    assert record.stake == 100
    assert record.status is AlgorithmStatus.PENDING
    assert record.registered_at == 1


def test_register_below_min_stake_rejected():
    driver = Driver(make_state())
    receipt, _ = register_algo(driver, stake=99)
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.error_code == "InsufficientStake"


def test_register_duplicate_rejected():
    driver = Driver(make_state())
    register_algo(driver)
    receipt, _ = register_algo(driver, sender="bob")
    assert receipt.error_code == "DuplicateAlgorithm"


def test_register_unknown_detector_rejected():
    driver = Driver(make_state())
    receipt, _ = register_algo(driver, detector="mystery-net")
    assert receipt.error_code == "UnknownDetector"


def test_register_balance_short_rejected():
    driver = Driver(make_state({"alice": 99}))
    receipt, _ = register_algo(driver, stake=100)
    assert receipt.error_code == "InsufficientBalance"


# --- challenges ---------------------------------------------------------------


def test_sixteen_of_twenty_activates():
    driver = Driver(make_state())
    register_algo(driver)
    activate_algo(driver, correct=16)  # accuracy exactly 80%
    assert driver.state.algorithms["algo-1"].status is AlgorithmStatus.ACTIVE
    assert driver.state.algorithms["algo-1"].stake == 100


def test_fifteen_of_twenty_deprecates_and_burns_half():
    driver = Driver(make_state({"alice": 100}))
    register_algo(driver, stake=100)
    activate_algo(driver, correct=15)
    record = driver.state.algorithms["algo-1"]
    assert record.status is AlgorithmStatus.DEPRECATED
    assert record.stake == 0
    assert driver.state.balances["alice"] == 50  # refund
    assert driver.state.stake_burned == 50
    assert driver.state.conservation_gap() == 0


def test_deprecating_an_odd_stake_burns_the_floor_of_half():
    driver = Driver(make_state({"alice": 101}))
    register_algo(driver, stake=101)
    activate_algo(driver, correct=15)
    assert driver.state.algorithms["algo-1"].status is AlgorithmStatus.DEPRECATED
    assert driver.state.balances["alice"] == 51  # the refund keeps the odd token
    assert driver.state.stake_burned == 50
    assert driver.state.conservation_gap() == 0


def test_twenty_first_submission_rejected():
    driver = Driver(make_state())
    register_algo(driver)
    activate_algo(driver)
    receipt, _ = driver.submit(
        TxKind.SUBMIT_CHALLENGE_RESULT,
        "alice",
        SubmitChallengeResult(
            algorithm_id="algo-1", challenge_id="ch-000",
            predicted_label=Verdict.DEEPFAKE, true_label=Verdict.DEEPFAKE,
        ),
    )
    assert receipt.error_code == "NotPending"


def test_duplicate_challenge_rejected():
    driver = Driver(make_state())
    register_algo(driver)
    payload = SubmitChallengeResult(
        algorithm_id="algo-1", challenge_id="ch-000",
        predicted_label=Verdict.DEEPFAKE, true_label=Verdict.DEEPFAKE,
    )
    first, _ = driver.submit(TxKind.SUBMIT_CHALLENGE_RESULT, "alice", payload)
    second, _ = driver.submit(TxKind.SUBMIT_CHALLENGE_RESULT, "alice", payload)
    assert first.status is ReceiptStatus.ACCEPTED
    assert second.error_code == "DuplicateChallenge"


def test_unknown_algorithm_and_challenge():
    driver = Driver(make_state())
    receipt, _ = driver.submit(
        TxKind.SUBMIT_CHALLENGE_RESULT,
        "alice",
        SubmitChallengeResult(
            algorithm_id="ghost", challenge_id="ch-000",
            predicted_label=Verdict.DEEPFAKE, true_label=Verdict.DEEPFAKE,
        ),
    )
    assert receipt.error_code == "UnknownAlgorithm"
    register_algo(driver)
    receipt, _ = driver.submit(
        TxKind.SUBMIT_CHALLENGE_RESULT,
        "alice",
        SubmitChallengeResult(
            algorithm_id="algo-1", challenge_id="ch-999",
            predicted_label=Verdict.DEEPFAKE, true_label=Verdict.DEEPFAKE,
        ),
    )
    assert receipt.error_code == "UnknownChallenge"


@pytest.mark.parametrize("count", [1, 6, 20, 999, 1000, 1001])
def test_is_challenge_matches_the_challenge_set(count):
    params = ContractParams(challenge_count=count)
    ids = params.challenge_ids()
    for cid in [*ids, *BOGUS_CHALLENGE_IDS, f"ch-{count:03d}", f"ch-{count - 1:04d}",
                f"ch-{count - 1:03d}\n", f" ch-{count - 1:03d}", f"cx-{count - 1:03d}"]:
        assert params.is_challenge(cid) == (cid in ids), cid


@pytest.mark.parametrize(
    "cid, accepted",
    [
        ("ch-000", True),
        ("ch-1099511627775", True),  # the last of 2^40
        ("ch-1099511627776", False),
        ("ch-001099511627775", False),  # leading zeros past three digits
        ("ch-" + "9" * 20, False),
        ("ch-" + "9" * 21, False),
        ("ch-" + "9" * 4301, False),  # int() would raise on these digits
        ("ch-\u0660\u0660\u0661", False),  # Arabic-Indic digits, which int() reads
        ("ch-\u00b2", False),  # a digit to isdigit() that int() refuses
        ("ch-0001", False),
        ("ch--01", False),
        ("ch-+01", False),
    ],
)
def test_is_challenge_builds_no_set(cid, accepted):
    # 2^40 ids would never fit in memory; membership is decided from the id.
    assert ContractParams(challenge_count=2**40).is_challenge(cid) is accepted


# --- content registry -----------------------------------------------------------


def test_register_content_fresh_hash_accepted():
    driver = Driver(make_state())
    receipt, _ = driver.submit(
        TxKind.REGISTER_CONTENT,
        "alice",
        RegisterContent(
            content_id="c-1", media_type=MediaType.BYTES,
            content_hash=hash_bytes(b"item"), embedding=bytes_embedding(),
        ),
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    assert driver.state.contents["c-1"].provider == "alice"


def test_register_same_hash_other_provider_rejected():
    driver = Driver(make_state())
    payload = RegisterContent(
        content_id="c-1", media_type=MediaType.BYTES,
        content_hash=hash_bytes(b"item"), embedding=bytes_embedding(),
    )
    driver.submit(TxKind.REGISTER_CONTENT, "alice", payload)
    receipt, _ = driver.submit(
        TxKind.REGISTER_CONTENT,
        "bob",
        RegisterContent(
            content_id="c-2", media_type=MediaType.BYTES,
            content_hash=hash_bytes(b"item"), embedding=bytes_embedding(3),
        ),
    )
    assert receipt.error_code == "DuplicateContent"


def test_register_wrong_dimension_rejected():
    driver = Driver(make_state())
    receipt, _ = driver.submit(
        TxKind.REGISTER_CONTENT,
        "alice",
        RegisterContent(
            content_id="c-1", media_type=MediaType.IMAGE,
            content_hash=hash_bytes(b"img"),
            embedding=Embedding.from_dense(tuple([1] * 63), MediaType.IMAGE),
        ),
    )
    assert receipt.error_code == "BadEmbeddingDimension"


def test_register_zero_embedding_rejected():
    driver = Driver(make_state())
    receipt, _ = driver.submit(
        TxKind.REGISTER_CONTENT,
        "alice",
        RegisterContent(
            content_id="c-1", media_type=MediaType.BYTES,
            content_hash=hash_bytes(b"zero"), embedding=bytes_embedding(0),
        ),
    )
    assert receipt.error_code == "BadEmbeddingValues"


def per_value_is_valid(e: Embedding) -> bool:
    """``Embedding.is_valid`` as a per-value loop over the dense vector."""
    values = dense(e)
    return len(values) == EMBEDDING_DIMENSIONS[e.media_type] and any(v != 0 for v in values)


@st.composite
def candidate_embeddings(draw):
    """Vectors of each media type, of the right length or one off, filled
    with one value and then a few drawn values at drawn positions."""
    media_type = draw(st.sampled_from(list(MediaType)))
    dim = EMBEDDING_DIMENSIONS[media_type] + draw(st.sampled_from([0, 0, 0, -1, 1]))
    values = [draw(st.sampled_from([0, 0, 1, 65536]))] * dim
    drawn = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
    for i, v in draw(st.lists(st.tuples(st.integers(0, dim - 1), drawn), max_size=4)):
        values[i] = v
    return Embedding.from_dense(tuple(values), media_type)


@example(bytes_embedding(0))
@example(Embedding.from_dense((0,) * 255 + (1,), MediaType.BYTES))
@example(Embedding.from_dense((1,) + (0,) * 255, MediaType.BYTES))
@example(Embedding.from_dense((1,) * 63, MediaType.IMAGE))
@settings(max_examples=5 * settings.default.max_examples)
@given(candidate_embeddings())
def test_embedding_is_valid_matches_the_per_value_loop(e):
    assert e.is_valid() is per_value_is_valid(e)


# --- analysis requests ----------------------------------------------------------


def request_payload(fee=10, blob=b"query"):
    return SubmitAnalysisRequest(
        media_type=MediaType.BYTES,
        content_hash=hash_bytes(blob),
        embedding=bytes_embedding(),
        fee=fee,
    )


def test_request_exact_fee_escrowed():
    driver = Driver(make_state({"alice": 10}))
    receipt, tx = driver.submit(TxKind.SUBMIT_ANALYSIS_REQUEST, "alice", request_payload())
    assert receipt.status is ReceiptStatus.ACCEPTED
    assert driver.state.balances["alice"] == 0
    assert driver.state.balances[ESCROW_ACCOUNT] == 10
    rid = request_id_for(tx)
    assert driver.state.requests[rid].status is RequestStatus.PENDING
    assert len(rid) == 16


def test_request_fee_below_minimum_rejected():
    driver = Driver(make_state())
    receipt, _ = driver.submit(
        TxKind.SUBMIT_ANALYSIS_REQUEST, "alice", request_payload(fee=9)
    )
    assert receipt.error_code == "InsufficientFee"


def test_identical_submissions_get_distinct_ids():
    driver = Driver(make_state())
    _, tx1 = driver.submit(TxKind.SUBMIT_ANALYSIS_REQUEST, "alice", request_payload())
    _, tx2 = driver.submit(TxKind.SUBMIT_ANALYSIS_REQUEST, "alice", request_payload())
    assert request_id_for(tx1) != request_id_for(tx2)
    assert len(driver.state.requests) == 2


# --- commits ---------------------------------------------------------------------


def setup_active_pipeline(driver, register_content_items=1):
    register_algo(driver)
    activate_algo(driver)
    for i in range(register_content_items):
        receipt, _ = driver.submit(
            TxKind.REGISTER_CONTENT,
            "bob",
            RegisterContent(
                content_id=f"c-{i}", media_type=MediaType.BYTES,
                content_hash=hash_bytes(f"item-{i}".encode()),
                embedding=bytes_embedding(i + 2),
            ),
        )
        assert receipt.status is ReceiptStatus.ACCEPTED
    receipt, tx = driver.submit(
        TxKind.SUBMIT_ANALYSIS_REQUEST, "bob", request_payload()
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    return request_id_for(tx)


def test_commit_splits_fee_70_20_10():
    driver = Driver(make_state())
    rid = setup_active_pipeline(driver)
    owner_before = driver.state.balances["alice"]
    proposer_before = driver.state.balance("v1")
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.UNVERIFIED, confidence=0, matched_content=(),
        ),
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    assert driver.state.balances["alice"] == owner_before + 7
    assert driver.state.balance("v1") == proposer_before + 2
    assert driver.state.balances[ESCROW_ACCOUNT] == 0
    assert driver.state.fees_to_owners == 7
    assert driver.state.fees_to_proposers == 2
    assert driver.state.fees_burned == 1
    assert driver.state.conservation_gap() == 0


def test_deepfake_commit_emits_notification_per_match():
    driver = Driver(make_state())
    rid = setup_active_pipeline(driver, register_content_items=2)
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.DEEPFAKE, confidence=NEAR,
            matched_content=(("c-0", NEAR), ("c-1", NEAR - 1000)),
        ),
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    assert len(receipt.events) == 2
    assert {e.content_id for e in receipt.events} == {"c-0", "c-1"}
    assert all(e.provider == "bob" for e in receipt.events)
    assert all(e.request_id == rid for e in receipt.events)


def test_second_commit_rejected():
    driver = Driver(make_state())
    rid = setup_active_pipeline(driver)
    commit = CommitAnalysisResult(
        request_id=rid, algorithm_id="algo-1",
        verdict=Verdict.UNVERIFIED, confidence=0, matched_content=(),
    )
    first, _ = driver.submit(TxKind.COMMIT_ANALYSIS_RESULT, ORACLE, commit)
    second, _ = driver.submit(TxKind.COMMIT_ANALYSIS_RESULT, ORACLE, commit)
    assert first.status is ReceiptStatus.ACCEPTED
    assert second.error_code == "RequestCompleted"


def test_commit_requires_oracle_account():
    driver = Driver(make_state())
    rid = setup_active_pipeline(driver)
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        "alice",
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.UNVERIFIED, confidence=0, matched_content=(),
        ),
    )
    assert receipt.error_code == "UnauthorizedOracle"


def test_commit_requires_active_covering_algorithm():
    driver = Driver(make_state())
    register_algo(driver, media=frozenset({MediaType.IMAGE}))
    activate_algo(driver)
    receipt, tx = driver.submit(
        TxKind.SUBMIT_ANALYSIS_REQUEST, "bob", request_payload()
    )
    rid = request_id_for(tx)
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.UNVERIFIED, confidence=0, matched_content=(),
        ),
    )
    assert receipt.error_code == "AlgorithmNotActive"


def test_commit_result_invariants_enforced():
    driver = Driver(make_state())
    rid = setup_active_pipeline(driver)
    # Authentic requires an exact match at similarity ONE
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.AUTHENTIC, confidence=ONE, matched_content=(),
        ),
    )
    assert receipt.error_code == "BadResult"
    # Unverified must not carry matches
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.UNVERIFIED, confidence=0,
            matched_content=(("c-0", ONE // 2),),
        ),
    )
    assert receipt.error_code == "BadResult"


def test_commit_refused_when_escrow_cannot_pay_the_fee():
    # Transactions are unsigned, so anyone can move @escrow's tokens. A
    # commit whose fee @escrow no longer holds used to fail its debit after
    # the request was marked completed, ending the block in a ValueError.
    driver = Driver(make_state())
    rid = setup_active_pipeline(driver)
    theft, _ = driver.submit(
        TxKind.TRANSFER_TOKENS, ESCROW_ACCOUNT, TransferTokens(recipient="mallory", amount=10)
    )
    assert theft.status is ReceiptStatus.ACCEPTED
    before = driver.state.state_root()
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1",
            verdict=Verdict.UNVERIFIED, confidence=0, matched_content=(),
        ),
    )
    assert receipt.error_code == "InsufficientBalance"
    assert driver.state.state_root() == before


# --- feedback --------------------------------------------------------------------


def completed_request(driver, verdict=Verdict.DEEPFAKE, matches=(("c-0", NEAR),)):
    rid = setup_active_pipeline(driver)
    confidence = NEAR if verdict is Verdict.DEEPFAKE else 0
    receipt, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=rid, algorithm_id="algo-1", verdict=verdict,
            confidence=confidence,
            matched_content=matches if verdict is Verdict.DEEPFAKE else (),
        ),
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    return rid


def test_feedback_true_positive_counts():
    driver = Driver(make_state())
    rid = completed_request(driver, verdict=Verdict.DEEPFAKE)
    receipt, _ = driver.submit(
        TxKind.SUBMIT_FEEDBACK,
        "bob",
        SubmitFeedback(request_id=rid, true_label=Verdict.DEEPFAKE),
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    record = driver.state.algorithms["algo-1"]
    assert (record.tp, record.fp, record.tn, record.fn) == (1, 0, 0, 0)
    assert record.epoch_correct == 1


def test_unverified_counts_as_authentic_prediction():
    driver = Driver(make_state())
    rid = completed_request(driver, verdict=Verdict.UNVERIFIED)
    driver.submit(
        TxKind.SUBMIT_FEEDBACK,
        "bob",
        SubmitFeedback(request_id=rid, true_label=Verdict.DEEPFAKE),
    )
    record = driver.state.algorithms["algo-1"]
    assert (record.tp, record.fp, record.tn, record.fn) == (0, 0, 0, 1)


def test_duplicate_feedback_rejected():
    driver = Driver(make_state())
    rid = completed_request(driver)
    fb = SubmitFeedback(request_id=rid, true_label=Verdict.DEEPFAKE)
    first, _ = driver.submit(TxKind.SUBMIT_FEEDBACK, "bob", fb)
    second, _ = driver.submit(TxKind.SUBMIT_FEEDBACK, "bob", fb)
    assert first.status is ReceiptStatus.ACCEPTED
    assert second.error_code == "DuplicateFeedback"


def test_feedback_from_non_submitter_rejected():
    driver = Driver(make_state())
    rid = completed_request(driver)
    receipt, _ = driver.submit(
        TxKind.SUBMIT_FEEDBACK,
        "alice",
        SubmitFeedback(request_id=rid, true_label=Verdict.DEEPFAKE),
    )
    assert receipt.error_code == "NotSubmitter"


def _label_fifty_deepfakes(correct: int) -> Driver:
    """An active algorithm's 50 Deepfake results, labelled by feedback, the
    first ``correct`` of them right."""
    params = ContractParams(oracle_account=ORACLE, feedback_window=50)
    driver = Driver(make_state({"alice": 500, "bob": 20000}, params=params))
    register_algo(driver)
    activate_algo(driver)
    driver.submit(
        TxKind.REGISTER_CONTENT,
        "bob",
        RegisterContent(
            content_id="c-0", media_type=MediaType.BYTES,
            content_hash=hash_bytes(b"item-0"), embedding=bytes_embedding(4),
        ),
    )
    for i in range(50):
        receipt, tx = driver.submit(
            TxKind.SUBMIT_ANALYSIS_REQUEST, "bob", request_payload(blob=f"q{i}".encode())
        )
        rid = request_id_for(tx)
        commit, _ = driver.submit(
            TxKind.COMMIT_ANALYSIS_RESULT,
            ORACLE,
            CommitAnalysisResult(
                request_id=rid, algorithm_id="algo-1",
                verdict=Verdict.DEEPFAKE, confidence=NEAR,
                matched_content=(("c-0", NEAR),),
            ),
        )
        assert commit.status is ReceiptStatus.ACCEPTED
        truth = Verdict.DEEPFAKE if i < correct else Verdict.AUTHENTIC
        fb, _ = driver.submit(
            TxKind.SUBMIT_FEEDBACK, "bob", SubmitFeedback(request_id=rid, true_label=truth)
        )
        assert fb.status is ReceiptStatus.ACCEPTED
    return driver


def test_accuracy_at_exactly_the_minimum_keeps_the_algorithm():
    # 25 of 50 is exactly feedback_min_pct (50): not below it.
    record = _label_fifty_deepfakes(25).state.algorithms["algo-1"]
    assert (record.tp, record.fp) == (25, 25)
    assert record.status is AlgorithmStatus.ACTIVE


def test_low_accuracy_after_window_deprecates():
    # 50 feedbacks, 24 correct -> accuracy 48% < 50% -> Deprecated + burn
    driver = _label_fifty_deepfakes(24)
    record = driver.state.algorithms["algo-1"]
    assert (record.tp, record.fp) == (24, 26)
    assert record.status is AlgorithmStatus.DEPRECATED
    assert record.stake == 0
    assert driver.state.stake_burned == 50
    assert driver.state.conservation_gap() == 0
    # No later commit can name the deprecated algorithm.
    _, tx = driver.submit(
        TxKind.SUBMIT_ANALYSIS_REQUEST, "bob", request_payload(blob=b"after-burn")
    )
    commit, _ = driver.submit(
        TxKind.COMMIT_ANALYSIS_RESULT,
        ORACLE,
        CommitAnalysisResult(
            request_id=request_id_for(tx), algorithm_id="algo-1",
            verdict=Verdict.DEEPFAKE, confidence=NEAR, matched_content=(("c-0", NEAR),),
        ),
    )
    assert commit.error_code == "AlgorithmNotActive"
    assert driver.state.conservation_gap() == 0


# --- transfers -------------------------------------------------------------------


def test_transfer_whole_balance():
    driver = Driver(make_state({"A": 50, "B": 0}))
    receipt, _ = driver.submit(
        TxKind.TRANSFER_TOKENS, "A", TransferTokens(recipient="B", amount=50)
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    assert driver.state.balances["A"] == 0
    assert driver.state.balances["B"] == 50


def test_transfer_overdraft_rejected_state_unchanged():
    driver = Driver(make_state({"A": 49, "B": 0}))
    before = driver.state.state_root()
    receipt, _ = driver.submit(
        TxKind.TRANSFER_TOKENS, "A", TransferTokens(recipient="B", amount=50)
    )
    assert receipt.error_code == "InsufficientBalance"
    assert driver.state.state_root() == before


def test_transfer_zero_rejected():
    driver = Driver(make_state())
    receipt, _ = driver.submit(
        TxKind.TRANSFER_TOKENS, "alice", TransferTokens(recipient="bob", amount=0)
    )
    assert receipt.error_code == "BadAmount"


# --- one case per rejection code ------------------------------------------------
#
# Keyed by the rejection code, and after a hyphen what the case varies where
# a code has more than one. Each case names a stage the state is driven to
# and a builder of the transaction to refuse: (kind, sender, payload), or
# with a nonce after them, the next nonce of the sender otherwise. A stage
# returns the id of its request: "pending" submits one that algo-1 (Active,
# Bytes) can serve, and "completed" also commits a Deepfake result for it,
# matching c-0.


def _registered(driver):
    register_algo(driver)


STAGES = {
    "fresh": lambda driver: None,
    "registered": _registered,
    "pending": setup_active_pipeline,
    "completed": completed_request,
}


def _register(algorithm_id="algo-2", stake=100, detector="near-duplicate"):
    payload = RegisterAlgorithm(
        algorithm_id=algorithm_id, media_types=frozenset({MediaType.BYTES}),
        detector_kind=detector, stake=stake,
    )
    return TxKind.REGISTER_ALGORITHM, "alice", payload


def _challenge(algorithm_id="algo-1", challenge_id="ch-000"):
    payload = SubmitChallengeResult(
        algorithm_id=algorithm_id, challenge_id=challenge_id,
        predicted_label=Verdict.DEEPFAKE, true_label=Verdict.DEEPFAKE,
    )
    return TxKind.SUBMIT_CHALLENGE_RESULT, "alice", payload


def _content(content_id="c-9", embedding=None):
    payload = RegisterContent(
        content_id=content_id, media_type=MediaType.BYTES,
        content_hash=hash_bytes(b"item-9"),
        embedding=bytes_embedding() if embedding is None else embedding,
    )
    return TxKind.REGISTER_CONTENT, "bob", payload


def _commit(rid, algorithm_id="algo-1", confidence=NEAR, matches=(("c-0", NEAR),),
            sender=ORACLE):
    payload = CommitAnalysisResult(
        request_id=rid, algorithm_id=algorithm_id, verdict=Verdict.DEEPFAKE,
        confidence=confidence, matched_content=matches,
    )
    return TxKind.COMMIT_ANALYSIS_RESULT, sender, payload


def _feedback(rid, sender="bob", label=Verdict.DEEPFAKE):
    return TxKind.SUBMIT_FEEDBACK, sender, SubmitFeedback(request_id=rid, true_label=label)


def _transfer(amount):
    return TxKind.TRANSFER_TOKENS, "alice", TransferTokens(recipient="bob", amount=amount)


def _second_challenge(driver, rid):
    driver.submit(*_challenge())
    return _challenge()


def _second_feedback(driver, rid):
    driver.submit(*_feedback(rid))
    return _feedback(rid)


def _duplicate_request(driver, rid):
    # A request's id is a hash of its transaction, nonce included, so a
    # transaction meets its own id only in a request the state already
    # holds, such as a genesis request.
    state = driver.state
    kind, sender, payload = TxKind.SUBMIT_ANALYSIS_REQUEST, "alice", request_payload()
    tx = Transaction(kind=kind, sender=sender, payload=payload, nonce=state.nonces[sender] + 1)
    state.requests[request_id_for(tx)] = state.requests[rid]
    return kind, sender, payload


REJECTIONS = {
    "BadNonce": ("pending", lambda d, rid: (*_transfer(1), 0)),
    # The nonce alice's last accepted transaction carried, sent again.
    "BadNonce-repeated": ("pending", lambda d, rid: (*_transfer(1), d.state.nonces["alice"])),
    "UnknownKind": ("fresh", lambda d, rid: (TxKind.REGISTER_ALGORITHM, *_transfer(1)[1:])),
    "DuplicateAlgorithm": ("registered", lambda d, rid: _register("algo-1")),
    "InsufficientStake": ("fresh", lambda d, rid: _register(stake=99)),
    "InsufficientBalance": ("fresh", lambda d, rid: _transfer(501)),
    "UnknownDetector": ("fresh", lambda d, rid: _register(detector="no-such-kind")),
    "NotPending": ("pending", lambda d, rid: _challenge()),
    "DuplicateChallenge": ("registered", _second_challenge),
    "UnknownChallenge": ("registered", lambda d, rid: _challenge(challenge_id="ch-020")),
    "UnknownAlgorithm": ("fresh", lambda d, rid: _challenge()),
    "DuplicateContent": ("pending", lambda d, rid: _content("c-0")),
    "BadEmbeddingDimension": (
        "fresh",
        lambda d, rid: _content(embedding=Embedding.from_dense((1,) * 255, MediaType.BYTES)),
    ),
    "BadEmbeddingValues": ("fresh", lambda d, rid: _content(embedding=bytes_embedding(0))),
    "InsufficientFee": (
        "fresh", lambda d, rid: (TxKind.SUBMIT_ANALYSIS_REQUEST, "alice", request_payload(fee=9))
    ),
    "DuplicateRequest": ("pending", _duplicate_request),
    "UnknownRequest": ("pending", lambda d, rid: _commit("no-such-request")),
    "RequestCompleted": ("completed", lambda d, rid: _commit(rid)),
    "RequestNotCompleted": ("pending", lambda d, rid: _feedback(rid)),
    "AlgorithmNotActive": ("pending", lambda d, rid: _commit(rid, algorithm_id="algo-2")),
    "UnauthorizedOracle": ("pending", lambda d, rid: _commit(rid, sender="alice")),
    "BadResult-confidence": ("pending", lambda d, rid: _commit(rid, confidence=ONE + 1)),
    "BadResult-similarity": (
        "pending", lambda d, rid: _commit(rid, matches=(("c-0", ONE + 1),))
    ),
    "DuplicateFeedback": ("completed", _second_feedback),
    "NotSubmitter": ("completed", lambda d, rid: _feedback(rid, sender="alice")),
    "BadLabel": ("completed", lambda d, rid: _feedback(rid, label=Verdict.UNVERIFIED)),
    "BadAmount": ("fresh", lambda d, rid: _transfer(0)),
}


def test_rejection_table_has_a_case_for_every_code():
    codes = {value for name, value in vars(errors).items() if name.isupper()}
    assert {case.partition("-")[0] for case in REJECTIONS} == codes


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_every_rejection_code_is_reached_and_state_neutral(case):
    code = case.partition("-")[0]
    stage, build = REJECTIONS[case]
    driver = Driver(make_state())
    rid = STAGES[stage](driver)
    kind, sender, payload, *nonce = build(driver, rid)
    state = driver.state
    nonce = nonce[0] if nonce else state.nonces.get(sender, -1) + 1
    tx = Transaction(kind=kind, sender=sender, payload=payload, nonce=nonce)
    before = state.state_root()
    receipt = execute_transaction(state, tx, ExecContext(1, "v1", 0, transaction_hash(tx)))
    assert (receipt.status, receipt.error_code) == (ReceiptStatus.REJECTED, code)
    assert state.state_root() == before


# --- epoch rewards ---------------------------------------------------------------


def reward_state(scores: dict[str, int], pool=100) -> NetworkState:
    params = ContractParams(epoch_reward_pool=pool, epoch_length=10)
    state = NetworkState(params=params, validators={"v1": 1}, initial_supply=1)
    for aid, score in scores.items():
        state.algorithms[aid] = AlgorithmRecord(
            algorithm_id=aid, owner=f"owner-{aid}",
            media_types=frozenset({MediaType.BYTES}),
            detector_kind="near-duplicate", status=AlgorithmStatus.ACTIVE,
            stake=100, registered_at=0, epoch_correct=score,
        )
    return state


def test_rewards_proportional():
    state = reward_state({"A": 3, "B": 1})
    gap = state.conservation_gap()
    dist = distribute_epoch_rewards(state, 10)
    assert dict(dist) == {"owner-A": 75, "owner-B": 25}
    assert state.rewards_minted == 100
    assert state.conservation_gap() == gap  # what is credited is counted minted


def test_rewards_remainder_to_lexicographic_winner():
    state = reward_state({"A": 1, "B": 1, "C": 1})
    dist = distribute_epoch_rewards(state, 10)
    assert dict(dist) == {"owner-A": 34, "owner-B": 33, "owner-C": 33}
    assert sum(amount for _, amount in dist) == 100


def test_rewards_remainder_to_the_highest_score():
    # 100 split 1:2 floors to 33 and 66; the remainder goes to B, whose
    # score is higher, not to A, whose id is smaller.
    state = reward_state({"A": 1, "B": 2})
    assert dict(distribute_epoch_rewards(state, 10)) == {"owner-A": 33, "owner-B": 67}


def test_rewards_no_active_algorithms():
    state = reward_state({})
    assert distribute_epoch_rewards(state, 10) == []
    assert state.rewards_minted == 0


def test_rewards_zero_scores_mint_nothing_but_reset():
    state = reward_state({"A": 0})
    assert distribute_epoch_rewards(state, 10) == []
    assert state.algorithms["A"].epoch_correct == 0
    assert state.rewards_minted == 0


def test_rewards_require_epoch_boundary():
    state = reward_state({"A": 1})
    with pytest.raises(ValueError):
        distribute_epoch_rewards(state, 7)


@given(
    scores=st.dictionaries(
        st.sampled_from(["A", "B", "C", "D"]), st.integers(0, 50), min_size=1
    ),
    pool=st.integers(1, 500),
)
def test_rewards_match_bruteforce(scores, pool):
    state = reward_state(scores, pool=pool)
    dist = dict(distribute_epoch_rewards(state, 10))

    total = sum(scores.values())
    expected: dict[str, int] = {}
    if total > 0:
        floors = {aid: pool * s // total for aid, s in scores.items()}
        rest = pool - sum(floors.values())
        if rest:
            floors[min(scores, key=lambda aid: (-scores[aid], aid))] += rest
        expected = {f"owner-{aid}": v for aid, v in floors.items() if v}
        assert sum(floors.values()) == pool
    assert dist == expected


# --- stream-level properties -------------------------------------------------


def scan_lifecycle(status_log):
    legal = {
        ("Pending", "Pending"),
        ("Pending", "Active"),
        ("Pending", "Deprecated"),
        ("Active", "Active"),
        ("Active", "Deprecated"),
        ("Deprecated", "Deprecated"),
    }
    for prev, cur in zip(status_log, status_log[1:]):
        for aid in prev.keys() & cur.keys():
            assert (prev[aid], cur[aid]) in legal, (aid, prev[aid], cur[aid])


def test_fuzzed_blocks_conserve_tokens_and_match_naive():
    accepted = Counter()
    rewards_minted = 0
    for seed in range(4):
        rng = SplitMix64(1000 + seed)
        state = build_fuzz_state(rng)
        stream = FuzzStream(seed=2000 + seed)
        genesis_state = state.clone()
        _, state = init_chain(state)
        blocks = []
        status_log = []
        for _ in range(60):
            txs = [stream.next_tx(state) for _ in range(rng.randrange(4) + 1)]
            block, state, receipts = seal_block(state, txs, timestamp=state.tip_height + 1)
            accepted.update(
                tx.kind for tx, r in zip(txs, receipts) if r.status is ReceiptStatus.ACCEPTED
            )
            blocks.append((block.height, block.proposer, list(block.transactions)))
            assert state.conservation_gap() == 0
            assert all(v >= 0 for v in state.balances.values())
            status_log.append(
                {aid: rec.status.value for aid, rec in state.algorithms.items()}
            )
        scan_lifecycle(status_log)

        naive_balances, naive_escrow = naive_run(
            genesis_state.params,
            genesis_state.validators,
            genesis_state.balances,
            set(genesis_state.detectors),
            blocks,
        )
        real = dict(state.balances)
        escrow = real.pop(ESCROW_ACCOUNT, 0)
        assert escrow == naive_escrow
        for acct in set(real) | set(naive_balances):
            assert real.get(acct, 0) == naive_balances.get(acct, 0), acct
        rewards_minted += state.rewards_minted
    # The streams reach the whole request lifecycle, not just registrations.
    assert accepted[TxKind.COMMIT_ANALYSIS_RESULT] > 0
    assert accepted[TxKind.SUBMIT_FEEDBACK] > 0
    assert rewards_minted > 0
