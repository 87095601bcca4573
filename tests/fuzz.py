"""Seeded fuzz harness: random mixed-validity transaction streams.

Used by the contracts tests and the acceptance suite for conservation,
lifecycle, and state-neutrality checks. Everything derives from a
SplitMix64 stream, so a failing seed reproduces exactly.
"""

from veriledger.codec import Hash256, hash_bytes
from veriledger.core import (
    AlgorithmStatus,
    CommitAnalysisResult,
    ContractParams,
    Embedding,
    MediaType,
    NetworkState,
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
from veriledger.rng import SplitMix64
from veriledger.sim import BUILTIN_DETECTORS

from conftest import random_bytes

ACCOUNTS = ["alice", "bob", "carol", "dave", "erin"]
VALIDATORS = {"v1": 50, "v2": 150}
ORACLE = "oracle-acct"

FUZZ_PARAMS = ContractParams(
    min_stake=40,
    min_fee=5,
    challenge_count=6,
    feedback_window=8,
    epoch_length=7,
    epoch_reward_pool=33,
    oracle_account=ORACLE,
)


def build_fuzz_state(rng: SplitMix64) -> NetworkState:
    balances = {acct: 100 + rng.randrange(400) for acct in ACCOUNTS}
    state = NetworkState(
        params=FUZZ_PARAMS,
        validators=dict(VALIDATORS),
        balances=balances,
        detectors=dict(BUILTIN_DETECTORS),
        initial_supply=sum(balances.values()) + sum(VALIDATORS.values()),
    )
    return state


def _rand_embedding(rng: SplitMix64, media_type: MediaType) -> Embedding:
    from veriledger.core import EMBEDDING_DIMENSIONS

    dim = EMBEDDING_DIMENSIONS[media_type]
    values = tuple((1 + rng.randrange(1000)) / 1000 for _ in range(dim))
    return Embedding(values=values, media_type=media_type)


def _choice(rng: SplitMix64, seq):
    return seq[rng.randrange(len(seq))]


def _rand_hash(rng: SplitMix64) -> Hash256:
    return hash_bytes(random_bytes(rng, 16))


class FuzzStream:
    """Generates transactions against a live state, valid and invalid mixed."""

    def __init__(self, seed: int):
        self.rng = SplitMix64(seed)
        self.nonces: dict[str, int] = {}
        self.algo_counter = 0
        self.content_counter = 0

    def _nonce(self, sender: str) -> int:
        nonce = self.nonces.get(sender, -1) + 1
        self.nonces[sender] = nonce
        return nonce

    def _tx(self, kind: TxKind, sender: str, payload) -> Transaction:
        return Transaction(
            kind=kind, sender=sender, payload=payload, nonce=self._nonce(sender)
        )

    def _account(self) -> str:
        return _choice(self.rng, ACCOUNTS)

    def next_tx(self, state: NetworkState) -> Transaction:
        rng = self.rng
        roll = rng.randrange(100)
        if roll < 15:
            return self._transfer(rng)
        if roll < 27:
            return self._register_algorithm(rng)
        if roll < 55:
            return self._challenge(rng, state)
        if roll < 63:
            return self._register_content(rng)
        if roll < 76:
            return self._request(rng)
        if roll < 90:
            return self._commit(rng, state)
        return self._feedback(rng, state)

    def _transfer(self, rng) -> Transaction:
        amount = rng.randrange(200)  # 0 triggers BadAmount sometimes
        return self._tx(
            TxKind.TRANSFER_TOKENS,
            self._account(),
            TransferTokens(recipient=self._account(), amount=amount),
        )

    def _register_algorithm(self, rng) -> Transaction:
        if rng.randrange(4) == 0 and self.algo_counter:
            algo_id = f"fz-algo-{rng.randrange(self.algo_counter):03d}"  # duplicate
        else:
            algo_id = f"fz-algo-{self.algo_counter:03d}"
            self.algo_counter += 1
        detector = _choice(rng, ["near-duplicate", "exact-hash", "no-such-kind"])
        stake = rng.randrange(150)  # often below min stake or balance
        return self._tx(
            TxKind.REGISTER_ALGORITHM,
            self._account(),
            RegisterAlgorithm(
                algorithm_id=algo_id,
                media_types=frozenset({MediaType.BYTES}),
                detector_kind=detector,
                stake=stake,
            ),
        )

    def _challenge(self, rng, state: NetworkState) -> Transaction:
        ids = list(FUZZ_PARAMS.challenge_ids())
        pending = sorted(
            aid
            for aid, rec in state.algorithms.items()
            if rec.status is AlgorithmStatus.PENDING
        )
        truth = Verdict.DEEPFAKE if rng.randrange(2) else Verdict.AUTHENTIC
        if pending and rng.randrange(8):
            # Mostly right answers to the first pending algorithm's next open
            # challenge, so algorithms activate and commits, feedback and
            # epoch rewards get exercised too.
            record = state.algorithms[pending[0]]
            algo_id = record.algorithm_id
            challenge_id = min(set(ids) - record.challenges_submitted)
            correct = rng.randrange(8) > 0
        else:
            if state.algorithms and rng.randrange(5) > 0:
                algo_id = _choice(rng, sorted(state.algorithms))
            else:
                algo_id = "fz-algo-missing"
            challenge_id = _choice(rng, ids + ["ch-bogus"])
            correct = rng.randrange(3) > 0
        predicted = truth if correct else (
            Verdict.AUTHENTIC if truth is Verdict.DEEPFAKE else Verdict.DEEPFAKE
        )
        return self._tx(
            TxKind.SUBMIT_CHALLENGE_RESULT,
            self._account(),
            SubmitChallengeResult(
                algorithm_id=algo_id,
                challenge_id=challenge_id,
                predicted_label=predicted,
                true_label=truth,
            ),
        )

    def _register_content(self, rng) -> Transaction:
        content_id = f"fz-content-{self.content_counter:03d}"
        self.content_counter += 1
        if rng.randrange(6) == 0:
            embedding = Embedding(
                values=tuple([0.5] * 63), media_type=MediaType.BYTES
            )  # wrong dimension
        else:
            embedding = _rand_embedding(rng, MediaType.BYTES)
        return self._tx(
            TxKind.REGISTER_CONTENT,
            self._account(),
            RegisterContent(
                content_id=content_id,
                media_type=MediaType.BYTES,
                content_hash=_rand_hash(rng),
                embedding=embedding,
                metadata={},
            ),
        )

    def _request(self, rng) -> Transaction:
        fee = rng.randrange(20)  # sometimes below the minimum
        return self._tx(
            TxKind.SUBMIT_ANALYSIS_REQUEST,
            self._account(),
            SubmitAnalysisRequest(
                media_type=MediaType.BYTES,
                content_hash=_rand_hash(rng),
                embedding=_rand_embedding(rng, MediaType.BYTES),
                fee=fee,
            ),
        )

    def _commit(self, rng, state: NetworkState) -> Transaction:
        pending = sorted(
            rid
            for rid, req in state.requests.items()
            if req.status is RequestStatus.PENDING
        )
        request_id = _choice(rng, pending) if pending and rng.randrange(4) else "deadbeef00000000"
        active = sorted(
            aid
            for aid, rec in state.algorithms.items()
            if rec.status.value == "Active"
        )
        algo_id = _choice(rng, active) if active and rng.randrange(5) else "fz-algo-missing"
        sender = ORACLE if rng.randrange(4) else self._account()
        verdict = _choice(rng, [Verdict.DEEPFAKE, Verdict.UNVERIFIED])
        matched = ()
        confidence = 0.0
        if verdict is Verdict.DEEPFAKE:
            if state.contents and rng.randrange(4):
                cid = _choice(rng, sorted(state.contents))
                confidence = 0.97
                matched = ((cid, 0.97),)
            else:
                matched = (("fz-content-missing", 0.97),)
                confidence = 0.97
        return self._tx(
            TxKind.COMMIT_ANALYSIS_RESULT,
            sender,
            CommitAnalysisResult(
                request_id=request_id,
                algorithm_id=algo_id,
                verdict=verdict,
                confidence=confidence,
                matched_content=matched,
            ),
        )

    def _feedback(self, rng, state: NetworkState) -> Transaction:
        completed = sorted(
            rid
            for rid, req in state.requests.items()
            if req.status is RequestStatus.COMPLETED
        )
        request_id = _choice(rng, completed) if completed and rng.randrange(4) else "deadbeef00000000"
        if request_id in state.requests and rng.randrange(3):
            sender = state.requests[request_id].submitter
        else:
            sender = self._account()
        truth = Verdict.DEEPFAKE if rng.randrange(2) else Verdict.AUTHENTIC
        return self._tx(
            TxKind.SUBMIT_FEEDBACK,
            sender,
            SubmitFeedback(request_id=request_id, true_label=truth),
        )
