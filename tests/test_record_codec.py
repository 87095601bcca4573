"""Known answers for the record codecs derived from dataclass fields.

Each record below is built by hand and pinned twice: the SHA-256 of its
canonical binary encoding (``core.encode_record``) and the SHA-256 of its
canonical JSON rendering (``store.record_to_json``). The digests were
computed with the hand-written per-record codecs that the derived ones
replaced, so they pin the formats, not the code. ``AnalysisRequest``'s pair
was pinned again when the record came to hold its embedding's hash
(``hash_embedding``) in place of the embedding; both were checked against
encodings built by hand from the codec rules. The golden chain carries
no ``TransferTokens`` and no state record with feedback counters, so these
are the only tests that fix those encodings.
"""

import dataclasses
import json
from operator import attrgetter

import pytest

from veriledger.codec import TX_TAG, enc_bytes, enc_str, enc_u64, hash_bytes
from veriledger.core import (
    PAYLOAD_TYPES,
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    CommitAnalysisResult,
    ContentRecord,
    ContractParams,
    DetectorSpec,
    Embedding,
    MediaType,
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
    encode_record,
    encode_transaction,
    hash_embedding,
)
from veriledger.store import (
    canonical_json,
    record_from_json,
    record_to_json,
)

CONTENT_HASH = hash_bytes(b"known-answer content")
AUDIO = Embedding(values=(0.0, 0.5, 1.25, 3e-07), media_type=MediaType.AUDIO)
IMAGE = Embedding(values=(0.125, 0.0, 2.0), media_type=MediaType.IMAGE)
MATCHES = (("content-kat", 0.9375), ("content-b", 0.5))

RECORDS = {
    "RegisterAlgorithm": RegisterAlgorithm(
        algorithm_id="algo-kat",
        media_types=frozenset({MediaType.IMAGE, MediaType.BYTES}),
        detector_kind="near-duplicate",
        stake=250,
    ),
    "SubmitChallengeResult": SubmitChallengeResult(
        algorithm_id="algo-kat",
        challenge_id="ch-007",
        predicted_label=Verdict.DEEPFAKE,
        true_label=Verdict.AUTHENTIC,
    ),
    "RegisterContent": RegisterContent(
        content_id="content-kat",
        media_type=MediaType.AUDIO,
        content_hash=CONTENT_HASH,
        embedding=AUDIO,
        metadata={"title": "kat", "lang": "en"},
    ),
    "SubmitAnalysisRequest": SubmitAnalysisRequest(
        media_type=MediaType.IMAGE,
        content_hash=CONTENT_HASH,
        embedding=IMAGE,
        fee=12,
    ),
    "CommitAnalysisResult": CommitAnalysisResult(
        request_id="req-000001",
        algorithm_id="algo-kat",
        verdict=Verdict.DEEPFAKE,
        confidence=0.875,
        matched_content=MATCHES,
    ),
    "SubmitFeedback": SubmitFeedback(
        request_id="req-000001", true_label=Verdict.UNVERIFIED
    ),
    "TransferTokens": TransferTokens(recipient="bob", amount=2**40 + 3),
    "AlgorithmRecord": AlgorithmRecord(
        algorithm_id="algo-kat",
        owner="owner-1",
        media_types=frozenset({MediaType.AUDIO, MediaType.BYTES}),
        detector_kind="near-duplicate",
        status=AlgorithmStatus.ACTIVE,
        stake=250,
        registered_at=3,
        tp=5,
        fp=1,
        tn=7,
        fn=2,
        challenge_passed=17,
        challenges_submitted=frozenset({"ch-002", "ch-000", "ch-011"}),
        epoch_correct=4,
    ),
    "ContentRecord": ContentRecord(
        content_id="content-kat",
        provider="provider-1",
        media_type=MediaType.AUDIO,
        content_hash=CONTENT_HASH,
        embedding=AUDIO,
        metadata={"title": "kat", "lang": "en"},
        registered_at=9,
    ),
    "AnalysisRequest": AnalysisRequest(
        request_id="req-000001",
        submitter="user-1",
        media_type=MediaType.IMAGE,
        content_hash=CONTENT_HASH,
        embedding_hash=hash_embedding(IMAGE),
        fee=12,
        status=RequestStatus.COMPLETED,
        submitted_at=11,
    ),
    "AnalysisResultRecord": AnalysisResultRecord(
        request_id="req-000001",
        algorithm_id="algo-kat",
        verdict=Verdict.DEEPFAKE,
        confidence=0.875,
        matched_content=MATCHES,
        committed_at=13,
    ),
    "ContractParams": ContractParams(),
    "DetectorSpec": DetectorSpec(
        kind="near-duplicate",
        parameters={"tau": 0.9, "bins": 32, "name": "nd", "strict": True},
    ),
}

# name -> (SHA-256 of the binary encoding, SHA-256 of the canonical JSON)
KNOWN_ANSWERS = {
    "AlgorithmRecord": (
        "3817460ef62af73c6356fa617d132b3523f3ff7d8618ff9224c2554bed51e8c9",
        "aa86d97d36cd9a732baf9ed8aa78ce1687cca8162aa33ff7418a6e745c912dd2",
    ),
    "AnalysisRequest": (
        "c527f4890784bd6c4bf9fb57a59a46b3d849f6fcf8bfdc70a666595fa51900ec",
        "7488aade1f3b702bc9538c975607f78a44d6952e4b5c66838d8b2f78c75d7bff",
    ),
    "AnalysisResultRecord": (
        "ff8ca42aeae6fa43f9a6d4e8d7cac913f0f90d8f5b62402931d4b797d790119c",
        "d6ee1729112e83d2e8d2a2b66f8346e7f99675c4d3766acdc85096e8f8f03e15",
    ),
    "CommitAnalysisResult": (
        "05a2cfe1df0f3521a74881c3157148dfdb0769f9f783de8d9d6a33f6a72f20a7",
        "c639b22270e993ca5ae1c7241a7e7a020abd12081ce9170e2b56288e95d24985",
    ),
    "ContentRecord": (
        "a2cd9717a15e425ef389f57f3622ef886b9549ba4460de785d7bf987e0b04407",
        "5933d86f1c7e65f5d600645f49b13a8cce96bf12fa2d222786c372a05c4f1976",
    ),
    "ContractParams": (
        "45189c65704381d2f729a505ac746102d86d693e345b4f6c1ea37c482cff7995",
        "6dcd1a29419169431709fff57bbdeb714272a7c1fdd4ff1f2310e25119c6c0a5",
    ),
    "DetectorSpec": (
        "b921ee58b54cf11b044b430366ae1be4cf49716a1a3c0f0060f06294e8ea3615",
        "c324f6362f21f6466f350dc2cac074e0058884db41fe302c94a3a03c56f95af8",
    ),
    "RegisterAlgorithm": (
        "f8706e49b11ece23dee033b7912f95f916b9852c5dd272ebee131a188cb90eb2",
        "28266ea0fdd44b12eeb2f8547124555c011241961b1910c8ea06d472b8df29af",
    ),
    "RegisterContent": (
        "e17e75ab5ee8d959a94654127321c63cb67bf0e733c4455401abe6b7a1d54e95",
        "d7a8db62740e57c7ca5f8ae5756cd70bcc2f81b26de5f0ed58ec2db6570c6729",
    ),
    "SubmitAnalysisRequest": (
        "725e6aea91f767d79f073e37321696766e25978cc0f925e465d843cb3bbd354e",
        "019ffbb192f0ac217d0ba7c18c9014fc065417dcd43e2d172d20e7cabe85af2d",
    ),
    "SubmitChallengeResult": (
        "a41cb1ce7773fec7483d9b5dfaef7492a2d520bdccc8ab83eef9372948397157",
        "6e3014a4b40ebc785f6f65e6521dad3571308c5087c4eb1ea2bde28277cb9938",
    ),
    "SubmitFeedback": (
        "507825313255870c0eec12962180c02d46f19f14155ceddb2d41d40b64763310",
        "53588806ca5872a41c059f506da3d544b5526865e1d3388446306c18176f0851",
    ),
    "TransferTokens": (
        "5fc4aa73812ca4b58b30f33a3931dd4d80ee7682fcfa3cc2e072b90b41b6183f",
        "40cc561d3a486c9d29c8572a6972662a9cd028317cfbdcf4f254e989b41a943f",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_binary_encoding_known_answer(name):
    assert hash_bytes(encode_record(RECORDS[name])).hex == KNOWN_ANSWERS[name][0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_json_rendering_known_answer(name):
    text = canonical_json(record_to_json(RECORDS[name]))
    assert hash_bytes(text.encode()).hex == KNOWN_ANSWERS[name][1]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_json_round_trip(name):
    record = RECORDS[name]
    doc = json.loads(canonical_json(record_to_json(record)))
    restored = record_from_json(type(record), doc, name)
    assert restored == record
    assert encode_record(restored) == encode_record(record)


# --- the transaction encoding cache ------------------------------------------

PAYLOADS = {kind: RECORDS[cls.__name__] for kind, cls in PAYLOAD_TYPES.items()}


@pytest.mark.parametrize("kind", sorted(PAYLOADS, key=attrgetter("value")))
def test_known_answers_with_filled_transaction_cache(kind):
    tx = Transaction(kind=kind, sender="user-1", payload=PAYLOADS[kind], nonce=7)
    assert tx._encoding is None
    encoded = encode_transaction(tx)
    assert tx._encoding is encoded
    assert encode_transaction(tx) is encoded
    assert encoded == (
        TX_TAG + enc_str(kind.value) + enc_str("user-1") + enc_u64(7)
        + enc_bytes(encode_record(PAYLOADS[kind]))
    )
    name = type(tx.payload).__name__
    assert hash_bytes(encode_record(tx.payload)).hex == KNOWN_ANSWERS[name][0]
    text = canonical_json(record_to_json(tx.payload))
    assert hash_bytes(text.encode()).hex == KNOWN_ANSWERS[name][1]


def test_transaction_cache_is_invisible():
    payload = PAYLOADS[TxKind.TRANSFER_TOKENS]
    tx, twin = (
        Transaction(kind=TxKind.TRANSFER_TOKENS, sender="a", payload=payload, nonce=1)
        for _ in range(2)
    )
    before = repr(tx)
    encode_transaction(tx)
    assert twin._encoding is None
    assert tx == twin and hash(tx) == hash(twin)
    assert repr(tx) == before and "_encoding" not in repr(tx)
    replaced = dataclasses.replace(tx, nonce=2)
    assert replaced._encoding is None
    assert encode_transaction(replaced) != encode_transaction(tx)
    assert dataclasses.replace(tx)._encoding is None


@pytest.mark.parametrize("kind", sorted(PAYLOADS, key=attrgetter("value")))
def test_decoded_transaction_fills_the_same_bytes(kind):
    tx = Transaction(kind=kind, sender="user-1", payload=PAYLOADS[kind], nonce=7)
    encoded = encode_transaction(tx)
    doc = json.loads(canonical_json(record_to_json(tx)))
    decoded = record_from_json(Transaction, doc, "transaction")
    assert decoded == tx and decoded._encoding is None
    assert encode_transaction(decoded) == encoded
    assert decoded._encoding == encoded
