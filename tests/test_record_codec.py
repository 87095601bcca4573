"""Known answers for the record codecs derived from dataclass fields.

Each record below is built by hand and pinned twice: the SHA-256 of its
canonical binary encoding (``core.encode_record``) and the SHA-256 of its
canonical JSON rendering (``store.record_to_json``), the form ``inspect``
prints. Each also goes through the chain file's decoders
(``store._DECODERS``) and back. The digests were
computed with the hand-written per-record codecs that the derived ones
replaced, so they pin the formats, not the code. ``AnalysisRequest``'s pair
was pinned again when the record came to hold its embedding's hash
(``hash_embedding``) in place of the embedding; both were checked against
encodings built by hand from the codec rules. The JSON digests of the
three records that hold an embedding were pinned again when chain format
"v3" packed each embedding into one base64 token; their tokens were checked
against ones built by hand from the layout. The binary digests of those
three records and of ``AnalysisRequest`` (with its JSON digest) were pinned
again when the hashed encoding of an embedding became the sparse layout;
each was checked against bytes built by hand from the layout, as
``test_embedding_encoding_known_answer`` spells out. The golden chain carries
no ``TransferTokens`` and no state record with feedback counters, so these
are the only tests that fix those encodings.
"""

import base64
import dataclasses
import math
import struct
import sys
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import example, given, strategies as st

from veriledger.codec import TX_TAG, enc_bytes, enc_f64_sparse, enc_str, enc_u64, hash_bytes
from veriledger.core import (
    EMBEDDING_DIMENSIONS,
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
    encode_embedding,
    encode_record,
    encode_transaction,
    hash_embedding,
)
from veriledger.detection import similarity
from veriledger.errors import SerializationError
from veriledger.store import _dec_embedding, canonical_json, record_to_json

from chainfile import record_copy, transaction_copy

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
        "edacdf619b2134fd50f69a0c23b13ad702526e77b76b03022b20fa2775a7df6f",
        "6c87ea72d3232af98ad42cd9757d376d93e6164ed4149befca34b7276032a443",
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
        "2dbe5dbf622fec5f695ec41867b17a53207c4d0098201116dedbca2766879e24",
        "622a76e828faaca9adb9e304bf9bbb6c9de47ada74b8bc4dd148026a92efb92e",
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
        "1aa5a10427f664392baa6fc789bd911a82af41babf34b8b15ae93a61ec4b1f97",
        "0f1e16625cf4d7ce17ea681cb5b28e8d9775c1b0c9b9158a9b116a321216a8eb",
    ),
    "SubmitAnalysisRequest": (
        "ff43f16f0ec00d77bc73e9b258dd80b7be7c0dd36321ea6f4a661de144e57c71",
        "201f8bbec28d4924c1164ebb6e567753f58fa9ca530346ed3651664577caaed1",
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
    # Through the chain file and back: the same record, so the same hashed
    # bytes and the same printed JSON.
    record = RECORDS[name]
    restored = record_copy(record)
    assert restored == record
    assert encode_record(restored) == encode_record(record)
    assert record_to_json(restored) == record_to_json(record)


def test_embedding_encoding_known_answer():
    # The media type as a string, then the sparse layout: n = 4; bitmap
    # 0111 0000 (values 1 to 3); then 0.5, 1.25 and 3e-07 as big-endian
    # binary64. The +0.0 at index 0 is not stored.
    assert encode_embedding(AUDIO) == bytes.fromhex(
        "00000005" "417564696f" "00000004" "70"
        "3fe0000000000000" "3ff4000000000000" "3e9421f5f40d8376"
    )


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
    decoded = transaction_copy(tx)
    assert decoded == tx and decoded._encoding is None
    assert encode_transaction(decoded) == encoded
    assert decoded._encoding == encoded


# --- the embedding token ------------------------------------------------------


def to_token(values) -> str:
    record = SubmitAnalysisRequest(
        MediaType.BYTES, CONTENT_HASH, Embedding(tuple(values), MediaType.BYTES), 1
    )
    return record_to_json(record)["embedding"]


def from_token(token: str) -> tuple[float, ...]:
    """The values the chain file's embedding decoder reads from the bytes
    of ``token``."""
    data = enc_str(MediaType.BYTES.value) + base64.b64decode(token)
    embedding, end = _dec_embedding(data, 0)
    assert end == len(data)
    return embedding.values


def stored(x: float) -> bool:
    """A value the bitmap marks: its binary64 bits are not all zero."""
    return x != 0.0 or math.copysign(1.0, x) < 0.0


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 3, 2.0**-1022 - 2.0**-1074,
    2.0**-1022, sys.float_info.max, -sys.float_info.max, 1.0,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def test_embedding_token_known_answer():
    # n = 10; bitmap 0110 0000 0100 0000 (values 1, 2 and 9); then 0.5,
    # -0.0 and 5e-324 as big-endian binary64.
    values = (0.0, 0.5, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-324)
    raw = bytes.fromhex(
        "0000000a" "6040" "3fe0000000000000" "8000000000000000" "0000000000000001"
    )
    token = "AAAACmBAP+AAAAAAAACAAAAAAAAAAAAAAAAAAAAB"
    assert base64.b64decode(token) == raw
    assert to_token(values) == token
    assert [x.hex() for x in from_token(token)] == [x.hex() for x in values]


@given(
    st.one_of(
        st.lists(FLOATS, max_size=300),
        st.lists(st.just(0.0), max_size=300),
        st.lists(FLOATS.filter(stored), max_size=300),
    )
)
@example([])
@example([0.0] * 13)
@example([-0.0] * 9)
@example(EDGE_FLOATS * 30)
def test_embedding_token_round_trip_is_bit_exact(values):
    token = to_token(values)
    assert len(base64.b64decode(token)) == 4 + (len(values) + 7) // 8 + 8 * sum(map(stored, values))
    decoded = from_token(token)
    assert all(type(x) is float for x in decoded)
    assert [x.hex() for x in decoded] == [float(x).hex() for x in values]


def test_huge_embedding_count_is_refused_before_allocating():
    # 2^32 - 1 values claimed, 4 bytes given: refused without building
    # anything the size of the claim.
    token = base64.b64encode(b"\xff" * 8).decode("ascii")
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError, match="4294967295 values exceed the 4 bytes"):
            from_token(token)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# --- the embedding encoding cache ---------------------------------------------


@st.composite
def embeddings_of_any_length(draw):
    """Vectors of each media type, of its dimension, one off or any length
    up to 300, with NaN, infinities, signed zeros and subnormals among the
    values."""
    media_type = draw(st.sampled_from(list(MediaType)))
    dim = EMBEDDING_DIMENSIONS[media_type]
    size = draw(st.one_of(st.sampled_from([dim - 1, dim, dim + 1]), st.integers(0, 300)))
    value = st.one_of(
        st.sampled_from(EDGE_FLOATS + [math.nan, -math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
    values = draw(st.lists(value, min_size=size, max_size=size))
    return Embedding(values=tuple(values), media_type=media_type)


def sparse_layout(values) -> bytes:
    """The sparse layout, value by value: the count, the bitmap as one bit
    per value padded with 0 bits to whole bytes, then each stored value."""
    bits = "".join("1" if stored(x) else "0" for x in values)
    bits += "0" * (-len(bits) % 8)
    bitmap = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    kept = b"".join(struct.pack(">d", x) for x in values if stored(x))
    return struct.pack(">I", len(values)) + bitmap + kept


@given(embeddings_of_any_length())
def test_filled_embedding_cache_is_a_fresh_pack(e):
    assert e._encoding is None
    encoded = encode_embedding(e)
    assert e._encoding is encoded
    assert encode_embedding(e) is encoded
    assert encoded == enc_str(e.media_type.value) + sparse_layout(e.values)
    assert encoded == enc_str(e.media_type.value) + enc_f64_sparse(e.values)
    assert hash_embedding(e) == hash_bytes(encoded)


@st.composite
def signed_zero_twins(draw):
    """A valid embedding, the same with some of its zeros ``-0.0`` (at least
    one), and a valid embedding of its media type to score both against."""
    media_type = draw(st.sampled_from(list(MediaType)))
    dim = EMBEDDING_DIMENSIONS[media_type]
    index = st.integers(0, dim - 1)
    positive = st.floats(min_value=2.0**-200, max_value=2.0**200)

    def valid():
        values = [0.0] * dim
        for i, v in draw(st.lists(st.tuples(index, positive), min_size=1, max_size=dim - 1)):
            values[i] = v
        return values

    plus, other = valid(), valid()
    minus = list(plus)
    for i in draw(st.lists(index, max_size=dim)) + [plus.index(0.0)]:
        if plus[i] == 0.0:
            minus[i] = -0.0
    return tuple(Embedding(tuple(v), media_type) for v in (plus, minus, other))


@given(signed_zero_twins())
def test_signed_zeros_change_only_the_embedding_hash(twins):
    # -0.0 and +0.0 are equally valid and score alike, but the sign bit is
    # stored, so the hash tells them apart and each decodes as it was.
    plus, minus, other = twins
    assert plus.is_valid() and minus.is_valid() and other.is_valid()
    assert plus.sparse() == minus.sparse()
    assert similarity(plus, other).hex() == similarity(minus, other).hex()
    assert similarity(other, plus).hex() == similarity(other, minus).hex()
    assert hash_embedding(plus) != hash_embedding(minus)
    for e in (plus, minus):
        decoded, end = _dec_embedding(encode_embedding(e), 0)
        assert end == len(encode_embedding(e))
        assert [x.hex() for x in decoded.values] == [x.hex() for x in e.values]
