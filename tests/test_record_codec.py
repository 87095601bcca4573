"""Known answers for the record codecs derived from dataclass fields.

Each record below is built by hand and pinned twice: the SHA-256 of its
canonical binary encoding (``core.encode_record``) and the SHA-256 of its
canonical JSON rendering (``store.record_to_json``), the form ``inspect``
prints. Each also goes through the chain file's decoders
(``core.FIELD_CODECS``) and back. The digests were
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
are the only tests that fix those encodings. No golden or workload genesis
holds a result either, so ``test_state_encoding_known_answer`` is the only
test that fixes a whole stored state's encoding with every field filled; its
digest was pinned with the hand-written state encoder that the derived one
replaced. ``AnalysisResultRecord``'s pair and the state's digest were pinned
again when a result came to hold ``labelled`` and the state lost its set of
labelled request ids and its minted and burned totals: each new encoding was
checked to be the old one with a bool byte after each result and without
that set and those two u64 fields, and the new JSON to be the old one with
a ``labelled`` key.
"""

import base64
import dataclasses
import math
import struct
import tracemalloc
from operator import attrgetter

import pytest
from hypothesis import example, given, strategies as st

from veriledger.codec import (
    DECODE_ERRORS,
    TX_TAG,
    Hash256,
    enc_bytes,
    enc_u32_bitmap,
    enc_str,
    enc_u32,
    enc_u64,
    exactly,
    hash_bytes,
)
from veriledger.core import (
    EMBEDDING_DIMENSIONS,
    FIELD_CODECS,
    PAYLOAD_TYPES,
    STATE_SCHEMA,
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
    encode_state,
    encode_transaction,
    hash_embedding,
    record_schema,
)
from veriledger.errors import SerializationError
from veriledger.store import canonical_json, record_to_json

from chainfile import bodies, decode, record_copy, state_copy, transaction_copy
from conftest import dense, indices

CONTENT_HASH = hash_bytes(b"known-answer content")
AUDIO = Embedding.from_dense((0, 32768, 81920, 1), MediaType.AUDIO)
IMAGE = Embedding.from_dense((8192, 0, 131072), MediaType.IMAGE)
MATCHES = (("content-kat", 61440), ("content-b", 32768))  # Q16: 0.9375 and 0.5

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
        confidence=57344,
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
        confidence=57344,
        matched_content=MATCHES,
        committed_at=13,
        labelled=True,
    ),
    "ContractParams": ContractParams(),
    "DetectorSpec": DetectorSpec(
        kind="near-duplicate",
        parameters={"tau_pct": 90, "bins": 32, "name": "nd", "strict": True},
    ),
}

# name -> (SHA-256 of the binary encoding, SHA-256 of the canonical JSON)
KNOWN_ANSWERS = {
    "AlgorithmRecord": (
        "3817460ef62af73c6356fa617d132b3523f3ff7d8618ff9224c2554bed51e8c9",
        "aa86d97d36cd9a732baf9ed8aa78ce1687cca8162aa33ff7418a6e745c912dd2",
    ),
    "AnalysisRequest": (
        "3cfc6dc6f35dceac1aad1bfa0360b1ac8485f88c4d4b4c12e9f18d6f84068d97",
        "4caad34442445a2b718bdb99388463abc5a792c36d269754e8311caf368c3106",
    ),
    "AnalysisResultRecord": (
        "243ee079056b34329bd4050c26c80ab5d5a4f091ace18959ce0d7048fa93ef9f",
        "7dea042d539802a1052d1595a46a5ca35ceebafcbb6617cfaa7c432a86144863",
    ),
    "CommitAnalysisResult": (
        "3778b8b40b5a2c142f865969da69aaa081f2c36075f0b76511d29b261cf731e7",
        "3daa21f79a2dc0cec7d761ca0c667ae3cc703489c4356ae63d8e0239a083c1f4",
    ),
    "ContentRecord": (
        "5ef276d6f093e37ad099bbb296102767b0d92f374cb1967614c04fca2a39220f",
        "f74812d6c4add020a60e7cc9fe7053a3fe1b756cef0b231be1ddd8b5f4e2dbb8",
    ),
    "ContractParams": (
        "e8e5e2715f514f7a5a3279e429cee4eaf7a0689040580926ff8569a98a5cd90e",
        "77ba397371bbe39c4a1659901184f838b97d7d2a4355edfc8e8446b79b537062",
    ),
    "DetectorSpec": (
        "41b676c43291989c0680f12f8512d0f8915ea8abfc54113dbaab6822f511caaf",
        "71a1bf2015969625a044e6bd15624cb1166e90d25349a9f2b51c05892d889383",
    ),
    "RegisterAlgorithm": (
        "f8706e49b11ece23dee033b7912f95f916b9852c5dd272ebee131a188cb90eb2",
        "28266ea0fdd44b12eeb2f8547124555c011241961b1910c8ea06d472b8df29af",
    ),
    "RegisterContent": (
        "48efea9192e236cae49fba82ed026cf41d269e7a3b70e1585ead2fd40a331cbf",
        "bd98541a4bcc8c55b9d2bb8f759e76651941f09c95d0ed6f802f56d479046c7e",
    ),
    "SubmitAnalysisRequest": (
        "dc9ca9c8bdf5fb30f07197a4114fe2d17a10559a9e61e6dcfc72d17fc1dd4411",
        "65e6144762805ddcdd0adf159ccca6c8185951ff55f0132d16b369344070e1fe",
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
    # 0111 0000 (values 1 to 3); then 32768, 81920 and 1 as big-endian u32s.
    # The 0 at index 0 is not stored.
    assert encode_embedding(AUDIO) == bytes.fromhex(
        "00000005" "417564696f" "00000004" "70" "00008000" "00014000" "00000001"
    )


def kat_state() -> NetworkState:
    """A state whose every hashed field is non-default, its maps filled out
    of key order, and a result of each ``labelled`` value."""
    algorithm = RECORDS["AlgorithmRecord"]
    result = RECORDS["AnalysisResultRecord"]
    return NetworkState(
        params=ContractParams(
            min_stake=150, challenge_pass_pct=75, oracle_account="oracle-kat"
        ),
        validators={"v2": 40, "v1": 60},
        balances={"user-1": 500, "@escrow": 12, "owner-1": 0},
        nonces={"user-1": 3, "owner-1": 2**33},
        algorithms={
            "algo-z": dataclasses.replace(algorithm, algorithm_id="algo-z", tp=0, epoch_correct=9),
            "algo-kat": algorithm,
        },
        contents={"content-kat": RECORDS["ContentRecord"]},
        content_hash_index={CONTENT_HASH.hex: "content-kat"},
        requests={"req-000001": RECORDS["AnalysisRequest"]},
        results={
            "req-000002": dataclasses.replace(
                result, request_id="req-000002", matched_content=(), labelled=False
            ),
            "req-000001": result,
        },
        detectors={
            "nd-2": DetectorSpec(kind="cosine", parameters={"threshold": 25}),
            "nd-1": RECORDS["DetectorSpec"],
        },
        initial_supply=10**6,
        fees_to_owners=8,
        fees_to_proposers=2,
        fees_burned=1,
        stake_burned=50,
        rewards_minted=30,
        tip_height=4,
        tip_hash=CONTENT_HASH,
    )


def test_state_encoding_known_answer():
    # Nothing else pins a stored state holding labelled results, feedback
    # counters or several detectors; the tip and the content-hash index
    # stay out.
    state = kat_state()
    encoded = encode_state(state)
    assert hash_bytes(encoded).hex == (
        "3ab440385c3e5603e7c37d5eafcad45fdfb5066241d6cd454291f3b7dee6f301"
    )
    copy = state_copy(state)
    assert encode_state(copy) == encoded
    assert copy.content_hash_index == state.content_hash_index
    assert encode_state(dataclasses.replace(state, tip_height=5, content_hash_index={})) == encoded


def test_codec_tables_cover_every_annotation():
    # Every field that a hash covers or the chain file stores is encoded and
    # decoded by its annotation's entry, and no entry serves no field.
    records = [
        Block, *PAYLOAD_TYPES.values(), AlgorithmRecord, ContentRecord, AnalysisRequest,
        AnalysisResultRecord, ContractParams, DetectorSpec,
    ]
    annotations = {a for cls in records for _, a in record_schema(cls)}
    annotations |= {a for _, a in STATE_SCHEMA}
    # The transaction envelope; its payload is the record its kind names.
    annotations |= {a for name, a in record_schema(Transaction) if name != "payload"}
    assert FIELD_CODECS.keys() == annotations


# --- each entry decodes only its own encodings ---------------------------------


def _field_values(value):
    """``(annotation, value)`` of each field of ``value``, a record, block,
    transaction or state, and of each record, transaction and embedding it
    holds; of a state, the fields its root covers."""
    schema = STATE_SCHEMA if isinstance(value, NetworkState) else record_schema(type(value))
    for name, annotation in schema:
        field_value = getattr(value, name)
        if annotation in FIELD_CODECS:
            yield annotation, field_value
        if isinstance(field_value, dict):
            items = list(field_value.values())
        else:
            items = list(field_value) if isinstance(field_value, tuple) else [field_value]
        for item in items:
            if dataclasses.is_dataclass(item) and not isinstance(item, Hash256):
                yield from _field_values(item)


def _fresh(value):
    """``value`` rebuilt from its fields, so that no transaction, record or
    embedding in it holds a cached encoding."""
    if isinstance(value, dict):
        return {key: _fresh(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(map(_fresh, value))
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(
            value, **{name: _fresh(getattr(value, name)) for name, _ in record_schema(type(value))}
        )
    return value


# A detector whose parameters are all bools, so that flips land on bool
# bytes: ``RECORDS`` and the golden chain hold one bool parameter among many
# bytes.
FLAGS = DetectorSpec(kind="flags", parameters={c: c in "aceg" for c in "abcdefgh"})


@pytest.fixture(scope="module")
def codec_samples(golden_run):
    """annotation -> {encoding: value} of the values its fields hold in
    ``RECORDS``, ``FLAGS``, ``kat_state()`` and the golden chain."""
    sources = [*RECORDS.values(), FLAGS, kat_state(), golden_run.result.chain.final_state]
    for height, body in enumerate(bodies(golden_run.out_dir / "run.chain.jsonl")):
        block, genesis_state = decode(height, body)
        sources += [block] if genesis_state is None else [block, genesis_state]
    samples = {}
    for source in sources:
        for annotation, value in _field_values(source):
            samples.setdefault(annotation, {})[FIELD_CODECS[annotation][0](value)] = value
    return samples


def _encoded(annotation, value):
    return FIELD_CODECS[annotation][0](value)


# annotation -> an edit of an encoding that the test below always makes,
# whatever Hypothesis draws: ``(encoding, edit)``, where ``edit`` is
# ``("flip", at, xor)``, ``("repeat",)`` or ``("swap",)``. Each is refused,
# and each is accepted by one of the decoder mutants in scripts/mutants.py,
# which names the test's case for that annotation among its killers.
EDITS = {
    # An ASCII byte made a UTF-8 lead byte with no continuation.
    "str": (enc_str("algo-kat"), ("flip", 4, 0x80)),
    "bool": (_encoded("bool", True), ("flip", 0, 0x02)),
    # The bool parameter "a" made a 3.
    "dict[str, object]": (_encoded("dict[str, object]", FLAGS.parameters), ("flip", 10, 0x02)),
    "dict[str, int]": (_encoded("dict[str, int]", {"v1": 60, "v2": 40}), ("repeat",)),
    # A count lowered by one (3 to 2, 2 to 1), so an entry is left over.
    "frozenset[MediaType]": (
        _encoded("frozenset[MediaType]", frozenset(MediaType)), ("flip", 3, 1)
    ),
    "tuple[tuple[str, int], ...]": (
        _encoded("tuple[tuple[str, int], ...]", MATCHES), ("flip", 3, 3)
    ),
    "dict[str, AlgorithmRecord]": (
        _encoded("dict[str, AlgorithmRecord]", kat_state().algorithms), ("swap",)
    ),
    "dict[str, AnalysisResultRecord]": (
        _encoded("dict[str, AnalysisResultRecord]", kat_state().results), ("swap",)
    ),
    # "Deepfake" made "Eeepfake".
    "Verdict": (_encoded("Verdict", Verdict.DEEPFAKE), ("flip", 4, 0x01)),
}


@pytest.mark.parametrize("annotation", sorted(FIELD_CODECS))
def test_each_codec_entry_decodes_only_its_own_encodings(codec_samples, annotation):
    # A byte flipped inside an encoded value, the first two entries of a
    # list, set or map swapped, or its first entry repeated: the bytes are
    # refused, or they are the encoding of what they decode to.
    encode, decode_value = FIELD_CODECS[annotation]
    samples = codec_samples[annotation]

    def entries_end(data, k):
        """Where the first ``k`` entries of the list, set or map ``data``
        end: the bytes from 4 on, read as ``k`` entries."""
        return decode_value(enc_u32(k) + data[4:], 0)[1]

    def edits(data):
        """The edits Hypothesis draws for the sample ``data``."""
        value = samples[data]
        n = len(value) if isinstance(value, (tuple, frozenset, dict)) else 0
        flip = st.tuples(st.just("flip"), st.integers(0, len(data) - 1), st.integers(1, 255))
        return st.one_of(
            flip, *[st.just(("repeat",))] * (n >= 1), *[st.just(("swap",))] * (n >= 2)
        )

    def check(case):
        data, (kind, *flip) = case
        if kind == "flip":
            at, xor = flip
            mutated = bytearray(data)
            mutated[at] ^= xor
            mutated = bytes(mutated)
        elif kind == "repeat":
            n = len(decode_value(data, 0)[0])
            mutated = enc_u32(n + 1) + data[4 : entries_end(data, 1)] + data[4:]
        else:
            first, second = entries_end(data, 1), entries_end(data, 2)
            mutated = data[:4] + data[first:second] + data[4:first] + data[second:]
        try:
            decoded, end = decode_value(mutated, 0)
            exactly(mutated, end)
        except DECODE_ERRORS:
            return
        assert encode(_fresh(decoded)) == mutated

    if annotation in EDITS:
        check = example(EDITS[annotation])(check)
    samples_and_edits = st.sampled_from(sorted(samples)).flatmap(
        lambda data: st.tuples(st.just(data), edits(data))
    )
    given(samples_and_edits)(check)()


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


def test_params_and_detector_caches_are_invisible():
    params = ContractParams(min_stake=150, oracle_account="oracle-kat")
    spec = dataclasses.replace(RECORDS["DetectorSpec"])
    twins = (dataclasses.replace(params), dataclasses.replace(spec))
    shown = (repr(params), repr(spec))
    encode_state(NetworkState(params=params, validators={}, detectors={"nd": spec}))
    assert params._encoding == encode_record(params) and spec._encoding == encode_record(spec)
    assert FIELD_CODECS["ContractParams"][0](params) is params._encoding
    for record, twin, before in zip((params, spec), twins, shown):
        assert twin._encoding is None
        assert record == twin
        assert repr(record) == before and "_encoding" not in before
        assert dataclasses.replace(record)._encoding is None
    assert hash(params) == hash(twins[0])
    with pytest.raises(TypeError):  # a DetectorSpec holds a dict: no hash, cached or not
        hash(spec)
    replaced = dataclasses.replace(params, min_stake=151)
    assert replaced._encoding is None
    assert encode_record(replaced) != params._encoding
    replaced = dataclasses.replace(spec, kind="cosine")
    assert replaced._encoding is None
    assert encode_record(replaced) != spec._encoding


@pytest.mark.parametrize("kind", sorted(PAYLOADS, key=attrgetter("value")))
def test_decoded_transaction_fills_the_same_bytes(kind):
    tx = Transaction(kind=kind, sender="user-1", payload=PAYLOADS[kind], nonce=7)
    encoded = encode_transaction(tx)
    decoded = transaction_copy(tx)
    # The decoder keeps the bytes it read, which are the fresh encoding.
    assert decoded == tx and decoded._encoding == encoded
    assert encode_transaction(decoded) is decoded._encoding


# --- the embedding token ------------------------------------------------------


def to_token(values) -> str:
    record = SubmitAnalysisRequest(
        MediaType.BYTES, CONTENT_HASH, Embedding.from_dense(tuple(values), MediaType.BYTES), 1
    )
    return record_to_json(record)["embedding"]


def from_token(token: str) -> tuple[int, ...]:
    """The values the chain file's embedding decoder reads from the bytes
    of ``token``."""
    data = enc_str(MediaType.BYTES.value) + base64.b64decode(token)
    embedding, end = FIELD_CODECS["Embedding"][1](data, 0)
    assert end == len(data)
    return dense(embedding)


EDGE_VALUES = [0, 1, 2, 255, 256, 65535, 65536, 2**31, 2**32 - 1]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**32 - 1))


def test_embedding_token_known_answer():
    # n = 10; bitmap 0110 0000 0100 0000 (values 1, 2 and 9); then 5, 65536
    # and 2**32 - 1 as big-endian u32s.
    values = (0, 5, 65536, 0, 0, 0, 0, 0, 0, 2**32 - 1)
    raw = bytes.fromhex("0000000a" "6040" "00000005" "00010000" "ffffffff")
    token = "AAAACmBAAAAABQABAAD/////"
    assert base64.b64decode(token) == raw
    assert to_token(values) == token
    assert from_token(token) == values


@given(
    st.one_of(
        st.lists(VALUES, max_size=300),
        st.lists(st.just(0), max_size=300),
        st.lists(VALUES.filter(bool), max_size=300),
    )
)
@example([])
@example([0] * 13)
@example(EDGE_VALUES * 30)
def test_embedding_token_round_trip_is_bit_exact(values):
    token = to_token(values)
    assert len(base64.b64decode(token)) == 4 + (len(values) + 7) // 8 + 4 * sum(map(bool, values))
    decoded = from_token(token)
    assert all(type(x) is int for x in decoded)
    assert decoded == tuple(values)


@pytest.mark.parametrize("layout", [
    # n = 8, bitmap 1000 0000, and the one value stored is 0.
    "00000008" "80" "00000000",
    # n = 8, bitmap 1100 0000: 7, then 0.
    "00000008" "c0" "00000007" "00000000",
], ids=["lone-zero", "zero-after-a-value"])
def test_embedding_decoder_refuses_a_stored_zero(layout):
    data = enc_str(MediaType.BYTES.value) + bytes.fromhex(layout)
    with pytest.raises(SerializationError, match="0 is stored"):
        FIELD_CODECS["Embedding"][1](data, 0)


@pytest.mark.parametrize("value", [0, -1, 2**32, 2**63, 0.5, math.nan, math.inf, -math.inf])
def test_embedding_packer_refuses_a_value_outside_u32(value):
    # Among stored values the layout holds: the packer refuses it, as
    # ``enc_u32`` refuses an int outside u32, rather than write bytes no
    # reader reads back.
    with pytest.raises(ValueError, match="embedding value out of range"):
        enc_u32_bitmap(8, b"\xe0", (1, value, 2**32 - 1))


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


ANY_VALUE = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**32 - 1), st.integers(0, 4))


@given(st.lists(ANY_VALUE, max_size=300))
@example([])
@example([0, 1] * 5)
def test_from_dense_stores_every_value_but_plus_zero(values):
    # The stored form holds every value but 0, at its index, and densifies
    # back to the same values.
    e = Embedding.from_dense(tuple(values), MediaType.BYTES)
    assert e.dimension == len(values)
    assert indices(e) == tuple(i for i, x in enumerate(values) if x)
    assert e.stored == tuple(x for x in values if x)
    assert dense(e) == tuple(values)


@st.composite
def embeddings_of_any_length(draw):
    """Vectors of each media type, of its dimension, one off or any length
    up to 300, with 0 and the ``u32`` bounds among the values."""
    media_type = draw(st.sampled_from(list(MediaType)))
    dim = EMBEDDING_DIMENSIONS[media_type]
    size = draw(st.one_of(st.sampled_from([dim - 1, dim, dim + 1]), st.integers(0, 300)))
    values = draw(st.lists(ANY_VALUE, min_size=size, max_size=size))
    return Embedding.from_dense(tuple(values), media_type)


def sparse_layout(values) -> bytes:
    """The sparse layout, value by value: the count, the bitmap as one bit
    per value padded with 0 bits to whole bytes, then each stored value."""
    bits = "".join("1" if x else "0" for x in values)
    bits += "0" * (-len(bits) % 8)
    bitmap = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    kept = b"".join(struct.pack(">I", x) for x in values if x)
    return struct.pack(">I", len(values)) + bitmap + kept


@given(embeddings_of_any_length())
def test_filled_embedding_cache_is_a_fresh_pack(e):
    assert e._encoding is None
    encoded = encode_embedding(e)
    assert e._encoding is encoded
    assert encode_embedding(e) is encoded
    assert encoded == enc_str(e.media_type.value) + sparse_layout(dense(e))
    layout = enc_u32_bitmap(e.dimension, e.bitmap, e.stored)
    assert encoded == enc_str(e.media_type.value) + layout
    assert hash_embedding(e) == hash_bytes(encoded)
