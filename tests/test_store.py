import dataclasses
import enum
import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from veriledger import store
from veriledger.cli import main
from veriledger.codec import (
    STR,
    Hash256,
    enc_bytes,
    enc_u32_bitmap,
    enc_str,
    enc_u32,
    enc_u64,
    list_of,
)
from veriledger.core import (
    ESCROW_ACCOUNT,
    FIELD_CODECS,
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
    NotificationEvent,
    Receipt,
    ReceiptStatus,
    RequestStatus,
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
    transaction_hash,
)
from veriledger.errors import (
    CorruptRecord,
    HeightGap,
    SerializationError,
    StoreError,
    UnencodableState,
    VeriledgerError,
)
from veriledger.ledger import (
    apply_block,
    init_chain,
    proposer_seed,
    seal_block,
    select_proposer,
)
from veriledger.sim import ScenarioRunner, parse_scenario
from veriledger.store import (
    ChainView,
    ChainWriter,
    VerifyResult,
    canonical_json,
    read_chain,
    record_to_json,
    replay,
    verify_chain,
)

from chainfile import (
    bodies,
    chain_bytes,
    decode,
    edit_chain,
    encode,
    record_copy,
    state_bytes,
    state_copy,
    uncached_transaction,
)
from conftest import REPO_ROOT
from test_ledger import fresh_state, resealed, transfer

# A list of strings in the order given: a set's entries as its encoder lists
# them once sorted, or in an order or with a repeat it never writes.
enc_str_list = list_of(STR)[0]


def read_all(path):
    """The genesis state and every block of the chain at ``path``."""
    pairs = list(read_chain(path))
    return pairs[0][1], [block for block, _ in pairs]


def replay_all(path):
    """Replay the chain at ``path``: its records and its final state."""
    records = []
    for record, state in replay(path):
        records.append(record)
    return ChainView(records, state)


def small_chain(tmp_path, blocks=3):
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    path = tmp_path / "small.chain.jsonl"
    writer = ChainWriter(path)
    writer.append(genesis, genesis_state=genesis_state)
    nonce = 0
    written = [(genesis, ())]
    for height in range(1, blocks + 1):
        txs = [transfer("A", "B", 1, nonce=nonce)]
        nonce += 1
        block, state, receipts = seal_block(state, txs, timestamp=height)
        writer.append(block)
        written.append((block, tuple(receipts)))
    writer.close()
    return path, genesis_state, state, written


def test_append_genesis_then_read_back(tmp_path):
    path, genesis_state, _, _ = small_chain(tmp_path, blocks=0)
    stored_genesis, records = read_all(path)
    assert len(records) == 1
    assert records[0].height == 0
    assert encode_state(stored_genesis) == encode_state(genesis_state)


def test_append_height_gap_rejected(tmp_path):
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    block1, state, receipts = seal_block(state, [], timestamp=1)
    block2, state, _ = seal_block(state, [], timestamp=2)
    writer = ChainWriter(tmp_path / "gap.chain.jsonl")
    writer.append(genesis, genesis_state=genesis_state)
    with pytest.raises(HeightGap):
        writer.append(block2)
    writer.close()


def test_writer_stores_the_genesis_state_with_height_0_only(tmp_path):
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    block1, _, _ = seal_block(state, [], timestamp=1)
    with ChainWriter(tmp_path / "state.chain.jsonl") as writer:
        with pytest.raises(SerializationError, match="genesis state"):
            writer.append(genesis)
        writer.append(genesis, genesis_state=genesis_state)
        with pytest.raises(SerializationError, match="genesis state"):
            writer.append(block1, genesis_state=genesis_state)


def test_round_trip_identity(tmp_path):
    path, genesis_state, _, written = small_chain(tmp_path)
    _, blocks = read_all(path)
    records = replay_all(path).records
    for (block, receipts), read, record in zip(written, blocks, records, strict=True):
        assert read == block
        stored_state = genesis_state if block.height == 0 else None
        assert decode(block.height, encode(block, stored_state))[0] == block
        # The file stores no receipts: replay yields the ones it re-executes.
        assert (record.block, record.receipts) == (block, receipts)


# SHA-256 of the golden scenario's chain file. The golden fixtures hold only
# hashes of the binary encodings, so this pins the chain file's layout.
GOLDEN_CHAIN_SHA256 = "3a0348b880fe2214969bc6036aaba897ff67acea8aa13f833306d115f45d901f"


def test_golden_chain_file_bytes_frozen(golden_run):
    data = (golden_run.out_dir / "run.chain.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CHAIN_SHA256


def _assert_unsupported(golden_run, tmp_path, version):
    """The golden chain's records behind the header of format ``version``
    fail at the header."""
    data = (golden_run.out_dir / "run.chain.jsonl").read_bytes()
    assert store.HEADER == b"veriledger chain v7\n"
    old = tmp_path / f"{version}.chain.jsonl"
    old.write_bytes(f"veriledger chain {version}\n".encode() + data[len(store.HEADER) :])
    assert str(verify_chain(old)) == (
        "FAIL at height 0: CorruptRecord: unsupported version: the file starts "
        f"b'veriledger chain {version}\\n'"
    )


def test_a_v5_chain_fails_at_height_0_as_an_unsupported_version(golden_run, tmp_path):
    # "v5" stored each embedding value as a binary64: its records are not
    # read as later ones, and the reader says so at the header.
    _assert_unsupported(golden_run, tmp_path, "v5")


def test_a_v6_chain_fails_at_height_0_as_an_unsupported_version(golden_run, tmp_path):
    # "v6" held scores, accuracy thresholds and a detector's tau as
    # binary64s, each 8 bytes where "v7" holds a u64: a "v6" record may
    # decode, but it would mean something else.
    _assert_unsupported(golden_run, tmp_path, "v6")


def test_a_record_is_the_bytes_the_hashes_cover(golden_run):
    # Each record body is the block's hashed encoding, its hash, and for the
    # genesis the state's hashed encoding, each rendered from the decoded
    # fields: a decoded transaction's cache is the bytes it was read from.
    records = bodies(golden_run.out_dir / "run.chain.jsonl")
    for height, body in enumerate(records):
        block, state = decode(height, body)
        rendered = encode(block)
        fields, block_hash = rendered[:-32], rendered[-32:]
        assert hashlib.sha256(fields).digest() == block_hash == block.block_hash.value
        genesis = state_bytes(state) if height == 0 else b""
        assert body == rendered + genesis
        if height == 0:
            assert hashlib.sha256(genesis).digest() == block.state_root.value


# Receipts are not stored, but ``inspect --height`` prints them, so their
# JSON form is output that must not change.
def test_rejected_receipt_json_frozen():
    receipt = Receipt(tx_index=3, status=ReceiptStatus.REJECTED, error_code="BadNonce")
    text = canonical_json(record_to_json(receipt))
    assert text == '{"error_code":"BadNonce","events":[],"status":"rejected","tx_index":3}'


def test_printed_receipt_event_carries_the_notification_tag():
    event = NotificationEvent("provider-1", "trusted-000", "r-1", 32768)
    receipt = Receipt(tx_index=0, status=ReceiptStatus.ACCEPTED, events=(event,))
    assert canonical_json(record_to_json(receipt)) == (
        '{"error_code":null,"events":[{"content_id":"trusted-000","provider":"provider-1",'
        '"request_id":"r-1","similarity":32768,"type":"notification"}],'
        '"status":"accepted","tx_index":0}'
    )


def test_state_round_trip_bit_exact(golden_run):
    state = golden_run.result.chain.final_state
    restored = state_copy(state)
    assert encode_state(restored) == encode_state(state)
    assert restored.state_root() == state.state_root()
    assert restored.content_hash_index == state.content_hash_index


def test_state_json_round_trip_bit_exact(golden_run):
    # What ``inspect`` prints of a state read from a chain file is the JSON
    # of the state the run held, byte for byte.
    state = golden_run.result.chain.final_state
    restored = state_copy(state)
    assert canonical_json(record_to_json(restored.params)) == canonical_json(
        record_to_json(state.params)
    )
    for name in ("algorithms", "contents", "requests", "results", "detectors"):
        held, read = getattr(state, name), getattr(restored, name)
        assert read.keys() == held.keys()
        for key, record in held.items():
            assert canonical_json(record_to_json(read[key])) == canonical_json(
                record_to_json(record)
            )


def test_params_u64_range_checked_at_parse():
    # The largest u64 reads back; one more has no encoding, so the writer
    # refuses it.
    top = dataclasses.replace(ContractParams(), min_fee=2**64 - 1)
    assert record_copy(top).min_fee == 2**64 - 1
    with pytest.raises(ValueError, match="u64 out of range"):
        encode_record(dataclasses.replace(top, min_fee=2**64))


def test_replay_reproduces_live_state(tmp_path):
    path, _, live_state, _ = small_chain(tmp_path)
    final = replay_all(path).final_state
    assert encode_state(final) == encode_state(live_state)
    assert final.tip_hash == live_state.tip_hash


def test_replay_golden_matches_tip_root(golden_run):
    path = golden_run.out_dir / "run.chain.jsonl"
    view = replay_all(path)
    assert view.final_state.state_root() == view.tip.state_root
    assert view.final_state.conservation_gap() == 0
    # replay reproduces the live run's final state bit for bit
    live = golden_run.result.chain.final_state
    assert encode_state(view.final_state) == encode_state(live)
    assert view.final_state.tip_hash == live.tip_hash


def test_verify_ok_on_untampered(tmp_path):
    path, _, _, _ = small_chain(tmp_path)
    result = verify_chain(path)
    assert result.ok
    assert result.blocks == 4
    assert result.tip_hash is not None


def test_single_flipped_byte_never_silent(tmp_path):
    path, _, _, _ = small_chain(tmp_path)
    data = path.read_bytes()
    tampered_path = tmp_path / "tampered.chain.jsonl"
    for pos in range(0, len(data), 37):
        mutated = bytearray(data)
        mutated[pos] ^= 0x01
        tampered_path.write_bytes(bytes(mutated))
        result = verify_chain(tampered_path)
        assert not result.ok, f"flip at byte {pos} went unnoticed"


def test_truncated_and_empty_files(tmp_path):
    path, _, _, _ = small_chain(tmp_path)
    records = bodies(path)

    empty = tmp_path / "empty.chain.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(StoreError, match="empty file"):
        read_all(empty)
    assert str(verify_chain(empty)) == "FAIL at height 0: CorruptRecord: empty file"

    header_only = tmp_path / "header.chain.jsonl"
    header_only.write_bytes(store.HEADER)
    assert str(verify_chain(header_only)) == "FAIL at height 0: CorruptRecord: no genesis record"

    headless = tmp_path / "headless.chain.jsonl"
    headless.write_bytes(chain_bytes(records[1:]))
    assert verify_chain(headless).failing_height == 0

    cut = tmp_path / "cut.chain.jsonl"
    cut.write_bytes(chain_bytes(records)[:-1])
    assert str(verify_chain(cut)).startswith("FAIL at height 3: CorruptRecord: record of")


def test_non_canonical_line_rejected(tmp_path):
    # A record that decodes to the writer's block but holds one byte more
    # than the writer wrote.
    path, _, _, _ = small_chain(tmp_path)
    bad = tmp_path / "longer.chain.jsonl"
    edit_chain(path, bad, 1, raw=lambda body: body + b"\0")
    with pytest.raises(CorruptRecord, match="1 bytes left over") as info:
        read_all(bad)
    assert info.value.height == 1


# --- variants of the golden chain that no writer writes ------------------------


def _layout(raw: bytes) -> tuple[int, list[int], list[bytes]]:
    """The count, the bitmap as one 0 or 1 per bit, and the stored values as
    4-byte strings, of an embedding's sparse layout."""
    n = int.from_bytes(raw[:4], "big")
    width = (n + 7) // 8
    bits = [raw[4 + i // 8] >> (7 - i % 8) & 1 for i in range(8 * width)]
    start = 4 + width
    values = [raw[start + 4 * j : start + 4 * j + 4] for j in range(sum(bits))]
    return n, bits, values


def _pack(n: int, bits: list[int], values: list[bytes]) -> bytes:
    bitmap = int("".join(map(str, bits)), 2).to_bytes(len(bits) // 8, "big")
    return struct.pack(">I", n) + bitmap + b"".join(values)


def _bit_past_count(raw: bytes) -> bytes:
    n, bits, values = _layout(raw)
    assert n % 8 == 0  # so that n - 1 values keep the bitmap's width
    if not bits[-1]:
        bits[-1] = 1
        values.append(struct.pack(">I", 1))
    return _pack(n - 1, bits, values)


def _bit_over_plus_zero(raw: bytes) -> bytes:
    n, bits, values = _layout(raw)
    i = bits.index(0)
    values.insert(sum(bits[:i]), struct.pack(">I", 0))
    bits[i] = 1
    return _pack(n, bits, values)


def _padding_bit(raw: bytes) -> bytes:
    # The layout of all but the last value, with the bitmap's one padding
    # bit set and no value stored for it.
    n, bits, values = _layout(raw)
    assert n % 8 == 0
    if bits[-1]:
        values.pop()
    bits[-1] = 1
    return _pack(n - 1, bits, values)


def _padding_bit_with_value(raw: bytes) -> bytes:
    # The layout of all but the last three values, with the bitmap's last
    # padding bit set and 4 bytes stored for it: every byte is read where
    # the bitmap says, so only the bitmap check refuses it.
    n, bits, values = _layout(raw)
    assert n % 8 == 0
    kept = values[: sum(bits[: n - 3])]
    return _pack(n - 3, bits[: n - 3] + [0, 0, 1], kept + [struct.pack(">I", 1)])


def _overlong_first_character(s: str) -> bytes:
    """``s`` with its first character, if ASCII, in the two-byte UTF-8
    form that decoders must refuse: a second spelling of the same string."""
    raw = s.encode()
    if not raw or raw[0] >= 0x80:
        return enc_str(s)
    return enc_bytes(bytes([0xC0 | raw[0] >> 6, 0x80 | raw[0] & 0x3F]) + raw[1:])


def _embedding(edit):
    """An embedding encoder that stores ``edit`` of the values' layout."""
    return lambda e: enc_str(e.media_type.value) + edit(
        enc_u32_bitmap(e.dimension, e.bitmap, e.stored)
    )


def _scalar_map(tag_and_value: bytes):
    return lambda parameters: enc_u32(1) + enc_str("tau") + tag_and_value


# Each maps annotations to an encoder that writes bytes the writer never
# writes; the variant re-encodes the first record of the golden chain whose
# bytes that changes. Each either decodes to what the golden record decodes
# to (a repeated set entry, a bit for a value of 0) or holds a value no
# record can.
COSMETIC_VARIANTS = {
    "duplicate-media-type": {
        "frozenset[MediaType]": lambda ms: enc_str_list(sorted(m.value for m in ms) * 2)
    },
    "bit-past-count": {"Embedding": _embedding(_bit_past_count)},
    "padding-bits": {"Embedding": _embedding(_padding_bit)},
    "padding-bit-with-value": {"Embedding": _embedding(_padding_bit_with_value)},
    "bit-over-plus-zero": {"Embedding": _embedding(_bit_over_plus_zero)},
    "trailing-byte": {"Embedding": _embedding(lambda raw: raw + b"\0")},
    "huge-count": {"Embedding": _embedding(lambda raw: struct.pack(">I", 2**32 - 1) + b"\xff" * 4)},
    "unsorted-metadata": {
        "dict[str, str]": lambda m: enc_u32(2) + enc_str("b") + enc_str("1") + enc_str("a")
        + enc_str("2")
    },
    "repeated-metadata-key": {
        "dict[str, str]": lambda m: enc_u32(2) + enc_str("a") + enc_str("1") + enc_str("a")
        + enc_str("2")
    },
    "invalid-utf8": {"str": lambda s: enc_bytes(b"\xed\xa0\x80" + s.encode())},
    "non-ascii-character": {"str": _overlong_first_character},
    "unknown-verdict": {"Verdict": lambda v: enc_str("Maybe")},
    "parameter-tag": {"dict[str, object]": _scalar_map(b"\x05" + enc_u64(1))},
    "parameter-bool-byte": {"dict[str, object]": _scalar_map(b"\x04\x02")},
    "labelled-bool-byte": {"bool": lambda labelled: b"\x02"},
    # Tag 3 held an f64 before format v7; it is an unknown tag now.
    "parameter-nan": {"dict[str, object]": _scalar_map(b"\x03" + struct.pack(">d", math.nan))},
    "matches-count-past-end": {"tuple[tuple[str, int], ...]": lambda ms: enc_u32(2**32 - 1)},
}


def _cosmetic_variant(src, dst, overrides) -> int:
    """Write to ``dst`` the chain at ``src`` with the first record that
    ``overrides`` changes encoded with them; return its height. Only records
    decoded under the patch are encoded with it, so no cache it fills
    outlives it."""
    records = bodies(src)
    for height, body in enumerate(records):
        with pytest.MonkeyPatch.context() as patch:
            for annotation, encoder in overrides.items():
                patch.setitem(FIELD_CODECS, annotation, (encoder, FIELD_CODECS[annotation][1]))
            variant = encode(*decode(height, body))
        if variant != body:
            records[height] = variant
            dst.write_bytes(chain_bytes(records))
            return height
    raise AssertionError("no record changed")


def _cosmetic_source(golden_run, tmp_path, overrides):
    """The chain a variant edits: the golden chain, which stores no bool
    field (only a stored state's results hold one), or else a chain whose
    genesis holds a labelled result."""
    if "bool" in overrides:
        return _labelled_chain(tmp_path)
    return golden_run.out_dir / "run.chain.jsonl"


@pytest.mark.parametrize("overrides", COSMETIC_VARIANTS.values(), ids=COSMETIC_VARIANTS.keys())
def test_no_stored_byte_is_cosmetic(golden_run, tmp_path, overrides):
    # Refused, never raised.
    variant = tmp_path / "variant.chain.jsonl"
    _cosmetic_variant(_cosmetic_source(golden_run, tmp_path, overrides), variant, overrides)
    with pytest.raises(CorruptRecord):
        read_all(variant)
    result = verify_chain(variant)
    assert not result.ok
    assert result.failing_height is not None


@pytest.mark.parametrize("overrides", COSMETIC_VARIANTS.values(), ids=COSMETIC_VARIANTS.keys())
def test_canonical_check_matches_the_re_render_on_cosmetic_variants(golden_run, tmp_path, overrides):
    # The record refused is the one whose bytes differ from the writer's.
    variant = tmp_path / "variant.chain.jsonl"
    height = _cosmetic_variant(
        _cosmetic_source(golden_run, tmp_path, overrides), variant, overrides
    )
    with pytest.raises(CorruptRecord) as info:
        read_all(variant)
    assert info.value.height == height


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5, -1, 2**32, 2**63])
def test_writer_refuses_a_non_finite_embedding(bad):
    # A value the u32 layout cannot hold cannot be hashed either: the state
    # root refuses it before a genesis that holds it is sealed, so no chain
    # file holds one.
    genesis_state = fresh_state()
    genesis_state.contents["c"] = ContentRecord(
        content_id="c",
        provider="A",
        media_type=MediaType.BYTES,
        content_hash=Hash256.zero(),
        embedding=Embedding.from_dense((1, bad, 0), MediaType.BYTES),
        metadata={},
        registered_at=0,
    )
    with pytest.raises(UnencodableState, match="embedding value out of range"):
        init_chain(genesis_state)


def test_a_fuzzed_embedding_value_past_u32_is_a_refused_write(golden_run, tmp_path):
    # The fuzzed-chain test's mutation of a stored embedding value to 2**63:
    # the block no longer hashes or encodes (the packer raises ValueError),
    # so the writer refuses it and writes nothing.
    records = bodies(golden_run.out_dir / "run.chain.jsonl")
    pairs = [decode(height, body) for height, body in enumerate(records)]
    height, i = next(
        (height, i)
        for height, (block, _) in enumerate(pairs)
        for i, tx in enumerate(block.transactions)
        if hasattr(tx.payload, "embedding")
    )
    block = pairs[height][0]
    tx = block.transactions[i]
    embedding = dataclasses.replace(
        tx.payload.embedding, stored=(2**63, *tx.payload.embedding.stored[1:])
    )
    tx = dataclasses.replace(tx, payload=dataclasses.replace(tx.payload, embedding=embedding))
    block = dataclasses.replace(
        block, transactions=block.transactions[:i] + (tx,) + block.transactions[i + 1 :]
    )
    with pytest.raises(ValueError, match="embedding value out of range"):
        transaction_hash(tx)
    with pytest.raises(ValueError, match="embedding value out of range"):
        encode(block)
    path = tmp_path / "fuzzed.chain.jsonl"
    with ChainWriter(path) as writer:
        for before, genesis_state in pairs[:height]:
            writer.append(before, genesis_state=genesis_state)
        written = path.read_bytes()
        with pytest.raises(SerializationError, match="embedding value out of range"):
            writer.append(block)
    assert path.read_bytes() == written


def test_writer_refuses_a_non_finite_float(tmp_path):
    # A score is a u64, so a commit with a NaN confidence has no encoding:
    # it cannot be hashed, and a block that holds it cannot be written.
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    commit = Transaction(
        TxKind.COMMIT_ANALYSIS_RESULT, "A",
        CommitAnalysisResult("r-1", "algo", Verdict.DEEPFAKE, math.nan, ()), nonce=0,
    )
    with pytest.raises(ValueError, match="u64 out of range: nan"):
        transaction_hash(commit)
    block = Block(1, state.tip_hash, 1, "v1", (commit,), Hash256.zero(), Hash256.zero())
    path = tmp_path / "nan.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        written = path.read_bytes()
        with pytest.raises(SerializationError, match="u64 out of range: nan"):
            writer.append(block)
    assert path.read_bytes() == written


GENESIS_FLOATS = {
    "params": lambda s: setattr(s, "params", ContractParams(challenge_pass_pct=math.nan)),
    "detector-parameter": lambda s: s.detectors.update(
        nd=DetectorSpec("near-duplicate", {"tau_pct": math.inf})
    ),
    "detector-finite-parameter": lambda s: s.detectors.update(
        nd=DetectorSpec("near-duplicate", {"tau_pct": 0.95})
    ),
    "result-match": lambda s: s.results.update(
        {"r-1": AnalysisResultRecord("r-1", "algo", Verdict.DEEPFAKE, 1, (("c", -math.inf),), 0)}
    ),
}


@pytest.mark.parametrize("edit", GENESIS_FLOATS.values(), ids=GENESIS_FLOATS.keys())
def test_writer_refuses_a_non_finite_float_in_any_genesis_record(tmp_path, edit):
    # No field holds a float, so none has an encoding: the genesis cannot be
    # sealed, and a genesis sealed before the edit cannot be written.
    genesis_state = fresh_state()
    genesis, _ = init_chain(genesis_state)
    edit(genesis_state)
    with pytest.raises(UnencodableState, match="out of range|unsupported parameter type"):
        init_chain(genesis_state)
    path = tmp_path / "bad.chain.jsonl"
    with ChainWriter(path) as writer:
        with pytest.raises(SerializationError, match="out of range|unsupported parameter type"):
            writer.append(genesis, genesis_state=genesis_state)
    assert path.read_bytes() == b""


def test_unencodable_state_fails_at_its_height(tmp_path):
    # A genesis that conserves a supply of 2^64 - 1, all but the validator
    # stake held by A. The epoch reward minted to A's algorithm at height 1
    # pushes A's balance past 2^64 - 1, which no state root can encode.
    genesis_state = fresh_state(balances={"A": 2**64 - 11}, validators={"v1": 10})
    genesis_state.params = ContractParams(epoch_length=1, epoch_reward_pool=100)
    genesis_state.algorithms["algo"] = AlgorithmRecord(
        algorithm_id="algo",
        owner="A",
        media_types=frozenset({MediaType.BYTES}),
        detector_kind="exact-hash",
        status=AlgorithmStatus.ACTIVE,
        stake=0,
        registered_at=0,
        epoch_correct=1,
    )
    assert genesis_state.conservation_gap() == 0
    genesis, state = init_chain(genesis_state)
    txs = ()
    proposer = select_proposer(state.validators, proposer_seed(state.tip_hash, 1))
    root = Hash256.zero()
    block = resealed(Block(1, state.tip_hash, 1, proposer, txs, root, Hash256.zero()))
    with pytest.raises(UnencodableState):
        apply_block(state, block)
    with pytest.raises(UnencodableState):
        seal_block(state, txs, timestamp=1)
    path = tmp_path / "overflow.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        writer.append(block)
    result = verify_chain(path)
    assert not result.ok
    assert result.failing_height == 1
    assert "UnencodableState" in result.error


def test_resealed_genesis_with_transactions_fails_at_height_0(tmp_path):
    # Sealed from the genesis state like any genesis, so its header is what
    # replay would compute; only the rule that a genesis carries no
    # transactions refuses it.
    genesis_state = fresh_state()
    genesis, _, _ = seal_block(genesis_state, [transfer("A", "B", 1)], timestamp=0)
    assert genesis.height == 0 and genesis.transactions
    path = tmp_path / "genesis-txs.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
    result = verify_chain(path)
    assert str(result) == (
        "FAIL at height 0: CorruptRecord: genesis block must carry no transactions"
    )


def test_genesis_with_stored_receipts_fails_at_height_0(tmp_path):
    # A "v3" record stored its block's receipts; a record that still
    # carries them after its genesis state is refused for the bytes left
    # over.
    path, _, _, written = small_chain(tmp_path, blocks=0)
    receipts = canonical_json([record_to_json(r) for r in written[0][1]]).encode()
    edit_chain(path, path, 0, raw=lambda body: body + receipts)
    result = verify_chain(path)
    assert str(result) == (
        f"FAIL at height 0: CorruptRecord: {len(receipts)} bytes left over"
    )


def test_commit_after_escrow_theft_is_a_rejected_receipt(golden_run, tmp_path, capsys):
    # The golden chain through height 3, where @escrow holds the fees of 20
    # pending requests; block 4 moves them all to mallory, which unsigned
    # transactions allow, and block 5 commits a result for one request.
    # Sealing block 5 used to end in "ValueError: debit would overdraw".
    pairs = list(read_chain(golden_run.out_dir / "run.chain.jsonl"))[:4]
    genesis_state = pairs[0][1]
    state = genesis_state
    for block, _ in pairs:
        state, _ = apply_block(state, block)
    assert state.balances[ESCROW_ACCOUNT] == 200
    theft = Transaction(
        TxKind.TRANSFER_TOKENS, ESCROW_ACCOUNT, TransferTokens("mallory", 200), nonce=0
    )
    block4, state, receipts = seal_block(state, [theft], timestamp=4)
    assert receipts[0].status is ReceiptStatus.ACCEPTED
    request = min(state.requests.values(), key=lambda r: r.request_id)
    algorithm = next(
        a for a in state.algorithms.values()
        if a.status is AlgorithmStatus.ACTIVE and request.media_type in a.media_types
    )
    oracle = state.params.oracle_account
    commit = Transaction(
        TxKind.COMMIT_ANALYSIS_RESULT,
        oracle,
        CommitAnalysisResult(
            request.request_id, algorithm.algorithm_id, Verdict.UNVERIFIED, 0, ()
        ),
        nonce=state.nonces.get(oracle, -1) + 1,
    )
    block5, _, receipts = seal_block(state, [commit], timestamp=5)
    rejected = Receipt(0, ReceiptStatus.REJECTED, error_code="InsufficientBalance")
    assert receipts == [rejected]
    path = tmp_path / "escrow-theft.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(pairs[0][0], genesis_state=genesis_state)
        for block in [block for block, _ in pairs[1:]] + [block4, block5]:
            writer.append(block)
    assert main(["verify", "--chain", str(path)]) == 0
    assert capsys.readouterr().out == f"OK tip={block5.block_hash.hex} blocks=6\n"
    assert main(["inspect", "--chain", str(path), "--height", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["receipts"] == [record_to_json(rejected)]


def _with_completed_request(state, result_algorithm, labelled=False):
    """Add to ``state`` a completed request r-1 of A, with a result naming
    ``result_algorithm`` and ``labelled`` as given, or with no result if
    that is None."""
    state.algorithms["algo"] = AlgorithmRecord(
        algorithm_id="algo",
        owner="B",
        media_types=frozenset({MediaType.BYTES}),
        detector_kind="exact-hash",
        status=AlgorithmStatus.ACTIVE,
        stake=0,
        registered_at=0,
    )
    state.requests["r-1"] = AnalysisRequest(
        request_id="r-1",
        submitter="A",
        media_type=MediaType.BYTES,
        content_hash=Hash256.zero(),
        embedding_hash=Hash256.zero(),
        fee=10,
        status=RequestStatus.COMPLETED,
        submitted_at=0,
    )
    if result_algorithm is not None:
        state.results["r-1"] = AnalysisResultRecord(
            request_id="r-1",
            algorithm_id=result_algorithm,
            verdict=Verdict.UNVERIFIED,
            confidence=0,
            matched_content=(),
            committed_at=0,
            labelled=labelled,
        )


def _labelled_chain(tmp_path):
    """A two-block chain whose genesis holds A's completed request r-1 with
    a labelled result, and whose block 1 holds A's feedback on it."""
    genesis_state = fresh_state()
    _with_completed_request(genesis_state, "algo", labelled=True)
    genesis, state = init_chain(genesis_state)
    feedback = Transaction(
        TxKind.SUBMIT_FEEDBACK, "A", SubmitFeedback("r-1", Verdict.DEEPFAKE), nonce=0
    )
    block, _, _ = seal_block(state, [feedback], timestamp=1)
    path = tmp_path / "labelled.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        writer.append(block)
    return path


def test_feedback_on_a_labelled_genesis_result_is_a_duplicate(tmp_path):
    # The result holds the only record that its feedback was given.
    (_, genesis_state), (record, state) = replay(_labelled_chain(tmp_path))
    assert genesis_state.results["r-1"].labelled
    rejected = Receipt(0, ReceiptStatus.REJECTED, error_code="DuplicateFeedback")
    assert record.receipts == (rejected,)
    assert state.algorithms["algo"] == genesis_state.algorithms["algo"]


@pytest.mark.parametrize(
    "result_algorithm, fault",
    [
        (None, "completed request r-1 has no result"),
        ("ghost", "result r-1 names unknown algorithm ghost"),
    ],
    ids=["no-result", "unknown-algorithm"],
)
def test_genesis_whose_feedback_would_look_up_a_missing_record_fails_at_height_0(
    tmp_path, capsys, result_algorithm, fault
):
    # Replaying block 1's feedback for r-1 used to end in a KeyError: the
    # feedback handler looks up the request's result, and the result's
    # algorithm, without a check. No block can make either fault, so only
    # a genesis state holds one.
    genesis_state = fresh_state()
    _with_completed_request(genesis_state, result_algorithm)
    genesis, state = init_chain(genesis_state)
    feedback = Transaction(
        TxKind.SUBMIT_FEEDBACK, "A", SubmitFeedback("r-1", Verdict.DEEPFAKE), nonce=0
    )
    proposer = select_proposer(state.validators, proposer_seed(state.tip_hash, 1))
    root = Hash256.zero()
    block = resealed(Block(1, state.tip_hash, 1, proposer, (feedback,), root, Hash256.zero()))
    path = tmp_path / "dangling.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        writer.append(block)
    assert main(["verify", "--chain", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL at height 0: CorruptRecord: {fault}\n"


def test_writer_starts_a_new_chain_over_an_existing_file(tmp_path):
    path, genesis_state, _, _ = small_chain(tmp_path)
    genesis, _ = init_chain(genesis_state)
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
    result = verify_chain(path)
    assert result.ok
    assert result.blocks == 1


def test_writer_refuses_an_over_long_line(tmp_path, monkeypatch):
    genesis_state = fresh_state()
    genesis, _ = init_chain(genesis_state)
    path = tmp_path / "long.chain.jsonl"
    monkeypatch.setattr(store, "MAX_RECORD_BYTES", 64)
    with ChainWriter(path) as writer:
        with pytest.raises(SerializationError, match="exceeds 64"):
            writer.append(genesis, genesis_state=genesis_state)
    assert path.read_bytes() == b""


def test_over_long_line_is_refused_before_it_is_read(tmp_path, monkeypatch):
    # A record of 2^20 bytes past a bound of 4096: the reader refuses its
    # length before it reads the body.
    path, _, _, _ = small_chain(tmp_path, blocks=0)
    assert len(path.read_bytes()) < 4096
    with path.open("ab") as fh:
        fh.write(enc_u32(2**20) + b"x" * 2**20)
    monkeypatch.setattr(store, "MAX_RECORD_BYTES", 4096)
    with pytest.raises(CorruptRecord, match="record of 1048576 bytes exceeds 4096") as info:
        read_all(path)
    assert info.value.height == 1
    tracemalloc.start()
    try:
        result = verify_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.failing_height == 1
    assert peak < 2**17


# Seals a request whose embedding claims 2^26 values (a bitmap of 8 MiB)
# and stores one value of every ``spacing`` (none if 0), writes the chain,
# writes ``claimed`` over the count in the file, and verifies it: all under
# an address-space limit, which holds this process alone.
BOUNDED_CHAIN = """
import resource
import sys

from veriledger.cli import main
from veriledger.codec import Hash256, enc_str, enc_u32
from veriledger.core import (
    ContractParams, Embedding, MediaType, NetworkState, SubmitAnalysisRequest, Transaction,
    TxKind,
)
from veriledger.ledger import init_chain, seal_block
from veriledger.store import ChainWriter

path, spacing, claimed, limit = sys.argv[1], *map(int, sys.argv[2:])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
state = NetworkState(
    params=ContractParams(), validators={"v1": 10}, balances={"A": 100}, initial_supply=110
)
genesis, live = init_chain(state)
bitmap, stored = bytes(2**23), ()
if spacing:  # values 0, spacing, 2 * spacing, ...: bit 0 of every (spacing / 8)th byte
    bitmap = bytes([0x80] + [0] * (spacing // 8 - 1)) * (2**26 // spacing)
    stored = (1,) * (2**26 // spacing)
embedding = Embedding(MediaType.BYTES, 2**26, bitmap, stored)
request = SubmitAnalysisRequest(MediaType.BYTES, Hash256.zero(), embedding, 10)
tx = Transaction(TxKind.SUBMIT_ANALYSIS_REQUEST, "A", request, nonce=0)
block, _, receipts = seal_block(live, [tx], timestamp=1)
print(receipts[0].error_code)
with ChainWriter(path) as writer:
    writer.append(genesis, genesis_state=state)
    writer.append(block)
with open(path, "r+b") as fh:
    data = fh.read()
    count = enc_str("Bytes") + enc_u32(2**26)
    assert data.count(count) == 1
    fh.seek(data.index(count) + len(count) - 4)
    fh.write(enc_u32(claimed))
sys.exit(main(["verify", "--chain", path]))
"""

# Several times what the test needs, and under an eighth of what building
# the claimed values as a dense vector takes.
ADDRESS_SPACE_LIMIT = 384 * 2**20


@pytest.mark.parametrize(
    "spacing, claimed, code, verdict",
    [
        (0, 2**26, 0, "OK tip="),
        (2**9, 2**26, 0, "OK tip="),
        (
            0,
            2**32 - 1,
            1,
            "FAIL at height 1: CorruptRecord: transactions: payload: embedding: "
            "4294967295 values exceed the 8388616 bytes left",
        ),
    ],
    ids=["all-zero-bitmap", "spread-values", "count-past-bytes"],
)
def test_a_huge_claimed_dimension_verifies_in_bounded_memory(
    tmp_path, spacing, claimed, code, verdict
):
    # A 1-byte bitmap claims 8 values: the record is rejected for its
    # dimension, and ``verify`` ends in a verdict, not a MemoryError, having
    # built nothing the size of the claim. With 2^17 values spread over the
    # claim, it ends in seconds: nothing is rebuilt for each value.
    path = tmp_path / "huge.chain"
    done = subprocess.run(
        [sys.executable, "-c", BOUNDED_CHAIN, str(path), str(spacing), str(claimed),
         str(ADDRESS_SPACE_LIMIT)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=60,
    )
    assert done.stderr == ""
    assert done.returncode == code
    receipt, printed = done.stdout.splitlines()
    assert receipt == "BadEmbeddingDimension"
    assert printed.startswith(verdict)


# --- the golden chain, fuzzed ----------------------------------------------------


@dataclasses.dataclass
class Mutation:
    """A fuzzed chain file, the first height a mutation reached, and, as its
    repr, how it was made (not the bytes)."""

    data: bytes
    height: int
    how: str
    tip: str | None = None

    def __repr__(self) -> str:
        return self.how


def _leaves(value, path=()):
    """The path to every scalar of a block or state, through dataclass
    fields, tuple indexes and dict keys; sets are left out."""
    if isinstance(value, (bool, int, float, str, enum.Enum, Hash256)):
        yield path
    elif dataclasses.is_dataclass(value):
        # Of a state, what the file holds: not its tip or content-hash index.
        if isinstance(value, NetworkState):
            schema = STATE_SCHEMA
        else:
            schema = store.record_schema(type(value))
        for name, _ in schema:
            yield from _leaves(getattr(value, name), path + (name,))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], path + (key,))


def _get(value, path):
    for step in path:
        value = getattr(value, step) if dataclasses.is_dataclass(value) else value[step]
    return value


def _replace(value, path, new):
    """``value`` with the scalar at ``path`` replaced by ``new``."""
    if not path:
        return new
    step, rest = path[0], path[1:]
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{step: _replace(getattr(value, step), rest, new)})
    if isinstance(value, tuple):
        return value[:step] + (_replace(value[step], rest, new),) + value[step + 1 :]
    return {**value, step: _replace(value[step], rest, new)}


def _other_values(draw, old):
    if isinstance(old, bool):
        return not old
    if isinstance(old, enum.Enum):
        return draw(st.sampled_from([m for m in type(old) if m is not old]))
    if isinstance(old, int):
        return draw(st.sampled_from([0, 1, old + 1, max(old - 1, 0), 2**63, 2**64 - 1]))
    if isinstance(old, Hash256):
        return Hash256(bytes(32))
    return draw(st.sampled_from(["", "x", old + "x", "v1", "oracle", ESCROW_ACCOUNT, "owner-1"]))


def _reseal(pairs, start):
    """Recompute the block hash of record ``start`` and of every later
    record, and the parent hash each later block stores, so that replay gets
    past the hash checks to the mutated value; the genesis is sealed again
    from its state. Stops at the first block that no longer seals."""
    parent = None  # record ``start`` keeps the parent hash it stores
    for i in range(start, len(pairs)):
        block, state = pairs[i]
        try:
            if i == 0:
                block, _ = init_chain(state, timestamp=block.timestamp)
            else:
                if parent is not None:
                    block = dataclasses.replace(block, parent_hash=parent)
                block = resealed(block)
        except (VeriledgerError, KeyError, TypeError, ValueError):
            return
        pairs[i] = (block, state)
        parent = block.block_hash


def value_mutations(records):
    """The golden chain with one value of one record changed (or one
    transaction dropped, repeated or moved), and the chain resealed from
    there; its ``tip`` is the block hash of the last record written."""

    @st.composite
    def mutations(draw):
        pairs = [decode(h, body) for h, body in enumerate(records)]
        start = draw(st.integers(0, len(pairs) - 1))
        block, state = pairs[start]
        kind = draw(st.sampled_from(["value", "value", "drop", "repeat", "move"]))
        txs = list(block.transactions)
        if kind == "value" or not txs:
            target = state if state is not None and draw(st.booleans()) else block
            path = draw(st.sampled_from(list(_leaves(target))))
            new = _other_values(draw, _get(target, path))
            how = f"{type(target).__name__} {start} {'.'.join(map(str, path))} = {new!r}"
            try:
                target = _replace(target, path, new)
            except ValueError:  # ContractParams refuses the new value
                assume(False)
            if isinstance(target, NetworkState):
                state = target
            else:
                block = target
        else:
            i = draw(st.integers(0, len(txs) - 1))
            if kind == "drop":
                del txs[i]
            elif kind == "repeat":
                txs.insert(i, txs[i])
            else:
                txs.insert(draw(st.integers(0, len(txs) - 1)), txs.pop(i))
            block = dataclasses.replace(block, transactions=tuple(txs))
            how = f"{kind} transaction {i} of block {start}"
        pairs[start] = (block, state)
        _reseal(pairs, start)
        try:
            data = chain_bytes([encode(b, s) for b, s in pairs])
        except (SerializationError, ValueError, TypeError):  # no writer writes it
            assume(False)
        return Mutation(data, start, how, tip=pairs[-1][0].block_hash.hex)

    return mutations()


def test_fuzzed_chain_values_end_in_a_verify_result(golden_run, tmp_path_factory, capsys):
    # Each mutation decodes, and is resealed, so it reaches execution: it
    # must end in OK with the tip written or in a failure at or after the
    # record changed, never in a traceback.
    records = bodies(golden_run.out_dir / "run.chain.jsonl")
    path = tmp_path_factory.mktemp("fuzzed-chain") / "variant.chain.jsonl"
    truth = str(golden_run.out_dir / "ground_truth.json")
    read_commands = [
        ["inspect"],
        ["notifications", "--provider", "provider-1"],
        ["report", "--truth", truth],
    ]

    @settings(max_examples=100)
    @given(value_mutations(records))
    def check(mutation):
        path.write_bytes(mutation.data)
        result = verify_chain(path)
        assert isinstance(result, VerifyResult)
        if result.ok:
            assert result.tip_hash == mutation.tip
        else:
            assert result.error and result.failing_height >= mutation.height
        # Every read command refuses exactly the chains verify refuses, and
        # with the same line.
        for command in read_commands:
            code = main([command[0], "--chain", str(path), *command[1:]])
            out, err = capsys.readouterr()
            if result.ok:
                assert (code, err) == (0, "") and out
            else:
                assert (code, out, err) == (1, "", f"{result}\n")

    check()


def byte_mutations(records):
    """The golden chain's bytes with one byte flipped, cut short inside a
    record, or with two records spliced, and the height that must fail."""
    data = chain_bytes(records)
    # Where each record starts (its length prefix), and the end.
    starts = [len(store.HEADER)]
    for body in records:
        starts.append(starts[-1] + 4 + len(body))

    def height_at(pos):
        return sum(1 for start in starts[1:] if start <= pos)

    def flip(pos, xor):
        mutated = bytearray(data)
        mutated[pos] ^= xor
        return Mutation(bytes(mutated), height_at(pos), f"flip({pos}, {xor:#x})")

    def cut(pos):
        return Mutation(data[:pos], height_at(pos), f"cut({pos})")

    def splice(kind, i, j):
        # i < j: so a drop never leaves a valid chain one block short.
        spliced = list(records)
        if kind == "replace":
            spliced[i] = records[j]
        elif kind == "replace-later":
            spliced[j] = records[i]
            i = j
        elif kind == "repeat":
            spliced.insert(i + 1, records[i])
            i += 1
        elif kind == "drop":
            del spliced[i]
        else:
            spliced[i], spliced[j] = records[j], records[i]
        return Mutation(chain_bytes(spliced), i, f"{kind}({i}, {j})")

    positions = st.integers(0, len(data) - 1)
    pairs = st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2, unique=True)
    return st.one_of(
        st.builds(flip, positions, st.integers(1, 255)),
        # A cut at a record boundary after the genesis leaves a valid chain.
        st.builds(cut, positions.filter(lambda pos: pos not in starts[1:])),
        st.builds(
            lambda kind, ij: splice(kind, *sorted(ij)),
            st.sampled_from(["replace", "replace-later", "repeat", "drop", "swap"]),
            pairs,
        ),
    )


def test_fuzzed_chain_bytes_end_in_fail_at_their_height(golden_run, tmp_path_factory, capsys):
    # Unlike a resealed value, a flipped byte, a record cut short or records
    # spliced out of order never replay: each fails at the height it hit.
    records = bodies(golden_run.out_dir / "run.chain.jsonl")
    path = tmp_path_factory.mktemp("fuzzed-bytes") / "variant.chain.jsonl"

    @settings(max_examples=150)
    @given(byte_mutations(records))
    def check(mutation):
        path.write_bytes(mutation.data)
        assert main(["verify", "--chain", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL at height {mutation.height}: ")

    check()


def test_canonical_check_matches_the_re_render_on_fuzzed_chains(golden_run, tmp_path_factory):
    # Every record ``read_chain`` accepts from a fuzzed chain is the one the
    # writer renders from what it decodes to, byte for byte: the checks of
    # the decoders leave no second encoding of any record.
    records = bodies(golden_run.out_dir / "run.chain.jsonl")
    path = tmp_path_factory.mktemp("fuzzed-chain") / "variant.chain.jsonl"

    @given(byte_mutations(records))
    def check(mutation):
        path.write_bytes(mutation.data)
        rendered = []

        def decode_and_render(height, body):
            block, genesis_state = strict(height, body)
            rendered.append(encode(block, genesis_state) == body)
            return block, genesis_state

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store, "_decode_record", decode_and_render)
            try:
                for _ in read_chain(path):
                    pass
            except CorruptRecord:
                pass
        assert all(rendered)

    strict = store._decode_record
    check()


def test_encode_helper_renders_from_fields_not_caches(golden_run):
    # ``encode`` stands for the writer in the re-render checks above. A
    # decoded transaction or embedding caches the bytes it was read from, so
    # an ``encode`` that read the caches would render the stored bytes
    # whatever the fields hold: with junk in every cache it still renders
    # them from the fields.
    junked = 0
    for height, body in enumerate(bodies(golden_run.out_dir / "run.chain.jsonl")):
        block, genesis_state = decode(height, body)
        for tx in block.transactions:
            object.__setattr__(tx, "_encoding", b"junk")
            embedding = getattr(tx.payload, "embedding", None)
            if embedding is not None:
                object.__setattr__(embedding, "_encoding", b"junk")
            junked += 1
        assert encode(block, genesis_state) == body
        if block.transactions:
            assert store._encode_record(block, genesis_state) != body
    assert junked > 0


def _check_kept_encodings(block, genesis_state) -> int:
    """Assert that each transaction and embedding decoded with ``block`` and
    ``genesis_state`` caches what a cache-free copy encodes to, so hashes as
    it does; return how many were checked."""
    embeddings = [c.embedding for c in genesis_state.contents.values()] if genesis_state else []
    for tx in block.transactions:
        fresh = uncached_transaction(tx)
        assert tx._encoding == encode_transaction(fresh)
        assert transaction_hash(tx) == transaction_hash(fresh)
        if (embedding := getattr(tx.payload, "embedding", None)) is not None:
            embeddings.append(embedding)
    for e in embeddings:
        fresh = dataclasses.replace(e)
        assert e._encoding == encode_embedding(fresh)
        assert hash_embedding(e) == hash_embedding(fresh)
    return len(block.transactions) + len(embeddings)


def test_decoded_encodings_are_the_fresh_ones_on_fuzzed_chains(golden_run, tmp_path_factory):
    # Replay hashes the bytes a transaction or embedding was read from. In
    # every record that decodes from a fuzzed chain, those bytes are what
    # the fields encode to, so each hash is the one the writer computes.
    records = bodies(golden_run.out_dir / "run.chain.jsonl")
    path = tmp_path_factory.mktemp("fuzzed-caches") / "variant.chain.jsonl"

    @given(byte_mutations(records))
    def check(mutation):
        path.write_bytes(mutation.data)
        try:
            for block, genesis_state in read_chain(path):
                _check_kept_encodings(block, genesis_state)
        except CorruptRecord:
            pass

    check()


def test_decoded_encodings_are_the_fresh_ones_on_mixed_media(tmp_path):
    # The benchmark's seed-7 mixed-media chain: embeddings of all three media
    # types, in both payloads that carry one.
    spec = importlib.util.spec_from_file_location(
        "workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ScenarioRunner(parse_scenario(workloads.mixed_media(7))).run(out_dir=tmp_path)
    checked = sum(
        _check_kept_encodings(block, genesis_state)
        for block, genesis_state in read_chain(tmp_path / "run.chain.jsonl")
    )
    assert checked > 1000


# --- sets --------------------------------------------------------------------


def _chain_with_two_entry_sets(tmp_path):
    """A one-block chain whose genesis holds an algorithm with two media
    types and two challenges submitted."""
    genesis_state = fresh_state()
    genesis_state.algorithms["algo"] = AlgorithmRecord(
        algorithm_id="algo",
        owner="A",
        media_types=frozenset({MediaType.BYTES, MediaType.IMAGE}),
        detector_kind="exact-hash",
        status=AlgorithmStatus.PENDING,
        stake=0,
        registered_at=0,
        challenges_submitted=frozenset({"ch-000", "ch-001"}),
    )
    genesis, state = init_chain(genesis_state)
    block, _, _ = seal_block(state, [transfer("A", "B", 1)], timestamp=1)
    path = tmp_path / "sets.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        writer.append(block)
    return path


# Each set's two entries as the writer lists them.
SET_ENTRIES = {
    "media_types": ["Bytes", "Image"],
    "challenges_submitted": ["ch-000", "ch-001"],
}


@pytest.mark.parametrize("name", ["media_types", "challenges_submitted"])
@pytest.mark.parametrize("edit", ["unsorted", "duplicated"])
def test_set_entries_must_be_sorted_and_distinct(tmp_path, name, edit):
    path = _chain_with_two_entry_sets(tmp_path)
    assert verify_chain(path).ok
    entries = SET_ENTRIES[name]
    edited = list(reversed(entries)) if edit == "unsorted" else [entries[0], *entries]
    # The same set, listed in another order or with a repeat: only the set
    # decoder can refuse it.
    old, new = enc_str_list(entries), enc_str_list(edited)
    assert bodies(path)[0].count(old) == 1
    edit_chain(path, path, 0, raw=lambda body: body.replace(old, new))
    with pytest.raises(CorruptRecord, match="sorted and distinct") as info:
        read_all(path)
    assert info.value.height == 0
    result = verify_chain(path)
    assert not result.ok
    assert result.failing_height == 0
    assert result.error.startswith("CorruptRecord")
