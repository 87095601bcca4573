import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from veriledger.codec import Hash256
from veriledger.core import (
    AlgorithmRecord,
    AlgorithmStatus,
    Block,
    ContractParams,
    MediaType,
    NotificationEvent,
    Receipt,
    ReceiptStatus,
    encode_state,
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
    compute_block_hash,
    genesis_block,
    init_chain,
    proposer_seed,
    seal_block,
    select_proposer,
)
from veriledger.store import (
    ChainWriter,
    VerifyResult,
    canonical_json,
    read_chain,
    record_from_json,
    record_to_json,
    replay,
    state_from_json,
    state_to_json,
    verify_chain,
)

from test_ledger import fresh_state, transfer


def small_chain(tmp_path, blocks=3):
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    path = tmp_path / "small.chain.jsonl"
    writer = ChainWriter(path)
    writer.append(genesis, (), genesis_state=genesis_state)
    nonce = 0
    all_receipts = [()]
    for height in range(1, blocks + 1):
        txs = [transfer("A", "B", 1, nonce=nonce)]
        nonce += 1
        block, state, receipts = seal_block(state, txs, timestamp=height)
        writer.append(block, receipts)
        all_receipts.append(tuple(receipts))
    writer.close()
    return path, genesis_state, state, all_receipts


def test_append_genesis_then_read_back(tmp_path):
    path, genesis_state, _, _ = small_chain(tmp_path, blocks=0)
    stored_genesis, records = read_chain(path)
    assert len(records) == 1
    assert records[0].height == 0
    assert encode_state(stored_genesis) == encode_state(genesis_state)


def test_append_height_gap_rejected(tmp_path):
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    block1, state, receipts = seal_block(state, [], timestamp=1)
    block2, state, _ = seal_block(state, [], timestamp=2)
    writer = ChainWriter(tmp_path / "gap.chain.jsonl")
    writer.append(genesis, (), genesis_state=genesis_state)
    with pytest.raises(HeightGap):
        writer.append(block2, ())
    writer.close()


def test_round_trip_identity(tmp_path):
    path, _, live_state, all_receipts = small_chain(tmp_path)
    _, records = read_chain(path)
    for record, expected_receipts in zip(records, all_receipts):
        assert record.receipts == expected_receipts
        assert record_from_json(Block, record_to_json(record.block), "block") == record.block
        for receipt in record.receipts:
            assert record_from_json(Receipt, record_to_json(receipt), "receipt") == receipt


# SHA-256 of the golden scenario's chain file. The golden fixtures hold only
# hashes of the binary encodings, so this pins the chain file's JSON layout.
GOLDEN_CHAIN_SHA256 = "eddd7e0331303be67473bf83defe434034202dae8f65b0781817022e4fc94ff7"


def test_golden_chain_file_bytes_frozen(golden_run):
    data = (golden_run.out_dir / "run.chain.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CHAIN_SHA256


def test_rejected_receipt_json_frozen():
    # The golden chain holds no rejected receipt, so its digest does not
    # cover an error code.
    receipt = Receipt(tx_index=3, status=ReceiptStatus.REJECTED, error_code="BadNonce")
    text = canonical_json(record_to_json(receipt))
    assert text == '{"error_code":"BadNonce","events":[],"status":"rejected","tx_index":3}'
    assert record_from_json(Receipt, json.loads(text), "receipt") == receipt


@pytest.mark.parametrize("tag", [None, "", "Notification", "transfer"])
def test_receipt_event_needs_the_notification_tag(tag):
    event = NotificationEvent("provider-1", "trusted-000", "r-1", 0.5)
    receipt = Receipt(tx_index=0, status=ReceiptStatus.ACCEPTED, events=(event,))
    doc = record_to_json(receipt)
    assert doc["events"][0]["type"] == "notification"
    assert record_from_json(Receipt, doc, "receipt") == receipt
    if tag is None:
        del doc["events"][0]["type"]
    else:
        doc["events"][0]["type"] = tag
    with pytest.raises(SerializationError, match="unknown event type"):
        record_from_json(Receipt, doc, "receipt")


def test_state_json_round_trip_bit_exact(golden_run):
    state = golden_run.result.chain.final_state
    restored = state_from_json(json.loads(canonical_json(state_to_json(state))))
    assert encode_state(restored) == encode_state(state)
    assert restored.state_root() == state.state_root()


def test_params_u64_range_checked_at_parse():
    doc = record_to_json(ContractParams())
    top = {**doc, "min_fee": 2**64 - 1}
    assert record_from_json(ContractParams, top, "params").min_fee == 2**64 - 1
    with pytest.raises(SerializationError):
        record_from_json(ContractParams, {**doc, "min_fee": 2**64}, "params")


def test_replay_reproduces_live_state(tmp_path):
    path, _, live_state, _ = small_chain(tmp_path)
    final = replay(path).final_state
    assert encode_state(final) == encode_state(live_state)
    assert final.tip_hash == live_state.tip_hash


def test_replay_golden_matches_tip_root(golden_run):
    path = golden_run.out_dir / "run.chain.jsonl"
    view = replay(path)
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
    data = path.read_bytes()
    lines = data.split(b"\n")

    empty = tmp_path / "empty.chain.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(StoreError):
        read_chain(empty)

    headless = tmp_path / "headless.chain.jsonl"
    headless.write_bytes(b"\n".join(lines[1:]))
    assert not verify_chain(headless).ok


def test_non_canonical_line_rejected(tmp_path):
    path, _, _, _ = small_chain(tmp_path)
    lines = path.read_bytes().decode().splitlines()
    # semantically identical but re-ordered JSON must be rejected
    parsed = json.loads(lines[1])
    pretty = json.dumps(parsed, indent=1)
    mutated = "\n".join([lines[0], pretty.replace("\n", "")] + lines[2:]) + "\n"
    bad = tmp_path / "pretty.chain.jsonl"
    bad.write_text(mutated)
    with pytest.raises(CorruptRecord):
        read_chain(bad)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"media_types":["Bytes"]', '"media_types":["Bytes","Bytes"]'),
        ('"confidence":0.0', '"confidence":0'),
        (",0.0,", ",0,"),
        (",0.0,", ",0.00,"),
        ('"confidence":0.0', '"confidence":NaN'),
        ('"confidence":0.0', '"confidence":-Infinity'),
        ('"confidence":0.0', '"confidence":1e999'),
        ('"confidence":0.0', '"confidence":' + "[" * 10**5 + "]" * 10**5),
    ],
    ids=[
        "duplicate-media-type",
        "int-confidence",
        "int-embedding-value",
        "float-trailing-zero",
        "nan",
        "infinity",
        "float-overflow",
        "deep-nesting",
    ],
)
def test_no_stored_byte_is_cosmetic(golden_run, tmp_path, old, new):
    # Each variant either decodes to the golden records (a duplicate set
    # entry, a float written with a trailing zero) or holds a value no
    # record can. Either way it must be refused, never raise.
    text = (golden_run.out_dir / "run.chain.jsonl").read_text()
    assert old in text
    variant = tmp_path / "variant.chain.jsonl"
    variant.write_text(text.replace(old, new, 1))
    with pytest.raises(CorruptRecord):
        read_chain(variant)
    result = verify_chain(variant)
    assert not result.ok
    assert result.failing_height is not None


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
    block_hash = compute_block_hash(1, state.tip_hash, 1, proposer, txs, root)
    block = Block(1, state.tip_hash, 1, proposer, txs, root, block_hash)
    with pytest.raises(UnencodableState):
        apply_block(state, block)
    with pytest.raises(UnencodableState):
        seal_block(state, txs, timestamp=1)
    path = tmp_path / "overflow.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, (), genesis_state=genesis_state)
        writer.append(block, ())
    result = verify_chain(path)
    assert not result.ok
    assert result.failing_height == 1
    assert "UnencodableState" in result.error


def test_receipt_divergence_detected(tmp_path):
    path, _, _, _ = small_chain(tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["receipts"][0]["status"] = "rejected"
    lines[1] = canonical_json(record)
    bad = tmp_path / "receipts.chain.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    result = verify_chain(bad)
    assert not result.ok
    assert "receipts" in result.error or "hash" in result.error


def test_writer_resumes_appending(tmp_path):
    genesis_state = fresh_state()
    genesis, state = init_chain(genesis_state)
    path = tmp_path / "resume.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, (), genesis_state=genesis_state)
    block, state, receipts = seal_block(state, [transfer("A", "B", 2)], timestamp=1)
    with ChainWriter(path) as writer:
        assert writer.last_height == 0
        writer.append(block, receipts)
    assert verify_chain(path).ok


@pytest.mark.parametrize("cut", [50, 1], ids=["cut-50-bytes", "drop-final-newline"])
def test_writer_refuses_torn_tail(golden_run, tmp_path, cut):
    # Resuming used to die in json.loads (50 bytes cut) or to glue the next
    # record onto line 31 (only the final newline dropped).
    data = (golden_run.out_dir / "run.chain.jsonl").read_bytes()
    path = tmp_path / "torn.chain.jsonl"
    path.write_bytes(data[:-cut])
    with pytest.raises(CorruptRecord) as info:
        ChainWriter(path)
    assert info.value.line_number == data.count(b"\n") == 31
    assert path.read_bytes() == data[:-cut]


def test_writer_refuses_a_corrupt_chain(golden_run, tmp_path):
    lines = (golden_run.out_dir / "run.chain.jsonl").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b'"height":4', b'"height": 4', 1)
    path = tmp_path / "corrupt.chain.jsonl"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptRecord) as info:
        ChainWriter(path)
    assert info.value.line_number == 5


# --- chain-file JSON values, fuzzed ------------------------------------------

WRONG_TYPES = [None, True, False, 0, -1, 1.5, -0.0, "", "x", "Bytes", [], {}, [0], {"a": 1}]
U64_EDGES = [2**64 - 1, 2**64, 2**63, 2**63 - 1, 2**32, -1, -(2**63), -(2**64)]


def _containers(value):
    """Every dict and list in ``value``, ``value`` included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


def _reseal(records, start):
    """Rewrite the block hash of record ``start`` and every later record, and
    the parent hash each later block stores, so that replay gets past the
    hash checks to the mutated value. Stops at the first record whose block
    no longer decodes: replay stops there too."""
    parent = None  # record ``start`` keeps the parent hash it stores
    for i in range(start, len(records)):
        record = records[i]
        try:
            if i == 0:
                block = genesis_block(
                    state_from_json(record["genesis_state"]),
                    timestamp=record["block"]["timestamp"],
                )
            else:
                block = record_from_json(Block, record["block"], "block")
                if parent is not None:
                    block = dataclasses.replace(block, parent_hash=parent)
                block_hash = compute_block_hash(
                    block.height, block.parent_hash, block.timestamp, block.proposer,
                    block.transactions, block.state_root,
                )
                block = dataclasses.replace(block, block_hash=block_hash)
            record["block"] = record_to_json(block)
        except (VeriledgerError, KeyError, TypeError, ValueError):
            return
        parent = block.block_hash


@st.composite
def chain_mutations(draw, lines):
    """The golden chain's lines with one JSON value of one record mutated,
    resealed, and the dict key mutated (``None`` for a list entry)."""
    records = [json.loads(line) for line in lines]
    start = draw(st.integers(0, len(records) - 1))
    kind = draw(st.sampled_from(["type", "u64", "drop", "add", "reorder"]))
    key = None
    if kind == "reorder":
        receipts = records[start]["receipts"]
        if len(receipts) > 1 and draw(st.booleans()):
            lists = [receipts]
        else:
            lists = [c for c in _containers(records[start]) if isinstance(c, list) and len(c) > 1]
        if lists:
            target = draw(st.sampled_from(lists))
            i, j = draw(st.lists(st.integers(0, len(target) - 1), min_size=2, max_size=2, unique=True))
            target[i], target[j] = target[j], target[i]
    else:
        container = draw(st.sampled_from(list(_containers(records[start]))))
        is_dict = isinstance(container, dict)
        if kind == "add" or not container:
            if is_dict:
                key = draw(st.sampled_from(["extra", "type", "height", ""]))
                container[key] = draw(st.sampled_from(WRONG_TYPES))
            else:
                container.append(draw(st.sampled_from(WRONG_TYPES + container[:1])))
        else:
            index = draw(st.sampled_from(sorted(container) if is_dict else range(len(container))))
            key = index if is_dict else None
            if kind == "drop":
                del container[index]
            else:
                container[index] = draw(st.sampled_from(WRONG_TYPES if kind == "type" else U64_EDGES))
    _reseal(records, start)
    return [canonical_json(r) for r in records], key


def test_fuzzed_chain_values_end_in_a_verify_result(golden_run, tmp_path_factory):
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    path = tmp_path_factory.mktemp("fuzzed-chain") / "variant.chain.jsonl"

    @settings(max_examples=150)
    @given(chain_mutations(lines))
    def check(mutation):
        mutated, key = mutation
        path.write_text("\n".join(mutated) + "\n")
        result = verify_chain(path)
        assert isinstance(result, VerifyResult)
        if result.ok:
            # Replay checks no timestamp. A changed one fails only where the
            # new block hash reseeds a later proposer draw, so a tip's passes.
            assert mutated == lines or key == "timestamp"
        else:
            assert result.error and result.failing_height is not None

    check()
