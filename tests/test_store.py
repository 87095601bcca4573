import json

import pytest

from veriledger.core import ContractParams, encode_state
from veriledger.errors import (
    CorruptRecord,
    HeightGap,
    SerializationError,
    StoreError,
)
from veriledger.ledger import init_chain, seal_block
from veriledger.store import (
    ChainWriter,
    append_block,
    block_from_json,
    block_to_json,
    canonical_json,
    params_from_json,
    params_to_json,
    read_chain,
    receipt_from_json,
    receipt_to_json,
    replay,
    replay_chain,
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
    append_block(writer, genesis, (), genesis_state=genesis_state)
    with pytest.raises(HeightGap):
        append_block(writer, block2, ())
    writer.close()


def test_round_trip_identity(tmp_path):
    path, _, live_state, all_receipts = small_chain(tmp_path)
    _, records = read_chain(path)
    for record, expected_receipts in zip(records, all_receipts):
        assert record.receipts == expected_receipts
        assert block_from_json(block_to_json(record.block)) == record.block
        for receipt in record.receipts:
            assert receipt_from_json(receipt_to_json(receipt)) == receipt


def test_state_json_round_trip_bit_exact(golden_run):
    state = golden_run.result.chain.final_state
    restored = state_from_json(json.loads(canonical_json(state_to_json(state))))
    assert encode_state(restored) == encode_state(state)
    assert restored.state_root() == state.state_root()


def test_params_u64_range_checked_at_parse():
    doc = params_to_json(ContractParams())
    assert params_from_json({**doc, "min_fee": 2**64 - 1}).min_fee == 2**64 - 1
    with pytest.raises(SerializationError):
        params_from_json({**doc, "min_fee": 2**64})


def test_replay_reproduces_live_state(tmp_path):
    path, genesis_state, live_state, _ = small_chain(tmp_path)
    final = replay_chain(path)
    assert encode_state(final) == encode_state(live_state)
    assert final.tip_hash == live_state.tip_hash
    # explicit genesis_state argument takes the same path
    final2 = replay_chain(path, genesis_state=genesis_state)
    assert encode_state(final2) == encode_state(final)


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
