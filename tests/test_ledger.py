import dataclasses

import pytest

from veriledger.codec import Hash256, hash_bytes
from veriledger.core import (
    Block,
    ContractParams,
    NetworkState,
    ReceiptStatus,
    Transaction,
    TransferTokens,
    TxKind,
    encode_block_fields,
    encode_state,
)
from veriledger.errors import (
    BadBlockHash,
    BadHeight,
    BadParent,
    EmptyValidatorSet,
    StateRootMismatch,
    WrongProposer,
)
from veriledger.ledger import (
    GENESIS_PROPOSER,
    apply_block,
    init_chain,
    proposer_seed,
    seal_block,
    select_proposer,
)


def fresh_state(balances=None, validators=None) -> NetworkState:
    balances = balances or {"A": 100, "B": 50}
    validators = validators or {"v1": 10}
    return NetworkState(
        params=ContractParams(),
        validators=dict(validators),
        balances=dict(balances),
        initial_supply=sum(balances.values()) + sum(validators.values()),
    )


def transfer(sender, recipient, amount, nonce=0):
    return Transaction(
        kind=TxKind.TRANSFER_TOKENS,
        sender=sender,
        payload=TransferTokens(recipient=recipient, amount=amount),
        nonce=nonce,
    )


def resealed(block: Block) -> Block:
    """``block`` with the hash of its other fields."""
    return dataclasses.replace(block, block_hash=hash_bytes(encode_block_fields(block)))


# --- proposer selection -----------------------------------------------------


def test_single_validator_always_selected():
    for i in range(20):
        seed = hash_bytes(i.to_bytes(8, "big"))
        assert select_proposer({"A": 100}, seed) == "A"


def test_zero_stake_never_selected():
    for i in range(200):
        seed = hash_bytes(i.to_bytes(8, "big"))
        assert select_proposer({"A": 100, "B": 0}, seed) == "A"


def test_empty_validator_set_rejected():
    with pytest.raises(EmptyValidatorSet):
        select_proposer({}, Hash256.zero())
    with pytest.raises(EmptyValidatorSet):
        select_proposer({"A": 0}, Hash256.zero())


def test_selection_frequency_matches_stake():
    # brute-force frequency count over 100000 hash-derived seeds
    validators = {"A": 100, "B": 300}
    hits = 0
    for i in range(100_000):
        seed = hash_bytes(i.to_bytes(8, "big"))
        if select_proposer(validators, seed) == "A":
            hits += 1
    assert abs(hits / 100_000 - 0.25) <= 0.01


def draw_at(u: int) -> Hash256:
    """A seed whose draw is ``u / 2^64``."""
    return Hash256(u.to_bytes(8, "big") + bytes(24))


def test_a_draw_on_a_cumulative_stake_boundary_goes_to_the_next_validator():
    # "a" holds a quarter of the stake: a draw of exactly 1/4 is not below
    # its cumulative fraction, so "b" wins it, and one just below is "a"'s.
    validators = {"a": 1, "b": 3}
    assert select_proposer(validators, draw_at(2**62)) == "b"
    assert select_proposer(validators, draw_at(2**62 - 1)) == "a"
    # A draw of 0 is the boundary of a zero-stake validator first by id.
    assert select_proposer({"a": 0, "b": 5}, draw_at(0)) == "b"


def test_selection_uses_id_order_not_dict_order():
    seed = Hash256(b"\x00" * 32)  # u = 0: first positive-stake id wins
    assert select_proposer({"z": 5, "a": 5}, seed) == "a"
    assert select_proposer({"a": 5, "z": 5}, seed) == "a"


# --- block hashing ----------------------------------------------------------


def block_hash(height, timestamp):
    block = Block(height, Hash256.zero(), timestamp, "v1", (), hash_bytes(b"root"), Hash256.zero())
    return resealed(block).block_hash


def test_block_hash_changes_with_timestamp():
    assert block_hash(1, 1) != block_hash(1, 2)


def test_block_hash_deterministic():
    assert block_hash(3, 7) == block_hash(3, 7)


def test_golden_genesis_hash_frozen(golden_run):
    import json
    from conftest import GOLDEN_FIXTURE_DIR

    meta = json.loads((GOLDEN_FIXTURE_DIR / "chain_meta.json").read_text())
    genesis = golden_run.result.chain.records[0].block
    assert genesis.block_hash.hex == meta["genesis_block_hash"]
    assert golden_run.result.chain.tip.block_hash.hex == meta["tip_block_hash"]


# --- block application --------------------------------------------------------


def test_empty_block_only_moves_tip():
    _, state = init_chain(fresh_state())
    block, new_state, receipts = seal_block(state, [], timestamp=1)
    assert receipts == []
    assert new_state.tip_height == 1
    assert new_state.tip_hash == block.block_hash
    # everything but tip metadata is unchanged
    assert encode_state(new_state) == encode_state(state)


def test_transfer_moves_funds():
    _, state = init_chain(fresh_state())
    block, new_state, receipts = seal_block(
        state, [transfer("A", "B", 10)], timestamp=1
    )
    assert [r.status for r in receipts] == [ReceiptStatus.ACCEPTED]
    assert new_state.balances["A"] == 90
    assert new_state.balances["B"] == 60
    # replaying the same block through apply_block agrees bit for bit
    replayed, receipts2 = apply_block(state, block)
    assert encode_state(replayed) == encode_state(new_state)
    assert receipts2 == receipts


def test_apply_block_rejects_bad_parent():
    from dataclasses import replace

    _, state = init_chain(fresh_state())
    block, _, _ = seal_block(state, [], timestamp=1)
    with pytest.raises(BadParent):
        apply_block(state, replace(block, parent_hash=hash_bytes(b"other")))


def test_apply_block_rejects_bad_height():
    from dataclasses import replace

    _, state = init_chain(fresh_state())
    block, _, _ = seal_block(state, [], timestamp=1)
    with pytest.raises(BadHeight):
        apply_block(state, replace(block, height=2))


def test_apply_block_rejects_wrong_proposer():
    from dataclasses import replace

    _, state = init_chain(fresh_state(validators={"v1": 10, "v2": 10}))
    block, _, _ = seal_block(state, [], timestamp=1)
    other = "v1" if block.proposer == "v2" else "v2"
    with pytest.raises(WrongProposer):
        apply_block(state, replace(block, proposer=other))


def test_apply_block_rejects_state_root_mismatch():
    from dataclasses import replace

    _, state = init_chain(fresh_state())
    block, _, _ = seal_block(state, [transfer("A", "B", 10)], timestamp=1)
    with pytest.raises(StateRootMismatch):
        apply_block(state, replace(block, state_root=hash_bytes(b"lies")))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("parent_hash", hash_bytes(b"other"), BadParent),
        ("height", 2, BadHeight),
        ("proposer", "nobody", WrongProposer),
        ("state_root", hash_bytes(b"lies"), StateRootMismatch),
        # apply_block used to accept this block and make the forged hash its tip.
        ("block_hash", hash_bytes(b"forged"), BadBlockHash),
    ],
    ids=["parent_hash", "height", "proposer", "state_root", "block_hash"],
)
def test_apply_block_names_the_one_header_field_that_differs(field, value, error):
    from dataclasses import replace

    _, state = init_chain(fresh_state())
    block, _, _ = seal_block(state, [transfer("A", "B", 10)], timestamp=1)
    with pytest.raises(error, match=f"^{field} "):
        apply_block(state, replace(block, **{field: value}))


def test_genesis_is_the_seal_of_no_transactions():
    # A state with no chain is followed by its genesis: height 0 on a zero
    # parent, proposed by GENESIS_PROPOSER without a draw, and checked by
    # apply_block like any block.
    from dataclasses import replace

    fresh = fresh_state()
    sealed, state, receipts = seal_block(fresh, (), 0)
    assert (sealed, state) == init_chain(fresh)
    assert receipts == []
    assert (sealed.height, sealed.parent_hash) == (0, Hash256.zero())
    assert sealed.proposer == GENESIS_PROPOSER
    assert apply_block(fresh, sealed) == (state, [])
    with pytest.raises(WrongProposer, match="^proposer 'v1', expected ''$"):
        apply_block(fresh, replace(sealed, proposer="v1"))


def test_rejected_transactions_are_state_neutral():
    # applying a block equals applying the same block minus rejected txs,
    # except for receipts
    _, state = init_chain(fresh_state())
    txs = [
        transfer("A", "B", 10, nonce=0),
        transfer("A", "B", 10_000, nonce=1),  # rejected: insufficient balance
        transfer("B", "A", 5, nonce=0),
    ]
    block_all, state_all, receipts_all = seal_block(state, txs, timestamp=1)
    assert [r.status for r in receipts_all] == [
        ReceiptStatus.ACCEPTED,
        ReceiptStatus.REJECTED,
        ReceiptStatus.ACCEPTED,
    ]
    kept = [txs[0], txs[2]]
    block_kept, state_kept, _ = seal_block(state, kept, timestamp=1)
    assert state_all.state_root() == state_kept.state_root()


def test_chain_linkage_and_replay_determinism():
    genesis, state = init_chain(fresh_state())
    blocks = [genesis]
    nonce = 0
    for height in range(1, 8):
        txs = [transfer("A", "B", 1, nonce=nonce)]
        nonce += 1
        block, state, _ = seal_block(state, txs, timestamp=height)
        blocks.append(block)

    for prev, nxt in zip(blocks, blocks[1:]):
        assert nxt.parent_hash == prev.block_hash
        assert nxt.height == prev.height + 1
        seed = proposer_seed(nxt.parent_hash, nxt.height)
        assert nxt.proposer == select_proposer(state.validators, seed)

    # replay the same sequence twice; final encodings are bit-identical
    def run():
        _, s = init_chain(fresh_state())
        for block in blocks[1:]:
            s, _ = apply_block(s, block)
        return encode_state(s)

    assert run() == run()
    assert run() == encode_state(state)


def test_bad_nonce_rejected_and_consumes_nothing():
    _, state = init_chain(fresh_state())
    txs = [
        transfer("A", "B", 1, nonce=5),
        transfer("A", "B", 1, nonce=5),  # replay of same nonce -> rejected
        transfer("A", "B", 1, nonce=6),
    ]
    _, new_state, receipts = seal_block(state, txs, timestamp=1)
    assert [r.status for r in receipts] == [
        ReceiptStatus.ACCEPTED,
        ReceiptStatus.REJECTED,
        ReceiptStatus.ACCEPTED,
    ]
    assert receipts[1].error_code == "BadNonce"
    assert new_state.balances["A"] == 98
