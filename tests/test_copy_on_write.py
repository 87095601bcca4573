"""Copy-on-write state: shared immutable records and cached encodings.

``NetworkState.clone`` copies containers and shares records, and each
record caches its canonical encoding. These tests check that neither
shortcut is observable: a sealed or applied block never changes its input
state, and a cached encoding always equals a fresh one.
"""

from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from veriledger.core import (
    AlgorithmRecord,
    AlgorithmStatus,
    MediaType,
    NetworkState,
    ReceiptStatus,
    encode_state,
)
from veriledger.ledger import apply_block, init_chain, seal_block
from veriledger.rng import SplitMix64
from veriledger.store import read_chain

from chainfile import state_bytes, state_copy

from fuzz import FuzzStream, build_fuzz_state
from test_contracts import reward_state


def fresh_copy(state: NetworkState) -> NetworkState:
    """The state rebuilt through the chain file's codec: new records, empty
    caches."""
    return state_copy(state)


def snapshot(state: NetworkState):
    """Everything a state holds, deep enough to expose any later change."""
    containers = {}
    for f in fields(state):
        value = getattr(state, f.name)
        if isinstance(value, dict):
            containers[f.name] = value.copy()
    return (
        encode_state(state),
        state_bytes(state),
        containers,
        state.tip_height,
        state.tip_hash,
    )


def fuzz_start(seed: int):
    rng = SplitMix64(seed)
    state = build_fuzz_state(rng)
    # Fuzzed challenges almost never activate an algorithm, so start with an
    # Active one: commits, feedback and epoch rewards then replace records
    # too.
    stake = state.params.min_stake
    state.algorithms["fz-active"] = AlgorithmRecord(
        algorithm_id="fz-active",
        owner="alice",
        media_types=frozenset({MediaType.BYTES}),
        detector_kind="near-duplicate",
        status=AlgorithmStatus.ACTIVE,
        stake=stake,
        registered_at=0,
    )
    state.initial_supply += stake
    _, state = init_chain(state)
    return rng, FuzzStream(seed=seed + 1), state


def fuzz_txs(rng: SplitMix64, stream: FuzzStream, state: NetworkState):
    return [stream.next_tx(state) for _ in range(rng.randrange(4) + 1)]


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_cached_encodings_match_fresh_records(seed):
    rng, stream, state = fuzz_start(seed)
    for _ in range(30):
        txs = fuzz_txs(rng, stream, state)
        block, state, _ = seal_block(state, txs, timestamp=state.tip_height + 1)
        assert encode_state(state) == encode_state(fresh_copy(state))
        assert state.state_root() == block.state_root


def test_cached_encodings_match_fresh_records_on_golden_replay(golden_run):
    # The golden chain activates its algorithm, commits, takes feedback and
    # pays epoch rewards, so every kind of record replacement occurs.
    records = read_chain(golden_run.out_dir / "run.chain.jsonl")
    first, state = next(records)
    _, state = init_chain(state, timestamp=first.timestamp)
    for block, _ in records:
        state, _ = apply_block(state, block)
        assert encode_state(state) == encode_state(fresh_copy(state))


def test_seal_and_apply_leave_input_state_unchanged():
    rejected = epoch_blocks = 0
    for seed in range(3):
        rng, stream, state = fuzz_start(500 + seed)
        for _ in range(22):
            txs = fuzz_txs(rng, stream, state)
            expected = snapshot(state)
            block, sealed, receipts = seal_block(
                state, txs, timestamp=state.tip_height + 1
            )
            assert snapshot(state) == expected
            applied, _ = apply_block(state, block)
            assert snapshot(state) == expected
            assert encode_state(applied) == encode_state(sealed)
            rejected += sum(r.status is ReceiptStatus.REJECTED for r in receipts)
            epoch_blocks += block.height % state.params.epoch_length == 0
            state = sealed
    assert rejected > 0
    assert epoch_blocks >= 3


def test_epoch_reset_leaves_input_state_unchanged():
    _, state = init_chain(reward_state({"A": 3, "B": 1}))
    for height in range(1, 10):
        _, state, _ = seal_block(state, [], timestamp=height)
    state.state_root()  # fill the encoding caches the reset must not reuse
    expected = snapshot(state)

    block, sealed, _ = seal_block(state, [], timestamp=10)
    applied, _ = apply_block(state, block)

    assert snapshot(state) == expected
    assert state.algorithms["A"].epoch_correct == 3
    for after in (sealed, applied):
        assert all(a.epoch_correct == 0 for a in after.algorithms.values())
        assert encode_state(after) == encode_state(fresh_copy(after))


def test_clone_containers_are_independent():
    rng, stream, state = fuzz_start(42)
    # At least 20 blocks, and until some request has a result.
    while state.tip_height < 20 or not state.results:
        txs = fuzz_txs(rng, stream, state)
        _, state, _ = seal_block(state, txs, timestamp=state.tip_height + 1)
    assert state.requests and state.algorithms
    unlabelled = next(rid for rid, result in state.results.items() if not result.labelled)
    expected = snapshot(state)
    copy = state.clone()
    copy.balances["someone"] = 5
    copy.requests.clear()
    copy.algorithms.clear()
    copy.results[unlabelled] = replace(copy.results[unlabelled], labelled=True)
    assert snapshot(state) == expected
    assert "someone" not in state.balances
    assert not state.results[unlabelled].labelled
