"""Append-only chain: stake-weighted proposer selection and block application.

The chain has a single canonical branch (no forks, no reorgs). Exactly one
logical actor extends it; ``apply_block`` and ``seal_block`` are pure in
the sense that the input state is never mutated and the same inputs always
produce the same outputs.

Proposer selection is deterministic: the seed for height ``h`` is
``sha256(parent_hash || h)`` (h as 8 big-endian bytes), and the first
8 bytes of the seed pick a point on the cumulative stake line. The
comparison is exact integer arithmetic, so every implementation of the
rule agrees on every draw.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .codec import Hash256, hash_bytes
from .contracts import ExecContext, distribute_epoch_rewards, execute_transaction
from .core import (
    Block,
    NetworkState,
    Receipt,
    Transaction,
    encode_block_fields,
    transaction_hash,
)
from .errors import (
    BadHeight,
    BadParent,
    EmptyValidatorSet,
    StateRootMismatch,
    UnencodableState,
    WrongProposer,
)

GENESIS_PARENT = Hash256.zero()
GENESIS_PROPOSER = ""

_TWO64 = 2**64


def compute_block_hash(
    height: int,
    parent_hash: Hash256,
    timestamp: int,
    proposer: str,
    transactions: Sequence[Transaction],
    state_root: Hash256,
) -> Hash256:
    """Digest over the canonical encoding of every block field but the hash."""
    return hash_bytes(
        encode_block_fields(
            height, parent_hash, timestamp, proposer, transactions, state_root
        )
    )


def proposer_seed(parent_hash: Hash256, height: int) -> Hash256:
    return hash_bytes(parent_hash.value + height.to_bytes(8, "big"))


def select_proposer(validators: Mapping[str, int], seed: Hash256) -> str:
    """Stake-weighted deterministic draw over validators sorted by id.

    Let u = (first 8 seed bytes, big-endian) / 2^64; the winner is the
    first validator whose cumulative stake fraction exceeds u. Zero-stake
    validators are never selected.
    """
    total = sum(validators.values())
    if total <= 0:
        raise EmptyValidatorSet("total stake must be positive")
    u = int.from_bytes(seed.value[:8], "big")
    cumulative = 0
    for vid in sorted(validators):
        cumulative += validators[vid]
        # cumulative/total > u/2^64, kept in integers
        if cumulative * _TWO64 > u * total:
            return vid
    raise AssertionError("unreachable: u < 2^64 guarantees selection")


def _execute_all(
    state: NetworkState,
    transactions: Sequence[Transaction],
    height: int,
    proposer: str,
) -> list[Receipt]:
    receipts = []
    for index, tx in enumerate(transactions):
        ctx = ExecContext(
            height=height,
            proposer=proposer,
            tx_index=index,
            tx_hash=transaction_hash(tx),
        )
        receipts.append(execute_transaction(state, tx, ctx))
    if height > 0 and height % state.params.epoch_length == 0:
        distribute_epoch_rewards(state, height)
    return receipts


def _state_root(state: NetworkState) -> Hash256:
    try:
        return state.state_root()
    except ValueError as exc:  # e.g. a credit pushed a balance past 2^64 - 1
        raise UnencodableState(str(exc)) from exc


def genesis_block(state: NetworkState, timestamp: int = 0) -> Block:
    """The height-0 block sealing the scenario's starting state."""
    root = _state_root(state)
    block_hash = compute_block_hash(
        0, GENESIS_PARENT, timestamp, GENESIS_PROPOSER, (), root
    )
    return Block(
        height=0,
        parent_hash=GENESIS_PARENT,
        timestamp=timestamp,
        proposer=GENESIS_PROPOSER,
        transactions=(),
        state_root=root,
        block_hash=block_hash,
    )


def init_chain(
    state: NetworkState, timestamp: int = 0
) -> tuple[Block, NetworkState]:
    """Produce the genesis block and the state positioned at it."""
    block = genesis_block(state, timestamp)
    new_state = state.clone()
    new_state.tip_height = 0
    new_state.tip_hash = block.block_hash
    return block, new_state


def apply_block(
    state: NetworkState, block: Block
) -> tuple[NetworkState, list[Receipt]]:
    """Validate and apply one block on top of ``state``.

    Rejected transactions leave state untouched but still produce a
    receipt. Any structural error (parent, height, proposer, state root)
    aborts the whole block and raises; the input state is never modified.
    """
    if state.tip_height < 0:
        raise BadHeight("chain not initialized (no genesis)")
    if block.parent_hash != state.tip_hash:
        raise BadParent(
            f"parent {block.parent_hash.hex} != tip {state.tip_hash.hex}"
        )
    if block.height != state.tip_height + 1:
        raise BadHeight(f"height {block.height}, expected {state.tip_height + 1}")
    expected = select_proposer(
        state.validators, proposer_seed(block.parent_hash, block.height)
    )
    if block.proposer != expected:
        raise WrongProposer(f"{block.proposer}, expected {expected}")

    new_state = state.clone()
    receipts = _execute_all(new_state, block.transactions, block.height, block.proposer)
    root = _state_root(new_state)
    if root != block.state_root:
        raise StateRootMismatch(
            f"computed {root.hex}, block claims {block.state_root.hex}"
        )
    new_state.tip_height = block.height
    new_state.tip_hash = block.block_hash
    return new_state, receipts


def seal_block(
    state: NetworkState, transactions: Sequence[Transaction], timestamp: int
) -> tuple[Block, NetworkState, list[Receipt]]:
    """Build, execute, and seal the next block from ``transactions``.

    The resulting block replays cleanly through :func:`apply_block`.
    """
    if state.tip_height < 0:
        raise BadHeight("chain not initialized (no genesis)")
    height = state.tip_height + 1
    parent = state.tip_hash
    proposer = select_proposer(state.validators, proposer_seed(parent, height))

    new_state = state.clone()
    receipts = _execute_all(new_state, transactions, height, proposer)
    root = _state_root(new_state)
    block = Block(
        height=height,
        parent_hash=parent,
        timestamp=timestamp,
        proposer=proposer,
        transactions=tuple(transactions),
        state_root=root,
        block_hash=compute_block_hash(
            height, parent, timestamp, proposer, transactions, root
        ),
    )
    new_state.tip_height = height
    new_state.tip_hash = block.block_hash
    return block, new_state, receipts
