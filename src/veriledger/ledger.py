"""Append-only chain: stake-weighted proposer selection and block application.

The chain has a single canonical branch (no forks, no reorgs). Exactly one
logical actor extends it; ``apply_block`` and ``seal_block`` are pure in
the sense that the input state is never mutated and the same inputs always
produce the same outputs.

One rule decides what a valid block is, the genesis included:
``seal_block`` builds the next block from a state, a transaction list and
a timestamp, and a block is valid on top of a state iff sealing its own
transactions at its own timestamp reproduces it. ``apply_block`` is that
seal plus one header comparison, which names the first field that
differs. A state with no chain yet (``tip_height`` -1, ``tip_hash`` zero)
is followed by the genesis: height 0, proposed by ``GENESIS_PROPOSER``
with no draw.

Proposer selection is deterministic: the seed for height ``h`` is
``sha256(parent_hash || h)`` (h as 8 big-endian bytes), and the first
8 bytes of the seed pick a point on the cumulative stake line. The
comparison is exact integer arithmetic, so every implementation of the
rule agrees on every draw.
"""

from __future__ import annotations

from dataclasses import replace
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
    BadBlockHash,
    BadHeight,
    BadParent,
    EmptyValidatorSet,
    StateRootMismatch,
    UnencodableState,
    WrongProposer,
)

GENESIS_PROPOSER = ""

_TWO64 = 2**64

# The header fields ``apply_block`` compares against the re-sealed block, in
# order, each with the error its mismatch raises. The timestamp and the
# transactions are inputs to the seal, so only the block hash covers them.
HEADER_CHECKS = (
    ("parent_hash", BadParent),
    ("height", BadHeight),
    ("proposer", WrongProposer),
    ("state_root", StateRootMismatch),
    ("block_hash", BadBlockHash),
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


def init_chain(
    state: NetworkState, timestamp: int = 0
) -> tuple[Block, NetworkState]:
    """The genesis block of a state with no chain, and the state positioned
    at it: :func:`seal_block` of no transactions."""
    block, new_state, _ = seal_block(state, (), timestamp)
    return block, new_state


def apply_block(
    state: NetworkState, block: Block
) -> tuple[NetworkState, list[Receipt]]:
    """Validate and apply one block on top of ``state``.

    A block is valid iff re-sealing its transactions at its timestamp
    reproduces it: this seals them with :func:`seal_block`, then compares
    the sealed header against ``block`` field by field in the order of
    ``HEADER_CHECKS`` and raises the first mismatch's error. So an error of
    execution (``UnencodableState``) comes before any header mismatch.
    Rejected transactions leave state untouched but still produce a
    receipt; the input state is never modified.
    """
    sealed, new_state, receipts = seal_block(state, block.transactions, block.timestamp)
    for name, error in HEADER_CHECKS:
        claimed, expected = getattr(block, name), getattr(sealed, name)
        if claimed != expected:
            if isinstance(claimed, Hash256):
                claimed, expected = claimed.hex, expected.hex
            else:  # quoted, so the genesis proposer reads ''
                claimed, expected = repr(claimed), repr(expected)
            raise error(f"{name} {claimed}, expected {expected}")
    return new_state, receipts


def seal_block(
    state: NetworkState, transactions: Sequence[Transaction], timestamp: int
) -> tuple[Block, NetworkState, list[Receipt]]:
    """Build, execute, and seal the next block from ``transactions``: the
    one definition of a block, which :func:`apply_block` checks against.
    The block after a state with no chain is the genesis, whose proposer is
    ``GENESIS_PROPOSER``; every later proposer is drawn by stake."""
    height = state.tip_height + 1
    parent = state.tip_hash
    if height == 0:
        proposer = GENESIS_PROPOSER
    else:
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
        block_hash=Hash256.zero(),  # not covered by the encoding it is the hash of
    )
    block = replace(block, block_hash=hash_bytes(encode_block_fields(block)))
    new_state.tip_height = height
    new_state.tip_hash = block.block_hash
    return block, new_state, receipts
