"""The state maps' encoded sections (``core.StateMap``).

Each hashed map of a cloned state keeps its entries' encodings in key
order and re-encodes only the keys written since its last encoding. These
tests check that the cache is never observable: every state encodes as a
fresh copy of it does, whatever was written, cloned or assigned in
between; that a block re-encodes exactly what it wrote; and that many
writes cost a sort, not one insertion each.
"""

import importlib.util
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from veriledger import core
from veriledger.codec import Hash256
from veriledger.core import (
    STATE_MAPS,
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    ContentRecord,
    ContractParams,
    DetectorSpec,
    Embedding,
    MediaType,
    NetworkState,
    RequestStatus,
    StateMap,
    Verdict,
    encode_state,
)
from veriledger.ledger import apply_block, init_chain, seal_block
from veriledger.sim import ScenarioRunner, parse_scenario
from veriledger.store import read_chain

from chainfile import state_copy

ROOT = Path(__file__).resolve().parent.parent

# What each map holds: a value built from a key and a number.
_EMBEDDING = Embedding.from_dense((2, 0, 1), MediaType.BYTES)
VALUES = {
    "validators": lambda key, n: n,
    "balances": lambda key, n: n,
    "nonces": lambda key, n: n,
    "algorithms": lambda key, n: AlgorithmRecord(
        key, "owner", frozenset({MediaType.BYTES}), "near-duplicate",
        AlgorithmStatus.ACTIVE, n, 0,
    ),
    "contents": lambda key, n: ContentRecord(
        key, "provider", MediaType.BYTES, Hash256.zero(), _EMBEDDING, {"n": str(n)}, n
    ),
    "requests": lambda key, n: AnalysisRequest(
        key, "user", MediaType.BYTES, Hash256.zero(), Hash256.zero(), n,
        RequestStatus.PENDING, 0,
    ),
    "results": lambda key, n: AnalysisResultRecord(
        key, "algo", Verdict.AUTHENTIC, 32768, (("c", 16384),), n
    ),
    "detectors": lambda key, n: DetectorSpec("near-duplicate", {"n": n}),
}
assert set(VALUES) == set(STATE_MAPS)

# Keys in an order unlike their insertion order, a prefix of another and
# a non-ASCII one among them; more of them than ``section`` places by
# bisect, so a bulk write takes the sort.
KEYS = ["", "B", "a", "ab", "é", *[f"k{i}" for i in range(90)]]
assert len(KEYS) > core._FEW_WRITES


OPS = {
    "set": lambda m, key, n, values: m.__setitem__(key, values(key, n)),
    "del": lambda m, key, n, values: m.__delitem__(key),
    "pop": lambda m, key, n, values: m.pop(key, None),
    "setdefault": lambda m, key, n, values: m.setdefault(key, values(key, n)),
    "popitem": lambda m, key, n, values: m.popitem(),
    "ior": lambda m, key, n, values: m.__ior__({key: values(key, n)}),
    "bulk": lambda m, key, n, values: m.update(
        {k: values(k, n) for k in KEYS[KEYS.index(key) : KEYS.index(key) + 80]}
    ),
    "clear": lambda m, key, n, values: m.clear(),
}

steps = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "clone", "plain"]),
        st.integers(0, 7),  # which state of the pool
        st.sampled_from(STATE_MAPS),
        st.sampled_from(list(OPS)),
        st.sampled_from(KEYS),
        st.integers(0, 2**64 - 1),
    ),
    min_size=1,
    max_size=40,
)


def _start() -> NetworkState:
    state = NetworkState(params=ContractParams(), validators={"v1": 1})
    for name in STATE_MAPS:
        for i, key in enumerate(KEYS[:3]):
            getattr(state, name)[key] = VALUES[name](key, i)
    return state


@given(steps)
def test_every_state_encodes_as_its_fresh_copy(steps):
    # A pool of states related by clone(): a write to any of them, before
    # or after its clones are made and written, leaves every other's bytes
    # as they were, and each encodes as its copy read back from its chain
    # bytes (new records, plain maps, no section) does.
    # Compared by root: a failing bytes comparison is slow to explain.
    pool = [_start()]
    expected = [pool[0].state_root()]
    for action, which, name, op, key, n in steps:
        i = which % len(pool)
        state = pool[i]
        if action == "clone":
            pool.append(state.clone())
            expected.append(expected[i])
            continue
        if action == "plain":
            setattr(state, name, dict(getattr(state, name)))
        else:
            try:
                OPS[op](getattr(state, name), key, n, VALUES[name])
            except KeyError:
                pass  # a delete from a map without the key
        expected[i] = state.state_root()
        assert [other.state_root() for other in pool] == expected
        assert expected[i] == state_copy(state).state_root()


def test_a_plain_map_assigned_to_a_cloned_state_encodes():
    state = _start().clone()
    encode_state(state)
    state.balances = {"z": 1, "a": 2}
    assert type(state.balances) is dict
    assert encode_state(state) == encode_state(state_copy(state))
    assert isinstance(state.clone().balances, StateMap)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """The long-chain benchmark workload's blocks, seed 7."""
    out = tmp_path_factory.mktemp("long-chain")
    doc = _load_workloads().WORKLOADS["long-chain"](7)
    ScenarioRunner(parse_scenario(doc)).run(out_dir=out)
    return list(read_chain(out / "run.chain.jsonl"))


STATE_RECORDS = (
    AlgorithmRecord, ContentRecord, AnalysisRequest, AnalysisResultRecord,
    DetectorSpec, ContractParams,
)


def test_a_block_encodes_only_what_it_wrote(long_chain, monkeypatch):
    # The chain's last block, sealed on the state before it: its root
    # encodes each record the block stored once, and every other entry not
    # at all, and no sort takes more keys than the block wrote.
    (first, genesis_state), *blocks = long_chain
    _, state = init_chain(genesis_state, timestamp=first.timestamp)
    for block, _ in blocks[:-1]:
        state, _ = apply_block(state, block)
    last, _ = blocks[-1]
    assert len(state.requests) > 100 and len(state.results) > 100

    encoded, sorted_sizes, writes = [], [], []
    encode_record, set_item = core.encode_record, StateMap.__setitem__

    def counting_encode(record):
        if isinstance(record, STATE_RECORDS):
            encoded.append(record)
        return encode_record(record)

    def counting_sorted(keys):
        keys = list(keys)
        sorted_sizes.append(len(keys))
        return sorted(keys)

    def counting_set(m, key, value):
        writes.append(key)
        set_item(m, key, value)

    monkeypatch.setattr(core, "encode_record", counting_encode)
    monkeypatch.setattr(core, "sorted", counting_sorted, raising=False)
    monkeypatch.setattr(StateMap, "__setitem__", counting_set)
    sealed, after, _ = seal_block(state, last.transactions, last.timestamp)
    monkeypatch.undo()

    assert sealed.state_root == last.state_root
    stored = [
        record
        for name in ("algorithms", "contents", "requests", "results", "detectors")
        for key, record in getattr(after, name).items()
        if getattr(state, name).get(key) is not record
    ]
    assert stored and sorted(map(id, encoded)) == sorted(map(id, stored))
    assert writes and sum(sorted_sizes) <= len(writes)
    assert after.state_root() == state_copy(after).state_root()


def _seconds(run) -> float:
    """The least time of three calls of ``run``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _bisects(monkeypatch) -> list:
    """The keys ``StateMap.section`` places by bisect from now on: each
    costs an insertion into its map's lists."""
    calls = []
    bisect_left = core.bisect_left

    def counting(keys, key):
        calls.append(key)
        return bisect_left(keys, key)

    monkeypatch.setattr(core, "bisect_left", counting)
    return calls


N = 2**15


def _from_scratch(balances: dict) -> float:
    """The time to encode a state holding ``balances`` from a plain map."""
    state = NetworkState(params=ContractParams(), validators={}, balances=balances)
    return _seconds(lambda: encode_state(state))


def test_a_large_decoded_map_costs_one_sort(monkeypatch):
    balances = {f"acct-{i:06d}": i for i in range(N)}
    genesis = NetworkState(params=ContractParams(), validators={}, balances=balances)
    data = encode_state(genesis)
    decoded, _ = core.decode_state(data, 0)
    bisects = _bisects(monkeypatch)
    took = _seconds(lambda: encode_state(decoded.clone()))
    assert encode_state(decoded.clone()) == data
    assert len(bisects) <= 3 * core._FEW_WRITES
    assert took <= 4 * _from_scratch(balances)


def test_a_block_of_many_inserts_costs_one_sort(monkeypatch):
    state = NetworkState(
        params=ContractParams(), validators={},
        balances={f"acct-{2 * i:06d}": i for i in range(N)},
    ).clone()
    encode_state(state)
    bisects = _bisects(monkeypatch)

    def block():
        child = state.clone()
        for i in range(N):
            child.balances[f"acct-{2 * i + 1:06d}"] = i
        return encode_state(child)

    took = _seconds(block)
    child_bytes = block()
    assert len(bisects) <= 4 * core._FEW_WRITES
    merged = {**state.balances, **{f"acct-{2 * i + 1:06d}": i for i in range(N)}}
    assert child_bytes == encode_state(
        NetworkState(params=ContractParams(), validators={}, balances=merged)
    )
    assert took <= 4 * _from_scratch(merged)
