import base64
import dataclasses
import hashlib
import json
import math
import re
import string
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from veriledger import store
from veriledger.cli import main
from veriledger.codec import Hash256
from veriledger.core import (
    ESCROW_ACCOUNT,
    AlgorithmRecord,
    AlgorithmStatus,
    AnalysisRequest,
    AnalysisResultRecord,
    Block,
    CommitAnalysisResult,
    ContentRecord,
    ContractParams,
    Embedding,
    MediaType,
    NotificationEvent,
    Receipt,
    ReceiptStatus,
    RequestStatus,
    SubmitFeedback,
    Transaction,
    TransferTokens,
    TxKind,
    Verdict,
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
    init_chain,
    proposer_seed,
    seal_block,
    select_proposer,
)
from veriledger.store import (
    ChainView,
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

from conftest import json_containers
from test_ledger import fresh_state, transfer


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


def test_round_trip_identity(tmp_path):
    path, _, _, written = small_chain(tmp_path)
    _, blocks = read_all(path)
    records = replay_all(path).records
    for (block, receipts), read, record in zip(written, blocks, records, strict=True):
        assert read == block
        assert record_from_json(Block, record_to_json(block), "block") == block
        # The file stores no receipts: replay yields the ones it re-executes.
        assert (record.block, record.receipts) == (block, receipts)


# SHA-256 of the golden scenario's chain file. The golden fixtures hold only
# hashes of the binary encodings, so this pins the chain file's JSON layout.
GOLDEN_CHAIN_SHA256 = "5ea7dac3ec2fb0bcb5194e6127fa5f359fedbfd98f5ab0f4f0665a3139b2cb9a"


def test_golden_chain_file_bytes_frozen(golden_run):
    data = (golden_run.out_dir / "run.chain.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CHAIN_SHA256


# Receipts are not stored, but ``inspect --height`` prints them, so their
# JSON form is output that must not change.
def test_rejected_receipt_json_frozen():
    receipt = Receipt(tx_index=3, status=ReceiptStatus.REJECTED, error_code="BadNonce")
    text = canonical_json(record_to_json(receipt))
    assert text == '{"error_code":"BadNonce","events":[],"status":"rejected","tx_index":3}'


def test_printed_receipt_event_carries_the_notification_tag():
    event = NotificationEvent("provider-1", "trusted-000", "r-1", 0.5)
    receipt = Receipt(tx_index=0, status=ReceiptStatus.ACCEPTED, events=(event,))
    assert canonical_json(record_to_json(receipt)) == (
        '{"error_code":null,"events":[{"content_id":"trusted-000","provider":"provider-1",'
        '"request_id":"r-1","similarity":0.5,"type":"notification"}],'
        '"status":"accepted","tx_index":0}'
    )


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
    data = path.read_bytes()
    lines = data.split(b"\n")

    empty = tmp_path / "empty.chain.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(StoreError):
        read_all(empty)

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
        read_all(bad)


B64_ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def _token(raw: bytes) -> str:
    return json.dumps(base64.b64encode(raw).decode("ascii"))


def _layout(token: str) -> tuple[int, list[int], list[bytes]]:
    """The count, the bitmap as one 0 or 1 per bit, and the stored values as
    8-byte strings, of a token."""
    raw = base64.b64decode(token)
    n = int.from_bytes(raw[:4], "big")
    width = (n + 7) // 8
    bits = [raw[4 + i // 8] >> (7 - i % 8) & 1 for i in range(8 * width)]
    start = 4 + width
    values = [raw[start + 8 * j : start + 8 * j + 8] for j in range(sum(bits))]
    return n, bits, values


def _pack(n: int, bits: list[int], values: list[bytes]) -> str:
    bitmap = int("".join(map(str, bits)), 2).to_bytes(len(bits) // 8, "big")
    return _token(struct.pack(">I", n) + bitmap + b"".join(values))


def _bit_past_count(token: str) -> str:
    n, bits, values = _layout(token)
    assert n % 8 == 0  # so that n - 1 values keep the bitmap's width
    if not bits[-1]:
        bits[-1] = 1
        values.append(struct.pack(">d", 1.0))
    return _pack(n - 1, bits, values)


def _bit_over_plus_zero(token: str) -> str:
    n, bits, values = _layout(token)
    i = bits.index(0)
    values.insert(sum(bits[:i]), struct.pack(">d", 0.0))
    bits[i] = 1
    return _pack(n, bits, values)


def _first_value(token: str, value: float) -> str:
    n, bits, values = _layout(token)
    return _pack(n, bits, [struct.pack(">d", value), *values[1:]])


def _padding_bit_set(token: str) -> str:
    data = token.rstrip("=")
    assert data != token  # the golden token has padding bits to set
    last = B64_ALPHABET[B64_ALPHABET.index(data[-1]) | 1]
    return json.dumps(data[:-1] + last + token[len(data) :])


# Each takes the first embedding token of the golden chain and returns the
# JSON text that replaces it.
TOKEN_VARIANTS = {
    "padding-bits": _padding_bit_set,
    "bit-past-count": _bit_past_count,
    "bit-over-plus-zero": _bit_over_plus_zero,
    "nan-bits": lambda token: _first_value(token, math.nan),
    "infinity-bits": lambda token: _first_value(token, math.inf),
    "trailing-byte": lambda token: _token(base64.b64decode(token) + b"\0"),
    "huge-count": lambda token: _token(struct.pack(">I", 2**32 - 1) + b"\xff" * 4),
    "number-token": lambda token: "0",
    "non-ascii-character": lambda token: json.dumps(token[:-1] + "\u00e9"),
}


# Each is (id, old, new): ``new`` replaces the first ``old`` of the golden
# chain file. ``old`` None: ``new`` rewrites the first embedding token.
COSMETIC_VARIANTS = [
    ("duplicate-media-type", '"media_types":["Bytes"]', '"media_types":["Bytes","Bytes"]'),
    ("int-confidence", '"confidence":0.0', '"confidence":0'),
    ("int-similarity", '"trusted-000",0.9999266650298808]', '"trusted-000",1]'),
    ("float-trailing-zero", '"trusted-000",0.9999266650298808]', '"trusted-000",0.99992666502988080]'),
    ("nan", '"confidence":0.0', '"confidence":NaN'),
    ("infinity", '"confidence":0.0', '"confidence":-Infinity'),
    ("float-overflow", '"confidence":0.0', '"confidence":1e999'),
    ("deep-nesting", '"confidence":0.0', '"confidence":' + "[" * 10**5 + "]" * 10**5),
    *((name, None, variant) for name, variant in TOKEN_VARIANTS.items()),
]


def _cosmetic_variant(text: str, old, new) -> str:
    if old is None:
        old = re.search(r'"embedding":("[^"]*")', text).group(1)
        new = new(json.loads(old))
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "old, new",
    [variant[1:] for variant in COSMETIC_VARIANTS],
    ids=[variant[0] for variant in COSMETIC_VARIANTS],
)
def test_no_stored_byte_is_cosmetic(golden_run, tmp_path, old, new):
    # Each variant either decodes to the golden records (a duplicate set
    # entry, a float written with a trailing zero, an embedding token with
    # stray bits) or holds a value no record can. Either way it must be
    # refused, never raise.
    text = (golden_run.out_dir / "run.chain.jsonl").read_text()
    variant = tmp_path / "variant.chain.jsonl"
    variant.write_text(_cosmetic_variant(text, old, new))
    with pytest.raises(CorruptRecord):
        read_all(variant)
    result = verify_chain(variant)
    assert not result.ok
    assert result.failing_height is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_refuses_a_non_finite_embedding(tmp_path, bad):
    genesis_state = fresh_state()
    genesis_state.contents["c"] = ContentRecord(
        content_id="c",
        provider="A",
        media_type=MediaType.BYTES,
        content_hash=Hash256.zero(),
        embedding=Embedding((1.0, bad, 0.0), MediaType.BYTES),
        metadata={},
        registered_at=0,
    )
    genesis, _ = init_chain(genesis_state)
    with ChainWriter(tmp_path / "bad.chain.jsonl") as writer:
        with pytest.raises(SerializationError, match="non-finite"):
            writer.append(genesis, genesis_state=genesis_state)


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
        "FAIL at height 0: CorruptRecord: line 1: genesis block must carry no transactions"
    )


def test_genesis_with_stored_receipts_fails_at_height_0(tmp_path):
    # A "v3" line stored its block's receipts; a "v4" line that still
    # carries them is refused as having an unknown field.
    path, _, _, _ = small_chain(tmp_path, blocks=0)
    record = json.loads(path.read_text())
    record["receipts"] = []
    path.write_text(canonical_json(record) + "\n")
    result = verify_chain(path)
    assert str(result) == (
        "FAIL at height 0: CorruptRecord: line 1: record: fields ['block', 'genesis_state',"
        " 'height', 'receipts', 'version'] != expected ['block', 'genesis_state', 'height',"
        " 'version']"
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
            request.request_id, algorithm.algorithm_id, Verdict.UNVERIFIED, 0.0, ()
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


def _with_completed_request(state, result_algorithm):
    """Add to ``state`` a completed request r-1 of A, with a result naming
    ``result_algorithm``, or with no result if that is None."""
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
            confidence=0.0,
            matched_content=(),
            committed_at=0,
        )


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
    block_hash = compute_block_hash(1, state.tip_hash, 1, proposer, (feedback,), root)
    block = Block(1, state.tip_hash, 1, proposer, (feedback,), root, block_hash)
    path = tmp_path / "dangling.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        writer.append(block)
    assert main(["verify", "--chain", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL at height 0: CorruptRecord: line 1: {fault}\n"


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
    monkeypatch.setattr(store, "MAX_LINE_BYTES", 64)
    with ChainWriter(path) as writer:
        with pytest.raises(SerializationError, match="exceeds 64"):
            writer.append(genesis, genesis_state=genesis_state)
    assert path.read_bytes() == b""


def test_over_long_line_is_refused_before_it_is_read(tmp_path, monkeypatch):
    # A line of 2^20 bytes past a bound of 4096: the reader holds at most
    # one byte more than the bound, never the line.
    path, _, _, _ = small_chain(tmp_path, blocks=0)
    assert len(path.read_bytes()) < 4096
    with path.open("ab") as fh:
        fh.write(b"x" * 2**20 + b"\n")
    monkeypatch.setattr(store, "MAX_LINE_BYTES", 4096)
    with pytest.raises(CorruptRecord, match="longer than 4096 bytes") as info:
        read_all(path)
    assert info.value.line_number == 2
    tracemalloc.start()
    try:
        result = verify_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.failing_height == 1
    assert peak < 2**17


# --- chain-file JSON values, fuzzed ------------------------------------------

WRONG_TYPES = [None, True, False, 0, -1, 1.5, -0.0, "", "x", "Bytes", [], {}, [0], {"a": 1}]
U64_EDGES = [2**64 - 1, 2**64, 2**63, 2**63 - 1, 2**32, -1, -(2**63), -(2**64)]


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
                block, _ = init_chain(
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
        lists = [c for c in json_containers(records[start]) if isinstance(c, list) and len(c) > 1]
        if lists:
            target = draw(st.sampled_from(lists))
            i, j = draw(st.lists(st.integers(0, len(target) - 1), min_size=2, max_size=2, unique=True))
            target[i], target[j] = target[j], target[i]
    else:
        container = draw(st.sampled_from(list(json_containers(records[start]))))
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


def test_fuzzed_chain_values_end_in_a_verify_result(golden_run, tmp_path_factory, capsys):
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    path = tmp_path_factory.mktemp("fuzzed-chain") / "variant.chain.jsonl"
    truth = str(golden_run.out_dir / "ground_truth.json")
    read_commands = [
        ["inspect"],
        ["notifications", "--provider", "provider-1"],
        ["report", "--truth", truth],
    ]

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


# --- the canonical-form check against the re-render it replaced --------------


def _lenient_embedding_values(v, what):
    """The embedding decoder without its checks that a token is the one its
    values render to: non-zero padding bits, a bitmap bit past the count and
    a stored +0.0 all decode."""
    try:
        raw = base64.b64decode(store._as_str(v, what), validate=True)
        (n,) = struct.unpack_from(">I", raw)
        width = (n + 7) // 8
        bitmap = int.from_bytes(raw[4 : 4 + width], "big")
        count = bitmap.bit_count()
        if len(raw) != 4 + width + 8 * count:
            raise SerializationError(f"{what}: wrong length")
        kept = iter(struct.unpack_from(f">{count}d", raw, 4 + width))
    except (ValueError, struct.error) as exc:
        raise SerializationError(f"{what}: {exc}") from exc
    values = tuple(
        next(kept) if bitmap >> (8 * width - 1 - i) & 1 else 0.0 for i in range(n)
    )
    if not all(map(math.isfinite, values)):
        raise SerializationError(f"{what}: non-finite value")
    return values


def _lenient_sorted_strs(v, what):
    """The set decoder without its order check: any order, repeats allowed."""
    return [store._as_str(x, what) for x in store._as_list(v, what)]


def _first_line_the_re_render_refuses(path):
    """The line number at which ``read_chain`` stopped, or None, as it
    checked canonical form before: decode each line with decoders that
    normalise what they may (set order and repeats, stray token bits), then
    render the records again and compare with the line."""
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store, "_sorted_strs", _lenient_sorted_strs)
            patch.setitem(
                store._JSON_CODECS,
                "Embedding",
                (store._embedding_to_json, _lenient_embedding_values),
            )
            store._json_schema.cache_clear()
            return _re_render_check(path)
    finally:
        store._json_schema.cache_clear()


def _re_render_check(path):
    genesis_state = None
    for i, raw in enumerate(path.read_bytes().split(b"\n")[:-1]):
        try:
            text, value = store._parse_line(i + 1, raw)
            expected = {"version", "height", "block"}
            if i == 0:
                expected = expected | {"genesis_state"}
            value = store._expect_keys(value, expected, "record")
            if value["version"] != store.FORMAT_VERSION:
                return i + 1
            height = store._as_nonneg(value["height"], "record.height")
            block = record_from_json(Block, value["block"], "block")
            if i == 0:
                genesis_state = state_from_json(value["genesis_state"])
        except (CorruptRecord, SerializationError):
            return i + 1
        if height != i or block.height != height:
            return i + 1
        try:
            rendered = canonical_json(store._record_to_json(block, genesis_state))
        except ValueError:
            rendered = None
        if rendered != text:
            return i + 1
    return None


def _first_line_read_chain_refuses(path):
    try:
        read_all(path)
    except CorruptRecord as exc:
        return exc.line_number
    return None


def test_canonical_check_matches_the_re_render_on_fuzzed_chains(golden_run, tmp_path_factory):
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    path = tmp_path_factory.mktemp("fuzzed-chain") / "variant.chain.jsonl"

    @given(chain_mutations(lines))
    def check(mutation):
        path.write_text("\n".join(mutation[0]) + "\n")
        assert _first_line_read_chain_refuses(path) == _first_line_the_re_render_refuses(path)

    check()


@pytest.mark.parametrize(
    "old, new",
    [variant[1:] for variant in COSMETIC_VARIANTS],
    ids=[variant[0] for variant in COSMETIC_VARIANTS],
)
def test_canonical_check_matches_the_re_render_on_cosmetic_variants(golden_run, tmp_path, old, new):
    text = (golden_run.out_dir / "run.chain.jsonl").read_text()
    variant = tmp_path / "variant.chain.jsonl"
    variant.write_text(_cosmetic_variant(text, old, new))
    line = _first_line_the_re_render_refuses(variant)
    assert line is not None
    assert _first_line_read_chain_refuses(variant) == line


def _chain_with_two_entry_sets(tmp_path):
    """A one-block chain whose genesis holds an algorithm with two media
    types and two challenges submitted, and two requests with feedback."""
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
    genesis_state.feedback_done = {"r-1", "r-2"}
    genesis, state = init_chain(genesis_state)
    block, _, _ = seal_block(state, [transfer("A", "B", 1)], timestamp=1)
    path = tmp_path / "sets.chain.jsonl"
    with ChainWriter(path) as writer:
        writer.append(genesis, genesis_state=genesis_state)
        writer.append(block)
    return path


def _set_lists(genesis_state):
    algorithm = genesis_state["algorithms"]["algo"]
    return {
        "media_types": algorithm["media_types"],
        "challenges_submitted": algorithm["challenges_submitted"],
        "feedback_done": genesis_state["feedback_done"],
    }


@pytest.mark.parametrize("name", ["media_types", "challenges_submitted", "feedback_done"])
@pytest.mark.parametrize("edit", ["unsorted", "duplicated"])
def test_set_entries_must_be_sorted_and_distinct(tmp_path, name, edit):
    path = _chain_with_two_entry_sets(tmp_path)
    assert verify_chain(path).ok
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    entries = _set_lists(record["genesis_state"])[name]
    assert len(entries) == 2 and entries == sorted(entries)
    if edit == "unsorted":
        entries.reverse()
    else:
        entries.insert(1, entries[0])
    # Canonical JSON of a value that decodes to the same sets: only the set
    # decoder can refuse it.
    lines[0] = canonical_json(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptRecord, match="sorted and distinct") as info:
        read_all(path)
    assert info.value.line_number == 1
    result = verify_chain(path)
    assert not result.ok
    assert result.failing_height == 0
    assert result.error.startswith("CorruptRecord")
