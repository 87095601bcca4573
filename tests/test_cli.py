import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from veriledger import core
from veriledger.cli import main
from veriledger.codec import Hash256
from veriledger.core import DetectorSpec
from veriledger.detection import (
    _PLUGINS,
    MatchCandidate,
    register_detector_kind,
    run_detector,
)
from veriledger.ledger import init_chain
from veriledger.store import canonical_json, read_chain, record_to_json

from chainfile import decode, edit_chain
from conftest import GOLDEN_CONFIG_PATH, REPO_ROOT


def run_cli(args, env=None, timeout=None):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(REPO_ROOT / "src")
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "veriledger", *args],
        capture_output=True,
        text=True,
        env=merged,
        timeout=timeout,
    )


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["blocks"] == 31
    for name in ("run.chain.jsonl", "report.json", "metrics.csv",
                 "oracle.log", "ground_truth.json"):
        assert (out / name).exists(), name


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["not_a_key"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_run_rejects_missing_config(tmp_path):
    code = main(
        ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 2


def test_verify_ok_and_exit_zero(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    code = main(["verify", "--chain", str(chain)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("OK tip=")


def test_verify_tampered_exits_one_and_names_height(golden_run, tmp_path, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    tampered = tmp_path / "tampered.chain.jsonl"
    edit_chain(
        chain, tampered, 5,
        lambda block, state: (dataclasses.replace(block, timestamp=block.timestamp + 1), state),
    )
    code = main(["verify", "--chain", str(tampered)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    assert "height 5" in out


def _swap_proposer(block):
    return dataclasses.replace(block, proposer="v1" if block.proposer == "v2" else "v2")


# One header field edited and not resealed, with the error it must raise.
HEADER_EDITS = pytest.mark.parametrize(
    "edit, error",
    [
        (lambda block: dataclasses.replace(block, parent_hash=Hash256(b"\x11" * 32)), "BadParent"),
        (_swap_proposer, "WrongProposer"),
        (lambda block: dataclasses.replace(block, state_root=Hash256(b"\x22" * 32)),
         "StateRootMismatch"),
        (lambda block: dataclasses.replace(block, block_hash=Hash256(b"\x33" * 32)), "BadBlockHash"),
        # Only the block hash covers the timestamp, which the seal takes as given.
        (lambda block: dataclasses.replace(block, timestamp=block.timestamp + 1), "BadBlockHash"),
        (lambda block: dataclasses.replace(block, height=block.height + 1), "BadHeight"),
    ],
    ids=["parent_hash", "proposer", "state_root", "block_hash", "timestamp", "height"],
)


def _verify_with_edited_header(golden_run, tmp_path, capsys, height, edit):
    edited = tmp_path / "edited.chain.jsonl"
    edit_chain(
        golden_run.out_dir / "run.chain.jsonl", edited, height,
        lambda block, state: (edit(block), state),
    )
    code = main(["verify", "--chain", str(edited)])
    assert code == 1
    return capsys.readouterr().out


@HEADER_EDITS
def test_verify_names_the_header_field_an_edit_breaks(golden_run, tmp_path, capsys, edit, error):
    out = _verify_with_edited_header(golden_run, tmp_path, capsys, 5, edit)
    assert out.startswith(f"FAIL at height 5: {error}: ")


@HEADER_EDITS
def test_verify_names_the_genesis_header_field_an_edit_breaks(
    golden_run, tmp_path, capsys, edit, error
):
    # The genesis goes through the same header comparison as every later
    # block, so an edit names its field rather than the whole block.
    out = _verify_with_edited_header(golden_run, tmp_path, capsys, 0, edit)
    assert out.startswith(f"FAIL at height 0: {error}: ")
    if error == "WrongProposer":
        assert out == "FAIL at height 0: WrongProposer: proposer 'v2', expected ''\n"


def _field_start(body, name):
    """Where the first field called ``name`` starts in the genesis record
    ``body``, as the reader walks it."""
    starts = {}

    def walk(fields, data, pos):
        values = {}
        for field, decode_field in fields:
            if data is body:
                starts.setdefault(field, pos)
            values[field], pos = decode_field(data, pos)
        return values, pos

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_walk", walk)
        decode(0, body)
    return starts[name]


def _count_past_end(name):
    """The genesis record with the count of the map, list or set ``name``
    claiming 2^32 - 1 entries: bytes that are no map, list or set."""

    def raw(body):
        start = _field_start(body, name)
        return body[:start] + b"\xff" * 4 + body[start + 4 :]

    return raw


def _params(**changes):
    """Replace fields of the genesis params without their own checks."""

    def edit(state):
        params = dataclasses.replace(state.params)
        for name, value in changes.items():
            object.__setattr__(params, name, value)
        state.params = params

    return edit


def _wrapping_balances(state):
    """Add 2^63 to two balances: each still fits a u64, and the tokens held
    exceed the supply by exactly 2^64, so a sum taken modulo 2^64 would find
    them conserved."""
    for account in ("owner-1", "user-1"):
        state.balances[account] += 2**63


def _final_record(name, key):
    """Copy into the genesis a record of the golden run's final state: the
    golden genesis holds no algorithm or content."""

    def edit(state, golden_run):
        getattr(state, name)[key] = getattr(golden_run.result.chain.final_state, name)[key]

    return edit


def _byte_of(name, value):
    """The genesis record with the first byte of the field ``name`` set to
    ``value``."""

    def raw(body):
        start = _field_start(body, name)
        return body[:start] + bytes([value]) + body[start + 1 :]

    return raw


def _stake_burned_off_by_one(state):
    # Burned tokens are derived from the burn counters, so one more burned
    # than the balances and stakes account for breaks conservation.
    state.stake_burned += 1


# A golden request, whose result in the golden run's final state is labelled.
GOLDEN_REQUEST = "10885d55ad2e6397"
COUNT_PAST_END = "count 4294967295 exceeds the"

# id -> (state field the failure names, edit of the genesis state, edit of
# the record's bytes, what the refusal of those bytes says)
HOSTILE_GENESIS = {
    "epoch-length-zero": ("params", _params(epoch_length=0), None, None),
    "fee-split-over-100": ("params", _params(fee_owner_pct=99), None, None),
    "u64-overflow": ("balances", _wrapping_balances, None, None),
    "validators-not-object": (
        "validators", None, _count_past_end("validators"), COUNT_PAST_END
    ),
    "balances-not-object": ("balances", None, _count_past_end("balances"), COUNT_PAST_END),
    "algorithms-not-object": (
        "algorithms", None, _count_past_end("algorithms"), COUNT_PAST_END
    ),
    "labelled-bool-byte-2": (
        "results", _final_record("results", GOLDEN_REQUEST), _byte_of("labelled", 2),
        "labelled: bool byte 2",
    ),
    "media-types-not-list": (
        "algorithms", _final_record("algorithms", "algo-nd"), _count_past_end("media_types"),
        COUNT_PAST_END,
    ),
    "challenges-submitted-not-list": (
        "algorithms", _final_record("algorithms", "algo-nd"),
        _count_past_end("challenges_submitted"), COUNT_PAST_END,
    ),
    "metadata-not-object": (
        "contents", _final_record("contents", "trusted-000"), _count_past_end("metadata"),
        COUNT_PAST_END,
    ),
    "genesis-breaks-conservation": (
        "balances", lambda state: state.balances.update({"owner-1": 151}), None, None
    ),
    "stake-burned-off-by-one": ("balances", _stake_burned_off_by_one, None, None),
}


@pytest.mark.parametrize(
    "name, edit, raw, refusal", HOSTILE_GENESIS.values(), ids=HOSTILE_GENESIS.keys()
)
def test_verify_hostile_genesis_params_fail_at_height_zero(
    golden_run, tmp_path, capsys, name, edit, raw, refusal
):
    chain = golden_run.out_dir / "run.chain.jsonl"
    hostile = tmp_path / "hostile.chain.jsonl"

    def edit_genesis(block, state):
        if edit is not None:
            edit(state) if edit.__code__.co_argcount == 1 else edit(state, golden_run)
        if name == "balances" and raw is None:
            # One token more or less than the supply, in a genesis block
            # resealed to match it: only the conservation check can refuse
            # this chain.
            block, _ = init_chain(state)
        return block, state

    # The later blocks are dropped from the resealed chain: their parent
    # hashes no longer match.
    keep = 1 if name == "balances" and raw is None else None
    edit_chain(chain, hostile, 0, edit_genesis, raw, keep=keep)
    code = main(["verify", "--chain", str(hostile)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL at height 0")
    assert name in out
    if refusal is not None:
        assert refusal in out


def test_chain_of_the_earlier_format_fails_at_height_0(golden_run, tmp_path, capsys):
    # "v1" to "v4" chains were JSON lines, one record per line, with a
    # "version" field. A chain of any is refused at its start, not with a
    # root mismatch or an undecodable record further on.
    blocks = [block for block, _ in read_chain(golden_run.out_dir / "run.chain.jsonl")]
    for version in ("v1", "v2", "v3", "v4"):
        old = tmp_path / f"{version}.chain.jsonl"
        lines = [
            canonical_json({"block": record_to_json(block), "height": block.height,
                            "version": version})
            for block in blocks
        ]
        old.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--chain", str(old)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL at height 0: CorruptRecord: unsupported version")


# Three bytes the edits below put in a string, and then replace with the
# UTF-8 form of the lone surrogate U+D800, which no string encodes to.
PLACEHOLDER = "\x7f\x7f\x7f"
SURROGATE = b"\xed\xa0\x80"


def _prefix_key(mapping, key):
    mapping[PLACEHOLDER + key] = mapping.pop(key)


def _prefix_first_sender(block):
    tx = block.transactions[0]
    tx = dataclasses.replace(tx, sender=PLACEHOLDER + tx.sender)
    return dataclasses.replace(block, transactions=(tx, *block.transactions[1:]))


def _detector_note(state):
    spec = state.detectors["exact-hash"]
    state.detectors["exact-hash"] = dataclasses.replace(spec, parameters={"note": PLACEHOLDER})


@pytest.mark.parametrize(
    "height, edit",
    [
        (0, lambda block, state: _prefix_key(state.balances, "owner-1")),
        (0, lambda block, state: _prefix_key(state.detectors, "exact-hash")),
        (0, lambda block, state: _detector_note(state)),
        (1, _prefix_first_sender),
        (5, _prefix_first_sender),
    ],
    ids=["balance-key", "detector-key", "detector-parameter", "sender-1", "sender-5"],
)
def test_verify_refuses_a_lone_surrogate_at_its_height(golden_run, tmp_path, capsys, height, edit):
    # A string whose bytes hold a lone surrogate is no UTF-8, so it decodes
    # to no string: the reader refuses it at its height, before any hash or
    # state root would meet it.
    def edit_record(block, state):
        if state is None:
            return edit(block), state
        edit(block, state)
        return block, state

    def surrogate(body):
        assert body.count(PLACEHOLDER.encode()) == 1
        return body.replace(PLACEHOLDER.encode(), SURROGATE)

    hostile = tmp_path / "surrogate.chain.jsonl"
    edit_chain(golden_run.out_dir / "run.chain.jsonl", hostile, height, edit_record, surrogate)
    code = main(["verify", "--chain", str(hostile)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"FAIL at height {height}: CorruptRecord")
    assert "can't decode byte 0xed" in out


def _run_config_error(doc, tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    return err


@pytest.mark.parametrize(
    "parameters, named",
    [
        ({"k": 0}, "k must be"),
        ({"k": 2.5}, "bad parameter 'k'"),
        ({"k": True}, "k must be"),
        ({"k": "3"}, "k must be"),
        ({"tau_pct": "x"}, "tau_pct must be"),
        ({"tau_pct": 101}, "tau_pct must be"),
        ({"tau_pct": -1}, "parameter 'tau_pct' must be in [0, 2^64)"),
        ({"tau_pct": False}, "tau_pct must be"),
        ({"tau_pct": 95.0}, "bad parameter 'tau_pct'"),
        # The threshold was the float "tau", where 1 meant 1.0: a document
        # that still gives it is refused, never read as a percent.
        ({"tau": 0.95}, "bad parameter 'tau'"),
        ({"tau": 1}, "unknown parameter 'tau'"),
        ({"k": 3, "depth": 2}, "unknown parameter 'depth'"),
    ],
    ids=["k-zero", "k-float", "k-bool", "k-string",
         "tau-string", "tau-above-one", "tau-negative", "tau-bool", "tau-float",
         "old-tau-float", "old-tau-int", "unknown-parameter"],
)
def test_run_rejects_bad_near_duplicate_parameters(tmp_path, capsys, parameters, named):
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["detectors"] = {"nd": {"kind": "near-duplicate", "parameters": parameters}}
    doc["algorithms"][0]["detector"] = "nd"
    assert named in _run_config_error(doc, tmp_path, capsys)


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda doc: doc.update(params={"min_fee": 2**64}), "params.min_fee"),
        (lambda doc: doc.update(params={"epoch_length": 2**64}), "params.epoch_length"),
        (lambda doc: doc.update(detectors={
            "x": {"kind": "exact-hash", "parameters": {"depth": -1}}}), "'depth'"),
        (lambda doc: doc.update(detectors={
            "x": {"kind": "exact-hash", "parameters": {"depth": 2**64}}}), "'depth'"),
        (lambda doc: doc.update(detectors={
            "x": {"kind": "near-duplicate", "parameters": {"k": 2**64}}}), "'k'"),
        (lambda doc: doc.update(detectors={
            "x": {"kind": "exact-hash", "parameters": {"f": math.nan}}}), "'f'"),
        (lambda doc: doc["accounts"][0].update(balance=2**64), "account.balance"),
        (lambda doc: doc["algorithms"][0].update(stake=2**64), "plan.stake"),
        (lambda doc: doc.update(request_fee=2**64), "scenario.request_fee"),
        (lambda doc: [a.update(balance=2**63) for a in doc["accounts"][:2]],
         "total supply"),
        # Each of these used to end in a traceback.
        (lambda doc: doc.update(validators=5), "scenario.validators"),
        (lambda doc: doc.update(accounts=5), "scenario.accounts"),
        (lambda doc: doc.update(algorithms=5), "scenario.algorithms"),
        (lambda doc: doc["algorithms"][0].pop("media_types"), "'media_types'"),
        (lambda doc: doc["algorithms"][0].update(algorithm_id=[1]), "plan.algorithm_id"),
        (lambda doc: doc["algorithms"][0].update(owner=[1]), "plan.owner"),
        (lambda doc: doc.update(users=[[1]]), "scenario.users"),
        (lambda doc: doc["algorithms"][0].update(algorithm_id=5), "plan.algorithm_id"),
    ],
    ids=["min-fee", "epoch-length", "detector-negative", "detector-2-64",
         "near-duplicate-k-2-64", "detector-nan", "balance", "algorithm-stake",
         "request-fee", "supply", "validators-int", "accounts-int", "algorithms-int",
         "plan-without-media-types", "algorithm-id-list", "owner-list", "users-nested-list",
         "algorithm-id-int"],
)
def test_run_rejects_scenario_values_the_chain_cannot_hold(tmp_path, capsys, edit, named):
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    edit(doc)
    assert named in _run_config_error(doc, tmp_path, capsys)


def test_run_refuses_a_corpus_beyond_its_budget(tmp_path):
    # A corpus of 2^40 items used to run set-up until memory ran out. Run in
    # a child, killed if it outlives the timeout, so a regression cannot eat
    # this process's memory.
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["corpus"]["unrelated_count"] = 2**40
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    result = run_cli(
        ["run", "--config", str(config), "--out", str(tmp_path / "out")], timeout=5
    )
    assert result.returncode == 2
    assert result.stderr.startswith("config error: scenario.corpus: ")
    assert "corpus budget" in result.stderr


def test_run_refuses_a_string_utf8_cannot_encode(tmp_path, capsys):
    # An account id with a lone surrogate used to pass the parser and stop
    # the run at its first state root, with exit 1.
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    assert doc["accounts"][1]["id"] == "user-1" and doc["users"] == ["user-1"]
    doc["accounts"][1]["id"] = "user-\ud800"
    doc["users"] = ["user-\ud800"]
    assert "surrogates not allowed" in _run_config_error(doc, tmp_path, capsys)


def test_run_accepts_in_range_near_duplicate_parameters(tmp_path, capsys):
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["detectors"] = {"nd": {"kind": "near-duplicate",
                               "parameters": {"tau_pct": 100, "k": 2**64 - 1}}}
    doc["algorithms"][0]["detector"] = "nd"
    doc["params"] = {"min_fee": 0}
    _run_and_verify(doc, tmp_path, capsys)


def _run_and_verify(doc, tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    chain = out / "run.chain.jsonl"
    code = main(["verify", "--chain", str(chain)])
    assert capsys.readouterr().out.startswith("OK tip=")
    assert code == 0
    return list(read_chain(chain))


def test_integer_accuracy_params_run_and_verify(tmp_path, capsys):
    # The accuracy thresholds are percents, and both bounds run.
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["params"] = {"challenge_pass_pct": 100, "feedback_min_pct": 0}
    params = _run_and_verify(doc, tmp_path, capsys)[0][1].params
    assert (params.challenge_pass_pct, params.feedback_min_pct) == (100, 0)


@pytest.mark.parametrize(
    "params, named",
    [
        # The keys that held a float accuracy are unknown keys now, so an
        # old document is refused rather than read as a percent.
        ({"challenge_pass_accuracy": 0.8}, "'challenge_pass_accuracy'"),
        ({"feedback_min_accuracy": 1}, "'feedback_min_accuracy'"),
        ({"challenge_pass_pct": 0.8}, "params.challenge_pass_pct"),
        ({"challenge_pass_pct": 101}, "challenge_pass_pct and feedback_min_pct must be <= 100"),
        ({"feedback_min_pct": 101}, "challenge_pass_pct and feedback_min_pct must be <= 100"),
    ],
    ids=["old-challenge-key", "old-feedback-key", "pct-float", "challenge-above-100",
         "feedback-above-100"],
)
def test_run_rejects_bad_accuracy_params(tmp_path, capsys, params, named):
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["params"] = params
    assert named in _run_config_error(doc, tmp_path, capsys)


def test_integer_detector_scores_run_and_verify(tmp_path, capsys):
    # A custom detector returns its own Q16 scores, and the chain holds
    # them as given.
    def int_scores(params, target, registry):
        verdict, _, matches = run_detector(
            DetectorSpec(kind="near-duplicate"), target, registry
        )
        scores = [MatchCandidate(m.content_id, 1) for m in matches]
        return verdict, len(scores[:1]), scores

    register_detector_kind("test-int-scores", int_scores)
    try:
        doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
        doc["detectors"] = {"int-scores": {"kind": "test-int-scores"}}
        doc["algorithms"][0]["detector"] = "int-scores"
        doc["params"] = {"challenge_pass_pct": 0}
        records = _run_and_verify(doc, tmp_path, capsys)
    finally:
        _PLUGINS.pop("test-int-scores", None)
    commits = [
        tx.payload for block, _ in records for tx in block.transactions
        if tx.kind.value == "CommitAnalysisResult"
    ]
    assert {commit.confidence for commit in commits} == {0, 1}
    scores = [score for commit in commits for _, score in commit.matched_content]
    assert scores and set(scores) == {1}


def test_inspect_summaries(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["inspect", "--chain", str(chain)]) == 0
    summaries = json.loads(capsys.readouterr().out)
    assert len(summaries) == 31
    assert summaries[0]["height"] == 0
    assert summaries[3]["transactions"] > 0


def test_inspect_single_height(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["inspect", "--chain", str(chain), "--height", "2"]) == 0
    detail = json.loads(capsys.readouterr().out)
    assert detail["block"]["height"] == 2
    assert len(detail["receipts"]) == len(detail["block"]["transactions"])
    assert main(["inspect", "--chain", str(chain), "--height", "99"]) == 1
    capsys.readouterr()


def test_report_recomputes_live_report(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["report", "--chain", str(chain)]) == 0
    recomputed = capsys.readouterr().out.strip()
    live = (golden_run.out_dir / "report.json").read_text().strip()
    assert recomputed == live


def test_report_requires_sidecar(golden_run, tmp_path, capsys):
    chain_copy = tmp_path / "copy.chain.jsonl"
    chain_copy.write_bytes((golden_run.out_dir / "run.chain.jsonl").read_bytes())
    code = main(["report", "--chain", str(chain_copy)])
    assert code == 2
    # explicit --truth flag recovers
    code = main(
        [
            "report",
            "--chain",
            str(chain_copy),
            "--truth",
            str(golden_run.out_dir / "ground_truth.json"),
        ]
    )
    assert code == 0
    capsys.readouterr()


NOT_JSON_TEXT = {
    "invalid-utf8": b'{"seed": 1, "name": "\xff"}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(NOT_JSON_TEXT))
def test_run_config_that_is_not_json_text_is_a_config_error(tmp_path, capsys, case):
    # Invalid UTF-8 used to end in a UnicodeDecodeError traceback and deep
    # nesting in a RecursionError, both with exit 1.
    config = tmp_path / "scenario.json"
    config.write_bytes(NOT_JSON_TEXT[case])
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("case", sorted(NOT_JSON_TEXT))
def test_report_truth_that_is_not_json_text_is_a_config_error(
    golden_run, tmp_path, capsys, case
):
    truth = tmp_path / "ground_truth.json"
    truth.write_bytes(NOT_JSON_TEXT[case])
    chain = golden_run.out_dir / "run.chain.jsonl"
    code = main(["report", "--chain", str(chain), "--truth", str(truth)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", ["run", "report"])
def test_a_directory_as_config_or_truth_is_a_config_error(golden_run, tmp_path, capsys, command):
    # ``report --truth DIR`` used to exit 1 with "error: [Errno 21] ...".
    chain = golden_run.out_dir / "run.chain.jsonl"
    args = {
        "run": ["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")],
        "report": ["report", "--chain", str(chain), "--truth", str(tmp_path)],
    }[command]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "key, value",
    [("labels", []), ("labels", {"x": "bogus"}), ("sources", {"x": 3})],
    ids=["labels-list", "labels-bogus-verdict", "sources-int"],
)
def test_report_truth_of_the_wrong_shape_is_a_config_error(
    golden_run, tmp_path, capsys, key, value
):
    doc = json.loads((golden_run.out_dir / "ground_truth.json").read_text())
    doc[key] = value
    truth = tmp_path / "ground_truth.json"
    truth.write_text(json.dumps(doc))
    chain = golden_run.out_dir / "run.chain.jsonl"
    code = main(["report", "--chain", str(chain), "--truth", str(truth)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ground truth file: ")


def test_notifications_for_provider(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["notifications", "--chain", str(chain), "--provider", "provider-1"]) == 0
    events = json.loads(capsys.readouterr().out)
    assert len(events) == 10
    assert all(e["provider"] == "provider-1" for e in events)


def test_notifications_empty_for_unflagged_provider(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["notifications", "--chain", str(chain), "--provider", "nobody"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def _forged_event_chain(golden_run, tmp_path, garbage_height=None):
    """The golden chain with the record of height 4 carrying its block's
    receipts after the block, as a "v3" record did, with the provider of
    the first notification event changed to provider-2. No hash covers
    receipts, and a reader that took stored ones would list the forged
    event. With ``garbage_height``, that record's body is replaced by bytes
    that are no record."""
    receipts = [record_to_json(r) for r in golden_run.result.chain.records[4].receipts]
    event = next(e for r in receipts for e in r["events"])
    assert event["provider"] == "provider-1"
    event["provider"] = "provider-2"
    forged = tmp_path / "forged.chain.jsonl"
    chain = golden_run.out_dir / "run.chain.jsonl"
    edit_chain(chain, forged, 4, raw=lambda body: body + canonical_json(receipts).encode())
    if garbage_height is not None:
        edit_chain(forged, forged, garbage_height, raw=lambda body: b"garbage")
    return forged


READ_COMMANDS = {
    "notifications": ["notifications", "--provider", "provider-2"],
    "inspect": ["inspect"],
    "inspect-height-4": ["inspect", "--height", "4"],
    "report": ["report"],
}


@pytest.mark.parametrize("garbage_height", [None, 20], ids=["forged", "forged-then-garbage"])
@pytest.mark.parametrize("command", sorted(READ_COMMANDS))
def test_read_commands_refuse_a_forged_event_as_verify_does(
    golden_run, tmp_path, capsys, command, garbage_height
):
    # Read commands used to print from the chain unverified: notifications
    # listed the forged event with exit 0. And the garbage at height 20 used
    # to fail the read before the divergence at height 4 was replayed.
    forged = _forged_event_chain(golden_run, tmp_path, garbage_height)
    assert main(["verify", "--chain", str(forged)]) == 1
    verified = capsys.readouterr().out
    assert verified.startswith("FAIL at height 4: CorruptRecord: ")
    assert verified.endswith(" bytes left over\n")
    args = READ_COMMANDS[command]
    if command == "report":
        args = [*args, "--truth", str(golden_run.out_dir / "ground_truth.json")]
    code = main([args[0], "--chain", str(forged), *args[1:]])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", verified)


def test_unknown_verb_usage_error():
    result = run_cli(["frobnicate"])
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_unknown_flag_usage_error():
    result = run_cli(["verify", "--chan", "x"])
    assert result.returncode == 2


def test_log_env_controls_stderr(golden_run, tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        ["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out)],
        env={"VERILEDGER_LOG": "info"},
    )
    assert result.returncode == 0
    assert "running scenario" in result.stderr


def test_unknown_log_level_warns_and_falls_back_to_error(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        ["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out)],
        env={"VERILEDGER_LOG": "Verbose"},
    )
    assert result.returncode == 0
    # The info line "running scenario" is not logged at level error.
    assert result.stderr == "warning: unknown VERILEDGER_LOG='verbose', using 'error'\n"


def test_run_out_naming_a_file_is_an_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    code = main(["run", "--config", str(GOLDEN_CONFIG_PATH), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 17] File exists")


def test_pretty_flag(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["notifications", "--chain", str(chain), "--provider", "nobody",
                 "--pretty"]) == 0
    assert capsys.readouterr().out == "[]\n"
