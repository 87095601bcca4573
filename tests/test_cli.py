import json
import math
import os
import subprocess
import sys

import pytest

from veriledger.cli import main
from veriledger.core import DetectorSpec
from veriledger.detection import (
    _PLUGINS,
    MatchCandidate,
    register_detector_kind,
    run_detector,
)
from veriledger.ledger import init_chain
from veriledger.store import (
    canonical_json,
    record_to_json,
    state_from_json,
    state_to_json,
)

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
    lines = chain.read_text().splitlines()
    record = json.loads(lines[5])
    record["block"]["timestamp"] += 1
    lines[5] = canonical_json(record)
    tampered = tmp_path / "tampered.chain.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--chain", str(tampered)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    assert "height 5" in out


def _swap_proposer(block):
    block["proposer"] = "v1" if block["proposer"] == "v2" else "v2"


# One header field edited and not resealed, with the error it must raise. A
# height edit is left out: the reader refuses it before the block is applied.
HEADER_EDITS = pytest.mark.parametrize(
    "edit, error",
    [
        (lambda block: block.update(parent_hash="11" * 32), "BadParent"),
        (_swap_proposer, "WrongProposer"),
        (lambda block: block.update(state_root="22" * 32), "StateRootMismatch"),
        (lambda block: block.update(block_hash="33" * 32), "BadBlockHash"),
        # Only the block hash covers the timestamp, which the seal takes as given.
        (lambda block: block.update(timestamp=block["timestamp"] + 1), "BadBlockHash"),
    ],
    ids=["parent_hash", "proposer", "state_root", "block_hash", "timestamp"],
)


def _verify_with_edited_header(golden_run, tmp_path, capsys, height, edit):
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    record = json.loads(lines[height])
    edit(record["block"])
    lines[height] = canonical_json(record)
    edited = tmp_path / "edited.chain.jsonl"
    edited.write_text("\n".join(lines) + "\n")
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


@pytest.mark.parametrize(
    "path, value",
    [
        (("params", "epoch_length"), 0),
        (("params", "fee_owner_pct"), 99),
        (("params", "min_fee"), 2**64),
        (("validators",), 5),
        (("balances",), []),
        (("algorithms",), []),
        (("feedback_done",), 7),
        (("algorithms", "algo-nd", "media_types"), 5),
        (("algorithms", "algo-nd", "challenges_submitted"), 7),
        (("contents", "trusted-000", "metadata"), []),
        (("detectors", "exact-hash", "parameters"), {"tau": -1}),
        (("balances", "owner-1"), 151),
    ],
    ids=[
        "epoch-length-zero",
        "fee-split-over-100",
        "u64-overflow",
        "validators-not-object",
        "balances-not-object",
        "algorithms-not-object",
        "feedback-done-not-list",
        "media-types-not-list",
        "challenges-submitted-not-list",
        "metadata-not-object",
        "detector-parameter-negative",
        "genesis-breaks-conservation",
    ],
)
def test_verify_hostile_genesis_params_fail_at_height_zero(
    golden_run, tmp_path, capsys, path, value
):
    chain = golden_run.out_dir / "run.chain.jsonl"
    lines = chain.read_text().splitlines()
    record = json.loads(lines[0])
    target = record["genesis_state"]
    if len(path) == 3:
        # A record field: the golden genesis holds no algorithm or content,
        # so start from a real record of the final state.
        name, key, _ = path
        target[name][key] = state_to_json(golden_run.result.chain.final_state)[name][key]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    if path == ("balances", "owner-1"):
        # One token more than the supply, in a genesis block resealed to
        # match it: only the conservation check can refuse this chain. The
        # later blocks are dropped; their parent hashes no longer match.
        genesis, _ = init_chain(state_from_json(record["genesis_state"]))
        record["block"] = record_to_json(genesis)
        lines = lines[:1]
    lines[0] = canonical_json(record)
    hostile = tmp_path / "hostile.chain.jsonl"
    hostile.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--chain", str(hostile)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL at height 0")
    assert path[0] in out


def test_chain_of_the_earlier_format_fails_at_height_0(golden_run, tmp_path, capsys):
    # "v1" state roots covered each request's embedding, which later roots
    # commit to by hash; "v2" stored embeddings as lists of JSON numbers;
    # "v3" stored each block's receipts. A chain of any is refused at its
    # first line, not with a root mismatch or an undecodable embedding
    # further on.
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    assert all(line.count('"version":"v4"') == 1 for line in lines)
    for version in ("v1", "v2", "v3"):
        old = tmp_path / f"{version}.chain.jsonl"
        earlier = [line.replace('"version":"v4"', f'"version":"{version}"') for line in lines]
        old.write_text("\n".join(earlier) + "\n")
        code = main(["verify", "--chain", str(old)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL at height 0: CorruptRecord")
        assert f"unsupported version '{version}'" in out


def _prefix_surrogate(record, *path):
    target = record
    for key in path[:-1]:
        target = target[key]
    target["\ud800" + path[-1]] = target.pop(path[-1])


@pytest.mark.parametrize(
    "height, edit",
    [
        (0, lambda r: _prefix_surrogate(r, "genesis_state", "balances", "owner-1")),
        (0, lambda r: _prefix_surrogate(r, "genesis_state", "detectors", "exact-hash")),
        (0, lambda r: r["genesis_state"]["detectors"]["exact-hash"]["parameters"].update(
            note="\ud800")),
        (1, lambda r: r["block"]["transactions"][0].update(
            sender="\ud800" + r["block"]["transactions"][0]["sender"])),
        (5, lambda r: r["block"]["transactions"][0].update(
            sender="\ud800" + r["block"]["transactions"][0]["sender"])),
    ],
    ids=["balance-key", "detector-key", "detector-parameter", "sender-1", "sender-5"],
)
def test_verify_refuses_a_lone_surrogate_at_its_height(golden_run, tmp_path, capsys, height, edit):
    # JSON can escape a lone surrogate, which UTF-8 cannot encode: such a
    # string used to pass the reader and stop replay in the block hash (a
    # traceback) or in the genesis state root (a failure with no height).
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    record = json.loads(lines[height])
    edit(record)
    lines[height] = canonical_json(record)
    assert "\\ud800" in lines[height]
    hostile = tmp_path / "surrogate.chain.jsonl"
    hostile.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--chain", str(hostile)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"FAIL at height {height}: CorruptRecord")
    assert "surrogates not allowed" in out


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
        ({"k": 2.5}, "k must be"),
        ({"k": True}, "k must be"),
        ({"k": "3"}, "k must be"),
        ({"tau": "x"}, "tau must be"),
        ({"tau": 1.5}, "tau must be"),
        ({"tau": -0.1}, "tau must be"),
        ({"tau": False}, "tau must be"),
    ],
    ids=["k-zero", "k-float", "k-bool", "k-string",
         "tau-string", "tau-above-one", "tau-negative", "tau-bool"],
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
                               "parameters": {"tau": 1, "k": 2**64 - 1}}}
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
    return chain.read_text()


def test_integer_accuracy_params_run_and_verify(tmp_path, capsys):
    # The scenario accepts any number for an accuracy; the chain must still
    # hold floats, which is all verify accepts.
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    doc["params"] = {"challenge_pass_accuracy": 1, "feedback_min_accuracy": 0}
    text = _run_and_verify(doc, tmp_path, capsys)
    assert '"challenge_pass_accuracy":1.0' in text
    assert '"feedback_min_accuracy":0.0' in text


def test_integer_detector_scores_run_and_verify(tmp_path, capsys):
    # A custom detector may return int scores; the chain must hold floats.
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
        doc["params"] = {"challenge_pass_accuracy": 0.0}
        text = _run_and_verify(doc, tmp_path, capsys)
    finally:
        _PLUGINS.pop("test-int-scores", None)
    assert '"confidence":1.0' in text
    assert '"confidence":1,' not in text
    assert ',1.0]' in text and ',1]' not in text


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


def _forged_event_chain(golden_run, tmp_path, garbage_line=None):
    """The golden chain with the line of height 4 carrying its block's
    receipts, as a "v3" line did, with the provider of the first
    notification event changed to provider-2. No hash covers receipts, and
    a reader that took stored ones would list the forged event. With
    ``garbage_line``, that line (1-based) is replaced by text that is no
    record."""
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    record = json.loads(lines[4])
    receipts = golden_run.result.chain.records[4].receipts
    record["receipts"] = [record_to_json(r) for r in receipts]
    event = next(e for r in record["receipts"] for e in r["events"])
    assert event["provider"] == "provider-1"
    event["provider"] = "provider-2"
    lines[4] = canonical_json(record)
    if garbage_line is not None:
        lines[garbage_line - 1] = "garbage"
    forged = tmp_path / "forged.chain.jsonl"
    forged.write_text("\n".join(lines) + "\n")
    return forged


READ_COMMANDS = {
    "notifications": ["notifications", "--provider", "provider-2"],
    "inspect": ["inspect"],
    "inspect-height-4": ["inspect", "--height", "4"],
    "report": ["report"],
}


@pytest.mark.parametrize("garbage_line", [None, 21], ids=["forged", "forged-then-garbage"])
@pytest.mark.parametrize("command", sorted(READ_COMMANDS))
def test_read_commands_refuse_a_forged_event_as_verify_does(
    golden_run, tmp_path, capsys, command, garbage_line
):
    # Read commands used to print from the chain unverified: notifications
    # listed the forged event with exit 0. And the garbage on line 21 used
    # to fail the read before the divergence at height 4 was replayed.
    forged = _forged_event_chain(golden_run, tmp_path, garbage_line)
    assert main(["verify", "--chain", str(forged)]) == 1
    verified = capsys.readouterr().out
    assert verified.startswith("FAIL at height 4: CorruptRecord: line 5: record: fields ")
    assert "'receipts'" in verified
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
