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
from veriledger.ledger import genesis_block
from veriledger.store import (
    canonical_json,
    record_to_json,
    state_from_json,
    state_to_json,
)

from conftest import GOLDEN_CONFIG_PATH, REPO_ROOT


def run_cli(args, env=None):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(REPO_ROOT / "src")
    merged.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "veriledger", *args],
        capture_output=True,
        text=True,
        env=merged,
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
        genesis = genesis_block(state_from_json(record["genesis_state"]))
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
    # "v1" state roots covered each request's embedding; "v2" roots commit to
    # its hash. A "v1" chain is refused at its first line, not with a root
    # mismatch at its first request block.
    lines = (golden_run.out_dir / "run.chain.jsonl").read_text().splitlines()
    assert all(line.count('"version":"v2"') == 1 for line in lines)
    old = tmp_path / "v1.chain.jsonl"
    v1 = [line.replace('"version":"v2"', '"version":"v1"') for line in lines]
    old.write_text("\n".join(v1) + "\n")
    code = main(["verify", "--chain", str(old)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL at height 0: CorruptRecord")
    assert "unsupported version 'v1'" in out


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
    ],
    ids=["min-fee", "epoch-length", "detector-negative", "detector-2-64",
         "near-duplicate-k-2-64", "detector-nan", "balance", "algorithm-stake",
         "request-fee", "supply"],
)
def test_run_rejects_scenario_values_the_chain_cannot_hold(tmp_path, capsys, edit, named):
    doc = json.loads(GOLDEN_CONFIG_PATH.read_text())
    edit(doc)
    assert named in _run_config_error(doc, tmp_path, capsys)


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


def test_pretty_flag(golden_run, capsys):
    chain = golden_run.out_dir / "run.chain.jsonl"
    assert main(["notifications", "--chain", str(chain), "--provider", "nobody",
                 "--pretty"]) == 0
    assert capsys.readouterr().out == "[]\n"
