"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; each line prints before its assertion so failures
still report their criterion.
"""

from collections import Counter
from dataclasses import replace

from veriledger.codec import hash_bytes
from veriledger.core import ReceiptStatus, RequestStatus, TxKind, Verdict
from veriledger.ledger import init_chain, seal_block, select_proposer
from veriledger.rng import SplitMix64
from veriledger.sim import PerturbationSpec, ScenarioRunner
from veriledger.store import verify_chain

from fuzz import FuzzStream, build_fuzz_state
from test_contracts import reward_state
from veriledger.contracts import distribute_epoch_rewards, execute_transaction, ExecContext
from veriledger.core import transaction_hash


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


# --- 1. determinism ---------------------------------------------------------


def test_criterion_1_determinism(golden_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ScenarioRunner(golden_config).run(out_dir=out_a)
    ScenarioRunner(golden_config).run(out_dir=out_b)
    same_chain = (out_a / "run.chain.jsonl").read_bytes() == (
        out_b / "run.chain.jsonl"
    ).read_bytes()
    same_report = (out_a / "report.json").read_bytes() == (
        out_b / "report.json"
    ).read_bytes()
    ok = same_chain and same_report
    report_line("1 determinism (byte-identical chain and report)", ok)
    assert ok


# --- 2. token conservation ----------------------------------------------------


def test_criterion_2_token_conservation():
    seeds = range(10)
    blocks_per_seed = 100
    violations = 0
    accepted = Counter()
    rewards_minted = 0
    for seed in seeds:
        rng = SplitMix64(31_000 + seed)
        state = build_fuzz_state(rng)
        stream = FuzzStream(seed=77_000 + seed)
        _, state = init_chain(state)
        for _ in range(blocks_per_seed):
            txs = [stream.next_tx(state) for _ in range(rng.randrange(4) + 1)]
            _, state, receipts = seal_block(state, txs, timestamp=state.tip_height + 1)
            accepted.update(
                tx.kind for tx, r in zip(txs, receipts) if r.status is ReceiptStatus.ACCEPTED
            )
            if state.conservation_gap() != 0:
                violations += 1
            if any(v < 0 for v in state.balances.values()):
                violations += 1
        rewards_minted += state.rewards_minted
    commits = accepted[TxKind.COMMIT_ANALYSIS_RESULT]
    feedback = accepted[TxKind.SUBMIT_FEEDBACK]
    ok = violations == 0 and commits > 0 and feedback > 0 and rewards_minted > 0
    report_line(
        "2 token conservation (10 seeds x 100 blocks, exact)",
        ok,
        f"{len(seeds)} seeds, {blocks_per_seed} blocks each; accepted {commits} commits,"
        f" {feedback} feedback; {rewards_minted} minted as epoch rewards",
    )
    assert ok


# --- 3. PoS fairness ------------------------------------------------------------


def test_criterion_3_pos_fairness():
    validators = {"A": 100, "B": 300, "C": 600}
    expected = {"A": 0.10, "B": 0.30, "C": 0.60}
    draws = 100_000
    counts = {vid: 0 for vid in validators}
    for i in range(draws):
        seed = hash_bytes(i.to_bytes(8, "big"))
        counts[select_proposer(validators, seed)] += 1
    deviations = {
        vid: abs(counts[vid] / draws - expected[vid]) for vid in validators
    }
    ok = all(dev <= 0.01 for dev in deviations.values())
    report_line(
        "3 PoS fairness (1e5 draws within +/-1pp of stake)",
        ok,
        ", ".join(f"{v}={counts[v] / draws:.4f}" for v in sorted(counts)),
    )
    assert ok


# --- 4. detection efficacy --------------------------------------------------------


def test_criterion_4_detection_efficacy(golden_run, golden_config):
    result = golden_run.result
    truth = result.ground_truth
    state = result.chain.final_state

    fake_ids = {rid for rid, v in truth.labels.items() if v is Verdict.DEEPFAKE}
    unrelated_ids = set(truth.labels) - fake_ids
    fake_verdicts = {state.results[rid].verdict for rid in fake_ids}
    unrelated_verdicts = {state.results[rid].verdict for rid in unrelated_ids}
    recall_ok = fake_verdicts == {Verdict.DEEPFAKE}
    fp_ok = Verdict.DEEPFAKE not in unrelated_verdicts

    # boundary: perturbation rate 0 makes every fake an exact hash match
    zero_cfg = replace(
        golden_config,
        corpus=replace(
            golden_config.corpus, perturbation=PerturbationSpec("byte-flip", 0.0)
        ),
    )
    zero_result = ScenarioRunner(zero_cfg).run()
    zero_truth = zero_result.ground_truth
    zero_state = zero_result.chain.final_state
    zero_fakes = {
        rid for rid, v in zero_truth.labels.items() if v is Verdict.DEEPFAKE
    }
    boundary_ok = all(
        zero_state.results[rid].verdict is Verdict.AUTHENTIC for rid in zero_fakes
    )

    ok = recall_ok and fp_ok and boundary_ok
    report_line(
        "4 detection efficacy (recall 1.0, zero false positives, rate-0 boundary)",
        ok,
        f"fakes={sorted(v.value for v in fake_verdicts)}, "
        f"unrelated={sorted(v.value for v in unrelated_verdicts)}",
    )
    assert ok


# --- 5. lifecycle enforcement -------------------------------------------------------


def test_criterion_5_lifecycle_enforcement():
    legal = {
        ("Pending", "Pending"),
        ("Pending", "Active"),
        ("Pending", "Deprecated"),
        ("Active", "Active"),
        ("Active", "Deprecated"),
        ("Deprecated", "Deprecated"),
    }
    tx_count = 1200
    rng = SplitMix64(555)
    state = build_fuzz_state(rng)
    stream = FuzzStream(seed=556)
    bad_transitions = 0
    negative_balances = 0
    non_neutral_rejections = 0
    statuses = {}
    for index in range(tx_count):
        tx = stream.next_tx(state)
        before = state.state_root()
        ctx = ExecContext(
            height=1 + index // 8,
            proposer="v1",
            tx_index=index % 8,
            tx_hash=transaction_hash(tx),
        )
        receipt = execute_transaction(state, tx, ctx)
        if receipt.status is ReceiptStatus.REJECTED:
            if state.state_root() != before:
                non_neutral_rejections += 1
        if any(v < 0 for v in state.balances.values()):
            negative_balances += 1
        current = {aid: rec.status.value for aid, rec in state.algorithms.items()}
        for aid, status in current.items():
            prev = statuses.get(aid, "Pending")
            if (prev, status) not in legal:
                bad_transitions += 1
        statuses = current
    ok = bad_transitions == 0 and negative_balances == 0 and non_neutral_rejections == 0
    report_line(
        "5 lifecycle enforcement (fuzzed stream, state-neutral rejections)",
        ok,
        f"{tx_count} transactions",
    )
    assert ok


# --- 6. replay integrity --------------------------------------------------------------


def test_criterion_6_replay_integrity(golden_run, tmp_path):
    chain_path = golden_run.out_dir / "run.chain.jsonl"
    clean = verify_chain(chain_path)

    data = chain_path.read_bytes()
    step = max(1, len(data) // 150)
    tampered_path = tmp_path / "flipped.chain.jsonl"
    undetected = []
    flips = 0
    for pos in range(0, len(data), step):
        mutated = bytearray(data)
        mutated[pos] ^= 0x01
        tampered_path.write_bytes(bytes(mutated))
        flips += 1
        if verify_chain(tampered_path).ok:
            undetected.append(pos)
    ok = clean.ok and not undetected
    report_line(
        "6 replay integrity (verify ok; every sampled byte flip detected)",
        ok,
        f"{flips} flips across {len(data)} bytes",
    )
    assert ok


def test_criterion_6_exit_codes(golden_run, tmp_path):
    # the CLI surface: exit 0 on the golden chain, exit 1 after tampering
    from veriledger.cli import main

    chain_path = golden_run.out_dir / "run.chain.jsonl"
    ok_code = main(["verify", "--chain", str(chain_path)])
    data = bytearray(chain_path.read_bytes())
    data[len(data) // 2] ^= 0x01
    tampered = tmp_path / "t.chain.jsonl"
    tampered.write_bytes(bytes(data))
    bad_code = main(["verify", "--chain", str(tampered)])
    ok = ok_code == 0 and bad_code == 1
    report_line("6 replay integrity (CLI exit codes 0/1)", ok)
    assert ok


# --- 7. reward arithmetic ---------------------------------------------------------------


def test_criterion_7_reward_arithmetic():
    rng = SplitMix64(808)
    mismatches = 0
    for trial in range(50):
        pool = 1 + rng.randrange(400)
        ids = [f"a{i}" for i in range(1 + rng.randrange(6))]
        scores = {aid: rng.randrange(30) for aid in ids}
        state = reward_state(scores, pool=pool)
        dist = dict(distribute_epoch_rewards(state, 10))

        total = sum(scores.values())
        expected = {}
        if total > 0:
            floors = {aid: pool * s // total for aid, s in scores.items()}
            rest = pool - sum(floors.values())
            if rest:
                floors[min(scores, key=lambda a: (-scores[a], a))] += rest
            expected = {f"owner-{aid}": v for aid, v in floors.items() if v}
            if sum(floors.values()) != pool:
                mismatches += 1
        if dist != expected:
            mismatches += 1
        if total > 0 and sum(dist.values()) != pool:
            mismatches += 1
    ok = mismatches == 0
    report_line("7 reward arithmetic (50 vectors match brute force, sum == pool)", ok)
    assert ok


# --- 8. oracle exactly-once and liveness ------------------------------------------------


def test_criterion_8_oracle_exactly_once_and_liveness(golden_run):
    result = golden_run.result
    state = result.chain.final_state
    truth = result.ground_truth

    commits: dict[str, int] = {}
    for record in result.chain.records:
        for tx, receipt in zip(record.block.transactions, record.receipts):
            if (
                tx.kind is TxKind.COMMIT_ANALYSIS_RESULT
                and receipt.status is ReceiptStatus.ACCEPTED
            ):
                commits[tx.payload.request_id] = commits.get(tx.payload.request_id, 0) + 1

    exactly_once = all(n == 1 for n in commits.values())
    all_requests_completed = all(
        req.status is RequestStatus.COMPLETED for req in state.requests.values()
    ) and set(commits) == set(state.requests)

    fake_ids = {rid for rid, v in truth.labels.items() if v is Verdict.DEEPFAKE}
    expected_pairs = {(rid, truth.sources[rid]) for rid in fake_ids}
    actual_pairs = {
        (n["request_id"], n["content_id"]) for n in result.report.notifications
    }
    one_event_per_pair = (
        expected_pairs == actual_pairs
        and len(result.report.notifications) == len(expected_pairs)
    )

    ok = exactly_once and all_requests_completed and one_event_per_pair
    report_line(
        "8 oracle exactly-once and liveness (all completed, one event per pair)",
        ok,
        f"{len(commits)} requests, {len(actual_pairs)} notification pairs",
    )
    assert ok
