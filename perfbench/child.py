"""One measured repetition, run in a fresh process by ``run.py``.

It builds the workload's scenario document, runs it through
``ScenarioRunner.run`` (the write path) and then ``verify_chain`` (the
replay path) on the chain it wrote, and prints one JSON object: the
marks (clock reads and gauge times) and outcomes of this repetition, the
digests the gates compare and, when traced, the per-layer metrics.

    python3 perfbench/child.py --workload long-chain --seed 7 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, "src")

import workloads  # noqa: E402
from tracing import Clock, Tracer, layer_metrics, mark  # noqa: E402
from veriledger.core import RequestStatus  # noqa: E402
from veriledger.sim import ScenarioRunner, parse_scenario  # noqa: E402
from veriledger.store import verify_chain  # noqa: E402

ARTIFACTS = ("run.chain.jsonl", "oracle.log", "report.json")
GOLDEN_SCENARIO = Path("scenarios/golden.json")


def outcomes(result, chain_path: Path) -> dict:
    """The end-to-end values that are not times; they repeat exactly
    (``peak_rss_mb`` nearly) across repetitions of one seed."""
    state = result.chain.final_state
    txs = result.report.chain["transactions"]
    unserved = sum(1 for r in state.requests.values() if r.status is RequestStatus.PENDING)
    return {
        "tx_failed_frac": txs["rejected"] / txs["total"],
        "requests_unserved_frac": unserved / len(state.requests),
        "chain_bytes_per_tx": chain_path.stat().st_size / txs["total"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(doc: dict, out: Path, traced: bool) -> dict:
    """Run ``doc`` and verify its chain; return this repetition's report.

    ``marks["run"]`` holds a mark (see ``tracing.mark``) just before
    ``parse_scenario`` and one when each block had been appended (was
    durable); ``marks["verify"]`` one when ``verify_chain`` started, one when
    each block's ``apply_block`` started and one when it returned.
    ``run.py`` derives every time metric from these. A traced repetition
    takes its block marks from its spans, without a gauge.
    """
    hook = Tracer() if traced else Clock()
    hook.install()
    try:
        run_start = mark()
        result = ScenarioRunner(parse_scenario(doc)).run(out_dir=out)
        verify_start = mark()
        if traced:
            verified = hook.span("store.verify", verify_chain, out / "run.chain.jsonl")
        else:
            verified = verify_chain(out / "run.chain.jsonl")
        verify_end = mark()
    finally:
        hook.restore()

    if traced:
        durable = [[end, 0, end] for name, _, end, _, _ in hook.spans if name == "store.append"]
        replayed = [[start, 0, start] for name, start, _, _, _ in hook.spans
                    if name == "ledger.apply"]
        hook.write(str(out / "spans.jsonl"))
    else:
        durable, replayed = hook.durable, hook.replayed

    state = result.chain.final_state
    report = {
        "tip_hash": result.chain.tip.block_hash.hex,
        "tip_state_root": result.chain.tip.state_root.hex,
        "blocks": len(result.chain.records),
        "verify_ok": verified.ok,
        "verify_tip": verified.tip_hash,
        "verify_error": verified.error,
        "conservation_gap": state.conservation_gap(),
        "digests": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS
        },
        "marks": {"run": [run_start, *durable],
                  "verify": [verify_start, *replayed, verify_end]},
        # Height of the submission block and of the block committing the
        # verdict, per committed request.
        "verdicts": [
            [state.requests[rid].submitted_at, r.committed_at]
            for rid, r in sorted(state.results.items())
        ],
        "outcomes": outcomes(result, out / "run.chain.jsonl"),
    }
    if traced:
        report["layers"] = layer_metrics(hook)
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.workload == "golden":
        doc = json.loads(GOLDEN_SCENARIO.read_text())
    else:
        doc = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps(measure(doc, Path(args.out), bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
