"""Operator command line: run scenarios, inspect chains, verify integrity.

Exit codes: 0 success, 1 runtime failure (e.g. a failed verify), 2 usage
or configuration error. Output is machine-readable JSON by default; pass
--pretty for humans. VERILEDGER_LOG=error|info|debug controls stderr log
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .core import ReceiptStatus
from .errors import ConfigError, LedgerError, StoreError, VeriledgerError
from .sim import GroundTruth, compute_metrics, parse_scenario, run_scenario
from .store import (
    canonical_json,
    failure,
    notifications,
    pretty_json,
    record_to_json,
    replay,
    verify_chain,
)

logger = logging.getLogger("veriledger.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    raw = os.environ.get("VERILEDGER_LOG", "error").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print(f"warning: unknown VERILEDGER_LOG={raw!r}, using 'error'", file=sys.stderr)
        level = logging.ERROR
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _emit(value, pretty: bool) -> None:
    print(pretty_json(value) if pretty else canonical_json(value))


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    config = parse_scenario(doc)
    logger.info("running scenario seed=%d blocks=%d", config.seed, config.blocks)
    report = run_scenario(config, out_dir=args.out)
    out = Path(args.out)
    _emit(
        {
            "chain_file": str(out / "run.chain.jsonl"),
            "report_file": str(out / "report.json"),
            "blocks": report.chain["blocks"],
            "tip_hash": report.chain["tip_hash"],
        },
        args.pretty,
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    if args.height is not None:
        matches = [r for r, _ in replay(args.chain) if r.height == args.height]
        if not matches:
            print(f"no block at height {args.height}", file=sys.stderr)
            return 1
        record = matches[0]
        _emit(
            {
                "block": record_to_json(record.block),
                "receipts": [record_to_json(r) for r in record.receipts],
            },
            args.pretty,
        )
        return 0
    summaries = []
    for record, _ in replay(args.chain):
        accepted = sum(
            1 for r in record.receipts if r.status is ReceiptStatus.ACCEPTED
        )
        summaries.append(
            {
                "height": record.height,
                "block_hash": record.block.block_hash.hex,
                "proposer": record.block.proposer,
                "timestamp": record.block.timestamp,
                "transactions": len(record.block.transactions),
                "accepted": accepted,
                "rejected": len(record.receipts) - accepted,
            }
        )
    _emit(summaries, args.pretty)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    truth_path = Path(args.truth) if args.truth else Path(args.chain).parent / "ground_truth.json"
    if not truth_path.exists():
        print(f"ground-truth sidecar not found: {truth_path}", file=sys.stderr)
        return 2
    try:
        truth = GroundTruth.from_json(
            json.loads(truth_path.read_text(encoding="utf-8"))
        )
    except (ValueError, RecursionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = compute_metrics(replay(args.chain), truth)
    _emit(report.to_json(), args.pretty)
    return 0


def _cmd_notifications(args: argparse.Namespace) -> int:
    records = (record for record, _ in replay(args.chain))
    _emit(
        [n for n in notifications(records) if n["provider"] == args.provider],
        args.pretty,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = verify_chain(args.chain)
    print(result)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veriledger",
        description="Deterministic PoS ledger simulator with a trusted-content "
        "registry and off-chain detection oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--pretty", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_inspect = sub.add_parser("inspect", help="print block summaries")
    p_inspect.add_argument("--chain", required=True, help="chain file")
    p_inspect.add_argument("--height", type=int, default=None)
    p_inspect.add_argument("--pretty", action="store_true")
    p_inspect.set_defaults(fn=_cmd_inspect)

    p_report = sub.add_parser("report", help="recompute the run report from a chain")
    p_report.add_argument("--chain", required=True, help="chain file")
    p_report.add_argument(
        "--truth", default=None, help="ground-truth sidecar (default: sibling file)"
    )
    p_report.add_argument("--pretty", action="store_true")
    p_report.set_defaults(fn=_cmd_report)

    p_notif = sub.add_parser("notifications", help="list provider notifications")
    p_notif.add_argument("--chain", required=True, help="chain file")
    p_notif.add_argument("--provider", required=True, help="provider account id")
    p_notif.add_argument("--pretty", action="store_true")
    p_notif.set_defaults(fn=_cmd_notifications)

    p_verify = sub.add_parser("verify", help="replay a chain and check integrity")
    p_verify.add_argument("--chain", required=True, help="chain file")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StoreError, LedgerError) as exc:
        # A chain that fails to replay (or, in ``run``, to seal or write):
        # read commands print only once all of it has replayed, so this
        # line, the one ``verify`` prints, is all they print.
        print(failure(exc), file=sys.stderr)
        return 1
    except (VeriledgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
