"""veriledger benchmark: the write path and the replay path, end to end and
per layer, on seeded scenario workloads.

    python3 perfbench/run.py --workload long-chain --seed 7 --seconds 40 --trace 0

Run from the root of a checkout. Each repetition runs in a fresh process
(``child.py``): it generates the workload's scenario document from the
seed, runs ``ScenarioRunner.run`` and then ``verify_chain`` on the chain it
wrote. Repetitions follow one another while the next should end within
``--seconds`` (at least three). Set-up, each block's write and each
block's replay are timed in every repetition, rescaled to a fixed host
speed by a gauge run between them, and given their median over the
repetitions; the time metrics are read off the timeline these make (see
``step_times``). Every other value is the median over the repetitions.

``--trace 0`` reports the end-to-end metrics, measured with one mark (a
clock read and the gauge) per durable block and one per replayed block,
and nothing else.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead. Every
invocation also runs the correctness gates; a failed gate prints
``"correct": false`` and exits 1. The last line of standard output is the
JSON result. The outputs of the first repetition of each kind (spans too,
when traced), every repetition's values and the result are kept under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from metrics import END_TO_END, EXACT, LAYERS

HERE = Path(__file__).resolve().parent
RUNS_DIR = Path(".perfbench_runs")
GOLDEN_META = Path("tests/golden/chain_meta.json")
REQUIRED = (Path("src/veriledger/__init__.py"), Path("scenarios/golden.json"), GOLDEN_META)
MIN_REPS = 3
# What ``tracing.gauge`` takes on a 2-vCPU x86-64 host running Python 3.11.7
# at full speed. Times are reported at the host speed this stands for.
GAUGE_REF_NS = 250_000
DEADLINE_S = 170  # the whole command must end within 180 s


class Child:
    """Runs repetitions in fresh processes and collects their reports."""

    def __init__(self, seed: int, base: Path, started: float):
        self.seed = seed
        self.base = base
        self.started = started
        self.count = 0

    def run(self, workload: str, traced: bool) -> dict:
        out = self.base / f"rep{self.count:02d}-{workload}{'-traced' if traced else ''}"
        self.count += 1
        budget = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--seed", str(self.seed), "--trace", str(int(traced)), "--out", str(out)],
            capture_output=True, text=True, timeout=max(budget, 1),
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} repetition failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["traced"] = traced
        report["out"] = str(out)
        return report


def check_run(rep: dict) -> list[str]:
    """Gates every repetition must pass on its own."""
    problems = []
    if not rep["verify_ok"]:
        problems.append(f"{rep['out']}: verify_chain failed: {rep['verify_error']}")
    elif rep["verify_tip"] != rep["tip_hash"]:
        problems.append(f"{rep['out']}: verify tip {rep['verify_tip']} != run tip {rep['tip_hash']}")
    if rep["conservation_gap"] != 0:
        problems.append(f"{rep['out']}: conservation gap {rep['conservation_gap']}")
    return problems


def check_golden(rep: dict) -> list[str]:
    meta = json.loads(GOLDEN_META.read_text())
    got = {"tip_block_hash": rep["tip_hash"], "tip_state_root": rep["tip_state_root"],
           "blocks": rep["blocks"]}
    return [
        f"golden scenario: {key} {got[key]} != {meta[key]}"
        for key in got if got[key] != meta[key]
    ]


def check_repeats(reps: list[dict]) -> list[str]:
    """Artifacts byte-identical across repetitions, traced or not, and the
    per-layer counts identical across traced repetitions."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        for name, digest in rep["digests"].items():
            if digest != first["digests"][name]:
                problems.append(f"{name} differs between {first['out']} and {rep['out']}")
    traced = [r for r in reps if r["traced"]]
    for rep in traced[1:]:
        for name in EXACT:
            if rep["layers"][name] != traced[0]["layers"][name]:
                problems.append(
                    f"count {name} differs: {traced[0]['layers'][name]} vs {rep['layers'][name]}"
                )
    return problems


def tail_index(n: int) -> int:
    """Index into ``n`` sorted samples of the highest percentile that still
    has at least ten samples beyond it."""
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with 10 beyond it")
    return n - 11


def step_times(marks: list[list[list[int]]], gauged: bool = True) -> list[float]:
    """Each step's time in ns: its median over the repetitions.

    ``marks`` holds each repetition's marks (see ``tracing.Clock``); step
    i runs from the end of mark i's gauge to the start of mark i + 1.
    Every repetition does the same steps (the gates check that its outputs
    are byte-identical). The host runs this process at a speed that varies
    up to about twofold over seconds to minutes (see NOTES.md, Noise), so
    when ``gauged`` a step's time is rescaled by ``GAUGE_REF_NS`` over the
    mean time of the gauges on either side of it: the time the step would
    take at the speed at which the gauge takes ``GAUGE_REF_NS``.
    """
    if len({len(m) for m in marks}) != 1:
        raise RuntimeError("repetitions differ in their number of steps")
    steps = []
    for i in range(len(marks[0]) - 1):
        times = []
        for m in marks:
            ns = m[i + 1][0] - m[i][2]
            if gauged:
                ns *= GAUGE_REF_NS / ((m[i][1] + m[i + 1][1]) / 2)
            times.append(ns)
        steps.append(statistics.median(times))
    return steps


def time_metrics(reps: list[dict], gauged: bool = True) -> dict[str, float]:
    """The time metrics of an invocation from its repetitions' marks.

    Each step's time is that of ``step_times``, and the metrics are read
    off the timeline these steps make.
    """
    steps = step_times([r["marks"]["run"] for r in reps], gauged)
    durable = [0.0]  # ns after the genesis record was durable
    for ns in steps[1:]:
        durable.append(durable[-1] + ns)
    verdicts = reps[0]["verdicts"]
    latency_ms = sorted((durable[c] - durable[s - 1]) / 1e6 for s, c in verdicts)
    latency_blocks = sorted(c - s + 1 for s, c in verdicts)
    tail = tail_index(len(verdicts))
    return {
        "setup_s": steps[0] / 1e9,
        "verdicts_per_s": len(verdicts) * 1e9 / durable[-1],
        "verdict_ms_p50": statistics.median(latency_ms),
        "verdict_ms_tail": latency_ms[tail],
        "verdict_blocks_tail": latency_blocks[tail],
        "verify_blocks_per_s": reps[0]["blocks"] * 1e9
        / sum(step_times([r["marks"]["verify"] for r in reps], gauged)),
        "tail_percentile": 100 * (tail + 1) / len(verdicts),
    }


def traced_verdicts_per_s(rep: dict) -> float:
    """``verdicts_per_s`` of one traced repetition. Its block marks carry
    no gauge, so the whole write path is rescaled by the gauges before
    set-up and after the last block."""
    run, verify = rep["marks"]["run"], rep["marks"]["verify"]
    ns = (run[-1][0] - run[1][2]) * GAUGE_REF_NS / ((run[0][1] + verify[0][1]) / 2)
    return len(rep["verdicts"]) * 1e9 / ns


def layer_value(values: list[float], name: str, unit: str) -> float:
    """One per-layer value from the traced repetitions: a count is exact,
    a time the least, anything else the median."""
    if name in EXACT:
        return values[0]
    if unit in ("s", "ms"):
        return min(values)
    return statistics.median(values)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Every end-to-end metric: the time metrics from ``time_metrics``, the
    rest the median over the repetitions."""
    values = time_metrics(reps)
    for name in reps[0]["outcomes"]:
        values[name] = statistics.median(r["outcomes"][name] for r in reps)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: run from the root of a veriledger checkout; missing {missing}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    base = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    child = Child(args.seed, base, started)

    reps: list[dict] = []
    try:
        problems = check_golden(child.run("golden", traced=False))
        measure_start = time.monotonic()
        took: dict[bool, float] = {}
        while True:
            # In a traced invocation, traced and untraced repetitions alternate.
            traced = bool(args.trace) and len(reps) % 2 == 0
            t0 = time.monotonic()
            reps.append(child.run(args.workload, traced))
            problems += check_run(reps[-1])
            if any(r["traced"] == traced for r in reps[:-1]):
                # Keep the outputs of the first repetition of each kind only;
                # the gates compare digests.
                shutil.rmtree(reps[-1]["out"])
            took[traced] = time.monotonic() - t0
            # Start another repetition only if it should end within --seconds.
            expected = took.get(bool(args.trace) and len(reps) % 2 == 0, took[traced])
            if len(reps) >= MIN_REPS and (
                time.monotonic() - measure_start + expected > args.seconds
            ):
                break
            if time.monotonic() - started + 1.2 * expected > DEADLINE_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems += check_repeats(reps)

    plain = [r for r in reps if not r["traced"]]
    try:
        e2e = end_to_end(plain)
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        # Counts are identical across traced repetitions (a gate); a time is
        # the least over the traced repetitions, any other value the median.
        metrics = {
            name: {"value": layer_value([r["layers"][name] for r in traced], name, unit),
                   "unit": unit}
            for name, unit in LAYERS.items() if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = {
            "value": e2e["verdicts_per_s"]
            / statistics.median(traced_verdicts_per_s(r) for r in traced),
            "unit": "ratio",
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions "
          f"({len(reps) - len(plain)} traced) in {time.monotonic() - started:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  verdict_ms_tail is p{e2e['tail_percentile']:.2f} "
              f"of {len(plain[0]['verdicts'])} verdicts")
        gauges = [mark[1] for r in plain for mark in r["marks"]["run"]]
        print(f"  times are at the speed where the gauge takes {GAUGE_REF_NS} ns; it took "
              f"{statistics.median(gauges):.0f} ns (median), and verdicts_per_s in wall "
              f"time was {time_metrics(plain, gauged=False)['verdicts_per_s']:.6g}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(reps),
        "failed": sum(1 for r in reps if check_run(r)),
        "metrics": metrics,
    }
    (base / "repetitions.json").write_text(json.dumps(reps, indent=1) + "\n")
    (base / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
