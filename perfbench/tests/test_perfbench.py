"""Tests of the benchmark's own code, on shrunken workloads.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Clock, Tracer  # noqa: E402
from veriledger import store  # noqa: E402
from veriledger.store import ChainWriter  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def small(workload: str, seed: int = 7) -> dict:
    """The workload's document at about a tenth of its size."""
    doc = workloads.WORKLOADS[workload](seed)
    corpus = doc["corpus"]
    for key in ("trusted_count", "fake_count", "unrelated_count"):
        corpus[key] = max(3, corpus[key] // 10)
    corpus["item_size"] = 512
    doc["blocks"] = min(doc["blocks"], 30)
    return doc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_workload_passes_every_gate(workload, tmp_path):
    plain = child.measure(small(workload), tmp_path / "plain", traced=False)
    traced = child.measure(small(workload), tmp_path / "traced", traced=True)
    again = child.measure(small(workload), tmp_path / "again", traced=True)
    for rep, name in ((plain, "plain"), (traced, "traced"), (again, "again")):
        rep["out"] = name
        rep["traced"] = name != "plain"
        assert run.check_run(rep) == []
    assert run.check_repeats([plain, traced, again]) == []
    assert set(run.end_to_end([plain])) >= set(metrics.END_TO_END)
    assert set(traced["layers"]) == set(metrics.LAYERS) - {"trace.overhead_ratio"}
    assert (tmp_path / "traced" / "spans.jsonl").stat().st_size > 0


def test_golden_gate(tmp_path):
    rep = child.measure(json.loads(child.GOLDEN_SCENARIO.read_text()), tmp_path,
                        traced=False)
    assert run.check_golden(rep) == []
    rep["tip_hash"] = "0" * 64
    assert run.check_golden(rep) != []


def test_repeat_gate_catches_a_changed_artifact():
    a = {"out": "a", "traced": False, "digests": {"oracle.log": "x"}}
    b = {"out": "b", "traced": False, "digests": {"oracle.log": "y"}}
    assert run.check_repeats([a, b]) != []


def test_tracer_restores_every_wrapped_name():
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patches)
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is not original
    tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_clock_restores_what_it_wraps():
    originals = (ChainWriter.append, store.apply_block)
    clock = Clock()
    clock.install()
    assert ChainWriter.append is not originals[0]
    assert store.apply_block is not originals[1]
    clock.restore()
    assert (ChainWriter.append, store.apply_block) == originals


def test_tracing_leaves_the_tip_hash_unchanged(tmp_path):
    doc = small("long-chain")
    plain = child.measure(doc, tmp_path / "plain", traced=False)
    traced = child.measure(doc, tmp_path / "traced", traced=True)
    assert traced["tip_hash"] == plain["tip_hash"]
    assert traced["digests"] == plain["digests"]


def test_tail_index_leaves_ten_samples_beyond():
    assert run.tail_index(11) == 0
    assert run.tail_index(300) == 289
    with pytest.raises(ValueError):
        run.tail_index(10)


def marks(*times, gauge=run.GAUGE_REF_NS):
    """Marks at ``times`` (s) whose gauges took ``gauge`` ns."""
    return [[int(s * 1e9), gauge, int(s * 1e9)] for s in times]


def test_step_times_rescale_by_the_gauge_and_take_the_median():
    full = marks(0, 1, 3)
    half = marks(0, 0.5, 1.5, gauge=run.GAUGE_REF_NS // 2)  # a host twice as fast
    slow = marks(0, 4, 9)
    assert run.step_times([full, half, slow]) == [1e9, 2e9]
    assert run.step_times([full, half, slow], gauged=False) == [1e9, 2e9]
    # The gauge's own time lies between two steps and belongs to neither.
    assert run.step_times([[[0, 1, 5], [9, 1, 12]]], gauged=False) == [4]
    with pytest.raises(RuntimeError):
        run.step_times([marks(0, 1), marks(0, 1, 2)])


def test_time_metrics_read_the_timeline_of_the_steps():
    reps = [
        # Setup 1 s; blocks 1..3 take 2, 3 and 5 s; replay 1 s.
        {"blocks": 4, "verdicts": [[1, 2]] * 11,
         "marks": {"run": marks(0, 1, 3, 6, 11), "verify": marks(0, 0.5, 1)}},
    ]
    got = run.time_metrics(reps)
    assert got["setup_s"] == 1.0
    assert got["verdicts_per_s"] == 11 / 10
    # From the durable genesis (0) to the end of block 2 (2 + 3 s).
    assert got["verdict_ms_p50"] == got["verdict_ms_tail"] == 5000.0
    assert got["verdict_blocks_tail"] == 2
    assert got["verify_blocks_per_s"] == 4.0


def test_traced_verdicts_per_s_rescales_the_whole_write_path():
    # A host at half speed: the gauges take twice the reference time, and
    # the 10 s from the durable genesis to the last block count as 5 s.
    slow = 2 * run.GAUGE_REF_NS
    rep = {"verdicts": [[1, 2]] * 10,
           "marks": {"run": [[0, slow, 0], *marks(1, 4, 11, gauge=0)],
                     "verify": [[int(11e9), slow, int(11e9)]]}}
    assert run.traced_verdicts_per_s(rep) == 2.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.LAYERS
