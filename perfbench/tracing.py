"""Layer tracing from outside the program, and the per-layer metrics.

The program has no instrumentation of its own, so the benchmark replaces
the public names that one layer calls in another with timing wrappers and
puts the originals back afterwards. A module binds imported names when it
is imported (``from .detection import run_detector``), so a name is wrapped
in the module that calls it, not in the module that defines it.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, attrs)``
tuples; ``parent`` is the index of the enclosing span or -1. A span's index
is taken when it starts, so a parent always precedes its children.
"""

from __future__ import annotations

import copy
import functools
import gc
import json
import os
import statistics
import time
from collections import Counter
from typing import Any, Callable

from veriledger import core, detection, ledger, oracle, sim, store
from veriledger.core import NetworkState, RequestStatus
from veriledger.sim import ScenarioRunner
from veriledger.store import ChainWriter

from metrics import ERROR_CODES

# The scenario engine submits analysis requests from this block on.
FIRST_REQUEST_HEIGHT = 3


# What ``gauge`` computes: small nested containers like the program's state,
# and a vector like an embedding.
_GAUGE_STATE = {
    f"k{i}": {"a": list(range(10)), "b": {"x": i, "y": "abc"}, "c": [0.5] * 8}
    for i in range(20)
}
_GAUGE_VECTOR = [float(i) for i in range(64)]


def gauge() -> int:
    """Time, in ns, of a fixed computation like the program's own work: a
    deep copy of nested containers (``NetworkState.clone``) and float dot
    products (cosine similarity).

    The host runs this process at a speed that varies up to about twofold
    over seconds to minutes, and the gauge slows with it. Garbage
    collection is off while it runs, so its time does not depend on how
    large the program's heap is.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    copy.deepcopy(_GAUGE_STATE)
    total = 0.0
    for _ in range(8):
        total += sum(a * b for a, b in zip(_GAUGE_VECTOR, _GAUGE_VECTOR))
    took = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return took


def mark() -> list[int]:
    """``[before, gauge_ns, after]``: the clock, the time ``gauge`` took,
    and the clock again. A mark lies between two steps; the gauge's own
    time belongs to neither."""
    before = time.perf_counter_ns()
    took = gauge()
    return [before, took, time.perf_counter_ns()]


class Clock:
    """The only hooks of an untraced run: a mark when each
    ``ChainWriter.append`` returns (a block is durable) and one when each
    ``apply_block`` of the replay starts."""

    def __init__(self) -> None:
        self.durable: list[list[int]] = []
        self.replayed: list[list[int]] = []
        self._originals: tuple = ()

    def install(self) -> None:
        append, apply_block = self._originals = (ChainWriter.append, store.apply_block)
        durable, replayed = self.durable, self.replayed

        @functools.wraps(append)
        def timed_append(*args, **kwargs):
            append(*args, **kwargs)
            durable.append(mark())

        @functools.wraps(apply_block)
        def timed_apply(*args, **kwargs):
            replayed.append(mark())
            return apply_block(*args, **kwargs)

        ChainWriter.append = timed_append
        store.apply_block = timed_apply

    def restore(self) -> None:
        ChainWriter.append, store.apply_block = self._originals


def _pending_stats(args, result) -> dict:
    state = args[0]
    ages = [
        state.tip_height - r.submitted_at
        for r in state.requests.values()
        if r.status is RequestStatus.PENDING
    ]
    return {
        "commits": len(result.transactions),
        "skipped": len(result.skipped),
        "backlog": len(ages),
        "oldest": max(ages, default=0),
    }


class Tracer:
    """Wraps each layer boundary and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (for the harness's own
        top-level calls, such as ``verify_chain``)."""
        return self._wrapper(name, fn, None)(*args, **kwargs)

    def _wrapper(self, name: str, original: Callable, note) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, result))
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, note))

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls without a span, for a boundary crossed too often
        for a span per call to be cheap."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        calls = self.calls

        @functools.wraps(original)
        def counter(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counter)

    def install(self) -> None:
        w = self.wrap
        w(ScenarioRunner, "run", "sim.run")
        w(sim, "generate_corpus", "sim.corpus")
        w(sim, "embed", "sim.embed")
        w(sim, "compute_metrics", "sim.report")
        w(sim, "write_artifacts", "sim.artifacts")
        w(sim, "seal_block", "ledger.seal")
        w(sim, "process_pending", "oracle.poll", _pending_stats)
        w(oracle, "select_model", "detection.select")
        w(oracle, "run_detector", "detection.run",
          lambda args, result: args[1].request_id)
        # About 10^5 calls on big-registry; a span each would double the
        # cost of detection.
        self.count(detection, "similarity", "detection.similarity")
        w(ledger, "execute_transaction", "contracts.execute",
          lambda args, result: None if result is None else result.error_code)
        w(ledger, "distribute_epoch_rewards", "contracts.epoch_rewards")
        w(store, "apply_block", "ledger.apply")
        w(store, "read_chain", "store.read_chain")
        w(store, "replay", "store.replay")
        hashed = lambda args, result: len(args[0])  # noqa: E731
        for module in (core, ledger, sim):
            w(module, "hash_bytes", "codec.hash", hashed)
        w(NetworkState, "clone", "core.clone")
        w(NetworkState, "state_root", "core.state_root")
        w(ChainWriter, "append", "store.append",
          lambda args, result: os.path.getsize(args[0].path))
        # ChainWriter calls os.fsync through the os module itself; only the
        # chain writer calls it in a benchmark process.
        w(os, "fsync", "store.fsync")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# --- per-layer metrics -------------------------------------------------------


def _tenth_growth(durations: list[int]) -> float:
    """Mean of the last tenth of ``durations`` over the mean of the first."""
    n = max(1, len(durations) // 10)
    return statistics.fmean(durations[-n:]) / statistics.fmean(durations[:n])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals, self times and counts from one traced process.

    Self time is a span's duration minus that of its direct children.
    Counts of executed transactions are taken from the write path
    (``sim.run``) only, so they match the transactions the chain holds.
    """
    spans = tracer.spans
    n = len(spans)
    child_ns = [0] * n
    root = [0] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i

    total: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        calls[name] += 1

    def s(ns: int) -> float:
        return ns / 1e9

    rejected: Counter = Counter()
    tx_count = 0
    root_bytes = hash_bytes = 0
    append_sizes = [0]
    polls = []
    seal_ns = []
    run_ms = []
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if name == "contracts.execute" and spans[root[i]][0] == "sim.run":
            tx_count += 1
            if attrs is not None:
                rejected[attrs if attrs in ERROR_CODES else "other"] += 1
        elif name == "codec.hash":
            hash_bytes += attrs
            if parent >= 0 and spans[parent][0] == "core.state_root":
                root_bytes += attrs
        elif name == "store.append":
            append_sizes.append(attrs)
        elif name == "oracle.poll":
            polls.append(attrs)
        elif name == "ledger.seal":
            seal_ns.append(end - start)
        elif name == "detection.run":
            run_ms.append((end - start) / 1e6)

    commits = sum(p["commits"] for p in polls)
    skipped = sum(p["skipped"] for p in polls)
    metrics = {
        "core.clone_s": s(total["core.clone"]),
        "core.clone_calls": calls["core.clone"],
        "core.state_root_s": s(total["core.state_root"]),
        "core.root_bytes_hashed": root_bytes,
        "ledger.seal_s": s(total["ledger.seal"]),
        "ledger.seal_self_s": s(self_ns["ledger.seal"]),
        "ledger.apply_s": s(total["ledger.apply"]),
        "ledger.apply_self_s": s(self_ns["ledger.apply"]),
        "ledger.seal_growth": _tenth_growth(seal_ns[FIRST_REQUEST_HEIGHT - 1:]),
        "detection.run_s": s(total["detection.run"]),
        "detection.run_ms_p50": statistics.median(run_ms) if run_ms else 0.0,
        "detection.similarity_calls": tracer.calls["detection.similarity"],
        "detection.select_s": s(total["detection.select"]),
        "oracle.poll_self_s": s(self_ns["oracle.poll"]),
        "oracle.commits": commits,
        "oracle.skipped": skipped,
        "oracle.useful_ratio": commits / (commits + skipped) if polls else 0.0,
        "oracle.backlog_max": max((p["backlog"] for p in polls), default=0),
        "oracle.oldest_pending_blocks_max": max((p["oldest"] for p in polls), default=0),
        "contracts.execute_s": s(total["contracts.execute"]),
        "contracts.tx_count": tx_count,
        "contracts.epoch_rewards_s": s(total["contracts.epoch_rewards"]),
        "codec.hash_calls": calls["codec.hash"],
        "codec.bytes_hashed": hash_bytes,
        "store.append_s": s(total["store.append"]),
        "store.fsync_s": s(total["store.fsync"]),
        "store.fsync_calls": calls["store.fsync"],
        "store.bytes_written": max(append_sizes),
        "store.read_chain_s": s(total["store.read_chain"]),
        "store.replay_self_s": s(self_ns["store.replay"]),
        "sim.corpus_s": s(total["sim.corpus"]),
        "sim.embed_s": s(total["sim.embed"]),
        "sim.loop_self_s": s(self_ns["sim.run"]),
    }
    for code in ERROR_CODES:
        metrics[f"contracts.rejected.{code}"] = rejected[code]
    metrics["contracts.rejected.other"] = rejected["other"]
    return metrics
