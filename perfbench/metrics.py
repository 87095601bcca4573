"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same names; the benchmark's tests check that the
two agree.
"""

# Measured with tracing off; one value per invocation. Times are read off
# the timeline of each block's least time over the repetitions (setup_s is
# their median); any other value is the median of the repetitions.
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "verdict_blocks_tail": "blocks",
    "verify_blocks_per_s": "1/s",
    "tx_failed_frac": "ratio",
    "requests_unserved_frac": "ratio",
    "chain_bytes_per_tx": "B",
    "peak_rss_mb": "MiB",
}

# Every receipt error code the contracts define (veriledger.errors); a code
# added later is counted under contracts.rejected.other.
ERROR_CODES = (
    "BadNonce", "UnknownKind", "DuplicateAlgorithm", "InsufficientStake",
    "InsufficientBalance", "UnknownDetector", "NotPending",
    "DuplicateChallenge", "UnknownChallenge", "UnknownAlgorithm",
    "DuplicateContent", "BadEmbeddingDimension", "BadEmbeddingValues",
    "InsufficientFee", "DuplicateRequest", "UnknownRequest",
    "RequestCompleted", "RequestNotCompleted", "AlgorithmNotActive",
    "UnauthorizedOracle", "BadResult", "DuplicateFeedback", "NotSubmitter",
    "BadLabel", "BadAmount",
)

# Counts of work done. They repeat exactly across runs of one seed, and the
# benchmark fails when they do not.
EXACT = {
    "core.clone_calls": "count",
    "core.root_bytes_hashed": "B",
    "detection.similarity_calls": "count",
    "oracle.commits": "count",
    "oracle.skipped": "count",
    "oracle.useful_ratio": "ratio",
    "oracle.backlog_max": "count",
    "oracle.oldest_pending_blocks_max": "blocks",
    "contracts.tx_count": "count",
    **{f"contracts.rejected.{code}": "count" for code in ERROR_CODES + ("other",)},
    "codec.hash_calls": "count",
    "codec.bytes_hashed": "B",
    "store.bytes_written": "B",
    "store.fsync_calls": "count",
}

# From the traced repetitions of an invocation: times are the least over
# them, counts are exact, anything else is the median.
LAYERS = {
    "core.clone_s": "s",
    "core.state_root_s": "s",
    "ledger.seal_s": "s",
    "ledger.seal_self_s": "s",
    "ledger.apply_s": "s",
    "ledger.apply_self_s": "s",
    "ledger.seal_growth": "ratio",
    "detection.run_s": "s",
    "detection.run_ms_p50": "ms",
    "detection.select_s": "s",
    "oracle.poll_self_s": "s",
    "contracts.execute_s": "s",
    "contracts.epoch_rewards_s": "s",
    "store.append_s": "s",
    "store.fsync_s": "s",
    "store.read_chain_s": "s",
    "store.replay_self_s": "s",
    "sim.corpus_s": "s",
    "sim.embed_s": "s",
    "sim.loop_self_s": "s",
    **EXACT,
    # Untraced over traced verdicts_per_s in the same invocation.
    "trace.overhead_ratio": "ratio",
}
