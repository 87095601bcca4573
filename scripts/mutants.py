"""Mutation gate for the chain decoders' strictness checks, for the
consensus rules and for the similarity search's exact rules.

    python scripts/mutants.py

Each entry of ``MUTANTS`` names one edit of a decoder or a contract rule:
an exact snippet of one module, which must occur there exactly once, and
its replacement.
The script copies ``src/``, ``tests/``, ``scenarios/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory, runs the union of the
mutants' tests there unedited, which must all pass, and then, for each
mutant in turn, applies its edit alone and runs its tests, each of which
must fail. A snippet that does not occur exactly once, a test that fails
unedited and a mutant any of whose tests passes each end the script with
exit status 1. Nothing is skipped.

Why: a decoder that accepts a second encoding of a value lets a reader hash
bytes no writer writes (``core._dec_transaction`` and ``_dec_embedding``
keep the bytes they read as the encoding cache); a contract or ledger rule
that drops a check or a counter, moves a comparison's boundary or rounds a
split the other way changes what every node agrees on; a cosine kernel that
takes a wrong shortcut or reads the wrong stored value, or a score rounded
up, changes a committed score, and a match rule that moves its boundary or
a pruning bound that drops a factor changes a verdict; and a state map
(``core.StateMap``) that misses
a write or stores an overwritten key twice encodes a root that a fresh
copy of its state does not. Each mutant below is one of these, and the
tests named for it are the ones that catch it. A
case of the codec property test kills its mutant on a fixed ``@example``
(``EDITS`` in tests/test_record_codec.py), not on what Hypothesis happens
to draw, and so do the search's property tests (``PYTHAGOREAN`` and
``TIGHT`` in tests/test_sparse_search.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "perfbench", "pyproject.toml")

PROPERTY = "tests/test_record_codec.py::test_each_codec_entry_decodes_only_its_own_encodings"
COSMETIC = "tests/test_store.py::test_no_stored_byte_is_cosmetic"
SETS = "tests/test_store.py::test_set_entries_must_be_sorted_and_distinct"
REJECTION = "tests/test_contracts.py::test_every_rejection_code_is_reached_and_state_neutral"
CONSERVATION = "tests/test_acceptance.py::test_criterion_2_token_conservation"
GOLDEN = "tests/test_sim.py::test_golden_report_matches_frozen_fixture"
SPARSE = "tests/test_sparse_search.py"
BOUNDARY = "tests/test_detection.py::test_near_duplicate_threshold_boundary_inclusive"
STATE_MAP = (
    "tests/test_state_map.py::test_every_state_encodes_as_its_fresh_copy",
    "tests/test_state_map.py::test_a_block_encodes_only_what_it_wrote",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # every one must fail


MUTANTS = (
    Mutant(
        "lenient-utf8",
        "src/veriledger/codec.py",
        'return data[pos : pos + n].decode("utf-8"), pos + n',
        'return data[pos : pos + n].decode("utf-8", errors="replace"), pos + n',
        (f"{PROPERTY}[str]", f"{COSMETIC}[invalid-utf8]", f"{COSMETIC}[non-ascii-character]"),
    ),
    Mutant(
        "ascending-allows-repeats",
        "src/veriledger/codec.py",
        "if not all(map(lt, keys, keys[1:])):",
        "if not all(a <= b for a, b in zip(keys, keys[1:])):",
        (
            f"{SETS}[duplicated-media_types]",
            f"{SETS}[duplicated-challenges_submitted]",
            f"{COSMETIC}[repeated-metadata-key]",
            f"{PROPERTY}[dict[str, int]]",
        ),
    ),
    Mutant(
        "bool-byte-above-1",
        "src/veriledger/codec.py",
        "    if b > 1:\n",
        "    if b > 255:\n",
        (
            f"{COSMETIC}[parameter-bool-byte]",
            f"{COSMETIC}[labelled-bool-byte]",
            f"{PROPERTY}[dict[str, object]]",
            f"{PROPERTY}[bool]",
        ),
    ),
    Mutant(
        "stored-zero",
        "src/veriledger/codec.py",
        '    if 0 in stored:\n        raise SerializationError("0 is stored")\n',
        '    if False:\n        raise SerializationError("0 is stored")\n',
        (
            f"{COSMETIC}[bit-over-plus-zero]",
            "tests/test_record_codec.py::test_embedding_decoder_refuses_a_stored_zero[lone-zero]",
        ),
    ),
    Mutant(
        "bitmap-bit-past-count",
        "src/veriledger/codec.py",
        "    if n % 8 and bitmap[-1] & (0xFF >> n % 8):\n",
        "    if False:\n",
        (f"{COSMETIC}[bit-past-count]", f"{COSMETIC}[padding-bit-with-value]"),
    ),
    Mutant(
        "count-exceeds-bytes",
        "src/veriledger/codec.py",
        "    if width > len(data) - pos:\n",
        "    if False:\n",
        (
            "tests/test_record_codec.py::test_huge_embedding_count_is_refused_before_allocating",
            "tests/test_store.py::test_a_huge_claimed_dimension_verifies_in_bounded_memory"
            "[count-past-bytes]",
        ),
    ),
    Mutant(
        "bytes-left-over",
        "src/veriledger/codec.py",
        "    if pos != len(data):\n",
        "    if pos > len(data):\n",
        (
            "tests/test_store.py::test_non_canonical_line_rejected",
            "tests/test_store.py::test_genesis_with_stored_receipts_fails_at_height_0",
            f"{PROPERTY}[frozenset[MediaType]]",
            f"{PROPERTY}[tuple[tuple[str, int], ...]]",
        ),
    ),
    Mutant(
        "record-id-order",
        "src/veriledger/core.py",
        "        ascending(keys)\n        return dict(zip(keys, records)), pos\n",
        "        return dict(zip(keys, records)), pos\n",
        (f"{PROPERTY}[dict[str, AlgorithmRecord]]", f"{PROPERTY}[dict[str, AnalysisResultRecord]]"),
    ),
    Mutant(
        "unknown-enum-value",
        "src/veriledger/codec.py",
        "        if member is None:\n",
        "        if member is None and not members:\n",
        (f"{COSMETIC}[unknown-verdict]", f"{PROPERTY}[Verdict]"),
    ),
    Mutant(
        "duplicate-feedback-allowed",
        "src/veriledger/contracts.py",
        "    if result.labelled:\n"
        "        raise Rejection(errors.DUPLICATE_FEEDBACK, payload.request_id)\n",
        "",
        (
            f"{REJECTION}[DuplicateFeedback]",
            "tests/test_contracts.py::test_duplicate_feedback_rejected",
            "tests/test_store.py::test_feedback_on_a_labelled_genesis_result_is_a_duplicate",
        ),
    ),
    Mutant(
        "stake-burn-uncounted",
        "src/veriledger/contracts.py",
        "    state.stake_burned += burn\n",
        "",
        (
            CONSERVATION,
            "tests/test_contracts.py::test_fifteen_of_twenty_deprecates_and_burns_half",
            "tests/test_contracts.py::test_low_accuracy_after_window_deprecates",
        ),
    ),
    Mutant(
        "fee-burn-uncounted",
        "src/veriledger/contracts.py",
        "    state.fees_burned += burn\n",
        "",
        (
            CONSERVATION,
            "tests/test_contracts.py::test_commit_splits_fee_70_20_10",
            GOLDEN,
            "tests/test_ledger.py::test_golden_genesis_hash_frozen",
        ),
    ),
    Mutant(
        "proposer-boundary-inclusive",
        "src/veriledger/ledger.py",
        "        if cumulative * _TWO64 > u * total:\n",
        "        if cumulative * _TWO64 >= u * total:\n",
        (
            "tests/test_ledger.py::"
            "test_a_draw_on_a_cumulative_stake_boundary_goes_to_the_next_validator",
        ),
    ),
    Mutant(
        "repeated-nonce-accepted",
        "src/veriledger/contracts.py",
        "        if tx.nonce <= last:\n",
        "        if tx.nonce < last:\n",
        (
            f"{REJECTION}[BadNonce-repeated]",
            "tests/test_ledger.py::test_bad_nonce_rejected_and_consumes_nothing",
        ),
    ),
    Mutant(
        "equal-bitmap-cosine-for-every-pair",
        "src/veriledger/detection.py",
        "    if a.bitmap == b.bitmap:\n",
        "    if True:\n",
        (
            f"{SPARSE}::test_similarity_of_unequal_bitmaps_matches_the_dense_loop",
            f"{SPARSE}::test_record_sharing_no_bin_scores_exactly_zero",
        ),
    ),
    Mutant(
        "mask-rank-off-by-one",
        "src/veriledger/detection.py",
        "a.stored[(ma >> top).bit_count() - 1]",
        "a.stored[(ma >> top).bit_count()]",
        (f"{SPARSE}::test_similarity_of_unequal_bitmaps_matches_the_dense_loop",),
    ),
    Mutant(
        "deprecation-burns-the-odd-token",
        "src/veriledger/contracts.py",
        "    burn = record.stake // 2\n",
        "    burn = (record.stake + 1) // 2\n",
        (
            "tests/test_contracts.py::test_deprecating_an_odd_stake_burns_the_floor_of_half",
            "tests/test_contracts.py::test_fuzzed_blocks_conserve_tokens_and_match_naive",
        ),
    ),
    Mutant(
        "reward-remainder-to-the-lowest-score",
        "src/veriledger/contracts.py",
        "        top = min(scores, key=lambda aid: (-scores[aid], aid))\n",
        "        top = min(scores, key=lambda aid: (scores[aid], aid))\n",
        (
            "tests/test_contracts.py::test_rewards_remainder_to_the_highest_score",
            "tests/test_acceptance.py::test_criterion_7_reward_arithmetic",
        ),
    ),
    Mutant(
        "challenge-pass-strict",
        "src/veriledger/contracts.py",
        "if passed * 100 >= state.params.challenge_pass_pct * state.params.challenge_count:",
        "if passed * 100 > state.params.challenge_pass_pct * state.params.challenge_count:",
        ("tests/test_contracts.py::test_sixteen_of_twenty_activates",),
    ),
    Mutant(
        "feedback-min-inclusive",
        "src/veriledger/contracts.py",
        "and (record.tp + record.tn) * 100 < state.params.feedback_min_pct * total",
        "and (record.tp + record.tn) * 100 <= state.params.feedback_min_pct * total",
        ("tests/test_contracts.py::test_accuracy_at_exactly_the_minimum_keeps_the_algorithm",),
    ),
    Mutant(
        "score-rounds-up",
        "src/veriledger/detection.py",
        "math.isqrt((top << 32) // bottom)",
        "math.isqrt((top << 32) // bottom) + 1",
        (
            f"{SPARSE}::test_a_committed_score_is_the_floor_of_ONE_times_the_cosine",
            "tests/test_detection.py::test_match_self_is_first_with_similarity_one",
            BOUNDARY,
        ),
    ),
    Mutant(
        "match-boundary-strict",
        "src/veriledger/detection.py",
        "        if top * den2 >= num2 * bottom:\n",
        "        if top * den2 > num2 * bottom:\n",
        (BOUNDARY, f"{SPARSE}::test_sparse_search_matches_dense_reference_bit_for_bit"),
    ),
    Mutant(
        "prune-bound-drops-the-square",
        "src/veriledger/detection.py",
        "        if c * c * peak2 * bound_q < need_q * norm2:\n",
        "        if c * peak2 * bound_q < need_q * norm2:\n",
        (
            f"{SPARSE}::test_rule_skips_only_records_scoring_below_the_threshold",
            f"{SPARSE}::test_a_tight_bound_does_not_skip_an_exact_match[Bytes-1-10]",
        ),
    ),
    Mutant(
        "conservation-ignores-burned-stake",
        "src/veriledger/core.py",
        "        burned = self.fees_burned + self.stake_burned\n",
        "        burned = self.fees_burned\n",
        (CONSERVATION, "tests/test_contracts.py::test_fifteen_of_twenty_deprecates_and_burns_half"),
    ),
    Mutant(
        "state-map-write-unrecorded",
        "src/veriledger/core.py",
        "        self._dirty.add(key)\n        dict.__setitem__(self, key, value)\n",
        "        dict.__setitem__(self, key, value)\n",
        STATE_MAP,
    ),
    Mutant(
        "state-map-insert-after-an-equal-key",
        "src/veriledger/core.py",
        "from bisect import bisect_left\n",
        "from bisect import bisect_right as bisect_left\n",
        STATE_MAP,
    ),
)


def run_tests(root: Path, tests: list[str], report: Path) -> dict[str, str]:
    """Run ``tests`` in the copy at ``root``: test id -> "passed", or the
    tag of its JUnit outcome ("failure", "error" or "skipped")."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    )
    outcomes = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            module = case.get("classname", "").replace(".", "/")
            outcomes[f"{module}.py::{case.get('name')}"] = next(
                (child.tag for child in case if child.tag in ("failure", "error", "skipped")),
                "passed",
            )
        report.unlink()
    return outcomes


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="veriledger-mutants-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = REPO / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, root / name)
        problems = []
        for m in MUTANTS:
            found = (root / m.path).read_text().count(m.snippet)
            if found != 1:
                problems.append(f"{m.name}: its snippet occurs {found} times in {m.path}")
        if problems:
            print("\n".join(problems))
            return 1

        report = root / "report.xml"
        union = sorted({t for m in MUTANTS for t in m.tests})
        unedited = run_tests(root, union, report)
        broken = [t for t in union if unedited.get(t) != "passed"]
        if broken:
            print("tests that do not pass unedited:\n  " + "\n  ".join(broken))
            return 1

        survivors = 0
        for m in MUTANTS:
            path = root / m.path
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            try:
                outcomes = run_tests(root, list(m.tests), report)
            finally:
                path.write_text(original)
            missed = [t for t in m.tests if outcomes.get(t) != "failure"]
            survivors += bool(missed)
            print(f"{'SURVIVED' if missed else 'killed  '} {m.name}")
            for t in missed:
                print(f"    {outcomes.get(t, 'not run')}: {t}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
