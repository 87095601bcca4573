"""The state commits to each analysis request's embedding by hash.

An ``AnalysisRequest`` holds ``embedding_hash``, the SHA-256 of the
submitted embedding's canonical encoding, in place of the embedding. The
embedding stays on chain in its ``SubmitAnalysisRequest`` transaction, and
only the oracle reads it, from an off-chain map.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

from veriledger.codec import hash_bytes
from veriledger.contracts import request_id_for
from veriledger.core import (
    EMBEDDING_DIMENSIONS,
    Embedding,
    MediaType,
    ReceiptStatus,
    SubmitAnalysisRequest,
    TxKind,
    encode_embedding,
    encode_record,
)

from conftest import GOLDEN_FIXTURE_DIR, REPO_ROOT
from test_contracts import Driver, make_state


def submit(embedding: Embedding):
    """A fresh state after one accepted request for ``embedding``, and the
    request."""
    driver = Driver(make_state())
    receipt, tx = driver.submit(
        TxKind.SUBMIT_ANALYSIS_REQUEST,
        "bob",
        SubmitAnalysisRequest(
            media_type=embedding.media_type,
            content_hash=hash_bytes(b"query"),
            embedding=embedding,
            fee=10,
        ),
    )
    assert receipt.status is ReceiptStatus.ACCEPTED
    return driver.state, driver.state.requests[request_id_for(tx)]


def ramp(media_type: MediaType) -> Embedding:
    dim = EMBEDDING_DIMENSIONS[media_type]
    return Embedding(
        values=tuple((i + 1) / dim for i in range(dim)), media_type=media_type
    )


def test_one_changed_value_changes_the_commitment_and_the_root():
    honest = ramp(MediaType.BYTES)
    values = list(honest.values)
    values[100] = math.nextafter(values[100], 1.0)
    changed = replace(honest, values=tuple(values))

    state, request = submit(honest)
    _, other = submit(changed)
    assert request.embedding_hash == hash_bytes(encode_embedding(honest))
    assert other.embedding_hash == hash_bytes(encode_embedding(changed))
    assert other.embedding_hash != request.embedding_hash

    # The same request committing to the changed embedding: only that one
    # field differs, and the root moves.
    swapped = state.clone()
    swapped.requests[request.request_id] = replace(
        request, embedding_hash=other.embedding_hash
    )
    assert swapped.state_root() != state.state_root()


def test_request_encoding_does_not_depend_on_the_embedding_size():
    sizes = {
        media_type: len(encode_record(submit(ramp(media_type))[1]))
        for media_type in MediaType
    }
    assert len(set(sizes.values())) == 1, sizes
    # A Bytes embedding alone encodes to over 2 KB.
    assert sizes[MediaType.BYTES] < 200 < len(encode_embedding(ramp(MediaType.BYTES)))


VERIFY_WITHOUT_ORACLE = """
import sys
from veriledger import cli, detection, oracle, sim

def unreachable(*args, **kwargs):
    raise AssertionError("verify reached the oracle")

oracle.process_pending = sim.process_pending = unreachable
oracle.run_detector = detection.run_detector = unreachable
sys.exit(cli.main(["verify", "--chain", sys.argv[1]]))
"""


def test_chain_verifies_with_no_embedding_map(golden_run):
    # A fresh process that never ran the scenario holds no embeddings off
    # chain, and with the oracle unreachable it replays every request.
    chain = golden_run.out_dir / "run.chain.jsonl"
    done = subprocess.run(
        [sys.executable, "-c", VERIFY_WITHOUT_ORACLE, str(chain)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    meta = json.loads((GOLDEN_FIXTURE_DIR / "chain_meta.json").read_text())
    assert done.stdout == f"OK tip={meta['tip_block_hash']} blocks={meta['blocks']}\n"
