"""Off-chain content analysis: embeddings, similarity search, detectors.

Detectors are deterministic stand-ins executed by the oracle. They are
registered in a plugin table by kind, so scenarios can bind algorithms to
any declared detector, and new kinds can be added without touching the
contract layer. Two kinds ship built in:

* ``exact-hash``     -- authenticates content whose hash is registered.
* ``near-duplicate`` -- additionally flags content whose embedding is
  within cosine threshold ``tau`` of registered content (likely a
  manipulated copy).

All arithmetic uses plain sequential float summation so embeddings and
similarities are bit-identical across platforms and runs.

Similarity search is sparse and norm-cached. Each ``Embedding`` caches its
non-zero ``(index, value)`` pairs and its squared norm (``sparse()``), so a
cosine costs one multiply-add per non-zero entry of the registered side
instead of three per dimension. A Bytes histogram of content over a
32-symbol alphabet fills about 32 of its 256 bins. The result has the same
bits as the dense loop that sums ``x * y``, ``x * x`` and ``y * y`` over every
dimension: embeddings are finite and non-negative, so a skipped product is
``+0.0`` and adding it leaves the accumulator unchanged; the kept products
are added in the same ascending index order; and each of the three sums is
independent of the others, so a norm summed once and cached is the same
number.

``match_trusted`` also skips every record whose cosine provably stays below
the threshold: the size filter of AllPairs (Bayardo, Ma and Srikant, WWW
2007), cut down to one popcount. Each ``Embedding`` caches, beside its pairs
and norm, a support bitmask and its peak ``max(values)``. For non-negative
vectors each of the ``c = popcount(support_q & support_r)`` non-zero products
is at most ``peak_q * peak_r``, and rounding is monotone, so each rounded
product is at most the rounded product of the peaks, subnormals included.
The bound is ``c * (peak_q * peak_r) / math.sqrt(n_q * n_r)``, with the
exact denominator of ``_cosine``. Rounding can still lift the summed dot
product above ``c`` times that product, by a relative ``256 * 2**-53`` at
most (about 3e-14), so a record is skipped only when
``bound * (1 + 1e-9) < threshold``; an all-equal embedding of ten 0.1s
against itself has bound ``1 - 2**-53`` and score 1.0. Nothing is skipped
when the threshold is 0, when the denominator is 0 (``similarity`` then
raises ``ZeroVector`` or ``ZeroDivisionError`` as it would have), when the
bound is inf or NaN, or when a value is negative or NaN (the peak is then
inf). Every other record goes through ``similarity``, so each score and
every result keeps its bits. Bytes histograms are sparse: on big-registry
seed 7 the bound skips 59,880 of 60,000 records at ``tau`` 0.95. Image and
Audio embeddings are dense, and it skips none of mixed-media's 2,670 Image
records there; for them it costs one popcount per record.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .codec import Hash256
from .core import (
    AlgorithmRecord,
    AlgorithmStatus,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    Verdict,
    sparse_values,
)
from .errors import (
    DimensionMismatch,
    EmptyContent,
    MalformedAudio,
    MalformedImage,
    NoEligibleAlgorithm,
    UnknownDetector,
    ZeroVector,
)

GRID = 8  # image embeddings use an 8x8 block grid
AUDIO_WINDOWS = 64
PCM_FULL_SCALE = 32768.0
# Relative slack on the pruning bound, over 30,000 times the worst rounding
# (about 3e-14) of a dot product summed from at most 256 products.
BOUND_MARGIN = 1.0 + 1e-9


@dataclass(frozen=True, slots=True)
class MatchCandidate:
    content_id: str
    similarity: float


@dataclass(frozen=True, slots=True)
class AnalysisTarget:
    """What a detector needs to know about the content under analysis: a
    pending request's on-chain fields and the embedding the oracle holds
    for it."""

    request_id: str
    media_type: MediaType
    content_hash: Hash256
    embedding: Embedding


def _partition_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``total`` items into ``parts`` contiguous runs.

    Each run gets ``total // parts`` items; the trailing run absorbs the
    remainder. Requires total >= parts so no run is empty.
    """
    base = total // parts
    bounds = [(i * base, (i + 1) * base) for i in range(parts - 1)]
    bounds.append(((parts - 1) * base, total))
    return bounds


def _embed_bytes(content: bytes) -> tuple[float, ...]:
    counts = [0] * 256
    for b in content:
        counts[b] += 1
    n = len(content)
    return tuple(c / n for c in counts)


def parse_pgm(content: bytes) -> tuple[int, int, bytes]:
    """Parse binary PGM (P5, maxval 255); returns (width, height, pixels)."""

    pos = 0

    def skip_separators() -> None:
        nonlocal pos
        while pos < len(content):
            if content[pos : pos + 1].isspace():
                pos += 1
            elif content[pos : pos + 1] == b"#":  # header comment to end of line
                while pos < len(content) and content[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                return

    def read_int() -> int:
        nonlocal pos
        skip_separators()
        start = pos
        while pos < len(content) and content[pos : pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise MalformedImage("expected integer in PGM header")
        return int(content[start:pos])

    if content[:2] != b"P5":
        raise MalformedImage("not a binary PGM (missing P5 magic)")
    pos = 2
    width = read_int()
    height = read_int()
    maxval = read_int()
    if maxval != 255:
        raise MalformedImage(f"PGM maxval must be 255, got {maxval}")
    if pos >= len(content) or not content[pos : pos + 1].isspace():
        raise MalformedImage("missing separator before PGM raster")
    pos += 1
    pixels = content[pos:]
    if width <= 0 or height <= 0:
        raise MalformedImage("PGM dimensions must be positive")
    if len(pixels) != width * height:
        raise MalformedImage(
            f"PGM raster length {len(pixels)} != {width}x{height}"
        )
    return width, height, pixels


def _embed_image(content: bytes) -> tuple[float, ...]:
    width, height, pixels = parse_pgm(content)
    if width < GRID or height < GRID:
        raise MalformedImage(f"image must be at least {GRID}x{GRID} pixels")
    row_bands = _partition_bounds(height, GRID)
    col_bands = _partition_bounds(width, GRID)
    values = []
    for r0, r1 in row_bands:
        for c0, c1 in col_bands:
            total = 0
            for row in range(r0, r1):
                base = row * width
                total += sum(pixels[base + c0 : base + c1])
            count = (r1 - r0) * (c1 - c0)
            values.append(total / (count * 255))
    return tuple(values)


def _embed_audio(content: bytes) -> tuple[float, ...]:
    if len(content) % 2 != 0:
        raise MalformedAudio("PCM16 byte length must be even")
    n = len(content) // 2
    if n < AUDIO_WINDOWS:
        raise MalformedAudio(f"need at least {AUDIO_WINDOWS} samples, got {n}")
    samples = struct.unpack(f"<{n}h", content)
    values = []
    for w0, w1 in _partition_bounds(n, AUDIO_WINDOWS):
        window = samples[w0:w1]
        total = sum(map(operator.mul, window, window))  # exact: Python ints
        rms = math.sqrt(total / (w1 - w0))
        values.append(rms / PCM_FULL_SCALE)
    return tuple(values)


def embed(content: bytes, media_type: MediaType) -> Embedding:
    """Deterministic perceptual embedding of raw content.

    Bytes: 256-bin byte histogram, normalized to unit sum.
    Image: mean gray per cell of an 8x8 block grid over a P5 PGM, in [0,1].
    Audio: RMS amplitude of 64 contiguous PCM16 windows, over full scale.

    Block/window sizes use integer division with the trailing run absorbing
    the remainder, so the partition is unambiguous for any input length.
    """
    if len(content) == 0:
        raise EmptyContent("cannot embed empty content")
    if media_type is MediaType.BYTES:
        values = _embed_bytes(content)
    elif media_type is MediaType.IMAGE:
        values = _embed_image(content)
    elif media_type is MediaType.AUDIO:
        values = _embed_audio(content)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown media type: {media_type}")
    return Embedding(values=values, media_type=media_type)


def _cosine(
    a_values: Sequence[float],
    na: float,
    b_pairs: Iterable[tuple[int, float]],
    nb: float,
) -> float:
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for zero vectors")
    dot = 0.0
    for i, y in b_pairs:
        dot += a_values[i] * y
    # sqrt of the product keeps the result bit-identical under a/b swap
    return min(1.0, max(0.0, dot / math.sqrt(na * nb)))


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity kernel over raw vectors, clamped to [0, 1].

    Entries are expected non-negative, so the mathematical value is already
    in [0, 1]; clamping only removes float round-off spill.
    """
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} != {len(b)}")
    return _cosine(a, sparse_values(a)[1], *sparse_values(b)[:2])


def similarity(a: Embedding, b: Embedding) -> float:
    """``cosine`` of two embeddings, from their cached non-zero pairs and
    norms: the dot product walks only ``b``'s non-zero entries."""
    if a.media_type is not b.media_type:
        raise DimensionMismatch(
            f"cannot compare {a.media_type.value} with {b.media_type.value}"
        )
    if len(a.values) != len(b.values):
        raise DimensionMismatch(f"{len(a.values)} != {len(b.values)}")
    return _cosine(a.values, a.sparse()[1], *b.sparse()[:2])


def match_trusted(
    query: Embedding,
    registry: Iterable[ContentRecord],
    k: int,
    threshold: float,
) -> list[MatchCandidate]:
    """Top-k registered records of the same media type with similarity >= threshold.

    Sorted by similarity descending, ties broken by content_id ascending.
    A record whose cosine provably stays below a positive threshold is
    skipped without computing it (see the module docstring).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    prune = threshold > 0.0
    dimension = len(query.values)
    _, nq, support_q, peak_q = query.sparse()
    candidates = []
    for record in registry:
        if record.media_type is not query.media_type:
            continue
        embedding = record.embedding
        if prune and len(embedding.values) == dimension:
            _, nr, support_r, peak_r = embedding.sparse()
            denominator = math.sqrt(nq * nr)  # exactly as in ``_cosine``
            if denominator != 0.0:
                shared = (support_q & support_r).bit_count()
                bound = shared * (peak_q * peak_r) / denominator
                if bound * BOUND_MARGIN < threshold:  # never for inf or NaN
                    continue
        sim = similarity(query, embedding)
        if sim >= threshold:
            candidates.append(MatchCandidate(record.content_id, sim))
    candidates.sort(key=lambda c: (-c.similarity, c.content_id))
    return candidates[:k]


DetectorResult = tuple[Verdict, float, list[MatchCandidate]]
DetectorFn = Callable[
    [Mapping[str, object], AnalysisTarget, Sequence[ContentRecord]], DetectorResult
]

_PLUGINS: dict[str, DetectorFn] = {}


def register_detector_kind(kind: str, fn: DetectorFn, replace: bool = False) -> None:
    """Add a detector implementation to the plugin table.

    Custom kinds must return results obeying the committed-result rules:
    Authentic implies confidence 1.0 with an exact (similarity 1.0) match,
    Unverified implies no matches, and all similarities lie in [0, 1].
    """
    if kind in _PLUGINS and not replace:
        raise ValueError(f"detector kind already registered: {kind}")
    _PLUGINS[kind] = fn


def detector_kinds() -> tuple[str, ...]:
    return tuple(sorted(_PLUGINS))


def _find_exact(
    target: AnalysisTarget, registry: Sequence[ContentRecord]
) -> ContentRecord | None:
    """The registered record with the target's hash and media type and the
    smallest content_id, found in one pass."""
    digest = target.content_hash.value
    found = None
    for record in registry:
        if (
            record.media_type is target.media_type
            and record.content_hash.value == digest
            and (found is None or record.content_id < found.content_id)
        ):
            found = record
    return found


def _exact_hash(
    params: Mapping[str, object],
    target: AnalysisTarget,
    registry: Sequence[ContentRecord],
) -> DetectorResult:
    record = _find_exact(target, registry)
    if record is not None:
        return Verdict.AUTHENTIC, 1.0, [MatchCandidate(record.content_id, 1.0)]
    return Verdict.UNVERIFIED, 0.0, []


def _near_duplicate(
    params: Mapping[str, object],
    target: AnalysisTarget,
    registry: Sequence[ContentRecord],
) -> DetectorResult:
    record = _find_exact(target, registry)
    if record is not None:
        return Verdict.AUTHENTIC, 1.0, [MatchCandidate(record.content_id, 1.0)]
    tau = float(params.get("tau", 0.95))
    k = int(params.get("k", 5))
    matches = match_trusted(target.embedding, registry, k, tau)
    if matches:
        return Verdict.DEEPFAKE, matches[0].similarity, matches
    return Verdict.UNVERIFIED, 0.0, []


register_detector_kind("exact-hash", _exact_hash)
register_detector_kind("near-duplicate", _near_duplicate)


def run_detector(
    spec: DetectorSpec,
    target: AnalysisTarget,
    registry: Iterable[ContentRecord],
) -> DetectorResult:
    """Execute the detector bound by ``spec`` against the trusted registry."""
    fn = _PLUGINS.get(spec.kind)
    if fn is None:
        raise UnknownDetector(spec.kind)
    return fn(spec.parameters, target, list(registry))


def smoothed_accuracy(algorithm: AlgorithmRecord) -> Fraction:
    """Laplace-smoothed accuracy; gives fresh algorithms a neutral 1/2 prior."""
    correct = algorithm.tp + algorithm.tn
    return Fraction(correct + 1, correct + algorithm.fp + algorithm.fn + 2)


def select_model(
    media_type: MediaType, algorithms: Iterable[AlgorithmRecord]
) -> str:
    """Pick the Active algorithm covering ``media_type`` with the best
    smoothed accuracy; ties go to the earliest registered, then smallest id.
    """
    eligible = [
        a
        for a in algorithms
        if a.status is AlgorithmStatus.ACTIVE and media_type in a.media_types
    ]
    if not eligible:
        raise NoEligibleAlgorithm(media_type.value)
    best = min(
        eligible,
        key=lambda a: (-smoothed_accuracy(a), a.registered_at, a.algorithm_id),
    )
    return best.algorithm_id
