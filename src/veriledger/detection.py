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

The search runs through a ``RegistryIndex``. The oracle builds one per poll
from the state's contents, and ``run_detector`` and ``match_trusted`` wrap
any other iterable in one. A detector plugin receives it as a read-only
sequence of the ``ContentRecord``s in registry order: ``len``, indexing and
iteration work as on a tuple. On first use it builds, and keeps for the
poll, an exact index from ``(media_type, content_hash)`` to the record with
the smallest content_id, and per ``(media_type, dimension)`` the search
rows: each record of that media type, in registry order, as ``(record,
support, ratio)``. A search then walks only the rows of its media type and
calls no method on a record it skips.

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
the threshold, with one test per row: the size filter of AllPairs (Bayardo,
Ma and Srikant, WWW 2007) and PPJoin (Xiao, Wang, Lin and Yu, WWW 2008).
Each ``Embedding`` caches, beside its pairs and norm, a support bitmask and
its peak ``max(values)``. For non-negative vectors each of the ``c =
popcount(support_q & support_r)`` non-zero products is at most ``peak_q *
peak_r``, so the cosine is at most ``c * a * b``, with ``a = peak_q /
sqrt(n_q)`` and ``b = peak_r / sqrt(n_r)``. A row holds ``b`` as its
``ratio``, and once per query the search takes ``limit = threshold * (1 -
1e-9) / a``; it skips a row iff ``c * ratio < limit``.

This is sound when every norm and peak lies in ``SCALE`` (``2**-500`` to
``2**500``): there no step of the rule or of the cosine underflows or
overflows, so each rounds by a relative ``2**-53`` at most. The summed dot
product can exceed ``c`` times the rounded product of the peaks by a
relative ``256 * 2**-53`` (about 3e-14), and all the rounding together
stays far inside the ``1e-9`` slack, so a skipped row's cosine as computed
is below the threshold too; an all-equal embedding of ten 0.1s against
itself has ``c * a * b`` just below 1 and score 1.0. A row that shares no
bin has dot product exactly ``+0.0``. Outside ``SCALE`` the rule is off:
there ``a`` or ``ratio`` is ``inf``. A query's ``a`` of ``inf`` makes
``limit`` 0, as threshold 0 does, and no product is below 0; a row's
``ratio`` of ``inf`` makes its product ``inf``, or NaN when ``c`` is 0, and
neither is below ``limit``. That covers a zero norm, an inf peak (a negative
or NaN value), an inf norm and squares small enough that a product could
underflow. A record of another dimension has ratio ``inf`` too, so it still
raises ``DimensionMismatch``. Every record the rule does not skip goes
through ``similarity``, in registry order, so each score and every result
keeps its bits.

Bytes histograms are sparse: on big-registry seed 7, at ``tau`` 0.95, the
rule skips 59,880 of 60,000 records. Image and Audio embeddings are dense,
and it skips none of mixed-media's 2,670 Image records.
"""

from __future__ import annotations

import math
import operator
import struct
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .codec import Hash256
from .core import (
    SCALE,
    AlgorithmRecord,
    AlgorithmStatus,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    Verdict,
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
# Relative slack on the pruning rule, over 30,000 times the worst rounding
# (about 3e-14) of a dot product summed from at most 256 products.
SLACK = 1.0 - 1e-9


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
    # An empty bin shares the one 0.0 rather than a new float per bin:
    # the same bits, since 0 / n is +0.0.
    return tuple(c / n if c else 0.0 for c in counts)


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


def similarity(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two embeddings, clamped to [0, 1], from their
    cached non-zero pairs and norms: the dot product walks only ``b``'s
    non-zero entries.

    Entries are expected non-negative, so the mathematical value is already
    in [0, 1]; clamping only removes float round-off spill.
    """
    if a.media_type is not b.media_type:
        raise DimensionMismatch(
            f"cannot compare {a.media_type.value} with {b.media_type.value}"
        )
    if len(a.values) != len(b.values):
        raise DimensionMismatch(f"{len(a.values)} != {len(b.values)}")
    return _cosine(a.values, a.sparse()[1], *b.sparse()[:2])


_Row = tuple[ContentRecord, int, float]


def _ratio(embedding: Embedding, dimension: int) -> float:
    """``peak / sqrt(norm2)`` of ``embedding``, or ``inf``, which keeps the
    pruning rule from skipping it, when its dimension is not ``dimension`` or
    its norm or peak lies outside ``SCALE``."""
    _, norm2, _, peak = embedding.sparse()
    low, high = SCALE
    if len(embedding.values) == dimension and low <= norm2 <= high and low <= peak <= high:
        return peak / math.sqrt(norm2)
    return math.inf


class RegistryIndex(Sequence[ContentRecord]):
    """The trusted registry as one oracle poll sees it.

    A read-only sequence of the ``ContentRecord``s in registry order, which
    is what a detector plugin receives, plus the two lookups the built-in
    detectors make, each built on its first use and kept for the poll: the
    exact index and, per ``(media_type, dimension)``, the search rows.
    """

    __slots__ = ("_records", "_exact", "_rows")

    def __init__(self, records: Iterable[ContentRecord]) -> None:
        self._records = tuple(records)
        self._exact: dict[tuple[MediaType, bytes], ContentRecord] | None = None
        self._rows: dict[tuple[MediaType, int], tuple[_Row, ...]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int | slice) -> ContentRecord | tuple[ContentRecord, ...]:
        return self._records[index]

    def __iter__(self) -> Iterator[ContentRecord]:
        return iter(self._records)

    def exact(self, media_type: MediaType, content_hash: Hash256) -> ContentRecord | None:
        """The record with this media type and hash and the smallest
        content_id, or None."""
        index = self._exact
        if index is None:
            # In descending id order, so the smallest id is written last.
            index = self._exact = {
                (record.media_type, record.content_hash.value): record
                for record in sorted(self._records, key=_content_id, reverse=True)
            }
        return index.get((media_type, content_hash.value))

    def rows(self, media_type: MediaType, dimension: int) -> tuple[_Row, ...]:
        """The records of ``media_type`` in registry order, each as
        ``(record, support, ratio)``: its support bitmask and its
        ``_ratio`` at ``dimension``."""
        key = (media_type, dimension)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = tuple(
                (record, record.embedding.sparse()[2], _ratio(record.embedding, dimension))
                for record in self._records
                if record.media_type is media_type
            )
        return rows


_content_id = operator.attrgetter("content_id")


def _indexed(registry: Iterable[ContentRecord]) -> RegistryIndex:
    return registry if isinstance(registry, RegistryIndex) else RegistryIndex(registry)


def match_trusted(
    query: Embedding,
    registry: Iterable[ContentRecord],
    k: int,
    threshold: float,
) -> list[MatchCandidate]:
    """Top-k registered records of the same media type with similarity >= threshold.

    Sorted by similarity descending, ties broken by content_id ascending.
    A record whose cosine provably stays below a positive threshold is
    skipped without computing it (see the module docstring). ``registry``
    is searched through a ``RegistryIndex``; any other iterable is wrapped
    in one first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    dimension = len(query.values)
    support_q = query.sparse()[2]
    limit = threshold * SLACK / _ratio(query, dimension)  # 0.0 turns the rule off
    candidates = []
    for record, support, ratio in _indexed(registry).rows(query.media_type, dimension):
        # Never true for a ratio of inf: ``inf < limit`` and NaN ``< limit``
        # (``0 * inf``) are false.
        if (support_q & support).bit_count() * ratio < limit:
            continue
        sim = similarity(query, record.embedding)
        if sim >= threshold:
            candidates.append(MatchCandidate(record.content_id, sim))
    candidates.sort(key=lambda c: (-c.similarity, c.content_id))
    return candidates[:k]


DetectorResult = tuple[Verdict, float, list[MatchCandidate]]
DetectorFn = Callable[
    [Mapping[str, object], AnalysisTarget, RegistryIndex], DetectorResult
]

_PLUGINS: dict[str, DetectorFn] = {}


def register_detector_kind(kind: str, fn: DetectorFn) -> None:
    """Add a detector implementation to the plugin table.

    ``fn`` receives the trusted registry as a ``RegistryIndex``: a sequence
    of the ``ContentRecord``s in registry order. Custom kinds must return
    results obeying the committed-result rules: Authentic implies confidence
    1.0 with an exact (similarity 1.0) match, Unverified implies no matches,
    and all similarities lie in [0, 1].
    """
    if kind in _PLUGINS:
        raise ValueError(f"detector kind already registered: {kind}")
    _PLUGINS[kind] = fn


def detector_kinds() -> tuple[str, ...]:
    return tuple(sorted(_PLUGINS))


def _exact_hash(
    params: Mapping[str, object],
    target: AnalysisTarget,
    registry: RegistryIndex,
) -> DetectorResult:
    record = registry.exact(target.media_type, target.content_hash)
    if record is not None:
        return Verdict.AUTHENTIC, 1.0, [MatchCandidate(record.content_id, 1.0)]
    return Verdict.UNVERIFIED, 0.0, []


def _near_duplicate(
    params: Mapping[str, object],
    target: AnalysisTarget,
    registry: RegistryIndex,
) -> DetectorResult:
    result = _exact_hash(params, target, registry)
    if result[0] is Verdict.AUTHENTIC:
        return result
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
    """Execute the detector bound by ``spec`` against the trusted registry.

    The oracle passes one ``RegistryIndex`` per poll; any other iterable is
    wrapped in one first.
    """
    fn = _PLUGINS.get(spec.kind)
    if fn is None:
        raise UnknownDetector(spec.kind)
    return fn(spec.parameters, target, _indexed(registry))


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
