"""Off-chain content analysis: embeddings, similarity search, detectors.

Detectors are deterministic stand-ins executed by the oracle. They are
registered in a plugin table by kind, so scenarios can bind algorithms to
any declared detector, and new kinds can be added without touching the
contract layer. Two kinds ship built in:

* ``exact-hash``     -- authenticates content whose hash is registered.
* ``near-duplicate`` -- additionally flags content whose embedding's
  cosine with registered content is at least ``tau_pct`` percent (likely
  a manipulated copy).

An embedding holds non-negative integers: a Bytes histogram's bin counts,
an Image's band means and an Audio window's RMS, each of the last two in
Q16 (65,536 is full scale). Every dot product and squared norm is
therefore an exact int, whatever order it is summed in, and a record's
match and score are ints too. The cosine ``dot / sqrt(n_q * n_r)`` is at
least ``tau_pct`` percent iff ``dot**2 * 100**2 >= tau_pct**2 * n_q *
n_r``. ``similarity`` returns the squared cosine as that exact ratio, and
the score a result commits is ``math.isqrt((dot**2 << 32) // (n_q *
n_r))``: the floor of the square root of a floor is the floor of the
square root, so that is exactly ``floor(65536 * cos)``, in ``[0,
core.ONE]``, and an exact match scores ``ONE``.

The search runs through a ``RegistryIndex``. The oracle builds one per poll
from the state's contents, and ``run_detector`` and ``match_trusted`` wrap
any other iterable in one. A detector plugin receives it as a read-only
sequence of the ``ContentRecord``s in registry order: ``len``, indexing and
iteration work as on a tuple. On first use it builds, and keeps for the
poll, an exact index from ``(media_type, content_hash)`` to the record with
the smallest content_id, and per ``(media_type, dimension)`` the search
rows: each record of that media type, in registry order, as ``(record,
mask, peak**2, norm2)``. A search then walks only the rows of its media
type and calls no method on a record it skips.

Similarity search is sparse and norm-cached. An ``Embedding`` holds only
its stored values, in index order, with the bitmap that marks their
indices, that bitmap as one int, its ``mask``, and its squared norm
computed once. A cosine multiplies only where both embeddings store a
value: when the two bitmaps are equal, as every two dense embeddings' are,
it pairs the stored values in order; otherwise it takes the set bits of
``mask_a & mask_b`` and finds each value in ``stored`` by the popcount of
the mask's bits at or above it. A Bytes histogram of content over a
32-symbol alphabet stores about 32 of its 256 bins.

``match_trusted`` also skips every record whose cosine provably stays below
the threshold, with one test per row: the size filter of AllPairs (Bayardo,
Ma and Srikant, WWW 2007) and PPJoin (Xiao, Wang, Lin and Yu, WWW 2008).
Each of the ``c = popcount(mask_q & mask_r)`` products the dot product adds
is at most ``peak_q * peak_r``, and every other product is 0, so ``dot <= c
* peak_q * peak_r``. The search skips a row iff ``c**2 * peak_q**2 *
peak_r**2 * 100**2 < tau_pct**2 * n_q * n_r``: then ``dot**2 * 100**2`` is
below the right side too, so the record would not match. The test is
exact, so it needs no slack. It never skips a record when ``tau_pct`` is 0
or either norm is 0 (the right side is 0), so a zero vector still raises
``ZeroVector``; a row of another dimension holds norm 0, so it still
raises ``DimensionMismatch``. Every record the rule does not skip goes
through ``similarity``, in registry order.

Bytes histograms are sparse: on big-registry seed 7, at ``tau_pct`` 95, the
rule skips 59,880 of 60,000 records. Image and Audio embeddings are dense,
and it skips none of the 2,760 rows mixed-media's seed 7 searches.
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
    AlgorithmRecord,
    AlgorithmStatus,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    ONE,
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


@dataclass(frozen=True, slots=True)
class MatchCandidate:
    content_id: str
    similarity: int  # Q16: floor(core.ONE * cosine)


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


# Maps each of ``bytes(map(bool, counts))``'s bytes to a binary digit.
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _embed_bytes(content: bytes) -> Embedding:
    """The histogram of bin counts, built in the layout it is stored in: an
    empty bin is left out, and every other bin is stored."""
    counts = [0] * 256
    for b in content:
        counts[b] += 1
    bitmap = int(bytes(map(bool, counts)).translate(_BIT_DIGITS), 2).to_bytes(32, "big")
    return Embedding(MediaType.BYTES, 256, bitmap, tuple(filter(None, counts)))


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


def _embed_image(content: bytes) -> list[int]:
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
            # The band's mean over 255, in Q16, rounded half up: at most
            # 65,536, whatever the grid. A band that is not all black stores
            # at least 1, so a dark image still embeds to something.
            d = (r1 - r0) * (c1 - c0) * 255
            values.append((2 * total * 65536 + d) // (2 * d) or min(total, 1))
    return values


def _embed_audio(content: bytes) -> list[int]:
    if len(content) % 2 != 0:
        raise MalformedAudio("PCM16 byte length must be even")
    n = len(content) // 2
    if n < AUDIO_WINDOWS:
        raise MalformedAudio(f"need at least {AUDIO_WINDOWS} samples, got {n}")
    samples = struct.unpack(f"<{n}h", content)
    values = []
    for w0, w1 in _partition_bounds(n, AUDIO_WINDOWS):
        window = samples[w0:w1]
        total = sum(map(operator.mul, window, window))
        # Twice the RMS, rounded down: the RMS over full scale (32,768) in Q16.
        # A window that is not all silence stores at least 1, so a quiet
        # clip still embeds to something.
        values.append(math.isqrt(4 * total // (w1 - w0)) or min(total, 1))
    return values


def embed(content: bytes, media_type: MediaType) -> Embedding:
    """Deterministic perceptual embedding of raw content.

    Bytes: 256-bin byte histogram, as counts.
    Image: mean gray per cell of an 8x8 block grid over a P5 PGM, over 255,
    in Q16: ``round(65536 * total / (count * 255))``, halves up.
    Audio: RMS amplitude of 64 contiguous PCM16 windows, over full scale, in
    Q16: ``isqrt(4 * sum of squares // count)``, which is ``2 * RMS``
    rounded down.
    An Image cell or Audio window with any non-zero sample stores at least
    1, where its rule would round it to 0.

    Block/window sizes use integer division with the trailing run absorbing
    the remainder, so the partition is unambiguous for any input length.
    """
    if len(content) == 0:
        raise EmptyContent("cannot embed empty content")
    if media_type is MediaType.BYTES:
        return _embed_bytes(content)
    if media_type is MediaType.IMAGE:
        values = _embed_image(content)
    elif media_type is MediaType.AUDIO:
        values = _embed_audio(content)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown media type: {media_type}")
    return Embedding.from_dense(values, media_type)


def similarity(a: Embedding, b: Embedding) -> tuple[int, int]:
    """The squared cosine similarity of two embeddings, exactly, as the
    ratio ``(dot**2, a.norm2 * b.norm2)``, from which ``match_trusted``
    takes the Q16 score a result commits. When the two bitmaps are equal, as every
    two dense embeddings' are, the dot product pairs the stored values in
    order; otherwise it walks the set bits of the two masks' AND and
    multiplies only there. Values are expected non-negative, as the codec
    holds no other, so the cosine is the square root of this ratio.
    """
    if a.media_type is not b.media_type:
        raise DimensionMismatch(
            f"cannot compare {a.media_type.value} with {b.media_type.value}"
        )
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"{a.dimension} != {b.dimension}")
    if not (a.norm2 and b.norm2):
        raise ZeroVector("cosine undefined for zero vectors")
    if a.bitmap == b.bitmap:
        dot = sum(map(operator.mul, a.stored, b.stored))
    else:
        # The highest set bit of the masks' AND is the lowest index both
        # store; a mask's set bits at or above it count its stored values up
        # to that index, so one less is the value's position in ``stored``.
        dot = 0
        ma, mb = a.mask, b.mask
        common = ma & mb
        while common:
            top = common.bit_length() - 1
            common ^= 1 << top
            dot += a.stored[(ma >> top).bit_count() - 1] * b.stored[(mb >> top).bit_count() - 1]
    return dot * dot, a.norm2 * b.norm2


_Row = tuple[ContentRecord, int, int, int]


def _row(record: ContentRecord, dimension: int) -> _Row:
    """``(record, mask, peak**2, norm2)`` of the record's embedding. The
    norm of one not of ``dimension`` is given as 0, which keeps the pruning
    rule from skipping it, so it still raises ``DimensionMismatch``."""
    e = record.embedding
    return record, e.mask, e.peak * e.peak, e.norm2 if e.dimension == dimension else 0


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
        """The records of ``media_type`` in registry order, each as its
        ``_row`` at ``dimension``."""
        key = (media_type, dimension)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = tuple(
                _row(record, dimension)
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
    tau_pct: int,
) -> list[MatchCandidate]:
    """Top-k registered records of the same media type whose cosine is at
    least ``tau_pct`` percent, each with its Q16 score.

    Sorted by score descending, ties broken by content_id ascending.
    A record whose cosine provably stays below a positive threshold is
    skipped without computing it (see the module docstring). ``registry``
    is searched through a ``RegistryIndex``; any other iterable is wrapped
    in one first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= tau_pct <= 100:
        raise ValueError("tau_pct must be in [0, 100]")
    num2, den2 = tau_pct**2, 100**2
    mask_q = query.mask
    # A row is skipped iff c**2 * peak_q**2 * peak**2 * 100**2 < tau_pct**2
    # * norm2_q * norm2, each side's query factors multiplied once here.
    bound_q = query.peak**2 * den2
    need_q = num2 * query.norm2
    candidates = []
    for record, mask, peak2, norm2 in _indexed(registry).rows(query.media_type, query.dimension):
        c = (mask_q & mask).bit_count()
        if c * c * peak2 * bound_q < need_q * norm2:
            continue
        top, bottom = similarity(query, record.embedding)
        if top * den2 >= num2 * bottom:
            score = math.isqrt((top << 32) // bottom)  # floor(ONE * cosine)
            candidates.append(MatchCandidate(record.content_id, score))
    candidates.sort(key=lambda c: (-c.similarity, c.content_id))
    return candidates[:k]


DetectorResult = tuple[Verdict, int, list[MatchCandidate]]
DetectorFn = Callable[
    [Mapping[str, object], AnalysisTarget, RegistryIndex], DetectorResult
]

_PLUGINS: dict[str, DetectorFn] = {}


def register_detector_kind(kind: str, fn: DetectorFn) -> None:
    """Add a detector implementation to the plugin table.

    ``fn`` receives the trusted registry as a ``RegistryIndex``: a sequence
    of the ``ContentRecord``s in registry order. Custom kinds must return
    results obeying the committed-result rules: the confidence and every
    similarity are ints in ``[0, core.ONE]`` (Q16), Authentic implies
    confidence ``ONE`` with an exact (similarity ``ONE``) match, and
    Unverified implies no matches.
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
        return Verdict.AUTHENTIC, ONE, [MatchCandidate(record.content_id, ONE)]
    return Verdict.UNVERIFIED, 0, []


def _near_duplicate(
    params: Mapping[str, object],
    target: AnalysisTarget,
    registry: RegistryIndex,
) -> DetectorResult:
    result = _exact_hash(params, target, registry)
    if result[0] is Verdict.AUTHENTIC:
        return result
    tau_pct = int(params.get("tau_pct", 95))
    k = int(params.get("k", 5))
    matches = match_trusted(target.embedding, registry, k, tau_pct)
    if matches:
        return Verdict.DEEPFAKE, matches[0].similarity, matches
    return Verdict.UNVERIFIED, 0, []


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
