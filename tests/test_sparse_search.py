"""The sparse, norm-cached, pruned similarity search against an exact
dense reference.

``dense_dot``, ``fraction_match_trusted`` and the two dense detectors below
are the search as a brute force over the dense integer vectors
(``conftest.dense``): every record of the query's media type is scored, and
it matches iff its exact cosine, as a ``Fraction`` squared, is at least the
square of the threshold's percent, and scores ``floor(ONE * cosine)``. The
live code must return the same records, in the same order, with the same
scores.
``brute_force_matches`` in ``test_detection`` calls ``similarity`` itself, so
it cannot serve as this reference. ``three_pass_sparse_values`` computes the
non-zero pairs, squared norm, mask and peak of a dense vector each in its
own loop.
"""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from veriledger.codec import hash_bytes
from veriledger.core import (
    EMBEDDING_DIMENSIONS,
    FIELD_CODECS,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    ONE,
    Verdict,
    encode_embedding,
    encode_record,
    hash_embedding,
)
from veriledger import detection
from veriledger.detection import (
    AnalysisTarget,
    MatchCandidate,
    RegistryIndex,
    embed,
    match_trusted,
    run_detector,
    similarity,
)
from veriledger.errors import DimensionMismatch, ZeroVector
from veriledger.rng import SplitMix64
from veriledger.store import canonical_json, record_to_json

from chainfile import record_copy
from conftest import dense, indices, q16
from test_record_codec import KNOWN_ANSWERS, RECORDS

# --- the dense reference ----------------------------------------------------


def dense_dot(a, b):
    """``(dot, norm2_a, norm2_b)`` of two dense vectors, each a plain loop."""
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} != {len(b)}")
    dot = na = nb = 0
    for x, y in zip(a, b):
        dot += x * y
        na += x * x
        nb += y * y
    if na == 0 or nb == 0:
        raise ZeroVector("cosine undefined for zero vectors")
    return dot, na, nb


def dense_similarity(a, b):
    dot, na, nb = dense_dot(dense(a), dense(b))
    return dot * dot, na * nb


def fraction_match_trusted(query, registry, k, tau_pct):
    tau = Fraction(tau_pct, 100)
    candidates = []
    for record in registry:
        if record.media_type is not query.media_type:
            continue
        dot, na, nb = dense_dot(dense(query), dense(record.embedding))
        if Fraction(dot, 1) ** 2 / (na * nb) >= tau**2:
            candidates.append(MatchCandidate(record.content_id, q16(dot * dot, na * nb)))
    candidates.sort(key=lambda c: (-c.similarity, c.content_id))
    return candidates[:k]


def dense_find_exact(target, registry):
    for record in sorted(registry, key=lambda r: r.content_id):
        if (
            record.media_type is target.media_type
            and record.content_hash == target.content_hash
        ):
            return record
    return None


def dense_exact_hash(params, target, registry):
    record = dense_find_exact(target, registry)
    if record is not None:
        return Verdict.AUTHENTIC, ONE, [MatchCandidate(record.content_id, ONE)]
    return Verdict.UNVERIFIED, 0, []


def dense_near_duplicate(params, target, registry):
    record = dense_find_exact(target, registry)
    if record is not None:
        return Verdict.AUTHENTIC, ONE, [MatchCandidate(record.content_id, ONE)]
    tau_pct = int(params.get("tau_pct", 95))
    k = int(params.get("k", 5))
    matches = fraction_match_trusted(target.embedding, registry, k, tau_pct)
    if matches:
        return Verdict.DEEPFAKE, matches[0].similarity, matches
    return Verdict.UNVERIFIED, 0, []


def three_pass_sparse_values(values):
    norm2 = 0
    for v in values:
        norm2 += v * v
    pairs = tuple((i, v) for i, v in enumerate(values) if v != 0)
    # Bit i of the bitmap, most significant first, is bit ``top - i`` of its
    # big-endian int.
    top = 8 * ((len(values) + 7) // 8) - 1
    mask = 0
    for i, v in enumerate(values):
        if v != 0:
            mask |= 1 << top - i
    peak = pairs[0][1] if pairs else 0
    for _, v in pairs:
        if v > peak:
            peak = v
    return pairs, norm2, mask, peak


def exact_cosine(query, record):
    """The record's exact cosine with the query, as a ``Fraction`` squared,
    or None where the kernel raises."""
    try:
        return Fraction(*dense_similarity(query, record.embedding))
    except (DimensionMismatch, ZeroVector):
        return None


def skipped_records(query, searched, tau_pct):
    """The records of the query's media type that ``match_trusted`` skips:
    those it never passes to ``similarity``. A record whose score raises
    counts as scored, and the search goes on past it."""
    real_similarity = detection.similarity
    scored = set()

    def scoring(a, b):
        scored.add(id(b))
        try:
            return real_similarity(a, b)
        except (DimensionMismatch, ZeroVector):
            return 0, 1

    with mock.patch.object(detection, "similarity", scoring):
        match_trusted(query, searched, 1, tau_pct)
    return [
        r for r in searched
        if r.media_type is query.media_type and id(r.embedding) not in scored
    ]


def outcome(fn, *args):
    """The result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (DimensionMismatch, ZeroVector) as exc:
        return type(exc)


# --- registries of all three media types -------------------------------------

MEDIA = list(MediaType)
# Bytes content over a few symbols from one of four disjoint 8-symbol ranges,
# so the sparse histograms of two items often share no bin at all.
small_alphabet_bytes = st.tuples(
    st.integers(0, 3), st.lists(st.integers(0, 7), min_size=1, max_size=4)
).flatmap(
    lambda spec: st.lists(
        st.sampled_from([32 * spec[0] + s for s in spec[1]]), min_size=1, max_size=64
    ).map(bytes)
)
# Stored values: small ones, whose cosines are often simple fractions such
# as 4/5, the Q16 full scale, and the largest ``u32``.
specials = st.one_of(
    st.integers(1, 4), st.sampled_from([65536, 2**32 - 1]), st.integers(1, 2**32 - 1)
)


@st.composite
def embeddings(draw, media=MEDIA):
    media_type = draw(st.sampled_from(media))
    if media_type is MediaType.BYTES and draw(st.booleans()):
        return embed(draw(small_alphabet_bytes), MediaType.BYTES)
    dim = EMBEDDING_DIMENSIONS[media_type]
    if draw(st.integers(0, 3)) == 0:
        # One value on a drawn support: there the pruning bound is tight. A
        # small pool makes the query and a record often share the value.
        value = draw(st.one_of(st.sampled_from([1, 3, 65536]), specials))
        support = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
        values = tuple(value if i in support else 0 for i in range(dim))
        return Embedding.from_dense(values, media_type)
    # Random values below a drawn bound, a drawn share of them 0, then a few
    # drawn values at drawn positions.
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    zeros = draw(st.sampled_from([0, 1, 8, 15, 16]))  # out of 16
    bound = draw(st.sampled_from([4, 65537, 2**32]))
    values = [0 if rng.randrange(16) < zeros else rng.randrange(bound) for _ in range(dim)]
    for i, v in draw(st.lists(st.tuples(st.integers(0, dim - 1), specials), max_size=4)):
        values[i] = v
    return Embedding.from_dense(tuple(values), media_type)


def content(content_id, embedding, content_hash):
    return ContentRecord(
        content_id=content_id,
        provider="p",
        media_type=embedding.media_type,
        content_hash=content_hash,
        embedding=embedding,
        metadata={},
        registered_at=1,
    )


HASHES = [hash_bytes(bytes([i])) for i in range(4)]


def around(squares):
    """Percents at and either side of 100 times the square root of each
    ``Fraction`` in ``squares`` in (0, 1]: where a rule off by one would
    decide the other way, and the root itself where it is a percent."""
    roots = [math.isqrt(math.floor(10000 * s)) for s in squares if 0 < s <= 1]
    return [t for r in roots for t in (r - 1, r, r + 1) if 0 <= t <= 100]


@st.composite
def searches(draw):
    """A registry in random order, a query and the search parameters."""
    ids = draw(st.lists(st.integers(0, 999), unique=True, max_size=24))
    registry = [
        content(f"c{n:03d}", draw(embeddings()), draw(st.sampled_from(HASHES)))
        for n in ids
    ]
    if registry and draw(st.booleans()):
        query = draw(st.sampled_from(registry)).embedding  # similarity 1.0
    else:
        query = draw(embeddings())
    # Sometimes no record carries the query's hash, so the search runs.
    target = AnalysisTarget(
        request_id="r-search",
        media_type=query.media_type,
        content_hash=draw(st.sampled_from(HASHES + [hash_bytes(b"none")])),
        embedding=query,
    )
    k = draw(st.sampled_from([1, 2, 5, len(registry) or 1, 2**64 - 1]))
    scores = [exact_cosine(query, r) for r in registry if r.media_type is query.media_type]
    tau_pct = draw(st.one_of(
        st.sampled_from([0, 100, 1, 50, 60, 80, 95]),
        st.integers(0, 100),
        st.sampled_from(around([s for s in scores if s is not None]) or [50]),
    ))
    return registry, target, k, tau_pct


# Ten values of 1: against itself, its cosine is exactly 1, and so is the
# pruning rule's bound on it.
TIGHT = Embedding.from_dense((1,) * 10 + (0,) * 246, MediaType.BYTES)

# Cosine exactly 4/5, at tau_pct 80; and the same record at tau_pct 0, where
# the rule is off.
PYTHAGOREAN = (
    [content("c", Embedding.from_dense((4, 3) + (0,) * 254, MediaType.BYTES), HASHES[0])],
    AnalysisTarget(
        "r-4/5", MediaType.BYTES, HASHES[1],
        Embedding.from_dense((1,) + (0,) * 255, MediaType.BYTES),
    ),
)


@settings(max_examples=5 * settings.default.max_examples)  # 300 under "ci"
@given(searches())
@example((*PYTHAGOREAN, 1, 80))
@example((*PYTHAGOREAN, 1, 0))
def test_sparse_search_matches_dense_reference_bit_for_bit(search):
    registry, target, k, tau_pct = search
    query = target.embedding
    assert outcome(match_trusted, query, registry, k, tau_pct) == outcome(
        fraction_match_trusted, query, registry, k, tau_pct
    )
    for record in registry:
        if record.media_type is query.media_type:
            assert outcome(similarity, query, record.embedding) == outcome(
                dense_similarity, query, record.embedding
            )
    params = {"tau_pct": tau_pct, "k": k}
    for kind, reference in (
        ("exact-hash", dense_exact_hash),
        ("near-duplicate", dense_near_duplicate),
    ):
        spec = DetectorSpec(kind=kind, parameters=params)
        assert outcome(run_detector, spec, target, registry) == outcome(
            reference, params, target, registry
        )


@settings(max_examples=5 * settings.default.max_examples)
@given(searches())
@example((*PYTHAGOREAN, 1, 80))
@example(([content("c", TIGHT, HASHES[0])], AnalysisTarget("r", MediaType.BYTES, HASHES[1], TIGHT),
          1, 100))
def test_a_committed_score_is_the_floor_of_ONE_times_the_cosine(search):
    # Every record the search scores (tau_pct 0), with the score a result
    # would commit: floor(ONE * sqrt(dot**2 / (n_q * n_r))), by the definition
    # of the floor, in Fractions.
    registry, target, _, _ = search
    query = target.embedding
    matches = outcome(match_trusted, query, registry, 2**64 - 1, 0)
    if isinstance(matches, type):
        return
    by_id = {r.content_id: r for r in registry}
    for match in matches:
        square = Fraction(*dense_similarity(query, by_id[match.content_id].embedding))
        assert Fraction(match.similarity, ONE) ** 2 <= square
        assert square < Fraction(match.similarity + 1, ONE) ** 2
        assert 0 <= match.similarity <= ONE


@st.composite
def tight_searches(draw):
    """Searches over one media type with thresholds where a record's bound
    meets the threshold: percents at and either side of 100 times the square
    root of ``c**2 * peak_q**2 * peak**2 / (norm2_q * norm2)``."""
    media_type = draw(st.sampled_from(MEDIA))
    dim = EMBEDDING_DIMENSIONS[media_type]

    def draw_embedding():
        # Narrow supports share few bins, wide ones many.
        size = draw(st.sampled_from([1, 3, 8, 20, dim]))
        support = sorted(
            draw(st.sets(st.integers(0, dim - 1), min_size=size, max_size=size))
        ) if size < dim else range(dim)
        if draw(st.booleans()):  # one value on the support: the bound is tight
            drawn = [draw(specials)] * size
        else:
            rng = SplitMix64(draw(st.integers(0, 2**32)))
            drawn = [1 + rng.randrange(draw(st.sampled_from([4, 65536, 2**32 - 1])))
                     for _ in range(size)]
        values = [0] * dim
        for i, v in zip(support, drawn):
            values[i] = v
        return Embedding.from_dense(tuple(values), media_type)

    registry = [
        content(f"c{n:03d}", draw_embedding(), HASHES[0])
        for n in range(draw(st.integers(1, 12)))
    ]
    query = draw_embedding()
    target = AnalysisTarget("r-tight", media_type, hash_bytes(b"none"), query)
    bounds = [
        Fraction((query.mask & r.embedding.mask).bit_count() * query.peak * r.embedding.peak) ** 2
        / (query.norm2 * r.embedding.norm2)
        for r in registry
    ]
    tau_pct = draw(st.one_of(st.integers(0, 100), st.sampled_from(around(bounds) or [50])))
    return registry, target, 5, tau_pct


# TIGHT against itself at tau_pct 100: the bound on the squared cosine,
# ``10**2 / (10 * 10)``, is exactly the cosine, 1.


@settings(max_examples=5 * settings.default.max_examples)
@given(st.one_of(searches(), tight_searches()))
@example(([content("c", TIGHT, HASHES[0])], AnalysisTarget("r", MediaType.BYTES, HASHES[1], TIGHT),
          5, 100))
def test_rule_skips_only_records_scoring_below_the_threshold(search):
    registry, target, _, tau_pct = search
    query = target.embedding
    for record in skipped_records(query, registry, tau_pct):
        score = exact_cosine(query, record)
        assert score is not None and score < Fraction(tau_pct, 100) ** 2


# The dot product is an int, so it is the dense loop's whichever branch of
# ``similarity`` it takes: the stored values paired in order where the
# bitmaps are equal, the walk over the set bits of their masks' AND where
# they are not.


@st.composite
def equal_bitmap_pairs(draw):
    """Two embeddings of one media type that store values at the same
    indices: all of them, as every two Image or Audio embeddings do, or a
    drawn set."""
    media_type = draw(st.sampled_from(MEDIA))
    dim = EMBEDDING_DIMENSIONS[media_type]
    support = range(dim) if draw(st.booleans()) else sorted(
        draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    )

    def draw_embedding():
        # Random values in 1 to 2**32 - 1, then a few drawn values at drawn
        # positions of the support.
        rng = SplitMix64(draw(st.integers(0, 2**32)))
        values = [0] * dim
        for i in support:
            values[i] = 1 + rng.randrange(2**32 - 1)
        if support:
            for i, v in draw(st.lists(st.tuples(st.sampled_from(support), specials),
                                      max_size=4)):
                values[i] = v
        return Embedding.from_dense(tuple(values), media_type)

    return draw_embedding(), draw_embedding()


@st.composite
def unequal_bitmap_pairs(draw):
    """Two embeddings of one media type whose bitmaps differ."""
    media_type = draw(st.sampled_from(MEDIA))
    a = draw(embeddings([media_type]))
    b = draw(embeddings([media_type]).filter(lambda b: b.bitmap != a.bitmap))
    return a, b


def image(values):
    return Embedding.from_dense(tuple(values), MediaType.IMAGE)


def scored_as_dense(a, b):
    for x, y in ((a, b), (b, a)):
        assert outcome(similarity, x, y) == outcome(dense_similarity, x, y)


@settings(max_examples=5 * settings.default.max_examples)
@given(equal_bitmap_pairs())
@example((image([2] * 64), image([1, 3] * 32)))
@example((image([2**32 - 1] * 64), image([2**32 - 1, 1] * 32)))
def test_similarity_of_equal_bitmaps_matches_the_dense_loop(pair):
    a, b = pair
    assert a.bitmap == b.bitmap
    scored_as_dense(a, b)


@settings(max_examples=5 * settings.default.max_examples)
@given(unequal_bitmap_pairs())
@example((embed(b"abcabc", MediaType.BYTES), embed(b"xyz", MediaType.BYTES)))
@example((embed(b"aab", MediaType.BYTES), embed(b"abcd", MediaType.BYTES)))
@example((image([2] * 63 + [0]), image([0] + [1] * 63)))
# A dimension that is not a multiple of 8: the bitmap ends in padding bits.
@example((
    Embedding.from_dense((4, 0, 2, 0, 0, 0, 0, 0, 6, 1), MediaType.BYTES),
    Embedding.from_dense((0, 3, 2, 0, 0, 0, 0, 0, 4, 4), MediaType.BYTES),
))
# The two share the first index and the last and nothing between.
@example((image([2] + [0] * 62 + [1]), image([1] + [2] * 62 + [3])))
def test_similarity_of_unequal_bitmaps_matches_the_dense_loop(pair):
    a, b = pair
    assert a.bitmap != b.bitmap
    scored_as_dense(a, b)


def rule_case(case):
    """A search in which the rule skips the record ``far``, which shares two
    of the query's four bins, changed as ``case`` says."""
    query = embed(b"abcd", MediaType.BYTES)
    far = embed(b"abwx", MediaType.BYTES)
    tau_pct = 95
    if case == "tau 0":
        tau_pct = 0
    elif case == "zero-norm record":
        far = Embedding.from_dense((0,) * 256, MediaType.BYTES)
    elif case == "zero-norm query":
        query = Embedding.from_dense((0,) * 256, MediaType.BYTES)
    return query, [content("far", far, HASHES[0])], tau_pct


def test_rule_skips_a_well_scaled_record_sharing_too_few_bins():
    # Each side holds four bins of 1, so the bound on the squared cosine is
    # 2**2 * 1 * 1 / (4 * 4) = 1/4, below 0.95**2; ``far``'s cosine is 0.5.
    query, registry, tau_pct = rule_case(None)
    assert skipped_records(query, registry, tau_pct) == registry
    assert outcome(match_trusted, query, registry, 5, tau_pct) == outcome(
        fraction_match_trusted, query, registry, 5, tau_pct
    ) == []


@pytest.mark.parametrize("case", ["tau 0", "zero-norm record", "zero-norm query"])
def test_rule_skips_nothing_where_the_bound_may_not_hold(case):
    # With tau 0 or a norm of 0 the rule's right side is 0, which no product
    # is below: every record is scored, and a zero vector raises.
    query, registry, tau_pct = rule_case(case)
    expected = outcome(fraction_match_trusted, query, registry, 5, tau_pct)
    for searched in (registry, RegistryIndex(registry)):
        assert skipped_records(query, searched, tau_pct) == []
        assert outcome(match_trusted, query, searched, 5, tau_pct) == expected


def test_exact_index_returns_the_smallest_id_as_the_dense_scan_does():
    e = embed(b"abc", MediaType.BYTES)
    image = Embedding.from_dense((1,) * 64, MediaType.IMAGE)
    # Same hash throughout; the smallest id overall is an Image record.
    registry = [
        content(cid, image if cid == "c0" else e, HASHES[0])
        for cid in ("c5", "c2", "c0", "c9", "c3")
    ]
    index = RegistryIndex(registry)
    for media_type, expected in ((MediaType.BYTES, "c2"), (MediaType.IMAGE, "c0")):
        query = e if media_type is MediaType.BYTES else image
        target = AnalysisTarget("r", media_type, HASHES[0], query)
        assert index.exact(media_type, HASHES[0]) is dense_find_exact(target, registry)
        assert index.exact(media_type, HASHES[0]).content_id == expected
    assert index.exact(MediaType.BYTES, HASHES[1]) is None
    assert index.exact(MediaType.AUDIO, HASHES[0]) is None


def test_record_sharing_no_bin_scores_exactly_zero():
    query = embed(b"abcabc", MediaType.BYTES)
    other = embed(b"xyz", MediaType.BYTES)
    assert similarity(query, other) == dense_similarity(query, other) == (0, 12 * 3)
    assert match_trusted(query, [content("c", other, HASHES[0])], 1, 0) == [
        MatchCandidate("c", 0)
    ]


def test_similarity_runs_only_on_records_the_bound_cannot_rule_out(monkeypatch):
    # 300 Bytes records over ten disjoint 25-symbol alphabets. A query over
    # the first alphabet shares no bin with the 270 others, so their bound is
    # 0 and only the 30 that share its alphabet may be scored.
    rng = SplitMix64(11)

    def item(group):
        return bytes(25 * group + d for d in rng.randrange_many(25, 512))

    registry = [
        content(f"c{n:03d}", embed(item(n % 10), MediaType.BYTES), HASHES[0])
        for n in range(300)
    ]
    query = embed(item(0), MediaType.BYTES)
    same_alphabet = [r.embedding for r in registry[::10]]
    scored = []
    real_similarity = detection.similarity

    def counting_similarity(a, b):
        scored.append(b)
        return real_similarity(a, b)

    monkeypatch.setattr(detection, "similarity", counting_similarity)
    cases = ((95, same_alphabet), (0, [r.embedding for r in registry]))
    for searched in (registry, RegistryIndex(registry)):
        for tau_pct, expected in cases:
            scored.clear()
            assert outcome(match_trusted, query, searched, 5, tau_pct) == outcome(
                fraction_match_trusted, query, registry, 5, tau_pct
            )
            assert [id(e) for e in scored] == [id(e) for e in expected]


@pytest.mark.parametrize("media_type, value, count", [
    (MediaType.BYTES, 1, 10), (MediaType.BYTES, 2**32 - 1, 256), (MediaType.IMAGE, 32897, 64),
])
def test_a_tight_bound_does_not_skip_an_exact_match(media_type, value, count):
    # ``count`` equal values against themselves: the bound on the squared
    # cosine is ``count**2 * value**4 / (count * value**2)**2``, exactly 1,
    # as the cosine is. The rule compares exactly, so at tau_pct 100 it does
    # not skip the match.
    dim = EMBEDDING_DIMENSIONS[media_type]
    e = Embedding.from_dense((value,) * count + (0,) * (dim - count), media_type)
    assert (e.mask.bit_count() * e.peak * e.peak) ** 2 == e.norm2 * e.norm2
    registry = [content("c", e, HASHES[0])]
    assert skipped_records(e, registry, 100) == []
    assert match_trusted(e, registry, 1, 100) == [MatchCandidate("c", ONE)]
    assert fraction_match_trusted(e, registry, 1, 100) == [MatchCandidate("c", ONE)]


def test_record_of_another_dimension_still_raises():
    # A record of another dimension has row norm 0, so the rule never skips
    # it, though it shares no bin with the query, and it raises as the dense
    # search does. ``far`` before it is skipped.
    query = embed(b"ab", MediaType.BYTES)
    short = Embedding.from_dense((0, 1), MediaType.BYTES)
    far = embed(b"xy", MediaType.BYTES)
    registry = [content("far", far, HASHES[1]), content("c", short, HASHES[0])]
    for searched in (registry, RegistryIndex(registry)):
        assert skipped_records(query, searched, 95) == registry[:1]
        assert outcome(match_trusted, query, searched, 1, 95) is DimensionMismatch
    assert outcome(fraction_match_trusted, query, registry, 1, 95) is DimensionMismatch


# Every kind of int: 0, negatives, the ``u32`` bounds and values past them.
raw_values = st.lists(
    st.one_of(
        st.sampled_from([0, 1, -1, 65536, 2**32 - 1, 2**32, 2**64]),
        st.integers(),
        st.integers(0, 4),
    ),
    max_size=300,
)


def sparse_statistics(e):
    """The non-zero pairs, squared norm, mask and peak of ``e``."""
    pairs = [(i, v) for i, v in zip(indices(e), e.stored) if v != 0]
    return pairs, e.norm2, e.mask, e.peak


def reference_statistics(values):
    pairs, norm2, mask, peak = three_pass_sparse_values(values)
    return list(pairs), norm2, mask, peak


@settings(max_examples=5 * settings.default.max_examples)
@given(raw_values)
@example([2, 0, 0, 1, 0])
@example([0] * 9 + [2**32 - 1])
def test_from_dense_statistics_match_three_passes(values):
    e = Embedding.from_dense(values, MediaType.BYTES)
    assert sparse_statistics(e) == reference_statistics(values)


# Every ``u32``: the codec holds no other.
u32_values = st.lists(
    st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1), st.integers(0, 4)),
    max_size=300,
)


@settings(max_examples=5 * settings.default.max_examples)
@given(u32_values)
@example([2, 0, 0, 1, 0])
@example([0] * 9 + [2**32 - 1])
def test_decoded_statistics_match_three_passes(values):
    # The decoder hands ``Embedding`` the bitmap it read, from which the
    # mask is taken.
    data = encode_embedding(Embedding.from_dense(values, MediaType.BYTES))
    decoded, end = FIELD_CODECS["Embedding"][1](data, 0)
    assert end == len(data) and decoded._encoding == data
    assert sparse_statistics(decoded) == reference_statistics(values)


def test_from_dense_of_the_empty_vector():
    e = Embedding.from_dense((), MediaType.BYTES)
    assert (e.bitmap, e.stored, e.norm2, e.mask, e.peak) == (b"", (), 0, 0, 0)
    assert sparse_statistics(e) == reference_statistics(())


def test_sparse_pairs_and_norm():
    e = embed(b"aab", MediaType.BYTES)
    assert (indices(e), e.stored) == ((ord("a"), ord("b")), (2, 1))
    assert e.norm2 == sum(v * v for v in dense(e)) == 5
    assert e.mask == (1 << 255 - ord("a")) | (1 << 255 - ord("b"))
    assert e.peak == 2


# --- the statistics and the cache stay out of everything hashed or written ---


def fresh(e):
    return Embedding(e.media_type, e.dimension, e.bitmap, e.stored)


def test_cache_not_in_equality_hash_or_repr():
    e = embed(b"hello world", MediaType.BYTES)
    before = (repr(e), hash(e))
    encoded = encode_embedding(e)
    assert e._encoding is encoded
    assert e.mask.bit_count() == len(set(b"hello world")) and e.peak == 3
    assert (repr(e), hash(e)) == before
    assert e == fresh(e) and hash(e) == hash(fresh(e))
    assert hash(e) == hash((e.media_type, e.dimension, e.bitmap, e.stored))
    for name in ("norm2", "mask", "peak", "_encoding"):
        assert name not in repr(e)
    assert str(e.mask) not in repr(e) and repr(encoded) not in repr(e)


@pytest.mark.parametrize(
    "name", sorted(n for n, r in RECORDS.items() if hasattr(r, "embedding"))
)
def test_known_answers_with_filled_cache(name):
    record = RECORDS[name]
    filled = fresh(record.embedding)
    encoded = encode_embedding(filled)
    assert encode_embedding(filled) is encoded
    assert hash_embedding(filled) == hash_bytes(encode_embedding(fresh(filled)))
    record = dataclasses.replace(record, embedding=filled)
    binary, text = KNOWN_ANSWERS[name]
    assert hash_bytes(encode_record(record)).hex == binary
    assert hash_bytes(canonical_json(record_to_json(record)).encode()).hex == text
    assert filled._encoding is encoded


def test_decoded_and_replaced_embeddings_cache_the_same_pairs():
    e = embed(bytes(range(0, 250, 7)) * 3, MediaType.BYTES)
    record = content("c", e, HASHES[0])
    expected = sparse_statistics(e)
    packed = encode_embedding(record.embedding)
    decoded = record_copy(record)
    # The decoder keeps the bytes it read, which are the fresh encoding.
    assert decoded.embedding._encoding == encode_embedding(fresh(e))
    replaced = dataclasses.replace(record, registered_at=2)
    assert replaced.embedding is record.embedding
    copy = dataclasses.replace(e)
    assert copy._encoding is None
    for other in (decoded.embedding, replaced.embedding, copy):
        assert other == e
        assert sparse_statistics(other) == expected
        assert encode_embedding(other) == packed == encode_embedding(fresh(e))
        assert encode_embedding(other) is encode_embedding(other)
        assert hash_embedding(other) == hash_bytes(packed)
