"""The sparse, norm-cached, pruned similarity search against a dense reference.

``dense_cosine``, ``dense_match_trusted`` and the two dense detectors below
are the search as it was before each embedding cached its non-zero pairs,
norm, support and peak: a cosine loop over every dimension for every record
and an exact-hash lookup that sorts the whole registry. The live code must
give the same results bit for bit.
``brute_force_matches`` in ``test_detection`` calls ``similarity`` itself, so
it cannot serve as this reference. ``three_pass_sparse_values`` is
``sparse_values`` as it was before it became one pass.
"""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from veriledger.codec import hash_bytes
from veriledger.core import (
    EMBEDDING_DIMENSIONS,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    Verdict,
    encode_embedding,
    encode_record,
    hash_embedding,
    sparse_values,
)
from veriledger import detection
from veriledger.detection import (
    SLACK,
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
from test_record_codec import KNOWN_ANSWERS, RECORDS

# --- the dense reference ----------------------------------------------------


def dense_cosine(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} != {len(b)}")
    dot = 0.0
    na = 0.0
    nb = 0.0
    for x, y in zip(a, b):
        dot += x * y
        na += x * x
        nb += y * y
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for zero vectors")
    value = dot / math.sqrt(na * nb)
    return min(1.0, max(0.0, value))


def dense_match_trusted(query, registry, k, threshold):
    candidates = []
    for record in registry:
        if record.media_type is not query.media_type:
            continue
        sim = dense_cosine(query.values, record.embedding.values)
        if sim >= threshold:
            candidates.append(MatchCandidate(record.content_id, sim))
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
        return Verdict.AUTHENTIC, 1.0, [MatchCandidate(record.content_id, 1.0)]
    return Verdict.UNVERIFIED, 0.0, []


def dense_near_duplicate(params, target, registry):
    record = dense_find_exact(target, registry)
    if record is not None:
        return Verdict.AUTHENTIC, 1.0, [MatchCandidate(record.content_id, 1.0)]
    tau = float(params.get("tau", 0.95))
    k = int(params.get("k", 5))
    matches = dense_match_trusted(target.embedding, registry, k, tau)
    if matches:
        return Verdict.DEEPFAKE, matches[0].similarity, matches
    return Verdict.UNVERIFIED, 0.0, []


def three_pass_sparse_values(values):
    norm2 = 0.0
    for v in values:
        norm2 += v * v
    pairs = tuple((i, v) for i, v in enumerate(values) if v != 0.0)
    support = 0
    for i, _ in pairs:
        support |= 1 << i
    peak = max(values, default=0.0) if all(v >= 0.0 for v in values) else math.inf
    return pairs, norm2, support, peak


def skipped_records(query, searched, threshold):
    """The records of the query's media type that ``match_trusted`` skips:
    those it never passes to ``similarity``. A record whose score raises
    counts as scored, and the search goes on past it."""
    real_similarity = detection.similarity
    scored = set()

    def scoring(a, b):
        scored.add(id(b))
        try:
            return real_similarity(a, b)
        except (DimensionMismatch, ZeroVector, ZeroDivisionError):
            return 0.0

    with mock.patch.object(detection, "similarity", scoring):
        match_trusted(query, searched, 1, threshold)
    return [
        r for r in searched
        if r.media_type is query.media_type and id(r.embedding) not in scored
    ]


def outcome(fn, *args):
    """The result with every float as its exact bits, or the exception type."""
    try:
        result = fn(*args)
    except (DimensionMismatch, ZeroVector, ZeroDivisionError) as exc:
        return type(exc)
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple):  # a detector result
        verdict, confidence, matches = result
        return verdict, confidence.hex(), bits(matches)
    return bits(result)


def bits(matches):
    return [(m.content_id, m.similarity.hex()) for m in matches]


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
# Non-negative finite values, including tiny ones whose squares underflow
# (1e-160 squared is subnormal, 1e-162 squared is zero, and a product of two
# of them underflows) and huge ones whose squares overflow to inf.
specials = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from([1e-300, 5e-324, 1.0, 1e-160, 1e-162, 1e300]),
)


@st.composite
def embeddings(draw):
    media_type = draw(st.sampled_from(MEDIA))
    if media_type is MediaType.BYTES and draw(st.booleans()):
        return embed(draw(small_alphabet_bytes), MediaType.BYTES)
    dim = EMBEDDING_DIMENSIONS[media_type]
    if draw(st.integers(0, 3)) == 0:
        # One value on a drawn support: there the pruning bound is tight. A
        # small pool makes the query and a record often share the value.
        value = draw(st.one_of(st.sampled_from([0.1, 1 / 3, 0.7]), specials))
        support = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
        return Embedding(
            values=tuple(value if i in support else 0.0 for i in range(dim)),
            media_type=media_type,
        )
    # Random 53-bit values, a drawn share of them exact zeros, then a few
    # drawn values at drawn positions.
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    zeros = draw(st.sampled_from([0, 1, 8, 15, 16]))  # out of 16
    values = [
        0.0 if rng.randrange(16) < zeros else (rng.next_u64() >> 11) * 2.0**-53
        for _ in range(dim)
    ]
    for i, v in draw(st.lists(st.tuples(st.integers(0, dim - 1), specials), max_size=4)):
        values[i] = v
    return Embedding(values=tuple(values), media_type=media_type)


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
    scores = [
        outcome(dense_cosine, query.values, r.embedding.values)
        for r in registry
        if r.media_type is query.media_type
    ]
    exact = [float.fromhex(s) for s in scores if isinstance(s, str)]
    # A record's own score is the inclusive boundary; one ulp either side of
    # it, a pruning bound too loose by that much would change the result.
    boundaries = [
        t
        for score in exact
        for t in (score, math.nextafter(score, 0.0), math.nextafter(score, 1.0))
    ]
    threshold = draw(st.one_of(
        st.sampled_from([0.0, 1.0, math.nextafter(0.0, 1.0)]),
        st.floats(0.0, 1.0),
        st.sampled_from(boundaries) if boundaries else st.just(0.5),
    ))
    return registry, target, k, threshold


@settings(max_examples=5 * settings.default.max_examples)  # 300 under "ci"
@given(searches())
def test_sparse_search_matches_dense_reference_bit_for_bit(search):
    registry, target, k, threshold = search
    query = target.embedding
    assert outcome(match_trusted, query, registry, k, threshold) == outcome(
        dense_match_trusted, query, registry, k, threshold
    )
    for record in registry:
        if record.media_type is query.media_type:
            assert outcome(similarity, query, record.embedding) == outcome(
                dense_cosine, query.values, record.embedding.values
            )
    params = {"tau": threshold, "k": k}
    for kind, reference in (
        ("exact-hash", dense_exact_hash),
        ("near-duplicate", dense_near_duplicate),
    ):
        spec = DetectorSpec(kind=kind, parameters=params)
        assert outcome(run_detector, spec, target, registry) == outcome(
            reference, params, target, registry
        )


@st.composite
def well_scaled_searches(draw):
    """Searches over one media type in which every norm and peak lies in
    ``SCALE``, so the pruning rule applies, with thresholds where a record's
    product ``shared * ratio`` meets the rule's limit."""
    media_type = draw(st.sampled_from(MEDIA))
    dim = EMBEDDING_DIMENSIONS[media_type]

    def draw_embedding():
        # Narrow supports share few bins, wide ones many.
        size = draw(st.sampled_from([1, 3, 8, 20, dim]))
        support = sorted(
            draw(st.sets(st.integers(0, dim - 1), min_size=size, max_size=size))
        ) if size < dim else range(dim)
        if draw(st.booleans()):  # one value on the support: the bound is tight
            value = draw(st.one_of(st.sampled_from([0.1, 1 / 3, 0.7]), st.floats(1e-70, 1.0)))
            drawn = [value] * size
        else:  # random 53-bit values in (0, 1]
            rng = SplitMix64(draw(st.integers(0, 2**32)))
            drawn = [(1 + (rng.next_u64() >> 11)) * 2.0**-53 for _ in range(size)]
        values = [0.0] * dim
        for i, v in zip(support, drawn):
            values[i] = v
        return Embedding(values=tuple(values), media_type=media_type)

    registry = [
        content(f"c{n:03d}", draw_embedding(), HASHES[0])
        for n in range(draw(st.integers(1, 12)))
    ]
    query = draw_embedding()
    target = AnalysisTarget("r-scaled", media_type, hash_bytes(b"none"), query)
    _, nq, support_q, peak_q = query.sparse()
    a = peak_q / math.sqrt(nq)
    bounds = []
    for record in registry:
        _, nr, support_r, peak_r = record.embedding.sparse()
        bound = (support_q & support_r).bit_count() * (peak_r / math.sqrt(nr)) * a
        bounds += [t for t in (bound, bound / SLACK) if 0.0 < t <= 1.0]
    boundaries = [
        t for b in bounds for t in (b, math.nextafter(b, 0.0), math.nextafter(b, 1.0))
    ]
    threshold = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(boundaries or [0.5])))
    return registry, target, 5, min(threshold, 1.0)


@settings(max_examples=5 * settings.default.max_examples)
@given(st.one_of(searches(), well_scaled_searches()))
def test_rule_skips_only_records_scoring_below_the_threshold(search):
    registry, target, _, threshold = search
    query = target.embedding
    for record in skipped_records(query, registry, threshold):
        score = outcome(dense_cosine, query.values, record.embedding.values)
        assert isinstance(score, str) and float.fromhex(score) < threshold


def rule_case(case):
    """A search in which the rule skips the record ``far``, which shares two
    of the query's four bins, changed as ``case`` says."""
    query = embed(b"abcd", MediaType.BYTES)
    far = embed(b"abwx", MediaType.BYTES)
    threshold = 0.95
    others = []

    def with_e(embedding, value):
        values = list(embedding.values)
        values[ord("e")] = value
        return Embedding(values=tuple(values), media_type=MediaType.BYTES)

    def on(text, value):
        values = [0.0] * 256
        for b in text:
            values[b] = value
        return Embedding(values=tuple(values), media_type=MediaType.BYTES)

    bad = {"negative": -0.25, "NaN": math.nan}
    if case == "tau 0":
        threshold = 0.0
    elif case in ("query negative", "query NaN"):
        query = with_e(query, bad[case.split()[1]])
    elif case in ("record negative", "record NaN"):
        # One such record shares bins with the query (its product is inf),
        # the other none (its product is NaN).
        value = bad[case.split()[1]]
        far = with_e(far, value)
        others = [content("odd", with_e(embed(b"wxyz", MediaType.BYTES), value), HASHES[1])]
    elif case == "zero-norm record":
        far = Embedding(values=(0.0,) * 256, media_type=MediaType.BYTES)
    elif case == "tiny norms":
        # A query norm of 4e-200, below ``SCALE``, against a record norm of
        # 4e-130, inside it: their product underflows to 0, so
        # ``similarity`` raises ZeroDivisionError, as the dense loop does.
        query = on(b"abcd", 1e-100)
        far = on(b"abwx", 1e-65)
    return query, [content("far", far, HASHES[0]), *others], threshold


def test_rule_skips_a_well_scaled_record_sharing_too_few_bins():
    # Each side holds four bins of 0.25, so each has peak / sqrt(norm2) 0.5:
    # the limit is 0.95 * (1 - 1e-9) / 0.5, about 1.9, and ``far``'s product
    # is 2 * 0.5 = 1.0; its cosine is 0.5.
    query, registry, threshold = rule_case(None)
    assert skipped_records(query, registry, threshold) == registry
    assert outcome(match_trusted, query, registry, 5, threshold) == outcome(
        dense_match_trusted, query, registry, 5, threshold
    ) == []


@pytest.mark.parametrize("case", [
    "tau 0", "query negative", "query NaN", "record negative", "record NaN",
    "zero-norm record", "tiny norms",
])
def test_rule_skips_nothing_where_the_bound_may_not_hold(case):
    query, registry, threshold = rule_case(case)
    expected = outcome(dense_match_trusted, query, registry, 5, threshold)
    for searched in (registry, RegistryIndex(registry)):
        assert skipped_records(query, searched, threshold) == []
        assert outcome(match_trusted, query, searched, 5, threshold) == expected


def test_exact_index_returns_the_smallest_id_as_the_dense_scan_does():
    e = embed(b"abc", MediaType.BYTES)
    image = Embedding(values=(0.5,) * 64, media_type=MediaType.IMAGE)
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
    assert similarity(query, other).hex() == dense_cosine(query.values, other.values).hex()
    assert similarity(query, other) == 0.0
    assert match_trusted(query, [content("c", other, HASHES[0])], 1, 0.0) == [
        MatchCandidate("c", 0.0)
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
    cases = ((0.95, same_alphabet), (0.0, [r.embedding for r in registry]))
    for searched in (registry, RegistryIndex(registry)):
        for threshold, expected in cases:
            scored.clear()
            assert outcome(match_trusted, query, searched, 5, threshold) == outcome(
                dense_match_trusted, query, registry, 5, threshold
            )
            assert [id(e) for e in scored] == [id(e) for e in expected]


@pytest.mark.parametrize("value, count", [(0.1, 10), (0.7417004975798249, 254)])
def test_margin_keeps_a_tight_bound_from_skipping_a_match(value, count):
    # ``count`` equal values summed one by one round above ``count * value**2``,
    # so the rule without its slack would skip the embedding's exact match
    # with itself at threshold 1.0: there ``count * ratio`` falls below
    # ``1.0 / ratio``, the product ``count * ratio**2`` reading 1 - 2.2e-16
    # and 1 - 6.9e-15.
    e = Embedding(
        values=(value,) * count + (0.0,) * (256 - count), media_type=MediaType.BYTES
    )
    _, norm2, support, peak = e.sparse()
    ratio = peak / math.sqrt(norm2)
    assert support.bit_count() * ratio < 1.0 / ratio
    registry = [content("c", e, HASHES[0])]
    assert match_trusted(e, registry, 1, 1.0) == [MatchCandidate("c", 1.0)]
    assert bits(dense_match_trusted(e, registry, 1, 1.0)) == [("c", (1.0).hex())]


def test_record_of_another_dimension_still_raises():
    # A record of another dimension has ratio inf, so the rule never skips it,
    # though it shares no bin with the query, and it raises as the dense
    # search does. ``far`` before it is skipped.
    query = embed(b"ab", MediaType.BYTES)
    short = Embedding(values=(0.0, 1.0), media_type=MediaType.BYTES)
    far = embed(b"xy", MediaType.BYTES)
    registry = [content("far", far, HASHES[1]), content("c", short, HASHES[0])]
    for searched in (registry, RegistryIndex(registry)):
        assert skipped_records(query, searched, 0.95) == registry[:1]
        assert outcome(match_trusted, query, searched, 1, 0.95) is DimensionMismatch
    assert outcome(dense_match_trusted, query, registry, 1, 0.95) is DimensionMismatch


def test_round_off_spill_is_clamped():
    # Nearly parallel vectors whose unclamped cosine is 1 + 2^-52.
    a = [0.7137708028432639, 0.04374827567185868, 0.9977478925366421]
    b = [0.30590177264711305, 0.01874926100222515, 0.42760623965856087]
    pad = [0.0] * (EMBEDDING_DIMENSIONS[MediaType.IMAGE] - 3)
    ea = Embedding(values=tuple(pad + a), media_type=MediaType.IMAGE)
    eb = Embedding(values=tuple(pad + b), media_type=MediaType.IMAGE)
    assert similarity(ea, eb) == dense_cosine(ea.values, eb.values) == 1.0


# Every kind of float: both zeros, NaN, both infinities, negatives, subnormals,
# values whose squares underflow or overflow, and ordinary fractions.
raw_values = st.lists(
    st.one_of(
        st.sampled_from(
            [0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 5e-324, -5e-324,
             1e-160, 1e-162, 1e300]
        ),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(0.0, 1.0),
    ),
    max_size=300,
)


def sparse_bits(result):
    """The result of ``sparse_values`` with each float as its bits; every
    NaN reads ``nan``."""
    pairs, norm2, support, peak = result
    return [(i, v.hex()) for i, v in pairs], norm2.hex(), support, peak.hex()


@settings(max_examples=5 * settings.default.max_examples)
@given(raw_values)
def test_single_pass_sparse_values_matches_three_passes(values):
    assert sparse_bits(sparse_values(values)) == sparse_bits(
        three_pass_sparse_values(values)
    )


def test_sparse_values_of_the_empty_vector():
    assert sparse_values(()) == three_pass_sparse_values(()) == ((), 0.0, 0, 0.0)
    assert sparse_values(())[1].hex() == (0.0).hex()


def test_sparse_pairs_and_norm():
    e = embed(b"aab", MediaType.BYTES)
    pairs, norm2, support, peak = e.sparse()
    assert pairs == ((ord("a"), 2 / 3), (ord("b"), 1 / 3))
    expected = 0.0
    for v in e.values:
        expected += v * v
    assert norm2.hex() == expected.hex()
    assert support == (1 << ord("a")) | (1 << ord("b"))
    assert peak == 2 / 3
    assert e.sparse() is e.sparse()  # computed once


@pytest.mark.parametrize("bad", [-5.0, math.nan])
def test_negative_or_nan_values_are_never_pruned(bad):
    # The bound holds only for non-negative vectors: with a peak of 1.0 it
    # would read 2 / 26 for this vector against itself, whose cosine is 1.0.
    # Such a vector's peak is inf instead, so the rule never skips it.
    e = Embedding(values=(1.0, bad) + (0.0,) * 254, media_type=MediaType.BYTES)
    assert e.sparse()[3] == math.inf
    registry = [content("c", e, HASHES[0])]
    assert outcome(match_trusted, e, registry, 1, 0.95) == outcome(
        dense_match_trusted, e, registry, 1, 0.95
    )


# --- the cache stays out of everything hashed or written ---------------------


def fresh(e):
    return Embedding(values=e.values, media_type=e.media_type)


def test_cache_not_in_equality_hash_or_repr():
    e = embed(b"hello world", MediaType.BYTES)
    before = (repr(e), hash(e))
    e.sparse()
    encoded = encode_embedding(e)
    assert e._sparse is not None and e._encoding is encoded
    _, _, support, peak = e._sparse
    assert support.bit_count() == len(set(b"hello world")) and peak == 3 / 11
    assert (repr(e), hash(e)) == before
    assert e == fresh(e) and hash(e) == hash(fresh(e))
    assert hash(e) == hash((e.values, e.media_type))
    assert "_sparse" not in repr(e) and str(support) not in repr(e)
    assert "_encoding" not in repr(e) and repr(encoded) not in repr(e)


@pytest.mark.parametrize(
    "name", sorted(n for n, r in RECORDS.items() if hasattr(r, "embedding"))
)
def test_known_answers_with_filled_cache(name):
    record = RECORDS[name]
    filled = fresh(record.embedding)
    filled.sparse()
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
    expected = sparse_values(e.values)
    record.embedding.sparse()
    packed = encode_embedding(record.embedding)
    decoded = record_copy(record)
    assert decoded.embedding._sparse is None and decoded.embedding._encoding is None
    replaced = dataclasses.replace(record, registered_at=2)
    assert replaced.embedding is record.embedding
    copy = dataclasses.replace(e)
    assert copy._sparse is None and copy._encoding is None
    for other in (decoded.embedding, replaced.embedding, copy):
        assert other.sparse() == expected
        assert other.sparse()[1].hex() == expected[1].hex()
        assert encode_embedding(other) == packed == encode_embedding(fresh(e))
        assert encode_embedding(other) is encode_embedding(other)
        assert hash_embedding(other) == hash_bytes(packed)
