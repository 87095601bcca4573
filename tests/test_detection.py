import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from veriledger.codec import hash_bytes
from veriledger.core import (
    AlgorithmRecord,
    AlgorithmStatus,
    ContentRecord,
    DetectorSpec,
    Embedding,
    MediaType,
    ONE,
    Verdict,
)
from veriledger.detection import (
    AnalysisTarget,
    MatchCandidate,
    embed,
    match_trusted,
    register_detector_kind,
    run_detector,
    select_model,
    similarity,
)
from veriledger.errors import (
    DimensionMismatch,
    EmptyContent,
    MalformedAudio,
    MalformedImage,
    NoEligibleAlgorithm,
    UnknownDetector,
    ZeroVector,
)
from veriledger.rng import SplitMix64
from veriledger.sim import perturb

from conftest import dense, indices, random_bytes, score


def pgm(width, height, pixel_fn) -> bytes:
    header = f"P5\n{width} {height}\n255\n".encode()
    raster = bytes(pixel_fn(r, c) for r in range(height) for c in range(width))
    return header + raster


def pcm(samples) -> bytes:
    return b"".join(s.to_bytes(2, "little", signed=True) for s in samples)


def content_record(content_id, embedding, content_hash=None, provider="p") -> ContentRecord:
    return ContentRecord(
        content_id=content_id,
        provider=provider,
        media_type=embedding.media_type,
        content_hash=content_hash or hash_bytes(content_id.encode()),
        embedding=embedding,
        metadata={},
        registered_at=1,
    )


def request_for(content: bytes, media_type: MediaType) -> AnalysisTarget:
    return AnalysisTarget(
        request_id="r-1",
        media_type=media_type,
        content_hash=hash_bytes(content),
        embedding=embed(content, media_type),
    )


# --- embed -------------------------------------------------------------------


def test_bytes_histogram():
    e = embed(bytes([0x00, 0x00, 0xFF, 0xFF]), MediaType.BYTES)
    assert (e.dimension, indices(e), e.stored) == (256, (0, 255), (2, 2))


@given(
    st.one_of(
        st.binary(min_size=1, max_size=1),
        st.permutations(range(256)).map(bytes),
        st.tuples(st.integers(0, 255), st.integers(1, 300)).map(lambda b: bytes([b[0]]) * b[1]),
        st.binary(min_size=4096, max_size=4096),
        st.binary(min_size=1, max_size=600),
    )
)
def test_bytes_embedding_is_from_dense_of_the_histogram(content):
    # Built in its stored layout, it is the dense histogram's embedding.
    histogram = [content.count(b) for b in range(256)]
    want = Embedding.from_dense(histogram, MediaType.BYTES)
    got = embed(content, MediaType.BYTES)
    assert got == want
    assert (got.bitmap, got.stored, got.mask, got.norm2, got.peak) == (
        want.bitmap, want.stored, want.mask, want.norm2, want.peak
    )


def test_constant_image_embedding():
    # 128/255 of 65,536 is 32,896.502, which rounds to 32,897.
    e = embed(pgm(16, 16, lambda r, c: 128), MediaType.IMAGE)
    assert dense(e) == (32897,) * 64


def test_alternating_audio_embedding():
    # An RMS of half full scale is 32,768 in Q16.
    samples = [16384 if i % 2 == 0 else -16384 for i in range(128)]
    e = embed(pcm(samples), MediaType.AUDIO)
    assert dense(e) == (32768,) * 64


# A fixed input of each media type and its integer embedding, each value
# worked out by hand: Bytes counts; an Image band's mean over 255 in Q16,
# ``p * 65536 / 255`` rounded for a one-pixel band of gray ``p``; an Audio
# window's RMS over 32,768 in Q16, which is twice the RMS, rounded down.
INTEGER_KNOWN_ANSWERS = {
    "bytes-abracadabra": (
        b"abracadabra", MediaType.BYTES,
        {ord("a"): 5, ord("b"): 2, ord("c"): 1, ord("d"): 1, ord("r"): 2},
    ),
    # 8x8, one pixel a band: grays 0, 1, 127, 128, 254 and 255 in the first
    # row, 0 elsewhere. 257.004, 32,639.498, 32,896.502 and 65,278.996.
    "image-8x8-grays": (
        pgm(8, 8, lambda r, c: (0, 1, 127, 128, 254, 255, 0, 0)[c] if r == 0 else 0),
        MediaType.IMAGE,
        {1: 257, 2: 32639, 3: 32897, 4: 65279, 5: 65536},
    ),
    # 128 samples, two a window: window 0 is (3, 4), RMS sqrt(12.5), 2 * RMS
    # 7.07, so 7; window 1 is (-32768, -32768), 65,536; window 2 is (1, 0),
    # 2 * sqrt(0.5) = 1.41, so 1; every other window is (0, 0).
    "audio-128-samples": (
        pcm([3, 4, -32768, -32768, 1, 0] + [0] * 122), MediaType.AUDIO,
        {0: 7, 1: 65536, 2: 1},
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_KNOWN_ANSWERS))
def test_integer_embedding_known_answers(name):
    content, media_type, nonzero = INTEGER_KNOWN_ANSWERS[name]
    e = embed(content, media_type)
    assert dict(zip(indices(e), e.stored)) == nonzero
    assert e.norm2 == sum(v * v for v in nonzero.values())
    assert e.peak == max(nonzero.values())


# Inputs whose every Image band or Audio window rounds to 0: a 6,400-sample
# clip with one sample of 1 in every 100 (``isqrt(4 * 1 // 100)`` is 0), and
# a 1024x1024 image whose every 128x128 band sums to 31, below half of one
# Q16 step. A band or window with any non-zero sample stores 1.
QUIET = {
    "audio-one-in-100": (pcm(([1] + [0] * 99) * 64), MediaType.AUDIO),
    "image-band-sum-31": (
        pgm(1024, 1024, lambda r, c: 1 if r % 128 == 0 and c % 128 < 31 else 0),
        MediaType.IMAGE,
    ),
}


@pytest.mark.parametrize("name", sorted(QUIET))
def test_quiet_content_embeds_to_something_that_matches_itself(name):
    content, media_type = QUIET[name]
    e = embed(content, media_type)
    assert e.is_valid() and e.stored == (1,) * 64
    record = content_record("quiet", e, content_hash=hash_bytes(content))
    assert match_trusted(e, [record], 1, 100) == [MatchCandidate("quiet", ONE)]


def test_embed_rejects_empty():
    with pytest.raises(EmptyContent):
        embed(b"", MediaType.BYTES)


def test_embed_deterministic():
    blob = random_bytes(SplitMix64(5), 4096)
    assert embed(blob, MediaType.BYTES) == embed(blob, MediaType.BYTES)


def test_image_remainder_blocks_absorb_trailing_pixels():
    # 10x10: first seven bands get one row/col, the trailing band gets three
    img = pgm(10, 10, lambda r, c: 255 if (r >= 7 and c >= 7) else 0)
    e = embed(img, MediaType.IMAGE)
    assert dense(e)[63] == 65536
    assert dense(e)[0] == 0


def test_malformed_images():
    with pytest.raises(MalformedImage):
        embed(b"P4\n8 8\n255\n" + b"\x00" * 64, MediaType.IMAGE)  # wrong magic
    with pytest.raises(MalformedImage):
        embed(b"P5\n8 8\n255\n" + b"\x00" * 63, MediaType.IMAGE)  # short raster
    with pytest.raises(MalformedImage):
        embed(b"P5\n8 8\n16\n" + b"\x00" * 64, MediaType.IMAGE)  # wrong maxval
    with pytest.raises(MalformedImage):
        embed(pgm(7, 8, lambda r, c: 1), MediaType.IMAGE)  # below 8x8 grid


def test_pgm_header_comments_allowed():
    img = b"P5\n# a comment\n8 8\n255\n" + bytes(range(64))
    assert embed(img, MediaType.IMAGE).dimension == 64


def test_malformed_audio():
    with pytest.raises(MalformedAudio):
        embed(b"\x01", MediaType.AUDIO)  # odd length
    with pytest.raises(MalformedAudio):
        embed(pcm([100] * 63), MediaType.AUDIO)  # fewer samples than windows


def per_sample_audio_embedding(content: bytes) -> tuple[int, ...]:
    """The audio embedding as a per-sample loop: ``int.from_bytes`` for each
    PCM16 sample, a running sum of squares per window, and the largest
    ``v`` with ``v**2 * count <= 4 * total``, found by stepping from the
    float estimate. ``embed`` must return the same values."""
    if len(content) % 2 != 0:
        raise MalformedAudio("odd length")
    n = len(content) // 2
    if n < 64:
        raise MalformedAudio("too short")
    samples = [
        int.from_bytes(content[2 * i : 2 * i + 2], "little", signed=True)
        for i in range(n)
    ]
    base = n // 64
    values = []
    for w in range(64):
        w0, w1 = w * base, (n if w == 63 else (w + 1) * base)
        total = 0
        for s in samples[w0:w1]:
            total += s * s
        count = w1 - w0
        v = int(2 * math.sqrt(total / count))
        while (v + 1) ** 2 * count <= 4 * total:
            v += 1
        while v * v * count > 4 * total:
            v -= 1
        values.append(v)
    return tuple(values)


def audio_outcome(fn, content):
    try:
        return list(fn(content))
    except MalformedAudio as exc:
        return type(exc)


AUDIO_KNOWN_ANSWERS = {
    # 209 samples: three per window, and the trailing window absorbs 17 more.
    "extremes-209": [-32768, 32767, 0] * 63 + [-32768] * 10 + [32767] * 10,
    "full-scale-64": [-32768] * 64,
    "one-extreme-per-window-4099": [
        (-32768 if i % 2 else 32767) if i % 64 == 0 else (i * 7919) % 65536 - 32768
        for i in range(4099)
    ],
    "odd-length": b"\x00\x80\x01",
    "63-samples": [32767] * 63,
}


@pytest.mark.parametrize("name", sorted(AUDIO_KNOWN_ANSWERS))
def test_audio_embedding_known_answers(name):
    case = AUDIO_KNOWN_ANSWERS[name]
    content = case if isinstance(case, bytes) else pcm(case)
    expected = audio_outcome(per_sample_audio_embedding, content)
    got = audio_outcome(lambda c: dense(embed(c, MediaType.AUDIO)), content)
    assert got == expected
    if name == "full-scale-64":
        assert expected == [65536] * 64
    if name in ("odd-length", "63-samples"):
        assert expected is MalformedAudio


@given(
    st.lists(
        st.one_of(st.integers(-32768, 32767), st.sampled_from([-32768, 32767, 0])),
        min_size=60,
        max_size=400,
    ),
    st.booleans(),
)
def test_audio_embedding_matches_the_per_sample_loop(samples, odd):
    content = pcm(samples) + (b"\x01" if odd else b"")
    assert audio_outcome(lambda c: dense(embed(c, MediaType.AUDIO)), content) == (
        audio_outcome(per_sample_audio_embedding, content)
    )


# --- similarity ----------------------------------------------------------------


def test_cosine_identity_within_tolerance():
    # Exactly 1: the squared cosine of an embedding with itself is n**2 / n**2.
    e = embed(random_bytes(SplitMix64(1), 4096), MediaType.BYTES)
    assert similarity(e, e) == (e.norm2**2, e.norm2**2)
    assert score(e, e) == ONE


def vector(values, media_type=MediaType.IMAGE):
    return Embedding.from_dense(tuple(values), media_type)


def test_cosine_orthogonal_kernel():
    assert similarity(vector([1, 0]), vector([0, 1])) == (0, 1)


def test_cosine_half_kernel():
    # [1,0,1,0...] vs [1,1,0,0...]: dot 1 over sqrt(2)*sqrt(2)
    a = vector([1, 0, 1] + [0] * 5)
    b = vector([1, 1, 0] + [0] * 5)
    assert similarity(a, b) == (1, 4)
    assert score(a, b) == ONE // 2


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        similarity(vector([1]), vector([1, 2]))
    a = vector([1] * 64, MediaType.IMAGE)
    b = vector([1] * 64, MediaType.AUDIO)
    with pytest.raises(DimensionMismatch):
        similarity(a, b)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        similarity(vector([0, 0]), vector([1, 0]))


u32 = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**32 - 1]))


@given(st.lists(u32, min_size=4, max_size=4), st.lists(u32, min_size=4, max_size=4))
@example([0, 0, 0, 1], [0, 0, 0, 2**32 - 1])
@example([2**32 - 1] * 4, [2**32 - 1] * 3 + [2**32 - 2])
def test_similarity_symmetric_and_bounded(a_vals, b_vals):
    # Padded with zeros to the Image dimension, so that ``is_valid`` decides
    # which vectors the kernel must score: exactly those it accepts.
    a, b = (vector(vals + [0] * 60) for vals in (a_vals, b_vals))
    if not (a.is_valid() and b.is_valid()):
        return
    forward = similarity(a, b)
    assert forward == similarity(b, a)
    top, bottom = forward
    assert 0 <= top <= bottom
    assert 0 <= score(a, b) == score(b, a) <= ONE


# --- match_trusted ----------------------------------------------------------------


def rand_embedding(rng: SplitMix64, media_type=MediaType.BYTES) -> Embedding:
    from veriledger.core import EMBEDDING_DIMENSIONS

    dim = EMBEDDING_DIMENSIONS[media_type]
    return Embedding.from_dense(tuple(1 + rng.randrange(999) for _ in range(dim)), media_type)


def brute_force_matches(query, registry, k, tau_pct):
    kept = [
        MatchCandidate(r.content_id, score(query, r.embedding))
        for r in registry
        if r.media_type is query.media_type
        and Fraction(*similarity(query, r.embedding)) >= Fraction(tau_pct, 100) ** 2
    ]
    kept.sort(key=lambda c: (-c.similarity, c.content_id))
    return kept[:k]


def test_match_empty_registry():
    rng = SplitMix64(2)
    assert match_trusted(rand_embedding(rng), [], 5, 0) == []


def test_match_self_is_first_with_similarity_one():
    rng = SplitMix64(3)
    query = rand_embedding(rng)
    registry = [content_record("self", query)] + [
        content_record(f"other-{i}", rand_embedding(rng)) for i in range(5)
    ]
    result = match_trusted(query, registry, 3, 0)
    assert result[0].content_id == "self"
    assert result[0].similarity == ONE


def test_match_agrees_with_bruteforce_50():
    rng = SplitMix64(4)
    registry = [content_record(f"c-{i:03d}", rand_embedding(rng)) for i in range(50)]
    query = rand_embedding(rng)
    assert match_trusted(query, registry, 5, 0) == brute_force_matches(query, registry, 5, 0)


def test_match_agrees_with_bruteforce_1000():
    rng = SplitMix64(5)
    registry = [content_record(f"c-{i:04d}", rand_embedding(rng)) for i in range(1000)]
    query = rand_embedding(rng)
    for k, tau_pct in ((5, 0), (17, 90), (3, 99)):
        assert match_trusted(query, registry, k, tau_pct) == brute_force_matches(
            query, registry, k, tau_pct
        )


def test_match_filters_media_type():
    rng = SplitMix64(6)
    query = rand_embedding(rng, MediaType.IMAGE)
    registry = [content_record("bytes-item", rand_embedding(rng, MediaType.BYTES))]
    assert match_trusted(query, registry, 5, 0) == []


def test_match_validates_arguments():
    rng = SplitMix64(7)
    with pytest.raises(ValueError):
        match_trusted(rand_embedding(rng), [], 0, 50)
    with pytest.raises(ValueError):
        match_trusted(rand_embedding(rng), [], 1, 101)


# --- run_detector --------------------------------------------------------------


def test_exact_hash_authentic():
    content = b"trusted blob"
    record = content_record(
        "c-1", embed(content, MediaType.BYTES), content_hash=hash_bytes(content)
    )
    target = request_for(content, MediaType.BYTES)
    for kind in ("exact-hash", "near-duplicate"):
        verdict, confidence, matches = run_detector(
            DetectorSpec(kind=kind), target, [record]
        )
        assert verdict is Verdict.AUTHENTIC
        assert confidence == ONE
        assert matches == [MatchCandidate("c-1", ONE)]


def test_one_pixel_change_flags_deepfake():
    original = pgm(16, 16, lambda r, c: 128)
    altered = pgm(16, 16, lambda r, c: 129 if (r, c) == (0, 0) else 128)
    record = content_record(
        "img-1", embed(original, MediaType.IMAGE), content_hash=hash_bytes(original)
    )
    target = request_for(altered, MediaType.IMAGE)
    verdict, confidence, matches = run_detector(
        DetectorSpec(kind="near-duplicate", parameters={"tau_pct": 95}),
        target,
        [record],
    )
    assert verdict is Verdict.DEEPFAKE
    assert matches[0].content_id == "img-1"

    # independent oracle: 63 block means of 128, one of 128.25, against
    # all-128, each over 255 and rounded to Q16 (no band mean lies halfway)
    base = round(Fraction(128 * 65536, 255))
    shifted = round(Fraction((128 * 3 + 129) * 65536, 4 * 255))
    dot = 63 * base * base + shifted * base
    norm2_a = 63 * base * base + shifted * shifted
    norm2_b = 64 * base * base
    assert confidence == math.isqrt(dot * dot * ONE * ONE // (norm2_a * norm2_b))
    assert confidence * 100 >= 99 * ONE


def test_disjoint_support_is_unverified():
    # registry and query on disjoint byte alphabets: cosine exactly 0
    registry_content = bytes([10, 11, 12, 13] * 256)
    query_content = bytes([200, 201, 202, 203] * 256)
    record = content_record(
        "c-1",
        embed(registry_content, MediaType.BYTES),
        content_hash=hash_bytes(registry_content),
    )
    target = request_for(query_content, MediaType.BYTES)
    verdict, confidence, matches = run_detector(
        DetectorSpec(kind="near-duplicate"), target, [record]
    )
    assert verdict is Verdict.UNVERIFIED
    assert confidence == 0
    assert matches == []


def test_near_duplicate_threshold_boundary_inclusive():
    # Cosine exactly 4/5 passes at tau_pct 80 (>= semantics) and fails at
    # 81. Its score is floor(0.8 * ONE).
    query = Embedding.from_dense((1, 0) + (0,) * 254, MediaType.BYTES)
    other = Embedding.from_dense((4, 3) + (0,) * 254, MediaType.BYTES)
    record = content_record("c-1", other)
    target = AnalysisTarget(
        request_id="r-b",
        media_type=MediaType.BYTES,
        content_hash=hash_bytes(b"q"),
        embedding=query,
    )
    for tau_pct, expected in (
        (80, (Verdict.DEEPFAKE, 52428, [MatchCandidate("c-1", 52428)])),
        (81, (Verdict.UNVERIFIED, 0, [])),
    ):
        spec = DetectorSpec(kind="near-duplicate", parameters={"tau_pct": tau_pct})
        assert run_detector(spec, target, [record]) == expected


def test_unknown_detector_kind():
    target = request_for(b"blob", MediaType.BYTES)
    with pytest.raises(UnknownDetector):
        run_detector(DetectorSpec(kind="transformer-9000"), target, [])


def test_custom_detector_registration():
    def always_unverified(params, target, registry):
        return Verdict.UNVERIFIED, 0, []

    register_detector_kind("test-null", always_unverified)
    try:
        target = request_for(b"blob", MediaType.BYTES)
        verdict, _, _ = run_detector(DetectorSpec(kind="test-null"), target, [])
        assert verdict is Verdict.UNVERIFIED
        with pytest.raises(ValueError):
            register_detector_kind("test-null", always_unverified)
    finally:
        from veriledger.detection import _PLUGINS

        _PLUGINS.pop("test-null", None)


# --- select_model -----------------------------------------------------------------


def algo(aid, correct=0, wrong=0, registered_at=0, status=AlgorithmStatus.ACTIVE,
         media=frozenset({MediaType.BYTES})):
    return AlgorithmRecord(
        algorithm_id=aid, owner="o", media_types=media,
        detector_kind="near-duplicate", status=status, stake=100,
        registered_at=registered_at, tp=correct, tn=0, fp=wrong, fn=0,
    )


def test_single_eligible_algorithm_wins_regardless_of_counters():
    only = algo("solo", correct=0, wrong=50)
    assert select_model(MediaType.BYTES, [only]) == "solo"


def test_select_by_smoothed_accuracy():
    a = algo("A", correct=9, wrong=1)  # (9+1)/(10+2) = 10/12
    b = algo("B", correct=1, wrong=0)  # (1+1)/(1+2) = 2/3
    assert select_model(MediaType.BYTES, [a, b]) == "A"


def test_tie_breaks_by_registration_then_id():
    a = algo("A", registered_at=3)
    b = algo("B", registered_at=2)
    assert select_model(MediaType.BYTES, [a, b]) == "B"
    c = algo("C", registered_at=2)
    assert select_model(MediaType.BYTES, [b, c]) == "B"


def test_requires_active_and_covering():
    pending = algo("P", status=AlgorithmStatus.PENDING)
    image_only = algo("I", media=frozenset({MediaType.IMAGE}))
    with pytest.raises(NoEligibleAlgorithm):
        select_model(MediaType.BYTES, [pending, image_only])


def test_selection_scale_invariant():
    # multiplying every smoothed score by a positive constant cannot change
    # the argmax; check at the argmax level against a scaled reimplementation
    from fractions import Fraction

    rng = SplitMix64(8)
    for trial in range(25):
        algorithms = [
            algo(
                f"a-{i}",
                correct=rng.randrange(20),
                wrong=rng.randrange(20),
                registered_at=rng.randrange(5),
            )
            for i in range(6)
        ]
        chosen = select_model(MediaType.BYTES, algorithms)
        scale = Fraction(1 + rng.randrange(1000), 1 + rng.randrange(1000))

        def scaled_score(a):
            correct = a.tp + a.tn
            return scale * Fraction(correct + 1, correct + a.fp + a.fn + 2)

        best = min(
            algorithms,
            key=lambda a: (-scaled_score(a), a.registered_at, a.algorithm_id),
        )
        assert best.algorithm_id == chosen


# --- perturbation response ----------------------------------------------------------


def test_bytes_similarity_monotone_in_flip_rate():
    # expected similarity is non-increasing in the flipped fraction
    rng = SplitMix64(9)
    means = []
    for p in (0.01, 0.1, 0.5):
        total = 0
        for trial in range(100):
            blob = random_bytes(SplitMix64(rng.next_u64()), 4096)
            mutated = perturb(blob, "byte-flip", p, seed=rng.next_u64())
            total += score(embed(blob, MediaType.BYTES), embed(mutated, MediaType.BYTES))
        means.append(total / 100)
    assert means[0] >= means[1] >= means[2]
