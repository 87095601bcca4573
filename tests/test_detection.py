import math

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

from conftest import random_bytes


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
    assert e.values[0] == 0.5
    assert e.values[255] == 0.5
    assert sum(e.values) == 1.0
    assert all(v == 0.0 for v in e.values[1:255])


def test_constant_image_embedding():
    e = embed(pgm(16, 16, lambda r, c: 128), MediaType.IMAGE)
    assert len(e.values) == 64
    assert all(v == 128 / 255 for v in e.values)


def test_alternating_audio_embedding():
    samples = [16384 if i % 2 == 0 else -16384 for i in range(128)]
    e = embed(pcm(samples), MediaType.AUDIO)
    assert len(e.values) == 64
    assert all(v == 0.5 for v in e.values)


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
    assert e.values[63] == 1.0
    assert e.values[0] == 0.0


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
    assert len(embed(img, MediaType.IMAGE).values) == 64


def test_malformed_audio():
    with pytest.raises(MalformedAudio):
        embed(b"\x01", MediaType.AUDIO)  # odd length
    with pytest.raises(MalformedAudio):
        embed(pcm([100] * 63), MediaType.AUDIO)  # fewer samples than windows


def per_sample_audio_embedding(content: bytes) -> tuple[float, ...]:
    """The audio embedding as a per-sample loop: ``int.from_bytes`` for each
    PCM16 sample and a running sum of squares per window. ``embed`` must
    return the same bits."""
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
        values.append(math.sqrt(total / (w1 - w0)) / 32768.0)
    return tuple(values)


def audio_outcome(fn, content):
    try:
        return [v.hex() for v in fn(content)]
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
    got = audio_outcome(lambda c: embed(c, MediaType.AUDIO).values, content)
    assert got == expected
    if name == "full-scale-64":
        assert expected == [(1.0).hex()] * 64
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
    assert audio_outcome(lambda c: embed(c, MediaType.AUDIO).values, content) == (
        audio_outcome(per_sample_audio_embedding, content)
    )


# --- similarity ----------------------------------------------------------------


def test_cosine_identity_within_tolerance():
    e = embed(random_bytes(SplitMix64(1), 4096), MediaType.BYTES)
    assert abs(similarity(e, e) - 1.0) <= 1e-12


def vector(values, media_type=MediaType.IMAGE):
    return Embedding(values=tuple(values), media_type=media_type)


def test_cosine_orthogonal_kernel():
    assert similarity(vector([1.0, 0.0]), vector([0.0, 1.0])) == 0.0


def test_cosine_half_kernel():
    # [1,0,1,0...] vs [1,1,0,0...]: dot 1 over sqrt(2)*sqrt(2)
    a = vector([1.0, 0.0, 1.0] + [0.0] * 5)
    b = vector([1.0, 1.0, 0.0] + [0.0] * 5)
    assert abs(similarity(a, b) - 0.5) <= 1e-12


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        similarity(vector([1.0]), vector([1.0, 2.0]))
    a = vector([0.5] * 64, MediaType.IMAGE)
    b = vector([0.5] * 64, MediaType.AUDIO)
    with pytest.raises(DimensionMismatch):
        similarity(a, b)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        similarity(vector([0.0, 0.0]), vector([1.0, 0.0]))


@given(
    st.lists(st.floats(0.0, 1000.0), min_size=4, max_size=4),
    st.lists(st.floats(0.0, 1000.0), min_size=4, max_size=4),
)
@example([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 3.562700535506924e-229])
def test_similarity_symmetric_and_bounded(a_vals, b_vals):
    # Padded with zeros to the Image dimension, so that ``is_valid`` decides
    # which vectors the kernel must score: exactly those it accepts.
    a, b = (vector(vals + [0.0] * 60) for vals in (a_vals, b_vals))
    if not (a.is_valid() and b.is_valid()):
        return
    forward = similarity(a, b)
    backward = similarity(b, a)
    assert forward == backward
    assert 0.0 <= forward <= 1.0


# --- match_trusted ----------------------------------------------------------------


def rand_embedding(rng: SplitMix64, media_type=MediaType.BYTES) -> Embedding:
    from veriledger.core import EMBEDDING_DIMENSIONS

    dim = EMBEDDING_DIMENSIONS[media_type]
    return Embedding(
        values=tuple((1 + rng.randrange(999)) / 1000 for _ in range(dim)),
        media_type=media_type,
    )


def brute_force_matches(query, registry, k, threshold):
    scored = [
        MatchCandidate(r.content_id, similarity(query, r.embedding))
        for r in registry
        if r.media_type is query.media_type
    ]
    kept = [c for c in scored if c.similarity >= threshold]
    kept.sort(key=lambda c: (-c.similarity, c.content_id))
    return kept[:k]


def test_match_empty_registry():
    rng = SplitMix64(2)
    assert match_trusted(rand_embedding(rng), [], 5, 0.0) == []


def test_match_self_is_first_with_similarity_one():
    rng = SplitMix64(3)
    query = rand_embedding(rng)
    registry = [content_record("self", query)] + [
        content_record(f"other-{i}", rand_embedding(rng)) for i in range(5)
    ]
    result = match_trusted(query, registry, 3, 0.0)
    assert result[0].content_id == "self"
    assert abs(result[0].similarity - 1.0) <= 1e-12


def test_match_agrees_with_bruteforce_50():
    rng = SplitMix64(4)
    registry = [content_record(f"c-{i:03d}", rand_embedding(rng)) for i in range(50)]
    query = rand_embedding(rng)
    assert match_trusted(query, registry, 5, 0.0) == brute_force_matches(
        query, registry, 5, 0.0
    )


def test_match_agrees_with_bruteforce_1000():
    rng = SplitMix64(5)
    registry = [content_record(f"c-{i:04d}", rand_embedding(rng)) for i in range(1000)]
    query = rand_embedding(rng)
    for k, threshold in ((5, 0.0), (17, 0.9), (3, 0.999)):
        assert match_trusted(query, registry, k, threshold) == brute_force_matches(
            query, registry, k, threshold
        )


def test_match_filters_media_type():
    rng = SplitMix64(6)
    query = rand_embedding(rng, MediaType.IMAGE)
    registry = [content_record("bytes-item", rand_embedding(rng, MediaType.BYTES))]
    assert match_trusted(query, registry, 5, 0.0) == []


def test_match_validates_arguments():
    rng = SplitMix64(7)
    with pytest.raises(ValueError):
        match_trusted(rand_embedding(rng), [], 0, 0.5)
    with pytest.raises(ValueError):
        match_trusted(rand_embedding(rng), [], 1, 1.5)


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
        assert confidence == 1.0
        assert matches == [MatchCandidate("c-1", 1.0)]


def test_one_pixel_change_flags_deepfake():
    original = pgm(16, 16, lambda r, c: 128)
    altered = pgm(16, 16, lambda r, c: 129 if (r, c) == (0, 0) else 128)
    record = content_record(
        "img-1", embed(original, MediaType.IMAGE), content_hash=hash_bytes(original)
    )
    target = request_for(altered, MediaType.IMAGE)
    verdict, confidence, matches = run_detector(
        DetectorSpec(kind="near-duplicate", parameters={"tau": 0.95}),
        target,
        [record],
    )
    assert verdict is Verdict.DEEPFAKE
    assert matches[0].content_id == "img-1"

    # independent oracle: 63 block means of 128, one of 128.25, against all-128
    base = 128 / 255
    shifted = (128 * 3 + 129) / 4 / 255
    dot = 63 * base * base + shifted * base
    norm_a = math.sqrt(63 * base * base + shifted * shifted)
    norm_b = math.sqrt(64 * base * base)
    expected = dot / norm_a / norm_b
    assert abs(confidence - expected) <= 1e-12
    assert confidence >= 0.99


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
    assert confidence == 0.0
    assert matches == []


def test_near_duplicate_threshold_boundary_inclusive():
    # similarity exactly at tau passes (>= semantics)
    query = Embedding(values=(1.0, 0.0) + (0.0,) * 254, media_type=MediaType.BYTES)
    other = Embedding(values=(1.0, 1.0) + (0.0,) * 254, media_type=MediaType.BYTES)
    record = content_record("c-1", other)
    target = AnalysisTarget(
        request_id="r-b",
        media_type=MediaType.BYTES,
        content_hash=hash_bytes(b"q"),
        embedding=query,
    )
    tau = similarity(query, other)
    verdict, _, _ = run_detector(
        DetectorSpec(kind="near-duplicate", parameters={"tau": tau}), target, [record]
    )
    assert verdict is Verdict.DEEPFAKE


def test_unknown_detector_kind():
    target = request_for(b"blob", MediaType.BYTES)
    with pytest.raises(UnknownDetector):
        run_detector(DetectorSpec(kind="transformer-9000"), target, [])


def test_custom_detector_registration():
    def always_unverified(params, target, registry):
        return Verdict.UNVERIFIED, 0.0, []

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
        total = 0.0
        for trial in range(100):
            blob = random_bytes(SplitMix64(rng.next_u64()), 4096)
            mutated = perturb(blob, "byte-flip", p, seed=rng.next_u64())
            total += similarity(
                embed(blob, MediaType.BYTES), embed(mutated, MediaType.BYTES)
            )
        means.append(total / 100)
    assert means[0] >= means[1] >= means[2]
