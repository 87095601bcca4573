import pytest
from hypothesis import given, strategies as st

from veriledger.rng import SplitMix64, derive_seed

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15

# Published SplitMix64 outputs for seed 0 (cross-checked against the
# reference implementation's test vectors).
SEED0_FIRST = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_reference_vector_seed_zero():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_FIRST


def test_streams_reproducible():
    a = SplitMix64(99)
    b = SplitMix64(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_seed_masked_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


def test_randrange_bounds():
    rng = SplitMix64(7)
    draws = [rng.randrange(10) for _ in range(1000)]
    assert min(draws) == 0
    assert max(draws) == 9


def test_randrange_rejects_ranges_it_cannot_draw():
    for n in (0, -1, 2**64 + 1):
        with pytest.raises(ValueError):
            SplitMix64(1).randrange(n)
        with pytest.raises(ValueError):
            SplitMix64(1).randrange_many(n, 3)
    with pytest.raises(ValueError):
        SplitMix64(1).randrange_many(3, -1)
    for n in (0, 257):
        with pytest.raises(ValueError):
            SplitMix64(1).randrange_bytes(n, 3)
    with pytest.raises(ValueError):
        SplitMix64(1).randrange_bytes(3, -1)


# n = 2**63 + 1 rejects about half of all raw draws, 2**64 - 1 one in 2**64.
BULK_RANGES = [1, 3, 32, 255, 256, 31744, 2**63 + 1, 2**64 - 1]


def assert_bulk_is_scalar(seed, n, count):
    scalar = SplitMix64(seed)
    bulk = SplitMix64(seed)
    assert bulk.randrange_many(n, count) == [scalar.randrange(n) for _ in range(count)]
    assert bulk.next_u64() == scalar.next_u64()


@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from(BULK_RANGES) | st.integers(1, 2**64),
    count=st.sampled_from([0, 1, 4096]) | st.integers(0, 300),
)
def test_randrange_many_is_successive_randrange_draws(seed, n, count):
    assert_bulk_is_scalar(seed, n, count)


@pytest.mark.parametrize("n", BULK_RANGES)
@pytest.mark.parametrize("count", [0, 1, 4096])
def test_randrange_many_grid(n, count):
    assert_bulk_is_scalar(n ^ count, n, count)


def test_sample_indices_distinct():
    rng = SplitMix64(11)
    sample = rng.sample_indices(100, 40)
    assert len(sample) == 40
    assert len(set(sample)) == 40
    assert all(0 <= i < 100 for i in sample)


def test_sample_indices_full_permutation():
    sample = SplitMix64(12).sample_indices(8, 8)
    assert sorted(sample) == list(range(8))


BYTE_RANGES = [1, 2, 32, 200, 255, 256]


def assert_byte_draw_is_bulk(seed, n, count):
    bulk = SplitMix64(seed)
    byte = SplitMix64(seed)
    assert byte.randrange_bytes(n, count) == bytes(bulk.randrange_many(n, count))
    assert byte.next_u64() == bulk.next_u64()


@pytest.mark.parametrize("n", BYTE_RANGES)
@pytest.mark.parametrize("count", [0, 1, 4096])
def test_randrange_bytes_grid(n, count):
    assert_byte_draw_is_bulk(n ^ count, n, count)


@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from(BYTE_RANGES) | st.integers(1, 256),
    count=st.integers(0, 300),
)
def test_randrange_bytes_is_bytes_of_randrange_many(seed, n, count):
    assert_byte_draw_is_bulk(seed, n, count)


def scalar_sample_indices(rng, n, k):
    """The partial Fisher-Yates pass on scalar ``randrange`` draws."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randrange(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def assert_sample_is_scalar(seed, n, k):
    scalar = SplitMix64(seed)
    bulk = SplitMix64(seed)
    assert bulk.sample_indices(n, k) == scalar_sample_indices(scalar, n, k)
    assert bulk.next_u64() == scalar.next_u64()


@given(
    seed=st.integers(0, 2**64 - 1),
    nk=st.integers(0, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
)
def test_sample_indices_is_scalar_fisher_yates(seed, nk):
    assert_sample_is_scalar(seed, *nk)


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def state_before_output(output, draws_before):
    """A seed whose stream gives ``output`` after ``draws_before`` other draws.

    Each step of the SplitMix64 finaliser is invertible, and the state after
    k outputs is seed + k * gamma.
    """
    z = _unxorshift(output, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK
    state = _unxorshift(z, 30)
    return (state - (draws_before + 1) * GAMMA) & MASK


def test_state_before_output():
    rng = SplitMix64(state_before_output(MASK, 5))
    assert [rng.next_u64() == MASK for _ in range(7)] == [False] * 5 + [True, False]
    rng = SplitMix64(state_before_output(SEED0_FIRST[0], 0))
    assert rng.next_u64() == SEED0_FIRST[0]


# Random pool sizes practically never reject a draw, so these tests put the
# output 2**64 - 1, which every range but a power of two rejects, at a chosen
# draw: first, inside, and last of the first bulk batch.
@pytest.mark.parametrize(
    "n, k, at",
    [(3, 3, 0), (7, 1, 0), (256, 32, 1), (256, 32, 17), (256, 32, 31),
     (4096, 40, 1), (4096, 40, 39)],
)
def test_sample_indices_forced_rejection(n, k, at):
    seed = state_before_output(MASK, at)
    assert_sample_is_scalar(seed, n, k)
    # the scalar pass drew k + 1 outputs: the one rejection and k accepted
    scalar = SplitMix64(seed)
    scalar_sample_indices(scalar, n, k)
    rest = SplitMix64(seed)
    for _ in range(k + 1):
        rest.next_u64()
    assert scalar.next_u64() == rest.next_u64()


@pytest.mark.parametrize(
    "n, count, at",
    [(3, 1, 0), (255, 64, 0), (255, 64, 63), (31744, 64, 10), (2**64 - 1, 5, 4)],
)
def test_randrange_many_forced_rejection(n, count, at):
    assert_bulk_is_scalar(state_before_output(MASK, at), n, count)


@pytest.mark.parametrize("n, count, at", [(200, 100, 99), (255, 16, 0), (3, 3, 1), (32, 16, 3)])
def test_randrange_bytes_forced_rejection(n, count, at):
    seed = state_before_output(MASK, at)
    assert_byte_draw_is_bulk(seed, n, count)
    assert_bulk_is_scalar(seed, n, count)


@given(
    at=st.integers(0, 300),
    nk=st.integers(1, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
)
def test_forced_rejection_anywhere(at, nk):
    n, k = nk
    seed = state_before_output(MASK, at)
    assert_sample_is_scalar(seed, n, k)
    assert_bulk_is_scalar(seed, n, k)
    if n <= 256:
        assert_byte_draw_is_bulk(seed, n, k)


def test_derive_seed_stable():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")
