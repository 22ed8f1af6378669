import numpy as np

from advzoom.rng import (
    _mix,
    counter_hash,
    fnv1a64,
    splitmix64,
    stream_key,
    uniform,
)

# reference values of the standard splitmix64 sequence seeded at 0:
# state k yields splitmix64(k * golden_gamma)
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_SEQ = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_known_values():
    seq = [int(splitmix64(np.uint64((k * GOLDEN_GAMMA) % 2**64)))
           for k in range(3)]
    assert seq == SPLITMIX_SEQ


def test_int_mix_known_values():
    assert [_mix((k * GOLDEN_GAMMA) % 2**64) for k in range(3)] == SPLITMIX_SEQ


def assert_scalar_equals(key, a, b, want):
    """uniform on the counters a, b given as Python ints, as np.int64 of the
    same 64 bits and as np.uint64 returns the np.float64 want, bit for bit."""
    for cast in (int, lambda v: np.uint64(v).astype(np.int64), np.uint64):
        got = uniform(key, cast(a), cast(b))
        assert type(got) is np.float64
        assert got.tobytes() == want.tobytes(), (key, a, b)


def test_scalar_uniform_equals_block_on_random_counters():
    gen = np.random.default_rng(11)
    for seed, tag in [(0, "algo.select"), (7, "env.noise"), (2**40, "x")]:
        key = stream_key(seed, tag)
        a = gen.integers(0, 2**64, size=3400, dtype=np.uint64)
        b = gen.integers(0, 2**64, size=3400, dtype=np.uint64)
        b[:400] = 0  # the one-counter form uniform(key, a)
        block = uniform(key, a, b)
        for i in range(len(a)):
            assert_scalar_equals(key, int(a[i]), int(b[i]), block[i])
    assert uniform(key, 5) == uniform(key, np.array([5]))[0]


def test_scalar_uniform_equals_block_on_edge_counters():
    edges = [0, 1, 2**32, 2**63, 2**64 - 1]
    for key in (stream_key(0, "edge"), stream_key(2**63 + 5, "edge")):
        for a in edges:
            for b in edges:
                want = uniform(key, np.array([a], dtype=np.uint64),
                               np.array([b], dtype=np.uint64))[0]
                assert_scalar_equals(key, a, b, want)


def test_uniform_deterministic_and_order_free():
    key = stream_key(7, "test")
    one = [float(uniform(key, t)) for t in range(10)]
    two = [float(uniform(key, t)) for t in reversed(range(10))]
    assert one == list(reversed(two))
    batch = uniform(key, np.arange(10))
    assert batch.tolist() == one


def test_uniform_range_and_moments():
    key = stream_key(3, "moments")
    us = uniform(key, np.arange(200_000))
    assert us.min() >= 0.0 and us.max() < 1.0
    assert abs(us.mean() - 0.5) < 0.005
    assert abs(us.var() - 1.0 / 12) < 0.002


def test_streams_are_separated():
    a = uniform(stream_key(5, "alpha"), np.arange(64))
    b = uniform(stream_key(5, "beta"), np.arange(64))
    c = uniform(stream_key(6, "alpha"), np.arange(64))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert fnv1a64("alpha") != fnv1a64("beta")


def test_counter_hash_second_axis():
    key = stream_key(1, "pairs")
    same_a = counter_hash(key, 4, np.arange(8))
    assert len(set(same_a.tolist())) == 8
    assert int(counter_hash(key, 4, 2)) == int(same_a[2])
