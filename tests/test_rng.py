import numpy as np
import pytest

from advzoom.rng import (
    _mix,
    counter_hash,
    fnv1a64,
    round_keys,
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


def test_python_int_counters_outside_64_bits_raise():
    # numpy integers wrap modulo 2**64; Python ints must fit in [0, 2**64)
    key = stream_key(0, "edge")
    with pytest.raises(OverflowError,
                       match="Python integer -1 out of bounds for uint64"):
        uniform(key, -1)
    for bad in (-1, 2**64):
        for a, b in ((bad, 0), (0, bad)):
            with pytest.raises(OverflowError):
                uniform(key, a, b)
    assert uniform(key, np.int64(-1)) == uniform(key, 2**64 - 1)
    assert uniform(key, 3, np.int64(-2)) == uniform(key, 3, 2**64 - 2)


def test_uniform_on_a_key_array_with_scalar_counters():
    # scalar counters with an array of keys broadcast over the keys
    keys = np.array([stream_key(s, "keys") for s in range(6)], dtype=np.uint64)
    for b in (0, 7):
        got = uniform(keys, 5, b)
        want = [uniform(k, 5, b) for k in keys]
        wide = uniform(keys, np.full(len(keys), 5), np.full(len(keys), b))
        assert got.tobytes() == np.array(want).tobytes() == wide.tobytes()
    assert uniform(keys, 5).tobytes() == uniform(keys, 5, 0).tobytes()


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


def test_round_keys_are_the_counter_hash_first_stage():
    keys = np.array([stream_key(s, "env.noise") for s in (0, 7, 11)])
    ts = np.array([-3, 0, 1, 255, 256, 2**40], dtype=np.int64)
    rows = round_keys(keys[:, None], ts)  # a key array broadcasts on ts
    for key, row in zip(keys, rows):
        assert row.tolist() == round_keys(key, ts).tolist()
        want = [_mix(int(key) ^ _mix(int(t) % 2**64)) for t in ts]
        assert row.tolist() == want
        assert counter_hash(key, ts, 5).tolist() == \
            [_mix(r ^ _mix(5)) for r in want]


def test_splitmix64_leaves_its_input_unchanged():
    x = np.arange(100, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
    before = x.copy()
    y = splitmix64(x)
    assert np.array_equal(x, before) and not np.shares_memory(x, y)
    # into given buffers: x is copied into out, then mixed there
    out, scratch = np.empty_like(x), np.empty_like(x)
    assert splitmix64(x, out=out, scratch=scratch) is out
    assert np.array_equal(x, before) and np.array_equal(out, y)
    # in place only when x itself is out
    assert splitmix64(x, out=x) is x and np.array_equal(x, y)
