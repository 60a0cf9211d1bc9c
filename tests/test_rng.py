import numpy as np
from scipy import stats

from rabisim import rng


def test_deterministic_and_order_independent():
    a = rng.uniform(7, rng.STREAM_JUMP, np.arange(100), 0)
    b = rng.uniform(7, rng.STREAM_JUMP, np.arange(100), 0)
    assert np.array_equal(a, b)
    shuffled = rng.uniform(7, rng.STREAM_JUMP, np.arange(100)[::-1].copy(), 0)
    assert np.array_equal(a[::-1], shuffled)


def test_streams_and_seeds_differ():
    u1 = rng.uniform(7, rng.STREAM_JUMP, np.arange(1000), 0)
    u2 = rng.uniform(7, rng.STREAM_THIN, np.arange(1000), 0)
    u3 = rng.uniform(8, rng.STREAM_JUMP, np.arange(1000), 0)
    assert not np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)
    assert abs(np.corrcoef(u1, u2)[0, 1]) < 0.1


def test_uniforms_open_interval_and_ks():
    u = rng.uniform(123, 5, np.arange(100_000), 0)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_largest_hash_stays_below_one(monkeypatch):
    # ((2**53 - 1) + 0.5) * 2**-53 rounds to 1.0, whose normal is +inf.
    monkeypatch.setattr(rng, "_hash64",
                        lambda *args: np.full(3, 2 ** 64 - 1, dtype=np.uint64))
    u = rng.uniform(1, rng.STREAM_DURATION, np.arange(3), 0)
    assert np.all(u < 1.0) and np.all(u == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(rng.normal(1, rng.STREAM_DURATION,
                                         np.arange(3), 0)))


def test_normals_moments():
    z = rng.normal(5, rng.STREAM_JITTER, np.arange(200_000), 1)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.std(z) - 1.0) < 0.01
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_draw_index_advances_stream():
    a = rng.uniform(9, rng.STREAM_JUMP, 5, 0)
    b = rng.uniform(9, rng.STREAM_JUMP, 5, 1)
    assert a != b
