import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csiauth.channel import (
    NoiseModel,
    flatten_csi,
    measurement_batch,
    sample_csi,
    unflatten_csi,
)
from csiauth.rng import RngStream


def test_sample_csi_shapes():
    h = sample_csi(4, 4, RngStream(1))
    assert h.shape == (4, 4) and h.size == 16
    assert sample_csi(1, 1, RngStream(1)).shape == (1, 1)


@pytest.mark.parametrize("n,m", [(0, 4), (4, 0), (-1, 2)])
def test_sample_csi_rejects_bad_dims(n, m):
    with pytest.raises(ValueError):
        sample_csi(n, m, RngStream(1))


def test_sample_csi_unit_variance():
    # sample-variance oracle: per-element complex variance should be 1
    draws = sample_csi(100, 1000, RngStream(2))  # 1e5 elements
    var = np.var(draws.real) + np.var(draws.imag)
    assert abs(var - 1.0) < 0.02


def test_sample_csi_component_means_small():
    draws = sample_csi(100, 1000, RngStream(3))
    n = draws.size
    bound = 3.0 / np.sqrt(n)
    assert abs(np.mean(draws.real)) <= bound
    assert abs(np.mean(draws.imag)) <= bound


def test_elements_uncorrelated():
    # full element independence stands in for spatial decorrelation
    draws = np.array([sample_csi(2, 2, RngStream(4, i)).reshape(-1) for i in range(20000)])
    c = np.corrcoef(draws.real.T)
    off_diag = c[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off_diag)) <= 0.02


def test_noise_model_sigma2():
    assert NoiseModel(0.0).sigma2 == 1.0
    assert NoiseModel(10.0).sigma2 == pytest.approx(0.1)
    assert NoiseModel(float("inf")).sigma2 == 0.0


def test_zero_noise_limit_is_identity():
    h = sample_csi(4, 4, RngStream(5))
    out = measurement_batch(h, NoiseModel(float("inf")), 1, RngStream(6))
    assert out.shape == (1, 4, 4)
    np.testing.assert_array_equal(out[0], h)


@pytest.mark.parametrize("snr_db,expect,tol", [(0.0, 1.0, 0.05), (10.0, 0.1, 0.01)])
def test_measurement_error_variance(snr_db, expect, tol):
    h = sample_csi(4, 4, RngStream(7))
    errs = measurement_batch(h, NoiseModel(snr_db), 10_000, RngStream(8)) - h
    var = np.mean(np.abs(errs) ** 2)
    assert abs(var - expect) < tol


def test_measurement_error_unbiased():
    h = sample_csi(4, 4, RngStream(9))
    errs = measurement_batch(h, NoiseModel(0.0), 10_000, RngStream(10)) - h
    assert np.all(np.abs(errs.mean(axis=0)) <= 0.05)


def test_estimate_csi_variance_shrinks_as_one_over_s():
    # Monte Carlo check of the 1/s averaging law
    h = sample_csi(2, 2, RngStream(13))
    noise = NoiseModel(0.0)
    means = []
    for trial in range(400):
        batch = measurement_batch(h, noise, 100, RngStream(14, trial))
        means.append(batch.mean(axis=0))
    var_of_mean = np.mean(np.abs(np.stack(means) - h) ** 2)
    assert var_of_mean == pytest.approx(noise.sigma2 / 100, rel=0.25)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_flatten_round_trip(seed):
    h = sample_csi(4, 4, RngStream(seed))
    flat = flatten_csi(h)
    assert flat.shape == (32,)
    np.testing.assert_array_equal(unflatten_csi(flat, 4, 4), h)


def test_flatten_ordering_row_major_re_im():
    h = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    np.testing.assert_array_equal(flatten_csi(h), [1, 2, 3, 4, 5, 6, 7, 8])
    # a leading batch axis flattens each matrix into its own row
    stack = np.stack([h, -h, 2 * h])
    np.testing.assert_array_equal(flatten_csi(stack), [flatten_csi(m) for m in stack])
    assert flatten_csi(stack[np.newaxis]).shape == (1, 3, 8)


def test_same_stream_reproduces():
    a = sample_csi(4, 4, RngStream(99, 5))
    b = sample_csi(4, 4, RngStream(99, 5))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_csi(4, 4, RngStream(99, 6)))
