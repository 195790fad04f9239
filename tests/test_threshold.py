import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csiauth.channel import NoiseModel, flatten_csi, measurement_batch, sample_csi
from csiauth.rng import RngStream
from csiauth.threshold import Threshold, accept_rows, false_accept_rate_sim


def element_passes(rows, ref, thr):
    """(n, n_elements) mask: the row form applied to one element's (re, im) columns."""
    pairs = [slice(2 * e, 2 * e + 2) for e in range(ref.size // 2)]
    return np.stack([accept_rows(rows[:, p], ref[p], thr) for p in pairs], axis=1)


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
def test_from_sigma2_lambda_ave_is_the_mean_eigenvalue_of_the_noise_covariance(snr_db):
    # lambda_ave is the average eigenvalue of an element's (real, imag) noise
    # covariance; for CN(0, sigma2) noise that is sigma2 / 2
    noise = NoiseModel(snr_db)
    h = sample_csi(4, 4, RngStream(1))
    e = measurement_batch(h, noise, 5000, RngStream(2)) - h
    cov = np.cov(np.stack([e.real.ravel(), e.imag.ravel()]))
    lam = Threshold.from_sigma2(5.0, noise.sigma2).lambda_ave
    assert np.linalg.eigvalsh(cov).mean() == pytest.approx(lam, rel=0.02)


def test_threshold_derivation():
    thr = Threshold(multiplier=5.0, lambda_ave=0.5)
    assert thr.z == pytest.approx(5.0 * np.sqrt(0.5))
    assert Threshold.from_sigma2(3.0, 1.0).lambda_ave == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Threshold(-1.0, 0.5)
    with pytest.raises(ValueError):
        Threshold(1.0, 0.0)


@pytest.mark.parametrize(
    "multiplier,lam,name",
    [(float("nan"), 0.5, "multiplier"), (1.0, float("nan"), "lambda_ave"),
     (-0.0 - 1e-300, 0.5, "multiplier"), (1.0, -0.0, "lambda_ave")],
)
def test_threshold_rejects_nan_and_out_of_range(multiplier, lam, name):
    # `x < 0` and `x <= 0` are both false for NaN
    with pytest.raises(ValueError, match=name):
        Threshold(multiplier, lam)
    assert Threshold(0.0, 5e-324).z == 0.0


def test_decide_accepts_equal_matrices():
    h = sample_csi(4, 4, RngStream(0))
    mask = accept_rows(flatten_csi(h[np.newaxis]), flatten_csi(h), Threshold(1e-9, 1.0))
    assert mask.dtype == bool and mask.tolist() == [True]


def test_decide_rejects_single_displaced_element():
    h = sample_csi(4, 4, RngStream(1))
    thr = Threshold(2.0, 0.25)  # z = 1
    ref = flatten_csi(h)
    # row 0 is the reference; row 1 + c moves only column c (one element's re or im) by 2z
    rows = np.vstack([ref, ref + 2 * thr.z * np.eye(ref.size)])
    assert accept_rows(rows, ref, thr).tolist() == [True] + [False] * ref.size
    failing = ~element_passes(rows, ref, thr)
    assert not failing[0].any()
    np.testing.assert_array_equal(np.nonzero(failing[1:])[1], np.arange(ref.size) // 2)


def test_decide_fig2_style_scenario():
    # one sample lands outside its per-element disk at z = 5*sqrt(lambda_ave)
    sigma2 = 0.1
    thr = Threshold.from_sigma2(5.0, sigma2)
    h = sample_csi(2, 2, RngStream(2))
    inside = h + thr.z * 0.9
    outside = h.copy()
    outside[0, 0] += thr.z * 1.5
    rows = flatten_csi(np.stack([h, inside, outside]))
    assert accept_rows(rows, flatten_csi(h), thr).tolist() == [True, True, False]
    assert element_passes(rows, flatten_csi(h), thr)[2].tolist() == [False, True, True, True]


def test_decide_shape_mismatch():
    thr = Threshold(1.0, 1.0)
    with pytest.raises(ValueError):
        accept_rows(np.ones((3, 8)), np.ones(12), thr)
    with pytest.raises(ValueError):
        accept_rows(np.ones(8), np.ones(8), thr)  # one row must be passed as (1, 8)


def test_decide_boundary_is_inclusive_to_the_ulp():
    thr = Threshold(2.5, 0.25)  # z = 1.25, and z^2 = 0.75^2 + 1^2 exactly
    ref = flatten_csi(np.full((2, 2), 0.5 - 0.25j))
    at_z = ref + np.tile([0.75, 1.0], 4)
    beyond = at_z.copy()
    beyond[5] = ref[5] + np.nextafter(1.0, 2.0)  # element 2 one ulp outside
    np.testing.assert_array_equal(at_z - ref, np.tile([0.75, 1.0], 4))
    rows = np.vstack([at_z, 2 * ref - at_z, beyond])
    assert accept_rows(rows, ref, thr).tolist() == [True, True, False]


@given(seed=st.integers(0, 2**32 - 1), m1=st.floats(0.1, 3.0), m2=st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_decide_monotone_in_threshold(seed, m1, m2):
    lo, hi = sorted([m1, m2])
    h = sample_csi(3, 3, RngStream(seed))
    noisy = h + 0.3 * np.stack([sample_csi(3, 3, RngStream(seed, i)) for i in range(1, 21)])
    rows, ref = flatten_csi(noisy), flatten_csi(h)
    lo_mask = accept_rows(rows, ref, Threshold(lo, 0.5))
    assert accept_rows(rows, ref, Threshold(hi + 1e-9, 0.5))[lo_mask].all()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_decide_permutation_equivariant(seed):
    h = sample_csi(2, 3, RngStream(seed))
    noisy = h + 0.5 * np.stack([sample_csi(2, 3, RngStream(seed, i)) for i in range(1, 11)])
    rows, ref = flatten_csi(noisy), flatten_csi(h)
    thr = Threshold(1.0, 0.25)
    perm = RngStream(seed, 0).generator().permutation(6)
    cols = np.stack([2 * perm, 2 * perm + 1], axis=1).ravel()  # keep (re, im) pairs together
    np.testing.assert_array_equal(accept_rows(rows[:, cols], ref[cols], thr), accept_rows(rows, ref, thr))
    np.testing.assert_array_equal(
        element_passes(rows[:, cols], ref[cols], thr), element_passes(rows, ref, thr)[:, perm]
    )


@given(seed=st.integers(0, 2**32 - 1), phase=st.floats(0, 2 * np.pi))
@settings(max_examples=30, deadline=None)
def test_decide_depends_only_on_distance(seed, phase):
    # rotating each per-element difference in the complex plane changes nothing
    h = sample_csi(2, 2, RngStream(seed))
    diff = 0.4 * np.stack([sample_csi(2, 2, RngStream(seed, i)) for i in range(1, 11)])
    ref = flatten_csi(h)
    thr = Threshold(1.2, 0.25)
    a = flatten_csi(h + diff)
    b = flatten_csi(h + diff * np.exp(1j * phase))
    np.testing.assert_array_equal(accept_rows(a, ref, thr), accept_rows(b, ref, thr))
    np.testing.assert_array_equal(element_passes(a, ref, thr), element_passes(b, ref, thr))


def test_false_accept_rate_limits():
    h = sample_csi(4, 4, RngStream(3))
    assert false_accept_rate_sim(h, Threshold(1e6, 1.0), 500, RngStream(4)) == 1.0
    assert false_accept_rate_sim(h, Threshold(0.0, 1.0), 500, RngStream(5)) == 0.0


def test_legit_acceptance_monotone_over_multiplier_grid():
    sigma2 = 1.0
    h = sample_csi(4, 4, RngStream(6))
    noisy = h + np.sqrt(sigma2 / 2) * (
        RngStream(7).generator().standard_normal((200, 4, 4))
        + 1j * RngStream(8).generator().standard_normal((200, 4, 4))
    )
    rows, ref = flatten_csi(noisy), flatten_csi(h)
    rates = []
    for mult in (1.0, 3.0, 5.0, 6.0):
        thr = Threshold.from_sigma2(mult, sigma2)
        rates.append(np.mean(accept_rows(rows, ref, thr)))
    assert all(a <= b for a, b in zip(rates, rates[1:]))
