import math

import numpy as np
import pytest
from oracles import paper_disk_probability
from scipy.stats import ncx2

from csiauth.analytic import (
    DiskRegion,
    GaussianSpec,
    _disk_mass,
    auth_probability,
    disk_probability_exact,
    sweep_auth_probability,
)
from csiauth.channel import sample_csi
from csiauth.cli import ANALYTIC_CONFIGS, ANALYTIC_MULTIPLIERS
from csiauth.rng import RngStream
from csiauth.threshold import Threshold, false_accept_rate_sim


def rayleigh_disk(radius, sigma2):
    # origin-centered closed form: P(|u+jv| <= z) = 1 - exp(-z^2/sigma^2)
    return 1.0 - math.exp(-(radius**2) / sigma2)


def mc_disk(region, g, n, seed):
    gen = RngStream(seed).generator()
    s = g.component_std
    u = gen.normal(0.0, s, n)
    v = gen.normal(0.0, s, n)
    inside = (u - region.center_re) ** 2 + (v - region.center_im) ** 2 <= region.radius**2
    return inside.mean()


# ---------------------------------------------------------------------------
# Disk probability

def test_disk_zero_radius_and_whole_plane():
    g = GaussianSpec(1.0)
    assert disk_probability_exact(DiskRegion(0.3, -0.2, 0.0), g) == 0.0
    assert disk_probability_exact(DiskRegion(0.0, 0.0, 1e6), g) == 1.0


@pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
def test_disk_matches_rayleigh_closed_form(sigma2):
    g = GaussianSpec(sigma2)
    for mult in (0.5, 1.0, 2.0):
        z = mult * math.sqrt(sigma2)
        p = disk_probability_exact(DiskRegion(0.0, 0.0, z), g)
        assert p == pytest.approx(rayleigh_disk(z, sigma2), abs=1e-6)


def test_disk_at_sigma_value():
    p = disk_probability_exact(DiskRegion(0.0, 0.0, 1.0), GaussianSpec(1.0))
    assert p == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)
    assert p == pytest.approx(mc_disk(DiskRegion(0, 0, 1.0), GaussianSpec(1.0), 10**6, 11), abs=2e-3)


def test_disk_against_scipy_iterated_integral():
    region, g = DiskRegion(0.4, -0.7, 1.3), GaussianSpec(0.8)
    oracle = paper_disk_probability(region, g.component_std)
    assert disk_probability_exact(region, g) == pytest.approx(oracle, abs=1e-10)


def test_disk_against_monte_carlo_grid():
    gen = RngStream(12).generator()
    for trial in range(6):
        sigma2 = float(gen.uniform(0.25, 2.0))
        s = math.sqrt(sigma2 / 2)
        region = DiskRegion(
            float(gen.uniform(-2 * s, 2 * s)),
            float(gen.uniform(-2 * s, 2 * s)),
            float(gen.uniform(0.5 * s, 4 * s)),
        )
        p = disk_probability_exact(region, GaussianSpec(sigma2))
        n = 10**6
        p_hat = mc_disk(region, GaussianSpec(sigma2), n, 100 + trial)
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(p - p_hat) <= 3 * se + 1e-9


def test_paper_form_matches_exact_with_per_component_reading():
    g = GaussianSpec(1.0)
    for region in (DiskRegion(0.0, 0.0, 1.0), DiskRegion(0.5, 0.3, 0.9)):
        assert paper_disk_probability(region, g.component_std) == pytest.approx(
            disk_probability_exact(region, g), abs=1e-10
        )
    assert paper_disk_probability(DiskRegion(0.1, 0.1, 0.0), g.component_std) == 0.0


def test_sigma_reading_arbitrated_by_monte_carlo():
    # the total-variance reading of the printed limits overestimates spread
    region, g = DiskRegion(0.3, -0.4, 1.1), GaussianSpec(1.0)
    p_mc = mc_disk(region, g, 10**6, 13)
    p_per_comp = paper_disk_probability(region, g.component_std)
    p_total = paper_disk_probability(region, math.sqrt(g.sigma2))
    assert abs(p_per_comp - p_mc) < 0.005
    assert abs(p_total - p_mc) > 0.02


def test_disk_matches_ncx2_on_reference_disk():
    # element of the seed-600 sweep reference: mass 1 - 8.6e-8 at multiplier 6
    c = complex(-0.1033710128680276, -0.3709416221767233)
    p = disk_probability_exact(DiskRegion(c.real, c.imag, 6.0 * math.sqrt(0.5)), GaussianSpec(1.0))
    assert p == pytest.approx(ncx2.cdf(36.0, 2, 2.0 * abs(c) ** 2), rel=0, abs=1e-13)


@pytest.mark.parametrize("sigma2", [0.25, 1.0, 4.0])
def test_disk_mass_matches_ncx2_grid(sigma2):
    # |X - c|^2 / s^2 is ncx2(2 dof, |c|^2 / s^2) with s^2 = sigma2/2
    s2 = sigma2 / 2.0
    s = math.sqrt(s2)
    mag, z = np.meshgrid(np.linspace(0.0, 10.0 * s, 41), np.geomspace(1e-4 * s, 12.0 * s, 40))
    phase = RngStream(22).generator().uniform(0.0, 2.0 * math.pi, mag.shape)
    centers = mag * np.exp(1j * phase)
    nc = (centers.real**2 + centers.imag**2) / s2
    p = _disk_mass(nc, z**2 / s2)
    ref = ncx2.cdf(z**2 / s2, 2, nc)
    assert ref.min() < 1e-25  # the grid reaches deep into the lower tail
    np.testing.assert_allclose(p, ref, rtol=0, atol=1e-13)
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=0)
    g = GaussianSpec(sigma2)
    for i, j in ((0, 0), (5, 40), (20, 13), (39, 7)):
        c = complex(centers[i, j])
        assert disk_probability_exact(DiskRegion(c.real, c.imag, z[i, j]), g) == p[i, j]
        assert disk_probability_exact(DiskRegion(c.real, c.imag, 0.0), g) == 0.0


def test_tiny_disk_mass_keeps_relative_accuracy():
    # |c|^2 = 16 at multiplier 0.05: one factor of about 1.42e-10
    g = GaussianSpec(1.0)
    z = 0.05 * math.sqrt(0.5)
    p = disk_probability_exact(DiskRegion(4.0, 0.0, z), g)
    assert p == pytest.approx(ncx2.cdf(z**2 / 0.5, 2, 32.0), rel=1e-12)
    assert 1.41e-10 < p < 1.43e-10
    h = np.full((8, 8), 4.0 + 0j)
    assert auth_probability(h, z, g) == pytest.approx(p**64, rel=1e-12)


def test_bad_inputs():
    with pytest.raises(ValueError):
        DiskRegion(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianSpec(0.0)


@pytest.mark.parametrize(
    "center, radius",
    [(complex(math.nan, 0.0), 1.0), (complex(0.0, math.inf), 1.0), (0.5j, -1.0), (0.5j, math.nan)],
    ids=["nan-center", "inf-center", "negative-radius", "nan-radius"],
)
def test_auth_probability_rejects_bad_inputs(center, radius):
    centers = np.array([[0.1 + 0.2j, center]])
    with pytest.raises(ValueError):
        auth_probability(centers, radius, GaussianSpec(1.0))


# ---------------------------------------------------------------------------
# MIMO product

def test_auth_probability_single_factor():
    g = GaussianSpec(1.0)
    h = sample_csi(1, 1, RngStream(14))
    direct = disk_probability_exact(DiskRegion(h[0, 0].real, h[0, 0].imag, 0.9), g)
    assert auth_probability(h, 0.9, g) == pytest.approx(direct, abs=1e-12)


def test_auth_probability_bounded_by_min_factor():
    g = GaussianSpec(1.0)
    h = sample_csi(3, 3, RngStream(15))
    factors = [
        disk_probability_exact(DiskRegion(c.real, c.imag, 1.2), g) for c in h.reshape(-1)
    ]
    assert auth_probability(h, 1.2, g) <= min(factors) + 1e-12


def test_auth_probability_permutation_invariant():
    g = GaussianSpec(1.0)
    h = sample_csi(2, 2, RngStream(16))
    perm = h.reshape(-1)[[2, 0, 3, 1]].reshape(2, 2)
    assert auth_probability(h, 1.0, g) == pytest.approx(auth_probability(perm, 1.0, g), rel=1e-9)


def test_auth_probability_against_impostor_simulation():
    h = sample_csi(4, 4, RngStream(17))
    thr = Threshold.from_sigma2(5.0, 1.0)
    p = auth_probability(h, thr.z, GaussianSpec(1.0))
    n = 40_000
    p_hat = false_accept_rate_sim(h, thr, n, RngStream(18))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p - p_hat) <= 3 * se


# ---------------------------------------------------------------------------
# Sweep

def test_sweep_monotonicity():
    rows = sweep_auth_probability([(1, 1), (2, 2), (4, 4)], [1.0, 3.0, 5.0], trials=6, rng=RngStream(19))
    table = {(r.n_rx, r.m_tx, r.multiplier): r.probability for r in rows}
    for mult in (1.0, 3.0, 5.0):
        assert table[(1, 1, mult)] > table[(2, 2, mult)] > table[(4, 4, mult)]
    for cfg in ((1, 1), (2, 2), (4, 4)):
        assert table[cfg + (1.0,)] < table[cfg + (3.0,)] < table[cfg + (5.0,)]


def test_sweep_1x1_equals_direct_disk():
    rng = RngStream(20)
    rows = sweep_auth_probability([(1, 1), (2, 2)], [2.0], trials=5, rng=rng)
    g = GaussianSpec(1.0)
    z = 2.0 * math.sqrt(0.5)
    direct = np.mean(
        [
            disk_probability_exact(
                DiskRegion(h[0, 0].real, h[0, 0].imag, z), g
            )
            for h in (
                sample_csi(2, 2, rng.substream("sweep-ref", 2, 2, t)) for t in range(5)
            )
        ]
    )
    assert rows[0].probability == pytest.approx(float(direct), abs=1e-12)


def test_sweep_equals_scalar_products_and_ncx2():
    # seed 600 includes the disk of test_disk_matches_ncx2_on_reference_disk
    rng = RngStream(600).substream("analytic")
    rows = sweep_auth_probability(list(ANALYTIC_CONFIGS), list(ANALYTIC_MULTIPLIERS), 2, rng)
    assert len(rows) == len(ANALYTIC_CONFIGS) * len(ANALYTIC_MULTIPLIERS)
    refs = [sample_csi(8, 8, rng.substream("sweep-ref", 8, 8, t)) for t in range(2)]
    g = GaussianSpec(1.0)
    for r in rows:
        subs = [h[: r.n_rx, : r.m_tx] for h in refs]
        z = r.multiplier * math.sqrt(0.5)
        assert r.probability == float(np.mean([auth_probability(h, z, g) for h in subs]))
        exact = np.mean([np.prod(ncx2.cdf(r.multiplier**2, 2, 2.0 * np.abs(h) ** 2)) for h in subs])
        assert r.probability == pytest.approx(exact, rel=1e-12, abs=0), r


def test_sweep_rejects_empty():
    with pytest.raises(ValueError):
        sweep_auth_probability([], [1.0], 5, RngStream(21))
