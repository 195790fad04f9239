"""Accidental-authentication probability: Gaussian mass of per-element disks.

An unrelated transmitter authenticates only if its CSI lands inside every
per-element acceptance disk. For one disk centered at c with radius z, and
the impostor element X ~ CN(0, sigma2), each real component has variance
s^2 = sigma2/2, so |X - c|^2 / s^2 is non-central chi-squared with 2 degrees
of freedom and non-centrality |c|^2 / s^2. The disk mass is that CDF at
z^2 / s^2, i.e. 1 - Marcum Q_1(|c|/s, z/s), computed in closed form with
numpy alone. The MIMO probability is the product over all elements.

sigma2 always denotes the TOTAL complex variance; the bare sigma in the
paper's Q-function limits is the per-component standard deviation s, which
Monte Carlo confirms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import sample_csi
from .rng import RngStream

# log(0) stand-in for a zero Poisson mean; its effect is below double precision.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class DiskRegion:
    center_re: float
    center_im: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center_re) and math.isfinite(self.center_im)):
            raise ValueError("disk center must be finite")
        if not (self.radius >= 0.0):
            raise ValueError(f"radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean circular Gaussian; sigma2 is the total complex variance."""

    sigma2: float

    def __post_init__(self):
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")

    @property
    def component_std(self) -> float:
        return math.sqrt(self.sigma2 / 2.0)


def _disk_mass(nc, x) -> np.ndarray:
    """Disk masses ncx2.cdf(x, 2, nc), elementwise over broadcast arrays.

    nc = |c|^2 / s^2 and x = z^2 / s^2. With mu = nc/2 and y = x/2 the mass
    is P(N_y > N_mu) for independent Poisson counts: the Poisson(mu) mixture
    of the central chi-squared CDFs P(N_y > j). It is summed as
    sum_n P(N_y = n) P(N_mu < n), all terms non-negative, so the lower tail
    is taken directly and tiny masses keep their relative accuracy. Each
    Poisson's window, mean +- (10 sqrt(mean) + 40), leaves out less than
    e^-50 of its mass, and the Chernoff bounds exp(-(sqrt(y) - sqrt(mu))^2)
    on 1 - mass and exp(-(sqrt(mu) - sqrt(y))^2) on the mass settle the
    rest: a gap sqrt(y) - sqrt(mu) above 7 rounds to 1.0 and one below -28
    underflows to 0.0. So a disk sums O(sqrt(mu) + sqrt(y)) terms, and the
    loop runs over terms, never over disks. A disk's value does not depend
    on the other disks in the call.
    """
    nc, x = np.broadcast_arrays(np.asarray(nc, dtype=float), np.asarray(x, dtype=float))
    mu, y = 0.5 * nc, 0.5 * x
    gap = np.sqrt(y) - np.sqrt(mu)
    out = np.where(gap > 7.0, 1.0, 0.0)
    live = (y > 0.0) & (gap >= -28.0) & (gap <= 7.0)
    if not live.any():
        return out
    mu, y = mu[live], y[live]
    w_mu, w_y = 10.0 * np.sqrt(mu) + 40.0, 10.0 * np.sqrt(y) + 40.0
    lo = np.floor(np.maximum(np.minimum(mu - w_mu, y - w_y), 0.0)).astype(np.int64)
    hi = np.ceil(np.maximum(mu + w_mu, y + w_y)).astype(np.int64)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(int(hi.max()) + 1)])
    log_mu, log_y = np.log(np.maximum(mu, _TINY)), np.log(y)
    below = np.zeros_like(mu)  # P(N_mu < n) over the window
    mass = np.zeros_like(mu)
    for i in range(int((hi - lo).max()) + 1):
        n = np.minimum(lo + i, hi)
        log_n_fact = log_fact[n]
        term = np.exp(n * log_y - y - log_n_fact) * below
        mass += np.where(lo + i <= hi, term, 0.0)
        below += np.exp(n * log_mu - mu - log_n_fact)
    out[live] = np.minimum(mass, 1.0)
    return out


def disk_probability_exact(region: DiskRegion, g: GaussianSpec) -> float:
    """P((u, v) in disk) for u, v ~ N(0, sigma2/2), in closed form."""
    return auth_probability(complex(region.center_re, region.center_im), region.radius, g)


def auth_probability(centers: np.ndarray, radius: float, g: GaussianSpec) -> float:
    """Probability that an unrelated transmitter satisfies every element's disk."""
    centers = np.asarray(centers, dtype=np.complex128)
    if not np.isfinite(centers).all():
        raise ValueError("disk centers must be finite")
    if not (radius >= 0.0):
        raise ValueError(f"radius must be >= 0, got {radius}")
    s2 = g.sigma2 / 2.0
    nc = (centers.real**2 + centers.imag**2) / s2
    return float(np.prod(_disk_mass(nc, radius**2 / s2)))


@dataclass(frozen=True)
class SweepRow:
    n_rx: int
    m_tx: int
    multiplier: float
    probability: float


def sweep_auth_probability(
    antenna_configs: list[tuple[int, int]],
    multipliers: list[float],
    trials: int,
    rng: RngStream,
) -> list[SweepRow]:
    """Mean accidental-authentication probability per (config, multiplier).

    Reference CSI elements and the impostor coordinates share the CN(0, 1)
    distribution (each real component N(0, 0.5)), so lambda_ave = 0.5 and
    the threshold is z = multiplier * sqrt(0.5). One maximum-shape reference
    is drawn per trial and sliced per config (elements are i.i.d., so the
    marginals are unchanged); every (trial, multiplier, element) disk is
    evaluated once. With the multipliers sharing draws as well, the mean is
    exactly non-increasing as antennas are added (sub-products of factors
    <= 1) and non-decreasing in the multiplier (nested disks).
    """
    if not antenna_configs or not multipliers or trials < 1:
        raise ValueError("need non-empty configs/multipliers and trials >= 1")
    s2 = 0.5  # per-component variance of CN(0, 1)
    lam_ave = 0.5
    max_n = max(n for n, _ in antenna_configs)
    max_m = max(m for _, m in antenna_configs)
    refs = np.stack(
        [sample_csi(max_n, max_m, rng.substream("sweep-ref", max_n, max_m, t)) for t in range(trials)]
    )
    z = np.asarray(multipliers, dtype=float) * math.sqrt(lam_ave)
    nc = (refs.real**2 + refs.imag**2) / s2
    # factors[t, k, i, j]: the disk of element (i, j) of reference t at multiplier k
    factors = _disk_mass(nc[:, None], (z**2 / s2)[None, :, None, None])
    rows = []
    for n_rx, m_tx in antenna_configs:
        probs = np.prod(factors[:, :, :n_rx, :m_tx].reshape(trials, len(z), -1), axis=-1)
        for k, mult in enumerate(multipliers):
            rows.append(SweepRow(n_rx, m_tx, float(mult), float(np.mean(probs[:, k]))))
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_rx", "m_tx", "multiplier", "probability"])
        for r in rows:
            writer.writerow([r.n_rx, r.m_tx, format(r.multiplier, "g"), format(r.probability, ".17g")])
