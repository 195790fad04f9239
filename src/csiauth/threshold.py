"""Per-element distance hypothesis test: the non-learned baseline authenticator.

A transmitter is authenticated when every measured CSI element lies within
Euclidean distance z of the enrolled element; a single element outside its
disk denies authentication. The threshold scale derives from the average
eigenvalue of the 2x2 real covariance of one element's measurement error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _as_csi, flatten_csi
from .rng import RngStream


@dataclass(frozen=True)
class Threshold:
    """z = multiplier * sqrt(lambda_ave)."""

    multiplier: float
    lambda_ave: float

    def __post_init__(self):
        if not self.multiplier >= 0:
            raise ValueError(f"multiplier must be >= 0, got {self.multiplier}")
        if not self.lambda_ave > 0:
            raise ValueError(f"lambda_ave must be > 0, got {self.lambda_ave}")

    @property
    def z(self) -> float:
        return self.multiplier * np.sqrt(self.lambda_ave)

    @classmethod
    def from_sigma2(cls, multiplier: float, sigma2: float) -> "Threshold":
        """Threshold for isotropic complex noise of total variance sigma2.

        Each real component has variance sigma2/2, so lambda_ave = sigma2/2.
        A test sample is a single measurement; no 1/s averaging applies.
        """
        return cls(multiplier, sigma2 / 2.0)


def max_sq_distance(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The test's statistic (n,) of feature rows (n, 2 * n_rx * m_tx): each
    row's largest squared distance of an element to its element of `ref`."""
    if rows.shape[1:] != ref.shape:
        raise ValueError(f"rows of shape {rows.shape} do not match reference shape {ref.shape}")
    delta = rows - ref
    return np.max(delta[:, 0::2] ** 2 + delta[:, 1::2] ** 2, axis=1)


def accept_rows(rows: np.ndarray, ref: np.ndarray, threshold: Threshold) -> np.ndarray:
    """Accept mask (n,): a row passes iff every element is within z of `ref`'s."""
    return max_sq_distance(rows, ref) <= threshold.z**2


def false_accept_rate_sim(
    h_ref: np.ndarray, threshold: Threshold, n_trials: int, rng: RngStream
) -> float:
    """Monte Carlo fraction of unrelated CN(0,1) transmitters that authenticate."""
    h_ref = _as_csi(h_ref)
    ref = flatten_csi(h_ref)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    g = rng.generator()
    accepted = 0
    # Chunked so very large trial counts stay memory-bounded.
    remaining = n_trials
    while remaining > 0:
        chunk = min(remaining, 1 << 16)
        shape = (chunk,) + h_ref.shape
        imp = np.sqrt(0.5) * (g.standard_normal(shape) + 1j * g.standard_normal(shape))
        accepted += int(np.count_nonzero(accept_rows(flatten_csi(imp), ref, threshold)))
        remaining -= chunk
    return accepted / n_trials
