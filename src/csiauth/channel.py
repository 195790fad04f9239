"""Complex CSI generation and receiver measurement noise.

A CSI matrix is an (n_rx, m_tx) complex128 ndarray. Each element is a
circularly symmetric complex Gaussian channel gain: real and imaginary
parts independent with variance 1/2 each, so per-element power is 1
(Rayleigh-distributed magnitude, NLOS multipath).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class NoiseModel:
    """Receiver measurement noise at a given SNR (unit-power channel elements)."""

    snr_db: float

    @property
    def sigma2(self) -> float:
        """Per-element complex noise variance, linear scale: 10^(-snr_db/10)."""
        return 10.0 ** (-self.snr_db / 10.0)


def sample_csi(n_rx: int, m_tx: int, rng: RngStream) -> np.ndarray:
    """Draw an (n_rx, m_tx) CSI matrix with i.i.d. CN(0, 1) elements."""
    if n_rx < 1 or m_tx < 1:
        raise ValueError(f"antenna counts must be >= 1, got {n_rx}x{m_tx}")
    g = rng.generator()
    re = g.standard_normal((n_rx, m_tx))
    im = g.standard_normal((n_rx, m_tx))
    return np.sqrt(0.5) * (re + 1j * im)


def measurement_batch(
    h: np.ndarray, noise: NoiseModel, count: int, rng: RngStream
) -> np.ndarray:
    """Draw `count` noisy measurements h + e, e i.i.d. CN(0, sigma2); shape (count, n_rx, m_tx)."""
    h = _as_csi(h)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    sigma2 = noise.sigma2
    g = rng.generator()
    scale = np.sqrt(sigma2 / 2.0)
    shape = (count,) + h.shape
    e = scale * (g.standard_normal(shape) + 1j * g.standard_normal(shape))
    return h[np.newaxis] + e


def flatten_csi(h: np.ndarray) -> np.ndarray:
    """Flatten to reals: row-major elements, (re, im) interleaved per element.

    The canonical feature layout shared by datasets, the discriminator
    input, and the one-class detectors. A (..., n_rx, m_tx) stack of
    matrices flattens to (..., 2 * n_rx * m_tx) rows.
    """
    h = np.array(h, dtype=np.complex128, order="C")  # a copy: the result views it
    if h.ndim < 2 or h.size == 0:
        raise ValueError(f"CSI must be (..., n_rx, m_tx) and non-empty, got shape {h.shape}")
    return h.view(np.float64).reshape(h.shape[:-2] + (-1,))


def unflatten_csi(x: np.ndarray, n_rx: int, m_tx: int) -> np.ndarray:
    """Inverse of flatten_csi."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * n_rx * m_tx,):
        raise ValueError(f"expected {2 * n_rx * m_tx} reals, got shape {x.shape}")
    return (x[0::2] + 1j * x[1::2]).reshape(n_rx, m_tx)


def _as_csi(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.size == 0:
        raise ValueError(f"CSI matrix must be 2-D and non-empty, got shape {h.shape}")
    if not (np.all(np.isfinite(h.real)) and np.all(np.isfinite(h.imag))):
        raise ValueError("CSI matrix contains non-finite elements")
    return h
