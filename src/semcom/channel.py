"""Complex baseband fading channels.

Flat-fading model ``Y = H X + N``. The channel gain H combines a zero-phase
line-of-sight term and a diffuse complex Gaussian component (Rician) at unit
large-scale gain, so the PSNR alone sets the noise; the inter-satellite
variant keeps only the line-of-sight part. Noise is circularly-symmetric
complex Gaussian, variance split evenly between quadratures, added after
fading, i.i.d. per symbol. Block fading (one gain per frame) is the default;
per-symbol fading is available through :class:`ChannelConfig`.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ChannelConfig, ChannelKind, psnr_ratio


def sample_rician_gain(
    rician_factor: float, zeta_linear: float, rng: np.random.Generator
) -> complex:
    """Draw one Rician gain.

    ``sqrt(R z / (R+1)) + sqrt(z / (R+1)) ftilde`` with a zero-phase
    line-of-sight term and ``ftilde ~ CN(0, 1)``. R = 0 degenerates to
    Rayleigh. E[|gain|^2] = z for every R >= 0.
    """
    if not rician_factor >= 0:  # also false for NaN
        raise ValueError(f"rician factor must be >= 0, got {rician_factor}")
    if not zeta_linear > 0:
        raise ValueError("large-scale gain must be positive")
    diffuse = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
    r = rician_factor
    return math.sqrt(r * zeta_linear / (r + 1.0)) + math.sqrt(zeta_linear / (r + 1.0)) * diffuse


def sample_isl_gain(rician_factor: float, zeta_linear: float) -> complex:
    """Deterministic inter-satellite gain, line-of-sight term only.

    No diffuse component and no renormalization, so the gain carries just the
    R/(R+1) fraction of the large-scale power: |gain|^2 = z R/(R+1) < z for
    every finite R.
    """
    if not rician_factor >= 0:  # also false for NaN
        raise ValueError(f"rician factor must be >= 0, got {rician_factor}")
    if not zeta_linear > 0:
        raise ValueError("large-scale gain must be positive")
    r = rician_factor
    return complex(math.sqrt(r * zeta_linear / (r + 1.0)))


def noise_variance_from_psnr(psnr_db: float) -> float:
    """Total complex noise variance giving the requested peak-SNR in dB.

    ``sigma^2 = 1 / 10^(psnr/10)`` at unit signal power; an infinite PSNR
    gives exactly zero. PSNR values that :func:`psnr_ratio` rejects raise
    :class:`ValueError`.
    """
    return 1.0 / psnr_ratio(psnr_db)


def sample_realization(cfg: ChannelConfig, rng: np.random.Generator) -> complex:
    """Draw one block gain according to the configured kind; AWGN gives exactly ``1+0j``."""
    if cfg.kind is ChannelKind.AWGN:
        return 1.0 + 0.0j
    if cfg.kind is ChannelKind.ISL:
        return sample_isl_gain(cfg.rician_factor, 1.0)
    r = 0.0 if cfg.kind is ChannelKind.LEO_RAYLEIGH else cfg.rician_factor
    return sample_rician_gain(r, 1.0, rng)


def sample_gain_sequence(
    cfg: ChannelConfig, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Independent per-symbol gains, for the per-symbol fading mode."""
    if cfg.kind is ChannelKind.AWGN:
        return np.ones(count, dtype=np.complex128)
    if cfg.kind is ChannelKind.ISL:
        return np.full(count, sample_isl_gain(cfg.rician_factor, 1.0), dtype=np.complex128)
    r = 0.0 if cfg.kind is ChannelKind.LEO_RAYLEIGH else cfg.rician_factor
    diffuse = (
        rng.standard_normal(count) + 1j * rng.standard_normal(count)
    ) / math.sqrt(2.0)
    return math.sqrt(r / (r + 1.0)) + math.sqrt(1.0 / (r + 1.0)) * diffuse


def apply_channel(
    symbols: np.ndarray,
    gain: complex | np.ndarray,
    noise_variance: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Propagate a symbol frame: ``Y = H X + N``.

    ``gain`` is one block gain or a per-symbol sequence of the frame's shape.
    Noise draws are i.i.d. per symbol with total variance ``noise_variance``,
    half per quadrature.
    """
    if not noise_variance >= 0:  # also false for NaN
        raise ValueError(f"noise variance must be >= 0, got {noise_variance}")
    symbols = np.asarray(symbols, dtype=np.complex128)
    if np.ndim(gain) and np.shape(gain) != symbols.shape:
        raise ValueError("per-symbol gains must match the frame shape")
    if noise_variance == 0.0:
        noise = 0.0
    else:
        scale = math.sqrt(noise_variance / 2.0)
        noise = scale * (
            rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape)
        )
    return gain * symbols + noise
