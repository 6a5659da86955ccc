"""Complex baseband fading channels.

Flat-fading model ``Y = H X + N``. Every gain H is one rule, a zero-phase
line-of-sight amplitude plus a diffuse amplitude times ``CN(0, 1)``, at unit
large-scale gain, so the PSNR alone sets the noise. Noise is
circularly-symmetric complex Gaussian, variance split evenly between
quadratures, added after fading, i.i.d. per symbol. Block fading (one gain
per frame) is the default; per-symbol fading is available through
:class:`ChannelConfig`.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ChannelConfig, ChannelKind, psnr_ratio


def _amplitudes(cfg: ChannelConfig) -> tuple[float, float]:
    """Line-of-sight and diffuse amplitude of the configured kind's gain.

    Rician factor R gives ``sqrt(R/(R+1))`` and ``sqrt(1/(R+1))``, so
    E[|gain|^2] = 1; Rayleigh takes R = 0. The inter-satellite link keeps the
    line of sight alone, not renormalized: |gain|^2 = R/(R+1) < 1. AWGN is
    ``(1, 0)``. A finite R keeps the diffuse term of a fading kind nonzero.
    """
    if cfg.kind is ChannelKind.AWGN:
        return 1.0, 0.0
    r = 0.0 if cfg.kind is ChannelKind.LEO_RAYLEIGH else cfg.rician_factor
    diffuse = 0.0 if cfg.kind is ChannelKind.ISL else math.sqrt(1.0 / (r + 1.0))
    return math.sqrt(r / (r + 1.0)), diffuse


def noise_variance_from_psnr(psnr_db: float) -> float:
    """Total complex noise variance giving the requested peak-SNR in dB.

    ``sigma^2 = 1 / 10^(psnr/10)`` at unit signal power; an infinite PSNR
    gives exactly zero. PSNR values that :func:`psnr_ratio` rejects raise
    :class:`ValueError`.
    """
    return 1.0 / psnr_ratio(psnr_db)


def sample_realization(cfg: ChannelConfig, rng: np.random.Generator) -> complex:
    """Draw one block gain ``los + diffuse * CN(0, 1)``.

    A kind without a diffuse term draws nothing: AWGN gives exactly ``1+0j``
    and the inter-satellite link its fixed line of sight.
    """
    los, diffuse = _amplitudes(cfg)
    if not diffuse:
        return complex(los)
    return los + diffuse * (complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0))


def sample_gain_sequence(
    cfg: ChannelConfig, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Independent per-symbol gains of :func:`sample_realization`'s law, for per-symbol fading."""
    los, diffuse = _amplitudes(cfg)
    if not diffuse:
        return np.full(count, los, dtype=np.complex128)
    draws = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2.0)
    return los + diffuse * draws


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
