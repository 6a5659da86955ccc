"""Complex baseband fading channels.

Flat-fading model ``Y = H X + N``. The channel gain H combines a line-of-sight
phasor and a diffuse complex Gaussian component (Rician); the inter-satellite
variant keeps only the line-of-sight part. Noise is circularly-symmetric
complex Gaussian, variance split evenly between quadratures, added after
fading, i.i.d. per symbol. Block fading (one gain per frame) is the default;
per-symbol fading is available through :class:`ChannelConfig`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ChannelKind(str, enum.Enum):
    AWGN = "awgn"
    LEO_RICIAN = "leo_rician"
    LEO_RAYLEIGH = "leo_rayleigh"
    ISL = "isl"


@dataclass
class ChannelRealization:
    """One drawn channel state, applied to a whole frame under block fading."""

    gain: complex
    noise_variance: float
    kind: ChannelKind = ChannelKind.AWGN

    def __post_init__(self) -> None:
        self.kind = ChannelKind(self.kind)
        self.gain = complex(self.gain)
        if not self.noise_variance >= 0:  # also false for NaN
            raise ValueError(f"noise variance must be >= 0, got {self.noise_variance}")
        if self.kind is ChannelKind.AWGN and self.gain != 1.0 + 0.0j:
            raise ValueError("awgn realizations must have unit gain")


@dataclass
class ChannelConfig:
    """Static parameters from which realizations are drawn."""

    kind: ChannelKind = ChannelKind.AWGN
    rician_factor: float = 2.8
    zeta_linear: float = 1.0
    los_phase_rad: float = 0.0
    per_symbol_fading: bool = False

    def __post_init__(self) -> None:
        self.kind = ChannelKind(self.kind)
        if self.rician_factor < 0:
            raise ValueError(f"rician factor must be >= 0, got {self.rician_factor}")
        if self.zeta_linear <= 0:
            raise ValueError("large-scale gain must be positive")


def sample_rician_gain(
    rician_factor: float,
    zeta_linear: float,
    rng: np.random.Generator,
    los_phase_rad: float = 0.0,
) -> complex:
    """Draw one Rician gain.

    ``sqrt(R z / (R+1)) fbar + sqrt(z / (R+1)) ftilde`` with ``fbar`` the
    unit-modulus line-of-sight phasor and ``ftilde ~ CN(0, 1)``. R = 0
    degenerates to Rayleigh. E[|gain|^2] = z for every R >= 0.
    """
    if rician_factor < 0:
        raise ValueError(f"rician factor must be >= 0, got {rician_factor}")
    if zeta_linear <= 0:
        raise ValueError("large-scale gain must be positive")
    los = cmath_exp(los_phase_rad)
    diffuse = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
    r = rician_factor
    return (
        math.sqrt(r * zeta_linear / (r + 1.0)) * los
        + math.sqrt(zeta_linear / (r + 1.0)) * diffuse
    )


def sample_isl_gain(
    rician_factor: float, zeta_linear: float, los_phase_rad: float = 0.0
) -> complex:
    """Deterministic inter-satellite gain, line-of-sight term only.

    No diffuse component and no renormalization, so the gain carries just the
    R/(R+1) fraction of the large-scale power: |gain|^2 = z R/(R+1) < z for
    every finite R.
    """
    if rician_factor < 0:
        raise ValueError(f"rician factor must be >= 0, got {rician_factor}")
    if zeta_linear <= 0:
        raise ValueError("large-scale gain must be positive")
    r = rician_factor
    return math.sqrt(r * zeta_linear / (r + 1.0)) * cmath_exp(los_phase_rad)


def cmath_exp(phase_rad: float) -> complex:
    """Unit phasor e^{j phase}."""
    return complex(math.cos(phase_rad), math.sin(phase_rad))


def psnr_ratio(psnr_db: float) -> float:
    """Linear power ratio ``10^(psnr/10)`` of a PSNR in dB; +inf gives inf.

    NaN and minus infinity name no noise level, and a finite PSNR so far
    from 0 dB that its ratio underflows to 0 or overflows a float names
    none either; all three raise :class:`ValueError` naming the value.
    """
    if psnr_db == math.inf:
        return math.inf
    if math.isnan(psnr_db) or psnr_db == -math.inf:
        raise ValueError(f"PSNR must be finite or +inf dB, got {psnr_db}")
    try:
        ratio = 10.0 ** (float(psnr_db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"PSNR {psnr_db} dB is out of range: its power ratio does not fit a float"
        )
    return ratio


def noise_variance_from_psnr(psnr_db: float, signal_power: float = 1.0) -> float:
    """Total complex noise variance giving the requested peak-SNR in dB.

    ``sigma^2 = P / 10^(psnr/10)``; an infinite PSNR gives exactly zero.
    PSNR values that :func:`psnr_ratio` rejects raise :class:`ValueError`.
    """
    if signal_power <= 0:
        raise ValueError("signal power must be positive")
    return signal_power / psnr_ratio(psnr_db)


def sample_realization(
    cfg: ChannelConfig, noise_variance: float, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one channel state according to the configured kind."""
    if cfg.kind is ChannelKind.AWGN:
        gain = 1.0 + 0.0j
    elif cfg.kind is ChannelKind.LEO_RICIAN:
        gain = sample_rician_gain(
            cfg.rician_factor, cfg.zeta_linear, rng, cfg.los_phase_rad
        )
    elif cfg.kind is ChannelKind.LEO_RAYLEIGH:
        gain = sample_rician_gain(0.0, cfg.zeta_linear, rng, cfg.los_phase_rad)
    elif cfg.kind is ChannelKind.ISL:
        gain = sample_isl_gain(cfg.rician_factor, cfg.zeta_linear, cfg.los_phase_rad)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown channel kind {cfg.kind}")
    return ChannelRealization(gain=gain, noise_variance=noise_variance, kind=cfg.kind)


def sample_gain_sequence(
    cfg: ChannelConfig, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Independent per-symbol gains, for the per-symbol fading mode."""
    if cfg.kind is ChannelKind.AWGN:
        return np.ones(count, dtype=np.complex128)
    if cfg.kind is ChannelKind.ISL:
        return np.full(
            count,
            sample_isl_gain(cfg.rician_factor, cfg.zeta_linear, cfg.los_phase_rad),
            dtype=np.complex128,
        )
    r = 0.0 if cfg.kind is ChannelKind.LEO_RAYLEIGH else cfg.rician_factor
    los = cmath_exp(cfg.los_phase_rad)
    diffuse = (
        rng.standard_normal(count) + 1j * rng.standard_normal(count)
    ) / math.sqrt(2.0)
    return (
        math.sqrt(r * cfg.zeta_linear / (r + 1.0)) * los
        + math.sqrt(cfg.zeta_linear / (r + 1.0)) * diffuse
    )


def apply_channel(
    symbols: np.ndarray,
    realization: ChannelRealization,
    rng: np.random.Generator,
    gains: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate a symbol frame: ``Y = H X + N``.

    ``gains`` overrides the block gain with a per-symbol sequence (same
    length as the frame). Noise draws are i.i.d. per symbol with the
    realization's total variance, half per quadrature.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    h: np.ndarray | complex
    if gains is not None:
        gains = np.asarray(gains, dtype=np.complex128)
        if gains.shape != symbols.shape:
            raise ValueError("per-symbol gains must match the frame shape")
        h = gains
    else:
        h = realization.gain
    sigma2 = realization.noise_variance
    if sigma2 == 0.0:
        noise = 0.0
    else:
        scale = math.sqrt(sigma2 / 2.0)
        noise = scale * (
            rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape)
        )
    return h * symbols + noise
