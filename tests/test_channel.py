"""Fading statistics against closed forms and an independent sampler."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from scipy import stats

from semcom.channel import (
    ChannelConfig,
    ChannelKind,
    ChannelRealization,
    apply_channel,
    cmath_exp,
    noise_variance_from_psnr,
    psnr_ratio,
    sample_gain_sequence,
    sample_isl_gain,
    sample_realization,
    sample_rician_gain,
)
from semcom.seeding import spawn_rng


def draw_gains(rician, zeta, n, tag):
    rng = spawn_rng(0, "chan", tag)
    return np.array([sample_rician_gain(rician, zeta, rng) for _ in range(n)])


class TestRicianGain:
    @pytest.mark.parametrize("rician", [0.0, 2.8, 10.0])
    @pytest.mark.parametrize("zeta", [1.0, 2.5])
    def test_mean_power_equals_large_scale_gain(self, rician, zeta):
        g = draw_gains(rician, zeta, 60000, f"pw{rician}{zeta}")
        assert np.mean(np.abs(g) ** 2) == pytest.approx(zeta, rel=0.02)

    def test_zero_factor_magnitude_is_rayleigh(self):
        """Two-sample KS against numpy's own Rayleigh generator."""
        zeta = 1.0
        ours = np.abs(draw_gains(0.0, zeta, 20000, "ks"))
        reference = spawn_rng(1, "chan", "ks-ref").rayleigh(
            scale=math.sqrt(zeta / 2.0), size=20000
        )
        assert stats.ks_2samp(ours, reference).pvalue > 0.01

    def test_large_factor_collapses_to_line_of_sight(self):
        g = sample_rician_gain(1e12, 4.0, spawn_rng(0, "chan", "los"), los_phase_rad=0.7)
        assert abs(g) == pytest.approx(2.0, rel=1e-4)
        assert cmath.phase(g) == pytest.approx(0.7, abs=1e-4)

    def test_invalid_parameters(self):
        rng = spawn_rng(0, "chan", "bad")
        with pytest.raises(ValueError):
            sample_rician_gain(-0.1, 1.0, rng)
        with pytest.raises(ValueError):
            sample_rician_gain(1.0, 0.0, rng)


class TestIslGain:
    def test_deterministic_line_of_sight_power(self):
        r, zeta = 2.8, 0.25
        g = sample_isl_gain(r, zeta, los_phase_rad=1.1)
        assert abs(g) ** 2 == pytest.approx(zeta * r / (r + 1.0), rel=1e-12)
        assert cmath.phase(g) == pytest.approx(1.1)
        assert sample_isl_gain(r, zeta, 1.1) == g

    def test_power_strictly_below_large_scale_budget(self):
        assert abs(sample_isl_gain(2.8, 1.0)) ** 2 < 1.0


class TestNoiseVariance:
    def test_reference_points(self):
        assert noise_variance_from_psnr(0.0) == 1.0
        assert noise_variance_from_psnr(10.0) == pytest.approx(0.1)
        assert noise_variance_from_psnr(3.0, signal_power=2.0) == pytest.approx(
            2.0 / 10 ** 0.3
        )
        assert noise_variance_from_psnr(math.inf) == 0.0

    def test_signal_power_must_be_positive(self):
        with pytest.raises(ValueError):
            noise_variance_from_psnr(0.0, signal_power=0.0)

    @pytest.mark.parametrize("psnr_db", [math.nan, -math.inf])
    def test_nan_and_minus_infinity_rejected(self, psnr_db):
        with pytest.raises(ValueError, match=str(psnr_db)):
            noise_variance_from_psnr(psnr_db)

    @pytest.mark.parametrize("psnr_db", [4000.0, -4000.0, 3090.0, -3300.0])
    def test_out_of_range_finite_psnr_rejected(self, psnr_db):
        with pytest.raises(ValueError, match=str(psnr_db)):
            noise_variance_from_psnr(psnr_db)
        with pytest.raises(ValueError, match=str(psnr_db)):
            psnr_ratio(psnr_db)

    def test_extreme_finite_psnr_inside_the_float_range(self):
        assert 0.0 < noise_variance_from_psnr(3080.0) < 1e-307
        assert noise_variance_from_psnr(-3000.0) == pytest.approx(1e300)
        assert psnr_ratio(math.inf) == math.inf

    def test_realization_rejects_nan_noise_variance(self):
        with pytest.raises(ValueError, match="nan"):
            ChannelRealization(gain=1.0, noise_variance=math.nan)


class TestRealizations:
    def test_awgn_gain_is_unity(self):
        cfg = ChannelConfig(kind=ChannelKind.AWGN)
        real = sample_realization(cfg, 0.3, spawn_rng(0, "re"))
        assert real.gain == 1.0 + 0.0j
        assert real.noise_variance == 0.3
        assert real.kind is ChannelKind.AWGN

    def test_rayleigh_kind_ignores_configured_factor(self):
        cfg_ray = ChannelConfig(kind=ChannelKind.LEO_RAYLEIGH, rician_factor=2.8)
        cfg_zero = ChannelConfig(kind=ChannelKind.LEO_RICIAN, rician_factor=0.0)
        g_ray = sample_realization(cfg_ray, 0.0, spawn_rng(3, "re")).gain
        g_zero = sample_realization(cfg_zero, 0.0, spawn_rng(3, "re")).gain
        assert g_ray == g_zero

    def test_isl_kind_is_deterministic(self):
        cfg = ChannelConfig(kind=ChannelKind.ISL, rician_factor=2.8, zeta_linear=0.5)
        a = sample_realization(cfg, 0.0, spawn_rng(0, "re")).gain
        b = sample_realization(cfg, 0.0, spawn_rng(99, "re")).gain
        assert a == b

    def test_gain_sequence_statistics_and_kinds(self):
        cfg = ChannelConfig(kind=ChannelKind.LEO_RICIAN, rician_factor=2.8)
        seq = sample_gain_sequence(cfg, 50000, spawn_rng(0, "seq"))
        assert seq.shape == (50000,)
        assert np.mean(np.abs(seq) ** 2) == pytest.approx(1.0, rel=0.02)
        awgn = sample_gain_sequence(ChannelConfig(kind=ChannelKind.AWGN), 5, spawn_rng(0, "s"))
        np.testing.assert_array_equal(awgn, np.ones(5))
        isl = sample_gain_sequence(
            ChannelConfig(kind=ChannelKind.ISL, rician_factor=2.8), 5, spawn_rng(0, "s")
        )
        assert np.unique(isl).size == 1


class TestApplyChannel:
    def test_noiseless_block_fading_scales_symbols(self):
        x = np.array([1 + 0j, 0 + 1j, -1 - 1j])
        real = ChannelRealization(
            gain=0.5 - 0.25j, noise_variance=0.0, kind=ChannelKind.LEO_RICIAN
        )
        y = apply_channel(x, real, spawn_rng(0, "ap"))
        np.testing.assert_allclose(y, (0.5 - 0.25j) * x)

    def test_noise_power_matches_variance(self):
        x = np.zeros(200000, dtype=np.complex128)
        real = ChannelRealization(gain=1.0, noise_variance=0.7)
        y = apply_channel(x, real, spawn_rng(0, "np"))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.7, rel=0.02)
        assert np.mean(y.real**2) == pytest.approx(0.35, rel=0.03)

    def test_per_symbol_gains_override_block_gain(self):
        x = np.ones(4, dtype=np.complex128)
        gains = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
        real = ChannelRealization(
            gain=99.0, noise_variance=0.0, kind=ChannelKind.LEO_RAYLEIGH
        )
        y = apply_channel(x, real, spawn_rng(0, "g"), gains=gains)
        np.testing.assert_allclose(y, gains)

    def test_gain_shape_mismatch_rejected(self):
        real = ChannelRealization(gain=1.0, noise_variance=0.0)
        with pytest.raises(ValueError):
            apply_channel(np.ones(4, dtype=complex), real, spawn_rng(0, "g"), gains=np.ones(3))


class TestPhaseRotation:
    def test_cmath_exp_agrees_with_euler(self):
        for phase in (0.0, 0.3, -2.0, math.pi):
            assert cmath_exp(phase) == pytest.approx(cmath.exp(1j * phase))
