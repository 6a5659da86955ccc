"""Fading statistics against closed forms, an independent sampler and the recorded bytes of every gain."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from semcom.channel import (
    apply_channel,
    noise_variance_from_psnr,
    sample_gain_sequence,
    sample_realization,
)
from semcom.config import ChannelConfig, ChannelKind, psnr_ratio
from semcom.seeding import spawn_rng


def oracle_rician_gain(rician_factor, zeta_linear, rng):
    """The former per-kind Rician sampler, at large-scale gain ``zeta_linear``."""
    diffuse = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
    r = rician_factor
    return math.sqrt(r * zeta_linear / (r + 1.0)) + math.sqrt(zeta_linear / (r + 1.0)) * diffuse


def oracle_isl_gain(rician_factor, zeta_linear):
    """The former inter-satellite sampler: the line-of-sight term alone."""
    r = rician_factor
    return complex(math.sqrt(r * zeta_linear / (r + 1.0)))


def oracle_realization(cfg, rng):
    """The former per-kind block-gain dispatch, at unit large-scale gain."""
    if cfg.kind is ChannelKind.AWGN:
        return 1.0 + 0.0j
    if cfg.kind is ChannelKind.ISL:
        return oracle_isl_gain(cfg.rician_factor, 1.0)
    r = 0.0 if cfg.kind is ChannelKind.LEO_RAYLEIGH else cfg.rician_factor
    return oracle_rician_gain(r, 1.0, rng)


def oracle_gain_sequence(cfg, count, rng):
    """The former per-kind per-symbol dispatch, with its own copy of the Rician formula."""
    if cfg.kind is ChannelKind.AWGN:
        return np.ones(count, dtype=np.complex128)
    if cfg.kind is ChannelKind.ISL:
        return np.full(count, oracle_isl_gain(cfg.rician_factor, 1.0), dtype=np.complex128)
    r = 0.0 if cfg.kind is ChannelKind.LEO_RAYLEIGH else cfg.rician_factor
    diffuse = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2.0)
    return math.sqrt(r / (r + 1.0)) + math.sqrt(1.0 / (r + 1.0)) * diffuse


def draw_gains(kind, rician, n, tag):
    cfg, rng = ChannelConfig(kind=kind, rician_factor=rician), spawn_rng(0, "chan", tag)
    return np.array([sample_realization(cfg, rng) for _ in range(n)])


class TestFadingRuleMatchesOracle:
    """Every gain, and every draw it takes from the stream, equals the per-kind formulas bit for bit."""

    @pytest.mark.parametrize("rician", [0.0, 1e-300, 0.5, 2.8, 10.0, 1e12, 1e300])
    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_block_and_sequence_gains(self, kind, rician):
        cfg = ChannelConfig(kind=kind, rician_factor=rician)
        for seed in range(25):
            got_rng, want_rng = spawn_rng(seed, "oracle"), spawn_rng(seed, "oracle")
            for count in (1, 37):
                got, want = sample_realization(cfg, got_rng), oracle_realization(cfg, want_rng)
                assert type(got) is complex
                assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
                got_seq = sample_gain_sequence(cfg, count, got_rng)
                want_seq = oracle_gain_sequence(cfg, count, want_rng)
                assert got_seq.dtype == np.complex128
                assert got_seq.tobytes() == want_seq.tobytes()
            assert got_rng.standard_normal(4).tobytes() == want_rng.standard_normal(4).tobytes()


# sha256 of each kind's block gain, five per-symbol gains and the stream's next
# two draws, over Rician factors from 0 to 1e300. The oracle above compares two
# computations on one machine; this pins their bytes on every machine.
GAIN_BYTES_SHA256 = "4e6e82fb8fd6e6993c460bcdca157d3049940a190033a85ba57c5be23dca1c89"


def test_gains_keep_their_recorded_bytes():
    """Every gain's bits and dtype, and the draws each takes from its stream."""
    digest = hashlib.sha256()
    for kind in ChannelKind:
        for rician in (0.0, 1e-300, 0.5, 2.8, 10.0, 1e12, 1e300):
            cfg, rng = ChannelConfig(kind=kind, rician_factor=rician), spawn_rng(0, "gains", kind.value, repr(rician))
            digest.update(np.complex128(sample_realization(cfg, rng)).tobytes())
            digest.update(sample_gain_sequence(cfg, 5, rng).tobytes())
            digest.update(rng.standard_normal(2).tobytes())
    assert digest.hexdigest() == GAIN_BYTES_SHA256


class TestRicianGain:
    @pytest.mark.parametrize("rician", [0.0, 2.8, 10.0])
    def test_mean_power_equals_large_scale_gain(self, rician):
        g = draw_gains(ChannelKind.LEO_RICIAN, rician, 60000, f"pw{rician}")
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_zero_factor_magnitude_is_rayleigh(self):
        """Two-sample KS against numpy's own Rayleigh generator."""
        ours = np.abs(draw_gains(ChannelKind.LEO_RAYLEIGH, 2.8, 20000, "ks"))
        reference = spawn_rng(1, "chan", "ks-ref").rayleigh(scale=math.sqrt(0.5), size=20000)
        assert stats.ks_2samp(ours, reference).pvalue > 0.01

    def test_large_factor_collapses_to_line_of_sight(self):
        cfg = ChannelConfig(kind=ChannelKind.LEO_RICIAN, rician_factor=1e12)
        g = sample_realization(cfg, spawn_rng(0, "chan", "los"))
        assert abs(g) == pytest.approx(1.0, rel=1e-4)


class TestIslGain:
    def test_deterministic_line_of_sight_power(self):
        r = 2.8
        cfg = ChannelConfig(kind=ChannelKind.ISL, rician_factor=r)
        rng = spawn_rng(0, "chan", "isl")
        g = sample_realization(cfg, rng)
        assert abs(g) ** 2 == pytest.approx(r / (r + 1.0), rel=1e-12)
        assert sample_realization(cfg, spawn_rng(99, "chan", "isl")) == g
        # The line of sight takes no draw from the stream.
        assert rng.standard_normal() == spawn_rng(0, "chan", "isl").standard_normal()

    def test_power_strictly_below_large_scale_budget(self):
        cfg = ChannelConfig(kind=ChannelKind.ISL, rician_factor=2.8)
        assert abs(sample_realization(cfg, spawn_rng(0, "chan", "isl"))) ** 2 < 1.0


class TestNoiseVariance:
    def test_reference_points(self):
        assert noise_variance_from_psnr(0.0) == 1.0
        assert noise_variance_from_psnr(10.0) == pytest.approx(0.1)
        assert noise_variance_from_psnr(math.inf) == 0.0

    @pytest.mark.parametrize("psnr_db", [math.nan, -math.inf])
    def test_nan_and_minus_infinity_rejected(self, psnr_db):
        with pytest.raises(ValueError, match=str(psnr_db)):
            noise_variance_from_psnr(psnr_db)

    @pytest.mark.parametrize(
        "psnr_db",
        [4000.0, -4000.0, 3090.0, -3300.0, pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")],
    )
    def test_out_of_range_finite_psnr_rejected(self, psnr_db):
        with pytest.raises(ValueError, match=str(psnr_db)):
            noise_variance_from_psnr(psnr_db)
        with pytest.raises(ValueError, match=str(psnr_db)):
            psnr_ratio(psnr_db)

    def test_extreme_finite_psnr_inside_the_float_range(self):
        assert 0.0 < noise_variance_from_psnr(3080.0) < 1e-307
        assert noise_variance_from_psnr(-3000.0) == pytest.approx(1e300)
        assert psnr_ratio(math.inf) == math.inf

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_apply_channel_rejects_negative_and_nan_noise_variance(self, bad):
        with pytest.raises(ValueError, match=f"noise variance must be >= 0, got {bad}"):
            apply_channel(np.ones(4, dtype=complex), 1.0, bad, spawn_rng(0, "nv"))


class TestRealizations:
    def test_awgn_gain_is_unity(self):
        cfg = ChannelConfig(kind=ChannelKind.AWGN)
        gain = sample_realization(cfg, spawn_rng(0, "re"))
        assert type(gain) is complex
        assert gain == 1.0 + 0.0j

    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_config_rejects_negative_nan_and_infinite_factor(self, kind, bad):
        with pytest.raises(ValueError, match=f"rician_factor must be >= 0 and finite, got {bad}"):
            ChannelConfig(kind=kind, rician_factor=bad)

    @pytest.mark.parametrize(
        "name,value", [("kind", ChannelKind.ISL), ("rician_factor", 0.0), ("per_symbol_fading", True)]
    )
    def test_config_is_frozen(self, name, value):
        cfg = ChannelConfig(kind="leo_rician")
        assert cfg.kind is ChannelKind.LEO_RICIAN
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)

    def test_rayleigh_kind_ignores_configured_factor(self):
        cfg_ray = ChannelConfig(kind=ChannelKind.LEO_RAYLEIGH, rician_factor=2.8)
        cfg_zero = ChannelConfig(kind=ChannelKind.LEO_RICIAN, rician_factor=0.0)
        g_ray = sample_realization(cfg_ray, spawn_rng(3, "re"))
        g_zero = sample_realization(cfg_zero, spawn_rng(3, "re"))
        assert g_ray == g_zero

    def test_isl_kind_is_deterministic(self):
        cfg = ChannelConfig(kind=ChannelKind.ISL, rician_factor=2.8)
        a = sample_realization(cfg, spawn_rng(0, "re"))
        b = sample_realization(cfg, spawn_rng(99, "re"))
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
        y = apply_channel(x, 0.5 - 0.25j, 0.0, spawn_rng(0, "ap"))
        np.testing.assert_allclose(y, (0.5 - 0.25j) * x)

    def test_noise_power_matches_variance(self):
        x = np.zeros(200000, dtype=np.complex128)
        y = apply_channel(x, 1.0, 0.7, spawn_rng(0, "np"))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.7, rel=0.02)
        assert np.mean(y.real**2) == pytest.approx(0.35, rel=0.03)

    def test_per_symbol_gains_scale_each_symbol(self):
        x = np.ones(4, dtype=np.complex128)
        gains = np.array([1.0, 2.0, 3.0, 4.0], dtype=np.complex128)
        y = apply_channel(x, gains, 0.0, spawn_rng(0, "g"))
        np.testing.assert_allclose(y, gains)

    def test_gain_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="per-symbol gains must match the frame shape"):
            apply_channel(np.ones(4, dtype=complex), np.ones(3), 0.0, spawn_rng(0, "g"))
