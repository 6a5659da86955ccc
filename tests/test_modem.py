"""Constellations, bit packing, and hard decisions against closed forms."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom import modem
from semcom.channel import apply_channel, noise_variance_from_psnr
from semcom.modem import (
    DEMOD_BLOCK_DISTANCES,
    Constellation,
    DeepFadeError,
    _block_rows,
    bits_to_ints,
    build_apsk16,
    build_constellation,
    build_psk,
    demodulate_hard,
    fits_in_bits,
    ints_to_bits,
    modulate,
)
from semcom.seeding import spawn_rng


def ser_q_function(es_n0_db: float) -> float:
    """2 Q(sqrt(2 Es/N0) sin(pi/16)), the 16PSK high-SNR approximation."""
    es_n0 = 10 ** (es_n0_db / 10)
    arg = math.sqrt(2 * es_n0) * math.sin(math.pi / 16)
    return math.erfc(arg / math.sqrt(2))


class TestConstellations:
    @pytest.mark.parametrize("name", ["16psk", "16apsk", "4psk", "8psk"])
    def test_unit_mean_energy(self, name):
        c = build_constellation(name)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_psk_gray_labels_differ_by_one_bit_between_neighbors(self):
        c = build_psk(16)
        for i in range(16):
            a, b = int(c.labels[i]), int(c.labels[(i + 1) % 16])
            assert bin(a ^ b).count("1") == 1

    def test_label_to_index_inverts_labels(self):
        c = build_apsk16()
        for i in range(16):
            assert c.label_to_index[int(c.labels[i])] == i

    def test_apsk_ring_structure(self):
        c = build_apsk16(ring_ratio=2.57)
        mags = np.abs(c.points)
        inner, outer = mags.min(), mags.max()
        assert outer / inner == pytest.approx(2.57, rel=1e-12)
        assert int(np.sum(np.isclose(mags, inner))) == 4
        assert int(np.sum(np.isclose(mags, outer))) == 12

    def test_psk_order_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            build_psk(6)
        with pytest.raises(ValueError):
            build_psk(1)

    def test_more_points_than_the_tables_hold_are_refused(self):
        m = 2**17
        points = np.exp(2j * np.pi * np.arange(m) / m)
        with pytest.raises(ValueError, match=rf"^constellation order must be a power of two in \[2, 65536\], got {m}$"):
            Constellation(points, np.arange(m))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_constellation("qam64")

    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf")])
    def test_apsk_ring_ratio_must_be_positive_and_finite(self, ratio):
        with pytest.raises(ValueError):
            build_apsk16(ring_ratio=ratio)


class TestBitPacking:
    @given(st.integers(1, 12), st.data())
    def test_round_trip(self, width, data):
        values = data.draw(
            st.lists(st.integers(0, 2**width - 1), min_size=0, max_size=50)
        )
        arr = np.array(values, dtype=np.int64)
        back = bits_to_ints(ints_to_bits(arr, width), width)
        np.testing.assert_array_equal(back, arr)

    def test_bit_order_is_most_significant_first(self):
        bits = ints_to_bits(np.array([5]), 4)
        np.testing.assert_array_equal(bits, [0, 1, 0, 1])

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            ints_to_bits(np.array([4]), 2)
        with pytest.raises(ValueError):
            ints_to_bits(np.array([-1]), 2)


class TestValidationMatchesTheElementwiseChecks:
    """Each one-reduction check accepts and rejects what the plain checks do."""

    @pytest.mark.parametrize(
        "values",
        [[0, 1, 2, 3], [4], [-1], [], [7, 8], [2**62], [-(2**63)], [3, -5, 1]],
    )
    @pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 62, 63, 64, 70])
    def test_ints_to_bits(self, values, width):
        values = np.array(values, dtype=np.int64)
        plain = not values.size or (values.min() >= 0 and values.max() < (1 << width))
        assert fits_in_bits(values, width) == plain
        if not plain:
            with pytest.raises(ValueError):
                ints_to_bits(values, width)

    @pytest.mark.parametrize(
        "bits", [[0, 1, 1], [2], [256], [-1], [0.5, 1.0], [], [True, False], [1, 255]]
    )
    def test_modulate(self, bits):
        as_uint8 = np.asarray(np.array(bits), dtype=np.uint8)
        plain = not as_uint8.size or bool(np.all((as_uint8 == 0) | (as_uint8 == 1)))
        if plain:
            modulate(np.array(bits), build_psk(4))
        else:
            with pytest.raises(ValueError):
                modulate(np.array(bits), build_psk(4))

    @pytest.mark.parametrize(
        "gain",
        [
            0j,
            complex(-0.0, 0.0),
            complex(0.0, -0.0),
            complex(5e-324, 0.0),
            complex(0.0, 5e-324),
            complex(math.nan, 0.0),
            complex(math.inf, 0.0),
            np.array([1.0, 0.0], dtype=complex),
            np.array([1 + 1j, 2.0], dtype=complex),
            np.array([complex(math.nan, 0.0), 0.0]),
        ],
    )
    def test_demodulate_hard(self, gain):
        plain_fade = bool(np.any(np.abs(np.asarray(gain, dtype=complex)) == 0.0))
        received = np.ones(2, dtype=complex)
        if plain_fade:
            with pytest.raises(DeepFadeError):
                demodulate_hard(received, gain, build_psk(4))
        else:
            with np.errstate(all="ignore"):
                demodulate_hard(received, gain, build_psk(4))


def reference_ints_to_bits(values, width):
    values = np.asarray(values, dtype=np.int64)
    if not fits_in_bits(values, width):
        raise ValueError(f"values do not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def reference_bits_to_ints(bits, width):
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % width != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of {width}")
    weights = 1 << np.arange(width - 1, -1, -1)
    return bits.reshape(-1, width) @ weights


def reference_modulate(bits, constellation):
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size and bits.max() > 1:
        raise ValueError("bitstream must contain only 0 and 1")
    k = constellation.bits_per_symbol
    pad = (-bits.size) % k
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    values = reference_bits_to_ints(bits, k)
    indices = constellation.label_to_index[values]
    return constellation.points[indices], int(pad)


def reference_demodulate_hard(received, gain, constellation, chunk=65536):
    received = np.asarray(received, dtype=np.complex128)
    gain_arr = np.asarray(gain, dtype=np.complex128)
    if not gain_arr.all():
        raise DeepFadeError("zero channel gain")
    equalized = received / gain_arr
    points = constellation.points
    indices = np.empty(equalized.size, dtype=np.int64)
    flat = equalized.reshape(-1)
    for start in range(0, flat.size, chunk):
        block = flat[start : start + chunk]
        d2 = np.abs(block[:, None] - points[None, :]) ** 2
        indices[start : start + block.size] = np.argmin(d2, axis=1)
    values = constellation.labels[indices]
    return reference_ints_to_bits(values, constellation.bits_per_symbol)


def outcome(fn, *args, **kwargs):
    """What a call gives, comparable with ==: each output's dtype, shape and bytes, or the error."""
    try:
        out = fn(*args, **kwargs)
    except (ValueError, DeepFadeError) as exc:
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [
        (p.dtype.str, p.shape, p.tobytes()) if isinstance(p, np.ndarray) else (type(p), p)
        for p in parts
    ]


class TestKernelsMatchTheReference:
    """The table-driven bit and symbol kernels against the loops they replaced."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_bit_packing_random_and_edge_values(self, width):
        top = (1 << width) - 1
        rng = spawn_rng(0, "kernels", width)
        values = np.concatenate(
            [rng.integers(0, top + 1, 300), [0, 1, top, top - 1, top >> 1, 1 << (width - 1)]]
        )
        for vals in (values, values[:1], values[:0], values.astype(np.int32), values.tolist()):
            assert outcome(ints_to_bits, vals, width) == outcome(reference_ints_to_bits, vals, width)
        bits = reference_ints_to_bits(values, width)
        assert outcome(bits_to_ints, bits, width) == outcome(reference_bits_to_ints, bits, width)
        assert outcome(bits_to_ints, bits[:-1], width) == outcome(reference_bits_to_ints, bits[:-1], width)

    @pytest.mark.parametrize("width", [0, 1, 2, 8, 16, 17, 24, 40, 62, 63, 64])
    @pytest.mark.parametrize(
        "values", [[0], [1], [-1], [255], [256], [2**16], [2**17 - 1], [2**62], [-(2**63)], [3, -5, 1], []]
    )
    def test_out_of_range_and_wide_values(self, values, width):
        values = np.array(values, dtype=np.int64)
        assert outcome(ints_to_bits, values, width) == outcome(reference_ints_to_bits, values, width)

    @pytest.mark.parametrize("name", ["4psk", "16psk", "16apsk"])
    @pytest.mark.parametrize("n_bits", [0, 1, 3, 4, 101, 4000])
    def test_modulate(self, name, n_bits):
        c = build_constellation(name)
        bits = spawn_rng(1, "kernels", name, n_bits).integers(0, 2, size=n_bits).astype(np.uint8)
        for b in (bits, bits.astype(np.int64), bits.astype(bool), bits.tolist()):
            assert outcome(modulate, b, c) == outcome(reference_modulate, b, c)

    @pytest.mark.parametrize(
        "bits", [[0, 2, 1], [2], [256], [-1], [0.5, 1.0], [True, False], [1, 255]]
    )
    def test_modulate_rejects_what_the_reference_rejects(self, bits):
        c = build_psk(4)
        assert outcome(modulate, np.array(bits), c) == outcome(reference_modulate, np.array(bits), c)

    @pytest.mark.parametrize("name", ["4psk", "16psk", "16apsk"])
    @pytest.mark.parametrize("n", [0, 1, 7, 37, 999])
    @pytest.mark.parametrize("chunk", [7, 37, 65536])
    @pytest.mark.parametrize("per_symbol", [False, True])
    def test_demodulate_hard(self, name, n, chunk, per_symbol, monkeypatch):
        c = build_constellation(name)
        monkeypatch.setattr(modem, "DEMOD_BLOCK_DISTANCES", chunk * c.points.size)
        assert _block_rows(c.points.size) == chunk
        rng = spawn_rng(2, "kernels", name, n)
        received = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gain = rng.standard_normal(n) + 1j * rng.standard_normal(n) if per_symbol else 0.3 - 0.8j
        want = outcome(reference_demodulate_hard, received, gain, c, chunk=chunk)
        assert outcome(demodulate_hard, received, gain, c) == want

    @pytest.mark.parametrize(
        "gain",
        [
            0j,
            complex(-0.0, 0.0),
            complex(5e-324, 0.0),
            complex(math.nan, 0.0),
            complex(math.inf, 1.0),
            np.array([1.0, 0.0, 1.0], dtype=complex),
            np.array([1 + 1j, 2.0, -1j]),
            np.array([[1.0, 2.0, 3.0]]),
        ],
    )
    def test_demodulate_hard_edge_gains(self, gain):
        received = np.array([1 + 1j, -0.5j, 0.0])
        c = build_constellation("16apsk")
        with np.errstate(all="ignore"):
            assert outcome(demodulate_hard, received, gain, c) == outcome(
                reference_demodulate_hard, received, gain, c
            )


class TestModulateDemodulate:
    @pytest.mark.parametrize("name", ["16psk", "16apsk"])
    def test_noiseless_round_trip_is_exact(self, name):
        c = build_constellation(name)
        bits = spawn_rng(0, "mod", name).integers(0, 2, size=4000).astype(np.uint8)
        symbols, pad = modulate(bits, c)
        assert pad == 0
        out = demodulate_hard(symbols, 1.0 + 0j, c)
        np.testing.assert_array_equal(out, bits)

    def test_padding_to_symbol_boundary(self):
        c = build_psk(16)
        bits = np.ones(9, dtype=np.uint8)
        symbols, pad = modulate(bits, c)
        assert pad == 3 and symbols.size == 3
        out = demodulate_hard(symbols, 1.0 + 0j, c)
        np.testing.assert_array_equal(out[:9], bits)
        np.testing.assert_array_equal(out[9:], np.zeros(3, dtype=np.uint8))

    def test_non_binary_bitstream_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 2, 1]), build_psk(4))

    def test_complex_gain_is_equalized_away(self):
        c = build_constellation("16apsk")
        bits = spawn_rng(1, "eq").integers(0, 2, size=800).astype(np.uint8)
        symbols, _ = modulate(bits, c)
        gain = 0.3 - 0.8j
        out = demodulate_hard(gain * symbols, gain, c)
        np.testing.assert_array_equal(out, bits)

    def test_per_symbol_gain_array(self):
        c = build_psk(4)
        bits = spawn_rng(2, "eq2").integers(0, 2, size=64).astype(np.uint8)
        symbols, _ = modulate(bits, c)
        gains = spawn_rng(3, "eq3").standard_normal(symbols.size) + 1.5
        out = demodulate_hard(symbols * gains, gains.astype(complex), c)
        np.testing.assert_array_equal(out, bits)

    def test_zero_gain_raises_deep_fade(self):
        c = build_psk(4)
        symbols, _ = modulate(np.zeros(4, dtype=np.uint8), c)
        with pytest.raises(DeepFadeError):
            demodulate_hard(symbols, 0.0 + 0j, c)
        gains = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(DeepFadeError):
            demodulate_hard(symbols[:2], gains, c)

    def test_tie_breaks_to_lowest_symbol_index(self):
        # The origin is exactly equidistant from every unit-modulus point.
        c = build_psk(4)
        out = demodulate_hard(np.array([0.0 + 0.0j]), 1.0 + 0j, c)
        expected = ints_to_bits(np.array([int(c.labels[0])]), 2)
        np.testing.assert_array_equal(out, expected)

    def test_chunked_search_matches_unchunked(self, monkeypatch):
        c = build_constellation("16apsk")
        rng = spawn_rng(4, "chunk")
        received = rng.standard_normal(999) + 1j * rng.standard_normal(999)
        whole = demodulate_hard(received, 1.0 + 0j, c)
        monkeypatch.setattr(modem, "DEMOD_BLOCK_DISTANCES", 7 * 16)
        np.testing.assert_array_equal(demodulate_hard(received, 1.0 + 0j, c), whole)

    def test_block_size_follows_the_order(self):
        """At most 2^20 distances per block, whatever the order; shipped frames stay one block."""
        assert DEMOD_BLOCK_DISTANCES == 1 << 20
        for bits in range(1, 17):
            order = 1 << bits
            assert _block_rows(order) * order == DEMOD_BLOCK_DISTANCES
        assert _block_rows(1 << 16) == 16  # 16 x 65,536 distances, 16 MiB of complex128
        assert _block_rows(1 << 21) == 1  # never an empty block
        assert _block_rows(4) == 262_144 and _block_rows(16) == 65_536

    def test_blocks_bound_the_memory(self, monkeypatch):
        """A 20,000-symbol 16APSK frame: the whole 5.1 MB distance matrix, or 64-row blocks."""
        c = build_constellation("16apsk")
        rng = spawn_rng(5, "chunk")
        received = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)

        def peak_bytes():
            tracemalloc.start()
            try:
                bits = demodulate_hard(received, 1.0 + 0j, c)
                return tracemalloc.get_traced_memory()[1], bits
            finally:
                tracemalloc.stop()

        whole_peak, whole = peak_bytes()
        monkeypatch.setattr(modem, "DEMOD_BLOCK_DISTANCES", 64 * 16)
        blocked_peak, blocked = peak_bytes()
        np.testing.assert_array_equal(blocked, whole)
        assert whole_peak > 20_000 * 16 * 16
        assert blocked_peak < 20_000 * 16 * 16 / 2


class TestSymbolErrorRate:
    def test_16psk_awgn_tracks_q_function(self):
        c = build_psk(16)
        rng = spawn_rng(0, "ser")
        n = 200_000
        bits = rng.integers(0, 2, size=n * 4).astype(np.uint8)
        symbols, _ = modulate(bits, c)
        for es_n0_db in (10.0, 13.0):
            noise_variance = noise_variance_from_psnr(es_n0_db)
            received = apply_channel(symbols, 1.0, noise_variance, spawn_rng(1, "ser", es_n0_db))
            out = demodulate_hard(received, 1.0 + 0j, c)
            sym_tx = bits_to_ints(bits, 4)
            sym_rx = bits_to_ints(out, 4)
            ser = float(np.mean(sym_tx != sym_rx))
            expected = ser_q_function(es_n0_db)
            assert expected / 2 < ser < expected * 2
