"""The shared frame loop against the per-frame loops it replaced.

``classify_over_channel`` quantizes a whole set once and classifies it once;
the references below quantize, send and classify frame by frame, as both
evaluation functions did before. Every probability, prediction, loss and
bit count must come out identical; an evaluation's confusion counts must
be those of the reference's predictions, and its Top-1 the reference's
integer quotient. The inter-satellite link sends its reference batch as
one frame through ``send_over_channel``; its reference quantizes, sends
and dequantizes that frame as the round loop once did.
A hand-built frame pins the order in which ``transmit`` draws a channel.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom import dtjscc, nn
from semcom.channel import noise_variance_from_psnr
from semcom.config import EUROSAT_CLASS_NAMES, ChannelConfig, ChannelKind, DtjsccConfig, SAConfig
from semcom.csa import COVARIANCE_HIDDEN, CsaScenario, eval_through_downlink
from semcom.dtjscc import (
    QuantizedMessage,
    classify,
    classify_over_channel,
    dequantize,
    encode,
    frame_bit_count,
    quantize,
    send_over_channel,
    train_dtjscc,
    transmit,
)
from semcom.harness import ConfusionMatrix, evaluate_through_channel
from semcom.modem import bits_to_ints, build_constellation, demodulate_hard, ints_to_bits, modulate
from semcom.seeding import spawn_rng


def reference_frames(feats, system, classifier, channel_cfg, psnr_db, frame, seed, *tag):
    """Per-frame quantize, transmit and classify; returns probabilities and bits."""
    n = feats.shape[0]
    probs = np.zeros((n, classifier.output_dim))
    bits = 0
    for fi, start in enumerate(range(0, n, frame)):
        stop = min(start + frame, n)
        rng = spawn_rng(seed, *tag, fi)
        message = quantize(feats[start:stop], system.codebook)
        received = transmit(message, channel_cfg, noise_variance_from_psnr(psnr_db), rng)
        bits += frame_bit_count(received)
        probs[start:stop] = classify(received, system.codebook, classifier)
    return probs, bits


def reference_isl(features, codebook, channel_cfg, psnr_db, rng):
    """The round loop's former one-frame link: quantize, send, dequantize.

    Returns the received vectors, the bits on the air and whether the frame
    was erased.
    """
    message = quantize(features, codebook)
    received = transmit(message, channel_cfg, noise_variance_from_psnr(psnr_db), rng)
    return dequantize(received, codebook, features.shape[1]), frame_bit_count(received), received.erased


def reference_evaluate(system, dataset, channel_cfg, psnr_db, seed, repetitions, frame):
    """``harness.evaluate_through_channel`` as a per-frame loop that keeps every decision.

    Returns the Top-1 as ``correct / (n * repetitions)``, the predictions of
    every repetition in turn and the labels they answer.
    """
    feats = encode(dataset, system.encoder)
    preds = []
    for rep in range(repetitions):
        probs, _ = reference_frames(
            feats, system, system.classifier, channel_cfg, psnr_db, frame, seed, "rep", rep,
        )
        preds.append(np.argmax(probs, axis=1))
    predictions = np.concatenate(preds)
    labels = np.tile(dataset.labels, repetitions)
    return int(np.sum(predictions == labels)) / labels.size, predictions, labels


def reference_downlink(encoder, classifier, system, scenario, round_index):
    """``csa.eval_through_downlink`` as a per-frame loop: top-1, CE and bits."""
    test = scenario.splits_t1.test
    probs, bits = reference_frames(
        encode(test, encoder), system, classifier,
        scenario.downlink_channel, scenario.sa.eval_psnr_db, scenario.eval_frame,
        scenario.seed, "eval", round_index,
    )
    labels = test.labels
    top1 = float(np.mean(np.argmax(probs, axis=1) == labels))
    ce = float(np.mean(-np.log(probs[np.arange(len(test)), labels] + 1e-12)))
    return top1, ce, bits


@pytest.fixture(scope="module")
def systems(small_splits):
    """Trained systems with one and with four codebook blocks per image."""
    return {
        blocks: train_dtjscc(
            small_splits, 8.0, DtjsccConfig(k=32, blocks=blocks, epochs=3, seed=13)
        )
        for blocks in (1, 4)
    }


FADING = {
    "block": ChannelConfig(kind=ChannelKind.LEO_RAYLEIGH, modulation="16apsk"),
    "per_symbol": ChannelConfig(kind=ChannelKind.LEO_RICIAN, modulation="4psk", per_symbol_fading=True),
}


def scenario_for(system, splits, fading, frame):
    a = system.feature_dim
    return CsaScenario(
        splits_t0=splits,
        splits_t1=splits,
        system=system,
        covariance_net=nn.init_network(
            [a, *COVARIANCE_HIDDEN, system.n_classes * a], ["relu", "relu", "softplus"], seed=17
        ),
        isl_channel=ChannelConfig(kind=ChannelKind.ISL),
        downlink_channel=FADING[fading],
        sa=SAConfig(eval_psnr_db=6.0),
        eval_frame=frame,
        seed=17,
    )


def assert_both_paths_match(system, splits, fading, frame):
    scenario = scenario_for(system, splits, fading, frame)
    test = splits.test
    got = evaluate_through_channel(system, test, scenario.downlink_channel, 6.0, 31, 2, frame)
    top1, predictions, labels = reference_evaluate(system, test, scenario.downlink_channel, 6.0, 31, 2, frame)
    counts = np.zeros((len(EUROSAT_CLASS_NAMES),) * 2, dtype=np.int64)
    np.add.at(counts, (labels, predictions), 1)
    assert got.counts.tobytes() == counts.tobytes()
    assert repr(got.top1()) == repr(top1)

    for round_index in range(2):
        assert eval_through_downlink(
            encode(test, system.encoder), system.classifier, scenario, round_index
        ) == reference_downlink(system.encoder, system.classifier, system, scenario, round_index)

    feats = encode(test, system.encoder)
    probs, bits = classify_over_channel(
        feats, system.codebook, system.classifier, scenario.downlink_channel, 6.0, frame, 31, "rep", 0
    )
    want_probs, want_bits = reference_frames(
        feats, system, system.classifier, scenario.downlink_channel, 6.0, frame, 31, "rep", 0
    )
    assert probs.tobytes() == want_probs.tobytes()
    assert bits == want_bits


class TestFrameLoopMatchesPerFrameReference:
    # 40 test images: frames of 7 leave a short last frame, 64 is one frame.
    @pytest.mark.parametrize("frame", [7, 64])
    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize("fading", sorted(FADING))
    def test_outputs_are_identical(self, systems, small_splits, frame, blocks, fading):
        assert len(small_splits.test) % 7 and len(small_splits.test) < 64
        assert_both_paths_match(systems[blocks], small_splits, fading, frame)

    @pytest.mark.parametrize("fading", sorted(FADING))
    def test_erased_frames_are_identical(self, systems, small_splits, fading, monkeypatch):
        erasures = force_erasures(fading, monkeypatch)
        assert_both_paths_match(systems[4], small_splits, fading, 7)
        assert 0 < sum(erasures) < len(erasures)


def force_erasures(fading, monkeypatch):
    """Zero gains on roughly every fifth frame; returns the per-frame erasure flags."""
    erasures = []
    if fading == "block":
        original = dtjscc.sample_realization

        def faded(*args, **kwargs):
            gain = original(*args, **kwargs)
            erasures.append(abs(gain) < 0.5)
            return 0j if erasures[-1] else gain

        monkeypatch.setattr(dtjscc, "sample_realization", faded)
    else:
        original = dtjscc.sample_gain_sequence

        def faded(*args, **kwargs):
            gains = original(*args, **kwargs)
            erasures.append(abs(gains[0]) < 0.5)
            if erasures[-1]:
                gains[-1] = 0.0
            return gains

        monkeypatch.setattr(dtjscc, "sample_gain_sequence", faded)
    return erasures


def assert_isl_matches(system, splits, fading, rounds):
    channel_cfg = FADING[fading]
    feats = encode(splits.train, system.encoder)
    for i in range(rounds):
        batch = feats[i::rounds]
        n = batch.shape[0]
        vectors, erased, bits = send_over_channel(
            batch, system.codebook, channel_cfg, 6.0, n, [spawn_rng(17, "isl", i)]
        )
        want_vectors, want_bits, want_erased = reference_isl(
            batch, system.codebook, channel_cfg, 6.0, spawn_rng(17, "isl", i)
        )
        assert vectors.tobytes() == want_vectors.tobytes()
        assert bits == want_bits
        assert erased.tobytes() == np.full(n, want_erased).tobytes()


class TestIslFrameMatchesReference:
    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize("fading", sorted(FADING))
    def test_outputs_are_identical(self, systems, small_splits, blocks, fading):
        assert_isl_matches(systems[blocks], small_splits, fading, 6)

    @pytest.mark.parametrize("fading", sorted(FADING))
    def test_erased_frames_are_identical(self, systems, small_splits, fading, monkeypatch):
        erasures = force_erasures(fading, monkeypatch)
        assert_isl_matches(systems[4], small_splits, fading, 30)
        assert 0 < sum(erasures) < len(erasures)


def hand_built_frame(indices, width, channel_cfg, noise_variance, rng):
    """One frame sent by hand: block gain, then per-symbol gains, then noise, all from ``rng``."""
    constellation = build_constellation(channel_cfg.modulation, channel_cfg.apsk_ring_ratio)
    symbols, pad = modulate(ints_to_bits(indices, width), constellation)
    r = 0.0 if channel_cfg.kind is ChannelKind.LEO_RAYLEIGH else channel_cfg.rician_factor
    los, diffuse = math.sqrt(r / (r + 1.0)), math.sqrt(1.0 / (r + 1.0))
    gain = los + diffuse * (complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0))
    if channel_cfg.per_symbol_fading:
        n = symbols.size
        gain = los + diffuse * ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0))
    scale = math.sqrt(noise_variance / 2.0)
    noise = scale * (rng.standard_normal(symbols.shape) + 1j * rng.standard_normal(symbols.shape))
    bits = demodulate_hard(gain * symbols + noise, gain, constellation)
    return bits_to_ints(bits[: bits.size - pad], width)


class TestTransmitDrawOrder:
    """``transmit`` draws its frame's channel from the frame's generator in one fixed order."""

    @pytest.mark.parametrize("fading", sorted(FADING))
    def test_matches_a_hand_built_frame(self, fading):
        channel_cfg = FADING[fading]
        sent = spawn_rng(5, "order", "sent").integers(0, 32, size=30)
        noise_variance = noise_variance_from_psnr(6.0)
        got = transmit(QuantizedMessage(sent, 5), channel_cfg, noise_variance, spawn_rng(5, "order", fading))
        want = hand_built_frame(sent, 5, channel_cfg, noise_variance, spawn_rng(5, "order", fading))
        assert not got.erased
        np.testing.assert_array_equal(got.indices, want)
        assert not np.array_equal(got.indices, sent)  # the channel made errors to match


class TestFrameSizeBelowOne:
    """A frame holds at least one item; smaller sizes fail, naming ``frame``."""

    @pytest.mark.parametrize("frame", [0, -5])
    def test_every_frame_path_rejects_it(self, systems, small_splits, frame):
        system = systems[4]
        scenario = scenario_for(system, small_splits, "block", frame)
        vectors = encode(small_splits.test, system.encoder)
        match = rf"^frame must be at least 1, got {frame}$"
        with pytest.raises(ValueError, match=match):
            send_over_channel(
                vectors, system.codebook, scenario.downlink_channel, 6.0, frame, [spawn_rng(17, "isl", 0)]
            )
        with pytest.raises(ValueError, match=match):
            evaluate_through_channel(system, small_splits.test, scenario.downlink_channel, 6.0, 31, 1, frame)
        with pytest.raises(ValueError, match=match):
            eval_through_downlink(vectors, system.classifier, scenario, 0)


class TestRepetitionsBelowOne:
    """An evaluation sends the set at least once; fewer repetitions fail, naming ``repetitions``."""

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_evaluation_rejects_it(self, systems, small_splits, repetitions):
        system = systems[1]
        scenario = scenario_for(system, small_splits, "block", 8)
        with pytest.raises(ValueError, match=rf"^repetitions must be at least 1, got {repetitions}$"):
            evaluate_through_channel(system, small_splits.test, scenario.downlink_channel, 6.0, 31, repetitions, 8)


@st.composite
def count_matrices(draw):
    """A (C, C) int64 count matrix whose total lies in [1, 10**9]."""
    c = draw(st.integers(1, 10))
    total = draw(st.integers(1, 10**9))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=c * c - 1, max_size=c * c - 1)))
    return np.diff([0, *cuts, total]).astype(np.int64).reshape(c, c)


@given(count_matrices())
def test_top1_is_the_integer_quotient(counts):
    """The matrix's Top-1 is, to the bit, the hit count over the item count as ints."""
    matrix = ConfusionMatrix(counts)
    correct, total = int(np.trace(counts)), int(counts.sum())
    assert repr(matrix.top1()) == repr(correct / total)
