"""The shared frame loop against the per-frame loops it replaced.

``classify_over_channel`` quantizes a whole set once and classifies it once;
the references below quantize, send and classify frame by frame, as both
evaluation functions did before. Every probability, prediction, loss and
bit count must come out identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from semcom import channel, dtjscc
from semcom.channel import (
    ChannelConfig,
    ChannelKind,
    noise_variance_from_psnr,
    sample_realization,
)
from semcom.csa import CsaScenario, SAConfig, eval_through_downlink
from semcom.dtjscc import (
    DtjsccConfig,
    SemanticFeatures,
    classify,
    classify_over_channel,
    encode,
    frame_bit_count,
    quantize,
    train_dtjscc,
    transmit,
)
from semcom.harness import evaluate_through_channel
from semcom.modem import build_constellation
from semcom.seeding import spawn_rng


def reference_frames(feats, system, classifier, constellation, channel_cfg, psnr_db, frame, seed, *tag):
    """Per-frame quantize, transmit and classify; returns probabilities and bits."""
    n = feats.vectors.shape[0]
    probs = np.zeros((n, classifier.output_dim))
    bits = 0
    for fi, start in enumerate(range(0, n, frame)):
        stop = min(start + frame, n)
        chunk = SemanticFeatures(feats.vectors[start:stop], feats.labels[start:stop])
        rng = spawn_rng(seed, *tag, fi)
        message = quantize(chunk, system.codebook, system.blocks)
        realization = sample_realization(channel_cfg, noise_variance_from_psnr(psnr_db), rng)
        received = transmit(message, constellation, realization, rng, channel_cfg)
        bits += frame_bit_count(received)
        probs[start:stop] = classify(received, system.codebook, classifier, system.blocks)
    return probs, bits


def reference_evaluate(system, dataset, constellation, channel_cfg, psnr_db, seed, repetitions, frame):
    """``harness.evaluate_through_channel`` as a per-frame loop: top-1 and predictions."""
    feats = encode(dataset, system.encoder)
    preds = []
    for rep in range(repetitions):
        probs, _ = reference_frames(
            feats, system, system.classifier, constellation, channel_cfg, psnr_db,
            max(1, frame), seed, "rep", rep,
        )
        preds.append(np.argmax(probs, axis=1))
    predictions = np.concatenate(preds)
    labels = np.tile(dataset.labels, repetitions)
    return int(np.sum(predictions == labels)) / labels.size, predictions


def reference_downlink(encoder, classifier, system, scenario, round_index):
    """``csa.eval_through_downlink`` as a per-frame loop: top-1, CE and bits."""
    test = scenario.splits_t1.test
    probs, bits = reference_frames(
        encode(test, encoder), system, classifier, scenario.constellation,
        scenario.downlink_channel, scenario.sa.eval_psnr_db, max(1, scenario.eval_frame),
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
    "block": (ChannelConfig(kind=ChannelKind.LEO_RAYLEIGH), "16apsk"),
    "per_symbol": (
        ChannelConfig(kind=ChannelKind.LEO_RICIAN, per_symbol_fading=True),
        "4psk",
    ),
}


def scenario_for(system, splits, fading, frame):
    channel_cfg, modulation = FADING[fading]
    return CsaScenario(
        splits_t0=splits,
        splits_t1=splits,
        system=system,
        constellation=build_constellation(modulation),
        isl_channel=ChannelConfig(kind=ChannelKind.ISL),
        downlink_channel=channel_cfg,
        sa=SAConfig(eval_psnr_db=6.0),
        eval_frame=frame,
        seed=17,
    )


def assert_both_paths_match(system, splits, fading, frame):
    scenario = scenario_for(system, splits, fading, frame)
    test = splits.test
    got = evaluate_through_channel(
        system, test, scenario.constellation, scenario.downlink_channel, 6.0, 31, 2, frame
    )
    top1, predictions = reference_evaluate(
        system, test, scenario.constellation, scenario.downlink_channel, 6.0, 31, 2, frame
    )
    assert got.top1 == top1
    assert got.predictions.tobytes() == predictions.tobytes()

    for round_index in range(2):
        assert eval_through_downlink(
            system.encoder, system.classifier, system, scenario, round_index
        ) == reference_downlink(system.encoder, system.classifier, system, scenario, round_index)

    feats = encode(test, system.encoder)
    probs, bits = classify_over_channel(
        feats.vectors, system.codebook, system.classifier, system.blocks,
        scenario.constellation, scenario.downlink_channel, 6.0, frame, 31, "rep", 0,
    )
    want_probs, want_bits = reference_frames(
        feats, system, system.classifier, scenario.constellation,
        scenario.downlink_channel, 6.0, frame, 31, "rep", 0,
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
        """Zero gains on roughly every fifth frame force erasures in both paths."""
        erasures = []
        if fading == "block":
            original = channel.sample_rician_gain

            def faded(*args, **kwargs):
                gain = original(*args, **kwargs)
                erasures.append(abs(gain) < 0.5)
                return 0j if erasures[-1] else gain

            monkeypatch.setattr(channel, "sample_rician_gain", faded)
        else:
            original = dtjscc.sample_gain_sequence

            def faded(*args, **kwargs):
                gains = original(*args, **kwargs)
                erasures.append(abs(gains[0]) < 0.5)
                if erasures[-1]:
                    gains[-1] = 0.0
                return gains

            monkeypatch.setattr(dtjscc, "sample_gain_sequence", faded)
        assert_both_paths_match(systems[4], small_splits, fading, 7)
        assert 0 < sum(erasures) < len(erasures)
