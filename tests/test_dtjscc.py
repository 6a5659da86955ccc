"""Discrete feature coding: quantizer oracle, air interface, training loop."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from semcom import nn
from semcom.channel import ChannelConfig, ChannelKind, ChannelRealization, noise_variance_from_psnr
from semcom.dataset import DatasetSpec, generate_synthetic
from semcom.dtjscc import (
    Codebook,
    _init_codebook,
    _split_blocks,
    CodebookError,
    DtjsccConfig,
    QuantizedMessage,
    SemanticFeatures,
    classify,
    dequantize,
    encode,
    frame_bit_count,
    load_bundle,
    load_codebook,
    quantize,
    save_bundle,
    save_codebook,
    train_dtjscc,
    transmit,
)
from semcom.modem import build_constellation
from semcom.seeding import spawn_rng


def brute_force_nearest(entries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reference quantizer: explicit loops, no algebraic shortcuts."""
    out = np.empty(len(vectors), dtype=np.int64)
    for i, v in enumerate(vectors):
        best_j, best_d = 0, float("inf")
        for j, e in enumerate(entries):
            d = float(((v - e) ** 2).sum())
            if d < best_d:
                best_j, best_d = j, d
        out[i] = best_j
    return out


def nearest_exact(entries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reference quantizer: direct squared distances, ties to the lowest index.

    ``Codebook.nearest`` expands the square instead, which can reorder
    floating-point ties.
    """
    out = np.empty(len(vectors), dtype=np.int64)
    for i, v in enumerate(vectors):
        out[i] = int(np.argmin(((entries - v) ** 2).sum(axis=1)))
    return out


class TestCodebook:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros((6, 4)))
        with pytest.raises(ValueError):
            Codebook(np.zeros((1, 4)))

    def test_entries_must_be_finite_matrix(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros(8))
        bad = np.zeros((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Codebook(bad)

    def test_bits_per_index(self):
        assert Codebook(np.zeros((32, 4)) + np.arange(32)[:, None]).bits_per_index == 5

    @pytest.mark.parametrize("k", [32, 64, 128])
    def test_fast_exact_and_brute_force_agree(self, k):
        rng = spawn_rng(0, "vq", k)
        cb = Codebook(rng.standard_normal((k, 8)))
        vectors = rng.standard_normal((200, 8))
        fast = cb.nearest(vectors)
        exact = nearest_exact(cb.entries, vectors)
        brute = brute_force_nearest(cb.entries, vectors)
        np.testing.assert_array_equal(fast, exact)
        np.testing.assert_array_equal(exact, brute)

    def test_tie_resolves_to_lowest_index(self):
        cb = Codebook(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        idx = cb.nearest(np.array([[0.0, 0.0]]))
        assert idx[0] == 0


class TestQuantizeRoundTrip:
    def test_single_block(self):
        rng = spawn_rng(1, "q")
        cb = Codebook(rng.standard_normal((32, 16)))
        feats = SemanticFeatures(rng.standard_normal((10, 16)))
        msg = quantize(feats, cb)
        assert msg.indices.shape == (10,)
        assert msg.bits_per_index == 5
        recon = dequantize(msg, cb)
        np.testing.assert_array_equal(recon, cb.entries[msg.indices])

    def test_multi_block_stitching(self):
        rng = spawn_rng(2, "q")
        cb = Codebook(rng.standard_normal((64, 4)))
        feats = SemanticFeatures(rng.standard_normal((6, 16)))
        msg = quantize(feats, cb, blocks=4)
        assert msg.indices.shape == (24,)
        recon = dequantize(msg, cb, blocks=4)
        assert recon.shape == (6, 16)
        np.testing.assert_array_equal(
            recon[0, :4], cb.entries[msg.indices[0]]
        )
        np.testing.assert_array_equal(
            recon[0, 4:8], cb.entries[msg.indices[1]]
        )

    def test_block_dimension_mismatch_rejected(self):
        cb = Codebook(spawn_rng(3, "q").standard_normal((32, 5)))
        feats = SemanticFeatures(np.zeros((2, 16)))
        with pytest.raises(ValueError):
            quantize(feats, cb, blocks=4)

    def test_quantization_error_never_exceeds_any_other_codeword(self):
        rng = spawn_rng(4, "q")
        cb = Codebook(rng.standard_normal((32, 8)))
        vectors = rng.standard_normal((50, 8))
        msg = quantize(SemanticFeatures(vectors), cb)
        chosen = np.linalg.norm(vectors - cb.entries[msg.indices], axis=1)
        for j in range(cb.k):
            other = np.linalg.norm(vectors - cb.entries[j], axis=1)
            assert np.all(chosen <= other + 1e-12)


class TestMessageValidation:
    def test_indices_must_fit_bit_width(self):
        with pytest.raises(ValueError):
            QuantizedMessage(indices=np.array([8]), bits_per_index=3)
        with pytest.raises(ValueError):
            QuantizedMessage(indices=np.array([-1]), bits_per_index=3)

    def test_frame_bit_count_includes_padding(self):
        msg = QuantizedMessage(indices=np.array([1, 2, 3]), bits_per_index=5, pad_bits=1)
        assert frame_bit_count(msg) == 16


def transmit_like(msg, constellation, realization, rng_tag="t", channel_cfg=None):
    return transmit(
        msg, constellation, realization, spawn_rng(0, "txrng", rng_tag), channel_cfg=channel_cfg
    )


class TestTransmission:
    def make_message(self, count=12, k=32, seed=5):
        rng = spawn_rng(seed, "tx")
        return QuantizedMessage(
            indices=rng.integers(0, k, size=count), bits_per_index=5
        )

    def test_noiseless_transmission_is_identity(self):
        msg = self.make_message()
        c = build_constellation("16apsk")
        real = ChannelRealization(gain=1.0, noise_variance=0.0)
        out = transmit_like(msg, c, real)
        np.testing.assert_array_equal(out.indices, msg.indices)
        assert not out.erased
        assert out.pad_bits == (-msg.indices.size * 5) % 4

    def test_high_psnr_preserves_most_indices(self):
        msg = self.make_message(count=400, seed=6)
        c = build_constellation("16apsk")
        real = ChannelRealization(
            gain=1.0, noise_variance=noise_variance_from_psnr(30.0)
        )
        out = transmit_like(msg, c, real, rng_tag="hi")
        assert np.mean(out.indices == msg.indices) >= 0.99

    def test_deep_fade_marks_frame_erased(self):
        msg = self.make_message()
        c = build_constellation("16psk")
        real = ChannelRealization(
            gain=0.0, noise_variance=0.1, kind=ChannelKind.LEO_RAYLEIGH
        )
        out = transmit_like(msg, c, real)
        assert out.erased
        assert np.all(out.indices == 0)

    def test_per_symbol_fading_path_round_trips_cleanly(self):
        msg = self.make_message(count=64, seed=7)
        c = build_constellation("4psk")
        cfg = ChannelConfig(
            kind=ChannelKind.LEO_RICIAN, rician_factor=50.0, per_symbol_fading=True
        )
        real = ChannelRealization(
            gain=1.0, noise_variance=0.0, kind=ChannelKind.LEO_RICIAN
        )
        out = transmit_like(msg, c, real, channel_cfg=cfg)
        assert np.mean(out.indices == msg.indices) >= 0.95

    def test_erased_frame_classifies_as_uniform(self):
        msg = QuantizedMessage(
            indices=np.zeros(8, dtype=np.int64), bits_per_index=5, erased=True
        )
        cb = Codebook(spawn_rng(8, "e").standard_normal((32, 4)))
        clf = nn.init_network([16, 10], ["linear"], seed=0)
        probs = classify(msg, cb, clf, blocks=4)
        np.testing.assert_allclose(probs, np.full((2, 10), 0.1))


@pytest.fixture(scope="module")
def trained(small_splits):
    cfg = DtjsccConfig(k=32, epochs=8, batch_size=32, seed=3)
    return train_dtjscc(small_splits, train_psnr_db=8.0, cfg=cfg)


class TestTraining:
    def test_learns_well_above_chance(self, trained, small_splits):
        assert trained.val_accuracy >= 0.5
        assert trained.converged

    def test_history_tracks_epochs_and_improves(self, trained):
        assert 0 < len(trained.history) <= 8
        assert trained.history[-1] < trained.history[0]

    def test_classification_consistency_on_clean_path(self, trained, small_splits):
        feats = encode(small_splits.test, trained.encoder)
        msg = quantize(feats, trained.codebook, blocks=trained.blocks)
        probs = classify(msg, trained.codebook, trained.classifier, blocks=trained.blocks)
        top1 = float(np.mean(np.argmax(probs, axis=1) == small_splits.test.labels))
        assert top1 >= 0.5

    def test_every_extra_epoch_moves_encoder_and_codebook(self, small_splits):
        cfg_one = DtjsccConfig(k=32, epochs=1, batch_size=32, seed=4)
        cfg_two = dataclasses.replace(cfg_one, epochs=2)
        one = train_dtjscc(small_splits, train_psnr_db=8.0, cfg=cfg_one)
        two = train_dtjscc(small_splits, train_psnr_db=8.0, cfg=cfg_two)
        assert not np.array_equal(
            one.encoder.layers[0].weights, two.encoder.layers[0].weights
        )
        assert not np.array_equal(one.codebook.entries, two.codebook.entries)
        assert np.all(np.isfinite(two.codebook.entries))

    def test_seed_reproducibility(self, small_splits):
        cfg = DtjsccConfig(k=32, epochs=2, batch_size=32, seed=9)
        a = train_dtjscc(small_splits, train_psnr_db=8.0, cfg=cfg)
        b = train_dtjscc(small_splits, train_psnr_db=8.0, cfg=cfg)
        np.testing.assert_array_equal(a.codebook.entries, b.codebook.entries)
        np.testing.assert_array_equal(
            a.encoder.layers[0].weights, b.encoder.layers[0].weights
        )
        assert a.history == b.history


def reference_train(splits, train_psnr_db, cfg):
    """The generic training loop the lean step replaced, kept as its oracle.

    Same initialisation and early stopping as ``train_dtjscc``; each step goes
    through ``nn.forward_cached``, ``nn.backward`` and ``nn.sgd_step``.
    Returns encoder, classifier, codebook and the loss history.
    """
    train = splits.train
    a = cfg.feature_dim
    x_all = train.flattened()
    y_all = train.labels
    encoder = nn.init_network(
        [x_all.shape[1], cfg.encoder_hidden, a],
        ["relu", "relu"],
        spawn_rng(cfg.seed, "enc").integers(2**32),
    )
    classifier = nn.init_network(
        [a, len(train.catalog)], ["linear"], spawn_rng(cfg.seed, "clf").integers(2**32)
    )
    rng = spawn_rng(cfg.seed, "train")
    warm = nn.forward(encoder, x_all[: max(cfg.k * 4, cfg.batch_size)])
    codebook = Codebook(_init_codebook(_split_blocks(warm, cfg.blocks), cfg.k, rng))
    noise_factor = 10.0 ** (train_psnr_db / 10.0)
    history = []
    best_loss, best_epoch = math.inf, -1
    for epoch in range(cfg.epochs):
        order = spawn_rng(cfg.seed, "epoch", epoch).permutation(len(train))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(train), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = x_all[batch]
            y = y_all[batch]
            b = x.shape[0]
            feats, caches_f = nn.forward_cached(encoder, x)
            fb = _split_blocks(feats, cfg.blocks)
            idx = codebook.nearest(fb)
            qb = codebook.entries[idx]
            q = qb.reshape(b, a)
            power = float(np.mean(q**2))
            sigma2 = power / noise_factor
            noisy = q + rng.normal(0.0, math.sqrt(sigma2), size=q.shape) if sigma2 > 0 else q
            logits, caches_l = nn.forward_cached(classifier, noisy)
            ce, dlogits = nn.softmax_cross_entropy(logits, y)
            grads_l = nn.backward(classifier, caches_l, dlogits)
            diff = feats - q
            d_feats = grads_l.wrt_input + (2.0 * cfg.commitment_weight / feats.size) * diff
            grads_f = nn.backward(encoder, caches_f, d_feats)
            d_entries = np.zeros_like(codebook.entries)
            np.add.at(d_entries, idx, (2.0 * cfg.codebook_weight / fb.size) * (qb - fb))
            nn.sgd_step(classifier, grads_l, cfg.learning_rate)
            nn.sgd_step(encoder, grads_f, cfg.learning_rate)
            codebook.entries -= cfg.learning_rate * d_entries
            mse_cb = float(np.mean((q - feats) ** 2))
            epoch_loss += ce + (cfg.codebook_weight + cfg.commitment_weight) * mse_cb
            n_batches += 1
        epoch_loss /= n_batches
        history.append(epoch_loss)
        if epoch_loss < best_loss - 1e-6:
            best_loss, best_epoch = epoch_loss, epoch
        elif epoch - best_epoch >= cfg.patience:
            break
    return encoder, classifier, codebook, history


class TestLeanStepMatchesReference:
    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize("k", [32, 64])
    @pytest.mark.parametrize("train_psnr_db", [4.0, math.inf])
    def test_every_parameter_and_loss_is_bit_identical(
        self, small_splits, blocks, k, train_psnr_db
    ):
        cfg = DtjsccConfig(k=k, blocks=blocks, epochs=3, batch_size=32, seed=21)
        system = train_dtjscc(small_splits, train_psnr_db, cfg)
        encoder, classifier, codebook, history = reference_train(
            small_splits, train_psnr_db, cfg
        )
        for got, want in zip(
            system.encoder.layers + system.classifier.layers,
            encoder.layers + classifier.layers,
        ):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.biases.tobytes() == want.biases.tobytes()
        assert system.codebook.entries.tobytes() == codebook.entries.tobytes()
        assert system.history == history
        assert len(history) == 3


class TestPersistence:
    def test_codebook_round_trip(self, tmp_path):
        cb = Codebook(spawn_rng(10, "p").standard_normal((64, 4)))
        path = str(tmp_path / "cb.mcb1")
        save_codebook(path, cb)
        back = load_codebook(path)
        np.testing.assert_array_equal(back.entries, cb.entries)

    def test_codebook_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.mcb1"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(CodebookError):
            load_codebook(str(path))
        cb = Codebook(spawn_rng(11, "p").standard_normal((32, 4)))
        good = tmp_path / "cut.mcb1"
        save_codebook(str(good), cb)
        blob = good.read_bytes()
        good.write_bytes(blob[: len(blob) - 3])
        with pytest.raises(CodebookError):
            load_codebook(str(good))

    def test_bundle_round_trip(self, tmp_path, small_system):
        directory = str(tmp_path / "bundle")
        save_bundle(directory, small_system)
        back = load_bundle(directory)
        for mine, theirs in (
            (small_system.encoder, back.encoder),
            (small_system.classifier, back.classifier),
            (small_system.covariance_net, back.covariance_net),
        ):
            for a, b in zip(mine.layers, theirs.layers):
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.biases, b.biases)
        np.testing.assert_array_equal(back.codebook.entries, small_system.codebook.entries)
        assert back.blocks == small_system.blocks
