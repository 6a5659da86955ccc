"""Discrete feature coding: quantizer oracle, air interface, training loop."""

from __future__ import annotations

import copy
import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom import dtjscc, nn
from semcom.cli import write_files
from semcom.channel import noise_variance_from_psnr
from semcom.config import EUROSAT_CLASS_NAMES, ChannelConfig, ChannelKind, DtjsccConfig, load_config
from semcom.dataset import Dataset, SplitDatasets, generate_synthetic
from semcom.dtjscc import (
    CODEBOOK_MAGIC,
    Codebook,
    TrainedSystem,
    _init_codebook,
    _split_blocks,
    CodebookError,
    DivergenceError,
    QuantizedMessage,
    classify,
    classify_over_channel,
    dequantize,
    encode,
    bundle_files,
    codebook_file,
    frame_bit_count,
    load_bundle,
    quantize,
    read_codebook,
    send_over_channel,
    train_dtjscc,
    transmit,
)
from semcom.seeding import spawn_rng

from conftest import DIVERGING_INI, forget_training


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
    @pytest.mark.parametrize("k", [0, 1, 3, 6, 2**17])
    def test_size_must_be_power_of_two(self, k):
        with pytest.raises(ValueError, match=rf"^codebook size must be a power of two in \[2, 65536\], got {k}$"):
            Codebook(np.arange(k, dtype=np.float64)[:, None])

    def test_entries_must_be_finite_matrix(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros(8))
        with pytest.raises(ValueError, match=r"^entries must be \(K, dim\) with dim at least 1$"):
            Codebook(np.zeros((4, 0)))
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
        feats = rng.standard_normal((10, 16))
        msg = quantize(feats, cb)
        assert msg.indices.shape == (10,)
        assert msg.bits_per_index == 5
        recon = dequantize(msg, cb, 16)
        np.testing.assert_array_equal(recon, cb.entries[msg.indices])

    def test_multi_block_stitching(self):
        rng = spawn_rng(2, "q")
        cb = Codebook(rng.standard_normal((64, 4)))
        feats = rng.standard_normal((6, 16))
        msg = quantize(feats, cb)
        assert msg.indices.shape == (24,)
        recon = dequantize(msg, cb, 16)
        assert recon.shape == (6, 16)
        np.testing.assert_array_equal(
            recon[0, :4], cb.entries[msg.indices[0]]
        )
        np.testing.assert_array_equal(
            recon[0, 4:8], cb.entries[msg.indices[1]]
        )

    def test_block_dimension_mismatch_rejected(self):
        cb = Codebook(spawn_rng(3, "q").standard_normal((32, 5)))
        feats = np.zeros((2, 16))
        with pytest.raises(ValueError):
            quantize(feats, cb)

    def test_quantization_error_never_exceeds_any_other_codeword(self):
        rng = spawn_rng(4, "q")
        cb = Codebook(rng.standard_normal((32, 8)))
        vectors = rng.standard_normal((50, 8))
        msg = quantize(vectors, cb)
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


AWGN = ChannelConfig(kind=ChannelKind.AWGN)


def transmit_like(msg, channel_cfg, noise_variance, rng_tag="t"):
    return transmit(msg, channel_cfg, noise_variance, spawn_rng(0, "txrng", rng_tag))


class TestTransmission:
    def make_message(self, count=12, k=32, seed=5):
        rng = spawn_rng(seed, "tx")
        return QuantizedMessage(
            indices=rng.integers(0, k, size=count), bits_per_index=5
        )

    def test_noiseless_transmission_is_identity(self):
        msg = self.make_message()
        out = transmit_like(msg, AWGN, 0.0)
        np.testing.assert_array_equal(out.indices, msg.indices)
        assert not out.erased
        assert out.pad_bits == (-msg.indices.size * 5) % 4

    def test_high_psnr_preserves_most_indices(self):
        msg = self.make_message(count=400, seed=6)
        out = transmit_like(msg, AWGN, noise_variance_from_psnr(30.0), rng_tag="hi")
        assert np.mean(out.indices == msg.indices) >= 0.99

    def test_deep_fade_marks_frame_erased(self, monkeypatch):
        msg = self.make_message()
        monkeypatch.setattr(dtjscc, "sample_realization", lambda cfg, rng: 0j)
        out = transmit_like(msg, ChannelConfig(kind=ChannelKind.LEO_RAYLEIGH, modulation="16psk"), 0.1)
        assert out.erased
        assert np.all(out.indices == 0)

    def test_per_symbol_fading_path_round_trips_cleanly(self):
        msg = self.make_message(count=64, seed=7)
        cfg = ChannelConfig(
            kind=ChannelKind.LEO_RICIAN, modulation="4psk", rician_factor=50.0, per_symbol_fading=True
        )
        out = transmit_like(msg, cfg, 0.0)
        assert np.mean(out.indices == msg.indices) >= 0.95

    def test_erased_frame_classifies_as_uniform(self):
        msg = QuantizedMessage(
            indices=np.zeros(8, dtype=np.int64), bits_per_index=5, erased=True
        )
        cb = Codebook(spawn_rng(8, "e").standard_normal((32, 4)))
        clf = nn.init_network([16, 10], ["linear"], seed=0)
        probs = classify(msg, cb, clf)
        np.testing.assert_allclose(probs, np.full((2, 10), 0.1))


class TestBlockCountFromCodebook:
    """The block count is the feature width over ``codebook.dim``; no call passes it."""

    def test_four_block_system_matches_explicit_block_reshape(self, small_splits):
        system = train_dtjscc(small_splits, 8.0, DtjsccConfig(k=32, blocks=4, epochs=2, seed=9))
        assert system.feature_dim // system.codebook.dim == 4
        feats = encode(small_splits.test, system.encoder)
        msg = quantize(feats, system.codebook)
        probs = classify(msg, system.codebook, system.classifier)
        # The former explicit-blocks path: (B, A) -> (4B, A/4) rows, and back.
        b, a = feats.shape
        want_indices = system.codebook.nearest(feats.reshape(b * 4, a // 4))
        rows = system.codebook.entries[want_indices]
        want_vectors = rows.reshape(want_indices.size // 4, 4 * system.codebook.dim)
        want_probs = nn.softmax(nn.forward(system.classifier, want_vectors))
        assert msg.indices.tobytes() == want_indices.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_width_not_a_multiple_of_the_codebook_dim_is_rejected(self):
        cb = Codebook(spawn_rng(3, "w").standard_normal((32, 5)))
        vectors = np.zeros((3, 16))
        clf = nn.init_network([16, 10], ["linear"], seed=0)
        msg = QuantizedMessage(np.zeros(3, dtype=np.int64), cb.bits_per_index)
        channel_args = (ChannelConfig(kind=ChannelKind.AWGN, modulation="4psk"), 10.0, 3)
        match = r"^feature width 16 is not a multiple of codebook dim 5$"
        with pytest.raises(ValueError, match=match):
            quantize(vectors, cb)
        with pytest.raises(ValueError, match=match):
            classify(msg, cb, clf)
        with pytest.raises(ValueError, match=match):
            send_over_channel(vectors, cb, *channel_args, [spawn_rng(0, "w")])
        with pytest.raises(ValueError, match=match):
            classify_over_channel(vectors, cb, clf, *channel_args, 0, "w")


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
        msg = quantize(feats, trained.codebook)
        probs = classify(msg, trained.codebook, trained.classifier)
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
        forget_training()  # train again rather than copy
        b = train_dtjscc(small_splits, train_psnr_db=8.0, cfg=cfg)
        np.testing.assert_array_equal(a.codebook.entries, b.codebook.entries)
        np.testing.assert_array_equal(
            a.encoder.layers[0].weights, b.encoder.layers[0].weights
        )
        assert a.history == b.history


# Codeword coordinates, zeros of both signs among them.
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4.0, 4.0))


@st.composite
def codeword_rows(draw):
    """A small matrix, some of whose rows are forced to repeat, zeros sign-flipped or not."""
    k, dim = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    rows = np.array(draw(st.lists(st.lists(COORDINATES, min_size=dim, max_size=dim), min_size=k, max_size=k)))
    for src, dst, flip in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.booleans()))):
        row = rows[src].copy()
        if flip:
            row[row == 0.0] *= -1.0
        rows[dst] = row
    return rows


class TestDuplicateCodewords:
    @given(codeword_rows())
    def test_the_verdict_is_np_unique_s(self, rows):
        """``np.unique(axis=0)`` is the slow reference; it loads ``numpy.ma``."""
        assert dtjscc._has_duplicate_rows(rows) == (np.unique(rows, axis=0).shape[0] != len(rows))

    def test_training_that_leaves_two_codewords_equal_raises(self, small_splits, monkeypatch):
        """Two equal codewords far from every feature are never nearest, so no
        gradient moves them and they leave training still equal."""
        real = dtjscc._init_codebook

        def with_a_far_pair(features, k, rng):
            entries = real(features, k, rng)
            entries[-2:] = 1e6
            return entries

        monkeypatch.setattr(dtjscc, "_init_codebook", with_a_far_pair)
        cfg = DtjsccConfig(k=8, epochs=2, batch_size=32, seed=3)
        with pytest.raises(RuntimeError, match="^duplicate codewords after training$"):
            dtjscc._train_system(small_splits, 8.0, cfg)


def reference_train(splits, train_psnr_db, cfg):
    """The generic training loop the lean step replaced, kept as its oracle.

    Same initialisation, early stopping on patience and
    :class:`DivergenceError` on a non-finite epoch loss as ``train_dtjscc``;
    each step goes through ``nn.forward_cached``, ``nn.backward`` and
    ``nn.sgd_step``. Returns encoder, classifier, codebook and the loss history.
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
        [a, len(EUROSAT_CLASS_NAMES)], ["linear"], spawn_rng(cfg.seed, "clf").integers(2**32)
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
        if not math.isfinite(epoch_loss):
            raise DivergenceError(
                f"training diverged at epoch {epoch} (loss {epoch_loss}) "
                f"at dtjscc.learning_rate = {cfg.learning_rate}"
            )
        if epoch_loss < best_loss - 1e-6:
            best_loss, best_epoch = epoch_loss, epoch
        elif epoch - best_epoch >= cfg.patience:
            break
    return encoder, classifier, codebook, history


def assert_matches_reference(system, splits, train_psnr_db, cfg):
    """Every trained tensor and the loss history equal the reference loop's, bit for bit."""
    encoder, classifier, codebook, history = reference_train(splits, train_psnr_db, cfg)
    for got, want in zip(
        system.encoder.layers + system.classifier.layers,
        encoder.layers + classifier.layers,
    ):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.biases.tobytes() == want.biases.tobytes()
    assert system.codebook.entries.tobytes() == codebook.entries.tobytes()
    assert system.history == history


class TestLeanStepMatchesReference:
    @pytest.mark.parametrize("blocks", [1, 4])
    @pytest.mark.parametrize("k", [32, 64])
    @pytest.mark.parametrize("train_psnr_db", [4.0, math.inf])
    def test_every_parameter_and_loss_is_bit_identical(
        self, small_splits, blocks, k, train_psnr_db
    ):
        cfg = DtjsccConfig(k=k, blocks=blocks, epochs=3, batch_size=32, seed=21)
        system = train_dtjscc(small_splits, train_psnr_db, cfg)
        assert_matches_reference(system, small_splits, train_psnr_db, cfg)
        assert len(system.history) == 3

    def test_short_last_batch(self, small_splits):
        cfg = DtjsccConfig(k=32, blocks=4, epochs=3, batch_size=100, seed=23)
        assert len(small_splits.train) % cfg.batch_size == 10
        system = train_dtjscc(small_splits, 4.0, cfg)
        assert_matches_reference(system, small_splits, 4.0, cfg)

    def test_early_stop_on_patience(self, small_splits):
        cfg = DtjsccConfig(k=32, blocks=4, epochs=40, batch_size=32, patience=2, seed=22)
        with pytest.warns(UserWarning, match="training stalled"):
            system = train_dtjscc(small_splits, 4.0, cfg)
        assert not system.converged and len(system.history) < cfg.epochs
        assert_matches_reference(system, small_splits, 4.0, cfg)

    def test_non_finite_loss_stops_training_at_once(self, tmp_path):
        (tmp_path / "nan.ini").write_text(DIVERGING_INI)
        loaded = load_config(str(tmp_path / "nan.ini"), 0)
        splits, _ = generate_synthetic(loaded.dataset)
        cfg = loaded.dtjscc
        with np.errstate(all="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as got:
                train_dtjscc(splits, 4.0, cfg)
            with pytest.raises(DivergenceError) as want:
                reference_train(splits, 4.0, cfg)
        assert str(got.value) == str(want.value) == (
            "training diverged at epoch 0 (loss nan) at dtjscc.learning_rate = 0.05"
        )
        assert not caught

    def test_trained_tensors_share_no_memory(self, small_system):
        nets = (small_system.encoder, small_system.classifier)
        tensors = [a for net in nets for layer in net.layers for a in (layer.weights, layer.biases)]
        tensors.append(small_system.codebook.entries)
        for i, a in enumerate(tensors):
            assert a.base is None
            for b in tensors[i + 1 :]:
                assert not np.shares_memory(a, b)


def system_tensors(system):
    nets = (system.encoder, system.classifier)
    arrays = [a for net in nets for layer in net.layers for a in (layer.weights, layer.biases)]
    return arrays + [system.codebook.entries]


def assert_same_system(got, want):
    """Every tensor byte, activation, history entry and flag agree; no memory is shared."""
    got_arrays, want_arrays = system_tensors(got), system_tensors(want)
    assert [a.tobytes() for a in got_arrays] == [a.tobytes() for a in want_arrays]
    assert not any(np.shares_memory(a, b) for a in got_arrays for b in want_arrays)
    nets = ("encoder", "classifier")
    assert [[layer.activation for layer in getattr(got, net).layers] for net in nets] == [
        [layer.activation for layer in getattr(want, net).layers] for net in nets
    ]
    assert got.history == want.history and got.history is not want.history
    assert got.val_accuracy == want.val_accuracy
    assert got.converged == want.converged


CACHE_CFG = DtjsccConfig(k=32, blocks=4, epochs=1, batch_size=32, seed=5)

# A valid value other than CACHE_CFG's for every DtjsccConfig field.
OTHER_SETTING = {
    "k": 64,
    "feature_dim": 8,
    "encoder_hidden": 32,
    "blocks": 2,
    "epochs": 2,
    "batch_size": 50,
    "learning_rate": 0.04,
    "codebook_weight": 0.5,
    "commitment_weight": 0.5,
    "patience": 5,
    "seed": 6,
}


def with_train(splits, **changes):
    return dataclasses.replace(splits, train=dataclasses.replace(splits.train, **changes))


def one_pixel_changed(splits):
    pixels = splits.train.pixels.copy()
    pixels[3, 2, 1, 0] = np.nextafter(pixels[3, 2, 1, 0], np.inf)
    return with_train(splits, pixels=pixels)


def one_label_changed(splits):
    labels = splits.train.labels.copy()
    labels[3] = (labels[3] + 1) % len(EUROSAT_CLASS_NAMES)
    return with_train(splits, labels=labels)


def split_point_moved(splits):
    train, val = splits.train, splits.val
    both = Dataset(
        np.concatenate([train.pixels, val.pixels]),
        np.concatenate([train.labels, val.labels]),
    )
    n = len(train) - 1
    return SplitDatasets(both.subset(slice(0, n)), both.subset(slice(n, len(both))), splits.test)


class TestTrainingCache:
    def test_a_repeat_returns_what_a_fresh_training_gives(self, small_splits, trainings):
        fresh = train_dtjscc(small_splits, 4.0, CACHE_CFG)
        repeat = train_dtjscc(small_splits, 4.0, CACHE_CFG)
        assert len(trainings) == 1
        assert_same_system(repeat, fresh)

    def test_changing_a_returned_system_leaves_the_next_repeat_as_trained(
        self, small_splits, trainings
    ):
        system = train_dtjscc(small_splits, 4.0, CACHE_CFG)
        want = copy.deepcopy(system)
        for _ in range(2):  # change the trained system, then a copy from the cache
            for array in system_tensors(system):
                array += 1.0
            system.history.append(0.0)
            system.val_accuracy, system.converged = 0.0, False
            system = train_dtjscc(small_splits, 4.0, CACHE_CFG)
            assert_same_system(system, want)
        assert len(trainings) == 1

    @pytest.mark.parametrize(
        "change, train_psnr_db",
        [(one_pixel_changed, 4.0), (one_label_changed, 4.0), (split_point_moved, 4.0), (None, 4.5)],
        ids=["pixel", "label", "split_point", "train_psnr_db"],
    )
    def test_other_data_or_psnr_trains_again(self, small_splits, trainings, change, train_psnr_db):
        train_dtjscc(small_splits, 4.0, CACHE_CFG)
        train_dtjscc(change(small_splits) if change else small_splits, train_psnr_db, CACHE_CFG)
        assert len(trainings) == 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DtjsccConfig)])
    def test_any_other_setting_trains_again(self, small_splits, trainings, name):
        train_dtjscc(small_splits, 4.0, CACHE_CFG)
        train_dtjscc(small_splits, 4.0, dataclasses.replace(CACHE_CFG, **{name: OTHER_SETTING[name]}))
        assert len(trainings) == 2

    def test_a_stalled_training_warns_again_on_the_repeat(self, small_splits, trainings):
        cfg = DtjsccConfig(k=32, blocks=4, epochs=40, batch_size=32, patience=2, seed=22)
        messages = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                system = train_dtjscc(small_splits, 4.0, cfg)
            messages.append([str(w.message) for w in caught if w.category is UserWarning])
            assert not system.converged
        assert len(trainings) == 1
        assert messages[0] == messages[1]
        assert any(m.startswith("training stalled") for m in messages[0])


def oracle_save_codebook(path, codebook):
    """The path-based codebook writer ``codebook_file`` replaced, kept verbatim as its oracle."""
    with open(path, "wb") as fh:
        fh.write(dtjscc.CODEBOOK_MAGIC)
        fh.write(struct.pack("<II", codebook.k, codebook.dim))
        fh.write(codebook.entries.astype("<f8").tobytes(order="C"))


class TestPersistence:
    @pytest.mark.parametrize("k,dim", [(2, 1), (32, 4), (64, 7)])
    def test_codebook_bytes_equal_the_path_writer(self, tmp_path, k, dim):
        cb = Codebook(spawn_rng(10, "p", k).standard_normal((k, dim)))
        oracle_save_codebook(str(tmp_path / "cb.mcb1"), cb)
        assert codebook_file(cb) == (tmp_path / "cb.mcb1").read_bytes()

    def test_codebook_round_trip(self):
        cb = Codebook(spawn_rng(10, "p").standard_normal((64, 4)))
        back = read_codebook(codebook_file(cb))
        np.testing.assert_array_equal(back.entries, cb.entries)
        assert back.entries.flags.writeable

    def test_codebook_bad_magic_and_truncation(self):
        with pytest.raises(CodebookError, match=r"^bad magic b'XXXX'$"):
            read_codebook(b"XXXX" + b"\x00" * 12)
        blob = codebook_file(Codebook(spawn_rng(11, "p").standard_normal((32, 4))))
        with pytest.raises(CodebookError, match="^truncated header$"):
            read_codebook(blob[:9])
        with pytest.raises(CodebookError, match="^truncated entries$"):
            read_codebook(blob[: len(blob) - 3])

    @pytest.mark.parametrize(
        "entries,message",
        [
            (np.zeros((3, 2)), r"^codebook size must be a power of two in \[2, 65536\], got 3$"),
            (np.zeros((0, 2)), r"^codebook size must be a power of two in \[2, 65536\], got 0$"),
            (np.array([[0.0, np.nan], [1.0, 1.0]]), "^codewords must be finite$"),
            (np.zeros((4, 0)), r"^entries must be \(K, dim\) with dim at least 1$"),
        ],
        ids=["K=3", "K=0", "nan", "dim=0"],
    )
    def test_a_codebook_that_cannot_be_built_raises_a_codebook_error(self, entries, message):
        blob = CODEBOOK_MAGIC + struct.pack("<II", *entries.shape) + entries.astype("<f8").tobytes()
        with pytest.raises(CodebookError, match=message):
            read_codebook(blob)

    @pytest.mark.parametrize(
        "dim,inputs,message",
        [
            (3, 4, r"^encoder\.mnn1 width 4 is not a multiple of codebook\.mcb1 dim 3$"),
            (2, 5, r"^classifier\.mnn1 takes 5 inputs, but encoder\.mnn1 width is 4$"),
        ],
        ids=["codebook", "classifier"],
    )
    def test_a_bundle_whose_parts_do_not_fit_is_refused(self, tmp_path, dim, inputs, message):
        system = TrainedSystem(
            encoder=nn.init_network([6, 8, 4], ["relu", "relu"], seed=1),
            codebook=Codebook(spawn_rng(12, "p").standard_normal((4, dim))),
            classifier=nn.init_network([inputs, 10], ["linear"], seed=2),
        )
        write_files(str(tmp_path / "bundle"), bundle_files(system))
        with pytest.raises(nn.CheckpointError, match=message):
            load_bundle(str(tmp_path / "bundle"))

    def test_bundle_bytes_equal_the_path_writers(self, tmp_path, small_system):
        oracle_save_codebook(str(tmp_path / "cb"), small_system.codebook)
        files = bundle_files(small_system)
        assert list(files) == ["encoder.mnn1", "classifier.mnn1", "codebook.mcb1"]
        assert files["codebook.mcb1"] == (tmp_path / "cb").read_bytes()
        assert files["encoder.mnn1"] == nn.network_file(small_system.encoder)
        assert files["classifier.mnn1"] == nn.network_file(small_system.classifier)

    @staticmethod
    def assert_same_bundle(back, system):
        for mine, theirs in ((system.encoder, back.encoder), (system.classifier, back.classifier)):
            for a, b in zip(mine.layers, theirs.layers):
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.biases, b.biases)
                assert a.activation == b.activation
        np.testing.assert_array_equal(back.codebook.entries, system.codebook.entries)
        assert back.feature_dim // back.codebook.dim == system.feature_dim // system.codebook.dim

    def test_bundle_round_trip(self, tmp_path, small_system):
        directory = tmp_path / "bundle"
        write_files(str(directory), bundle_files(small_system))
        assert sorted(p.name for p in directory.iterdir()) == sorted(bundle_files(small_system))
        self.assert_same_bundle(load_bundle(str(directory)), small_system)

    def test_a_bundle_that_also_holds_a_covariance_predictor_loads(self, tmp_path, small_system):
        """Bundles once held CSA's untrained covariance predictor as a fourth file; it is not read."""
        directory = tmp_path / "bundle"
        a, c = small_system.feature_dim, small_system.n_classes
        predictor = nn.init_network([a, 32, 32, c * a], ["relu", "relu", "softplus"], seed=7)
        files = {**bundle_files(small_system), "covariance.mnn1": nn.network_file(predictor)}
        write_files(str(directory), files)
        assert len(list(directory.iterdir())) == 4
        self.assert_same_bundle(load_bundle(str(directory)), small_system)
