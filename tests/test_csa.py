"""Augmented loss oracle, bi-level step equivalences, averaging baseline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from semcom import nn
from semcom.csa import (
    COVARIANCE_HIDDEN,
    CovarianceMatrix,
    ROUNDLOG_CSV_HEADER,
    RoundLog,
    _class_means,
    _covariance_backward,
    effective_lambda,
    final_accuracy,
    meta_step,
    predict_covariance,
    rounds_to_target,
    run_fedavg_baseline,
    sa_loss,
)
from semcom.config import ChannelConfig, ChannelKind, FedAvgConfig, SAConfig
from semcom.dtjscc import DivergenceError, encode, send_over_channel, top1_and_ce
from semcom.harness import roundlog_csv
from semcom.seeding import spawn_rng

from conftest import SMALL_TRAIN, zeroed_network


def random_instance(seed, b=8, c=4, a=6):
    rng = spawn_rng(seed, "inst")
    return (
        rng.standard_normal((b, a)),
        rng.integers(0, c, size=b),
        rng.standard_normal((c, a)) * 0.5,
        rng.standard_normal(c) * 0.1,
        CovarianceMatrix(rng.uniform(0.05, 1.5, size=(c, a))),
    )


def numeric_gradient(fn, arr, eps=1e-6):
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn()
        flat[i] = orig - eps
        down = fn()
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


def max_relative_error(analytic, numeric):
    denom = np.maximum(1e-4, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestSaLossOracle:
    def test_lambda_zero_is_exactly_cross_entropy(self):
        feats, labels, w, b, cov = random_instance(0)
        loss, grads = sa_loss(feats, labels, w, b, cov, lam=0.0)
        logits = feats @ w.T + b
        ce, grad_logits = nn.softmax_cross_entropy(logits, labels)
        assert abs(loss - ce) <= 1e-12
        np.testing.assert_allclose(grads.features, grad_logits @ w, atol=1e-12)
        np.testing.assert_allclose(grads.weights, grad_logits.T @ feats, atol=1e-12)
        np.testing.assert_allclose(grads.biases, grad_logits.sum(axis=0), atol=1e-12)
        np.testing.assert_array_equal(grads.cov, np.zeros_like(cov.per_class_diag))

    def test_loss_monotone_in_lambda(self):
        feats, labels, w, b, cov = random_instance(1)
        losses = [sa_loss(feats, labels, w, b, cov, lam)[0] for lam in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(losses, losses[1:]))

    def test_negative_lambda_rejected(self):
        feats, labels, w, b, cov = random_instance(2)
        with pytest.raises(ValueError):
            sa_loss(feats, labels, w, b, cov, lam=-0.1)

    def test_nan_lambda_rejected(self):
        feats, labels, w, b, cov = random_instance(2)
        with pytest.raises(ValueError):
            sa_loss(feats, labels, w, b, cov, lam=float("nan"))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_all_gradients_match_finite_differences(self, lam):
        for seed in range(3):
            feats, labels, w, b, cov = random_instance(10 + seed)
            diag = cov.per_class_diag

            def value():
                return sa_loss(
                    feats, labels, w, b, CovarianceMatrix(diag.copy()), lam
                )[0]

            _, grads = sa_loss(feats, labels, w, b, CovarianceMatrix(diag.copy()), lam)
            assert max_relative_error(grads.features, numeric_gradient(value, feats)) < 1e-5
            assert max_relative_error(grads.weights, numeric_gradient(value, w)) < 1e-5
            assert max_relative_error(grads.biases, numeric_gradient(value, b)) < 1e-5
            assert max_relative_error(grads.cov, numeric_gradient(value, diag)) < 1e-5

    def test_covariance_must_be_non_negative(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.array([[0.1, -0.2]]))


class TestCovariancePrediction:
    def make_reference(self, seed=0, b=24, c=4, a=6, missing=None):
        rng = spawn_rng(seed, "ref")
        labels = rng.integers(0, c, size=b)
        if missing is not None:
            labels[labels == missing] = (missing + 1) % c
        return rng.standard_normal((b, a)), labels

    def make_predictor(self, c=4, a=6, seed=3):
        return nn.init_network([a, 16, 16, c * a], ["relu", "relu", "softplus"], seed)

    def test_zero_network_predicts_ln_two(self):
        g = zeroed_network([6, 24], ["softplus"])
        cov, _ = predict_covariance(g, self.make_reference())
        np.testing.assert_allclose(cov.per_class_diag, np.log(2.0), atol=1e-12)

    def test_always_non_negative(self):
        cov, _ = predict_covariance(self.make_predictor(), self.make_reference(seed=5))
        assert np.all(cov.per_class_diag >= 0)

    def test_matches_per_class_slice_oracle(self):
        c, a = 4, 6
        g = self.make_predictor(c, a)
        vectors, labels = ref = self.make_reference(seed=6, c=c, a=a)
        cov, _ = predict_covariance(g, ref)
        means = np.stack(
            [vectors[labels == cls].mean(axis=0) for cls in range(c)]
        )
        out = nn.forward(g, means)
        for cls in range(c):
            np.testing.assert_allclose(
                cov.per_class_diag[cls], out[cls, cls * a : (cls + 1) * a], atol=1e-12
            )

    def test_missing_class_falls_back_to_global_mean(self):
        c, a = 4, 6
        g = self.make_predictor(c, a)
        ref = self.make_reference(seed=7, c=c, a=a, missing=2)
        cov, _ = predict_covariance(g, ref)
        out = nn.forward(g, ref[0].mean(axis=0, keepdims=True))
        np.testing.assert_allclose(
            cov.per_class_diag[2], out[0, 2 * a : 3 * a], atol=1e-12
        )

    def test_reference_order_does_not_matter(self):
        g = self.make_predictor()
        vectors, labels = ref = self.make_reference(seed=8)
        perm = spawn_rng(9, "perm").permutation(len(labels))
        shuffled = (vectors[perm], labels[perm])
        np.testing.assert_allclose(
            predict_covariance(g, ref)[0].per_class_diag,
            predict_covariance(g, shuffled)[0].per_class_diag,
            atol=1e-12,
        )

    def test_wiring_validation(self):
        with pytest.raises(ValueError):
            predict_covariance(
                nn.init_network([6, 9], ["softplus"], 0), self.make_reference()
            )
        ref = self.make_reference()
        ref[1][0] = 99
        with pytest.raises(ValueError):
            predict_covariance(self.make_predictor(), ref)


def loop_class_means(reference, n_classes):
    """``_class_means`` as the per-class loop it replaced."""
    vectors, labels = reference
    fallback = vectors.mean(axis=0)
    means = np.empty((n_classes, vectors.shape[1]))
    for cls in range(n_classes):
        mask = labels == cls
        means[cls] = vectors[mask].mean(axis=0) if mask.any() else fallback
    return means


def loop_predict_covariance(g, reference):
    """``predict_covariance`` with the per-class mean loop and diagonal slices it replaced."""
    a = g.input_dim
    n_classes = g.output_dim // a
    out, caches = nn.forward_cached(g, loop_class_means(reference, n_classes))
    diag = np.empty((n_classes, a))
    for cls in range(n_classes):
        diag[cls] = out[cls, cls * a : (cls + 1) * a]
    return CovarianceMatrix(diag), caches


def loop_covariance_backward(g, caches, d_diag):
    """``_covariance_backward`` with the per-class scatter loop it replaced."""
    n_classes, a = d_diag.shape
    upstream = np.zeros((n_classes, n_classes * a))
    for cls in range(n_classes):
        upstream[cls, cls * a : (cls + 1) * a] = d_diag[cls]
    return nn.backward(g, caches, upstream)


def covariance_path_bytes(class_means, predict, backward, g, reference):
    """Every array the covariance path yields, as bytes: means, diagonal, caches, g's gradients."""
    n_classes = g.output_dim // g.input_dim
    means = class_means(reference, n_classes)
    cov, caches = predict(g, reference)
    weights = spawn_rng(31, "clf").standard_normal((n_classes, g.input_dim))
    _, grads = sa_loss(*reference, weights, np.zeros(n_classes), cov, 0.5)
    g_grads = backward(g, caches, grads.cov)
    arrays = [means, cov.per_class_diag]
    arrays += [a for cache in caches for a in (cache.x, cache.preact)]
    arrays += [a for dw, db in g_grads.layers for a in (dw, db)] + [g_grads.wrt_input]
    return [a.tobytes() for a in arrays]


class TestCovariancePathMatchesLoops:
    """The vectorized means, diagonal gather and scatter against the loops they replaced, bit for bit."""

    C, A = 5, 6

    def predictor(self):
        return nn.init_network([self.A, 12, self.C * self.A], ["relu", "softplus"], seed=30)

    def assert_same(self, g, reference):
        mine = covariance_path_bytes(
            _class_means, predict_covariance, _covariance_backward, g, reference
        )
        theirs = covariance_path_bytes(
            loop_class_means, loop_predict_covariance, loop_covariance_backward, g, reference
        )
        assert mine == theirs

    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches_with_absent_classes(self, seed):
        rng = spawn_rng(seed, "absent")
        present = rng.choice(self.C, size=rng.integers(1, self.C + 1), replace=False)
        b = int(rng.integers(1, 40))
        labels = rng.choice(present, size=b)
        vectors = rng.standard_normal((b, self.A)) * rng.uniform(0.1, 10.0)
        self.assert_same(self.predictor(), (vectors, labels))

    def test_one_sample_classes(self):
        rng = spawn_rng(0, "single")
        labels = np.array([0, 1, 1, 1, 3, 4, 4])  # classes 0 and 3 once, class 2 absent
        self.assert_same(self.predictor(), (rng.standard_normal((7, self.A)), labels))

    def test_single_item_batch(self):
        ref = (spawn_rng(1, "one").standard_normal((1, self.A)), np.array([2]))
        self.assert_same(self.predictor(), ref)

    def test_inter_satellite_link_batch(self, small_system, small_splits):
        train = small_splits.train
        sent = train.subset(spawn_rng(0, "ref", 0).choice(len(train), size=64, replace=False))
        vectors, erased, _ = send_over_channel(
            encode(sent, small_system.encoder),
            small_system.codebook,
            ChannelConfig(kind=ChannelKind.ISL),
            12.0,
            64,
            [spawn_rng(0, "isl", 0)],
        )
        assert not erased.any()
        a, c = small_system.feature_dim, small_system.n_classes
        seed = spawn_rng(SMALL_TRAIN.seed, "cov").integers(2**32)  # the predictor a scenario would build
        g = nn.init_network([a, *COVARIANCE_HIDDEN, c * a], ["relu", "relu", "softplus"], seed)
        self.assert_same(g, (vectors, sent.labels))
        absent = sent.labels != 3
        self.assert_same(g, (vectors[absent], sent.labels[absent]))

    def test_error_messages(self):
        ref = (np.zeros((4, self.A)), np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError, match=r"^predictor output 9 is not a multiple of input 6$"):
            predict_covariance(nn.init_network([6, 9], ["softplus"], 0), ref)
        too_big = (np.zeros((2, self.A)), np.array([0, self.C]))
        with pytest.raises(ValueError, match=r"^reference labels exceed predictor class count$"):
            predict_covariance(self.predictor(), too_big)


def plain_sgd_inner(encoder, classifier, x, y, steps, lr):
    """Reference inner loop: vanilla cross-entropy SGD, same operation order."""
    for _ in range(steps):
        if encoder is not None:
            feats, caches_f = nn.forward_cached(encoder, x)
        else:
            feats, caches_f = x, None
        logits, caches_l = nn.forward_cached(classifier, feats)
        _, grad = nn.softmax_cross_entropy(logits, y)
        grads_l = nn.backward(classifier, caches_l, grad)
        if encoder is not None:
            grads_f = nn.backward(encoder, caches_f, grads_l.wrt_input)
            nn.sgd_step(encoder, grads_f, lr)
        nn.sgd_step(classifier, grads_l, lr)


class TestMetaStep:
    def setup_instances(self, seed=0, b=16, c=4, a=6):
        rng = spawn_rng(seed, "ms")
        x = rng.standard_normal((b, a))
        y = rng.integers(0, c, size=b)
        ref = (rng.standard_normal((20, a)), rng.integers(0, c, size=20))
        g = nn.init_network([a, 12, c * a], ["relu", "softplus"], seed=seed + 1)
        clf = nn.init_network([a, c], ["linear"], seed=seed + 2)
        return x, y, ref, g, clf

    def test_lambda_zero_matches_plain_sgd_classifier_only(self):
        x, y, ref, g, clf = self.setup_instances(0)
        cfg = SAConfig(sa_lambda=0.0, inner_steps=3, meta_learning_rate=0.05, inner_learning_rate=0.1)
        mine = clf.copy()
        g_before = [layer.weights.copy() for layer in g.layers]
        meta_step(g, None, clf, ref, (x, y), cfg)
        plain_sgd_inner(None, mine, x, y, steps=3, lr=0.1)
        np.testing.assert_array_equal(clf.layers[0].weights, mine.layers[0].weights)
        np.testing.assert_array_equal(clf.layers[0].biases, mine.layers[0].biases)
        for before, layer in zip(g_before, g.layers):
            np.testing.assert_array_equal(before, layer.weights)

    def test_lambda_zero_matches_plain_sgd_with_encoder(self):
        x, y, ref, g, clf = self.setup_instances(4)
        encoder = nn.init_network([6, 10, 6], ["tanh", "linear"], seed=11)
        cfg = SAConfig(sa_lambda=0.0, inner_steps=2, meta_learning_rate=0.05, inner_learning_rate=0.05)
        my_encoder, my_clf = encoder.copy(), clf.copy()
        meta_step(g, encoder, clf, ref, (x, y), cfg)
        plain_sgd_inner(my_encoder, my_clf, x, y, steps=2, lr=0.05)
        for a_, b_ in zip(encoder.layers, my_encoder.layers):
            np.testing.assert_array_equal(a_.weights, b_.weights)
        np.testing.assert_array_equal(clf.layers[0].weights, my_clf.layers[0].weights)

    def test_positive_lambda_moves_covariance_predictor(self):
        x, y, ref, g, clf = self.setup_instances(5)
        cfg = SAConfig(sa_lambda=1.0, inner_steps=2, meta_learning_rate=0.1, inner_learning_rate=0.05)
        before = [layer.weights.copy() for layer in g.layers]
        assert predict_covariance(g, ref)[0].per_class_diag.shape == (4, 6)
        info = meta_step(g, None, clf, ref, (x, y), cfg)
        assert len(info.inner_losses) == 2
        assert any(
            not np.array_equal(b_, layer.weights) for b_, layer in zip(before, g.layers)
        )

    def test_a_zero_meta_rate_leaves_the_predictor_byte_for_byte(self):
        """``meta_lr = 0`` takes a signed-zero step: every nonzero weight and +0.0 bias keeps its bytes."""
        x, y, ref, g, clf = self.setup_instances(9)

        def snapshot(net):
            return [(layer.weights.tobytes(), layer.biases.tobytes()) for layer in net.layers]

        before, moving = snapshot(g), g.copy()
        cfg = SAConfig(sa_lambda=1.0, inner_steps=2, meta_learning_rate=0.0, inner_learning_rate=0.05)
        meta_step(g, None, clf.copy(), ref, (x, y), cfg)
        assert snapshot(g) == before
        meta_step(moving, None, clf.copy(), ref, (x, y), replace(cfg, meta_learning_rate=0.1))
        assert snapshot(moving) != before

    def test_inner_losses_decrease_on_benign_problem(self):
        x, y, ref, g, clf = self.setup_instances(6)
        cfg = SAConfig(sa_lambda=0.3, inner_steps=5, meta_learning_rate=0.01, inner_learning_rate=0.2)
        info = meta_step(g, None, clf, ref, (x, y), cfg)
        assert info.inner_losses[-1] < info.inner_losses[0]

    def test_divergent_inner_rate_raises(self):
        x, y, ref, g, clf = self.setup_instances(7)
        cfg = SAConfig(sa_lambda=0.5, inner_steps=4, meta_learning_rate=0.01, inner_learning_rate=1e4)
        with pytest.raises(DivergenceError):
            meta_step(g, None, clf, ref, (x * 5.0, y), cfg)

    def test_classifier_shape_is_enforced(self):
        x, y, ref, g, _ = self.setup_instances(8)
        stack = nn.init_network([6, 8, 4], ["relu", "linear"], seed=1)
        cfg = SAConfig(sa_lambda=0.5, inner_steps=1, meta_learning_rate=0.01, inner_learning_rate=0.05)
        with pytest.raises(ValueError):
            meta_step(g, None, stack, ref, (x, y), cfg)


def reference_meta_step(g, encoder, classifier, reference, current_batch, cfg):
    """``meta_step`` as it was with its own inline copy of the augmented-loss algebra.

    The inner step backpropagates the plain logits through ``nn.backward``
    and adds the penalty's weight gradient afterwards; the outer step takes
    the loss and covariance gradient of the augmented objective. Returns the
    inner losses and the outer loss.
    """

    def quadratic(weights, labels, cov):
        diffs = weights[None, :, :] - weights[labels][:, None, :]
        sig_y = cov.per_class_diag[labels]
        return np.einsum("bca,ba->bc", diffs**2, sig_y), diffs, sig_y

    layer = classifier.layers[0]
    cov, cov_caches = loop_predict_covariance(g, reference)
    cur_x = np.asarray(current_batch[0], dtype=np.float64)
    cur_y = np.asarray(current_batch[1], dtype=np.int64)
    lam, lr = cfg.sa_lambda, cfg.inner_learning_rate
    inner_losses = []
    first_loss = None
    for _ in range(cfg.inner_steps):
        if encoder is not None:
            feats, caches_f = nn.forward_cached(encoder, cur_x)
        else:
            feats, caches_f = cur_x, None
        logits, caches_l = nn.forward_cached(classifier, feats)
        quad, diffs, sig_y = quadratic(layer.weights.T, cur_y, cov)
        loss, grad_logits = nn.softmax_cross_entropy(logits + (lam * 0.5) * quad, cur_y)
        grads_l = nn.backward(classifier, caches_l, grad_logits)
        coupling = grad_logits[:, :, None] * sig_y[:, None, :] * diffs
        extra = coupling.sum(axis=0)
        np.add.at(extra, cur_y, -coupling.sum(axis=1))
        grads_l.layers[0] = (grads_l.layers[0][0] + lam * extra.T, grads_l.layers[0][1])
        if encoder is not None:
            grads_f = nn.backward(encoder, caches_f, grads_l.wrt_input)
            nn.sgd_step(encoder, grads_f, lr)
        nn.sgd_step(classifier, grads_l, lr)
        inner_losses.append(loss)
        if not np.isfinite(loss):
            raise DivergenceError(f"inner loss {loss} is not finite")
        if first_loss is None:
            first_loss = loss
        elif first_loss > 0 and loss > 10.0 * first_loss:
            raise DivergenceError(f"inner loss {loss:.4f} exceeded 10x initial {first_loss:.4f}")

    vectors, labels = reference
    logits = vectors @ layer.weights + layer.biases
    quad, diffs, _ = quadratic(layer.weights.T, labels, cov)
    outer_loss, grad_logits = nn.softmax_cross_entropy(logits + (lam * 0.5) * quad, labels)
    d_cov = np.zeros_like(cov.per_class_diag)
    np.add.at(d_cov, labels, (lam * 0.5) * np.einsum("bc,bca->ba", grad_logits, diffs**2))
    nn.sgd_step(g, loop_covariance_backward(g, cov_caches, d_cov), cfg.meta_learning_rate)
    return inner_losses, outer_loss


def network_bytes(*nets):
    return [a.tobytes() for net in nets if net is not None for l in net.layers for a in (l.weights, l.biases)]


class TestMetaStepMatchesInlineReference:
    """``meta_step`` through ``sa_loss`` against the inline algebra it replaced, bit for bit."""

    def networks(self, with_encoder, c=4, a=6):
        encoder = nn.init_network([a, 10, a], ["relu", "relu"], seed=21) if with_encoder else None
        clf = nn.init_network([a, c], ["linear"], seed=22)
        g = nn.init_network([a, 12, c * a], ["relu", "softplus"], seed=23)
        return encoder, clf, g

    def batches(self, rounds, b=16, c=4, a=6):
        rng = spawn_rng(24, "rounds")
        for _ in range(rounds):
            ref = (rng.standard_normal((20, a)), rng.integers(0, c, size=20))
            yield ref, (rng.standard_normal((b, a)), rng.integers(0, c, size=b))

    @pytest.mark.parametrize("inner_steps", [0, 1, 3])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("with_encoder", [False, True])
    def test_rounds_are_bit_identical(self, with_encoder, lam, inner_steps):
        cfg = SAConfig(sa_lambda=lam, inner_steps=inner_steps, meta_learning_rate=0.05, inner_learning_rate=0.1)
        mine = self.networks(with_encoder)
        theirs = tuple(net.copy() if net is not None else None for net in mine)
        for ref, batch in self.batches(4):
            info = meta_step(mine[2], mine[0], mine[1], ref, batch, cfg)
            inner, outer = reference_meta_step(theirs[2], theirs[0], theirs[1], ref, batch, cfg)
            assert np.array(info.inner_losses).tobytes() == np.array(inner).tobytes()
            assert np.float64(info.outer_loss).tobytes() == np.float64(outer).tobytes()
            assert network_bytes(*mine) == network_bytes(*theirs)

    @pytest.mark.parametrize("with_encoder", [False, True])
    def test_divergence_is_raised_at_the_same_step(self, with_encoder):
        cfg = SAConfig(sa_lambda=0.5, inner_steps=4, meta_learning_rate=0.01, inner_learning_rate=1e4)
        mine = self.networks(with_encoder)
        theirs = tuple(net.copy() if net is not None else None for net in mine)
        ref, (x, y) = next(self.batches(1))
        with pytest.raises(DivergenceError) as got:
            meta_step(mine[2], mine[0], mine[1], ref, (x * 5.0, y), cfg)
        with pytest.raises(DivergenceError) as want:
            reference_meta_step(theirs[2], theirs[0], theirs[1], ref, (x * 5.0, y), cfg)
        assert str(got.value) == str(want.value)
        assert network_bytes(*mine) == network_bytes(*theirs)

    @pytest.mark.parametrize("with_encoder", [False, True])
    def test_a_non_finite_inner_loss_is_raised_at_the_first_step(self, with_encoder):
        # The 10x rule alone never fires here: every comparison with NaN is false.
        cfg = SAConfig(sa_lambda=0.5, inner_steps=4, meta_learning_rate=0.01, inner_learning_rate=0.1)
        mine = self.networks(with_encoder)
        theirs = tuple(net.copy() if net is not None else None for net in mine)
        g_before = network_bytes(mine[2])
        ref, (x, y) = next(self.batches(1))
        x[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="inner loss nan is not finite") as got, np.errstate(all="ignore"):
            meta_step(mine[2], mine[0], mine[1], ref, (x, y), cfg)
        with pytest.raises(DivergenceError) as want, np.errstate(all="ignore"):
            reference_meta_step(theirs[2], theirs[0], theirs[1], ref, (x, y), cfg)
        assert str(got.value) == str(want.value)
        assert network_bytes(mine[2]) == g_before  # raised before the outer step moved g


class TestLambdaSchedule:
    def test_linear_warmup_then_flat(self):
        sa = SAConfig(sa_lambda=0.8, rounds=30, warmup_fraction=0.25)
        assert effective_lambda(sa, 0) == pytest.approx(0.1)
        assert effective_lambda(sa, 7) == pytest.approx(0.8)
        assert effective_lambda(sa, 29) == pytest.approx(0.8)

    def test_zero_warmup_starts_at_base(self):
        assert effective_lambda(SAConfig(sa_lambda=0.8, rounds=30, warmup_fraction=0.0), 0) == 0.8


def make_logs(values, side="ut"):
    return [
        RoundLog(round_index=i, side=side, top1_accuracy=v, ce_loss=1.0, sa_loss=1.0, bits_transmitted=10)
        for i, v in enumerate(values)
    ]


class TestRoundLogHelpers:
    def test_rounds_to_target_first_crossing(self):
        logs = make_logs([0.2, 0.4, 0.61, 0.5, 0.7])
        assert rounds_to_target(logs, 0.6, "ut") == 2
        assert rounds_to_target(logs, 0.9, "ut") is None

    def test_rounds_to_target_filters_by_side(self):
        logs = make_logs([0.9, 0.9], side="sat2") + make_logs([0.1, 0.95], side="ut")
        assert rounds_to_target(logs, 0.9, "ut") == 1

    def test_final_accuracy_windows(self):
        logs = make_logs([0.1, 0.2, 0.6, 0.8])
        assert final_accuracy(logs, "ut") == pytest.approx(0.8)
        assert final_accuracy(logs, "ut", window=2) == pytest.approx(0.7)
        assert final_accuracy(logs, "ut", window=99) == pytest.approx(0.425)
        with pytest.raises(ValueError):
            final_accuracy(logs, "sat2")

    def test_csv_row_shape(self):
        header, row = roundlog_csv(make_logs([0.5])).splitlines()
        assert header == ROUNDLOG_CSV_HEADER
        assert len(row.split(",")) == len(ROUNDLOG_CSV_HEADER.split(","))
        assert float(row.split(",")[2]) == 0.5


def blob_shard(seed, n=60, c=4, a=8, spread=3.0):
    rng = spawn_rng(seed, "blob")
    centers = rng.standard_normal((c, a)) * spread
    labels = rng.integers(0, c, size=n)
    return centers[labels] + rng.standard_normal((n, a)) * 0.5, labels


def pooled_scorer(clients):
    """Top-1 and cross-entropy of a classifier on the pooled shards, in the clear."""
    x = np.concatenate([features for features, _ in clients])
    y = np.concatenate([labels for _, labels in clients])
    return lambda net: top1_and_ce(nn.softmax(nn.forward(net, x)), y)


class TestFedAvg:
    CFG = FedAvgConfig(local_epochs=1, batch_size=16, learning_rate=0.1, seed=5)

    def centralized_oracle(self, shard, classifier, n_rounds):
        x, y = shard
        for r in range(n_rounds):
            rng = spawn_rng(self.CFG.seed, "fed_round", r)
            order = rng.permutation(x.shape[0])
            for start in range(0, order.size, self.CFG.batch_size):
                batch = order[start : start + self.CFG.batch_size]
                logits, caches = nn.forward_cached(classifier, x[batch])
                _, grad = nn.softmax_cross_entropy(logits, y[batch])
                grads = nn.backward(classifier, caches, grad)
                nn.sgd_step(classifier, grads, self.CFG.learning_rate)

    def test_single_client_reproduces_centralized_sgd(self):
        shard = blob_shard(0)
        start = nn.init_network([8, 4], ["linear"], seed=1)
        fed = start.copy()
        run_fedavg_baseline([shard], replace(self.CFG, rounds=4), pooled_scorer([shard]), fed)
        mine = start.copy()
        self.centralized_oracle(shard, mine, 4)
        np.testing.assert_array_equal(fed.layers[0].weights, mine.layers[0].weights)
        np.testing.assert_array_equal(fed.layers[0].biases, mine.layers[0].biases)

    def test_identical_shards_average_to_the_same_model(self):
        shard = blob_shard(1)
        start = nn.init_network([8, 4], ["linear"], seed=2)
        solo, duo = start.copy(), start.copy()
        score = pooled_scorer([shard])
        logs_solo = run_fedavg_baseline([shard], replace(self.CFG, rounds=3), score, solo)
        logs_duo = run_fedavg_baseline([shard, shard], replace(self.CFG, rounds=3), score, duo)
        np.testing.assert_array_equal(solo.layers[0].weights, duo.layers[0].weights)
        assert [l.top1_accuracy for l in logs_solo] == [l.top1_accuracy for l in logs_duo]

    def test_bits_count_full_exchange_per_round(self):
        shard = blob_shard(2)
        clf = nn.init_network([8, 4], ["linear"], seed=3)
        logs = run_fedavg_baseline([shard, shard], replace(self.CFG, rounds=2), pooled_scorer([shard]), clf)
        expected = clf.parameter_count * 64 * 2 * 2
        assert all(l.bits_transmitted == expected for l in logs)
        assert all(l.side == "server" for l in logs)

    def test_disjoint_shards_still_learn_pooled_task(self):
        x, y = blob_shard(3, n=200)
        mask = y < 2
        clients = [(x[mask], y[mask]), (x[~mask], y[~mask])]
        start = nn.init_network([8, 4], ["linear"], seed=4)
        logs = run_fedavg_baseline(clients, replace(self.CFG, rounds=20), pooled_scorer(clients), start)
        assert logs[-1].top1_accuracy >= 0.8
        assert logs[-1].top1_accuracy > logs[0].top1_accuracy

    def test_custom_eval_fn_drives_the_log(self):
        shard = blob_shard(4)
        calls = []

        def eval_fn(net):
            calls.append(1)
            return 0.42, 1.3

        start = nn.init_network([8, 4], ["linear"], seed=5)
        logs = run_fedavg_baseline([shard], replace(self.CFG, rounds=3), eval_fn, start)
        assert len(calls) == 3
        assert all(l.top1_accuracy == 0.42 for l in logs)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one client"):
            run_fedavg_baseline(
                [], replace(self.CFG, rounds=2), lambda net: (0.0, 0.0), nn.init_network([8, 4], ["linear"], seed=6)
            )
