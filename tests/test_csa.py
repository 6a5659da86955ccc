"""Augmented loss oracle, bi-level step equivalences, averaging baseline."""

from __future__ import annotations

import numpy as np
import pytest

from semcom import nn
from semcom.csa import (
    CovarianceMatrix,
    DivergenceError,
    FedAvgConfig,
    ROUNDLOG_CSV_HEADER,
    RoundLog,
    SAConfig,
    effective_lambda,
    final_accuracy,
    meta_step,
    predict_covariance,
    rounds_to_target,
    run_fedavg_baseline,
    sa_loss,
)
from semcom.dtjscc import SemanticFeatures
from semcom.seeding import spawn_rng


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
        return SemanticFeatures(rng.standard_normal((b, a)), labels)

    def make_predictor(self, c=4, a=6, seed=3):
        return nn.init_network([a, 16, 16, c * a], ["relu", "relu", "softplus"], seed)

    def test_zero_network_predicts_ln_two(self):
        g = nn.zeroed_network([6, 24], ["softplus"])
        cov = predict_covariance(g, self.make_reference())
        np.testing.assert_allclose(cov.per_class_diag, np.log(2.0), atol=1e-12)

    def test_always_non_negative(self):
        cov = predict_covariance(self.make_predictor(), self.make_reference(seed=5))
        assert np.all(cov.per_class_diag >= 0)

    def test_matches_per_class_slice_oracle(self):
        c, a = 4, 6
        g = self.make_predictor(c, a)
        ref = self.make_reference(seed=6, c=c, a=a)
        cov = predict_covariance(g, ref)
        means = np.stack(
            [ref.vectors[ref.labels == cls].mean(axis=0) for cls in range(c)]
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
        cov = predict_covariance(g, ref)
        out = nn.forward(g, ref.vectors.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(
            cov.per_class_diag[2], out[0, 2 * a : 3 * a], atol=1e-12
        )

    def test_reference_order_does_not_matter(self):
        g = self.make_predictor()
        ref = self.make_reference(seed=8)
        perm = spawn_rng(9, "perm").permutation(len(ref.labels))
        shuffled = SemanticFeatures(ref.vectors[perm], ref.labels[perm])
        np.testing.assert_allclose(
            predict_covariance(g, ref).per_class_diag,
            predict_covariance(g, shuffled).per_class_diag,
            atol=1e-12,
        )

    def test_wiring_validation(self):
        with pytest.raises(ValueError):
            predict_covariance(
                nn.init_network([6, 9], ["softplus"], 0), self.make_reference()
            )
        ref = self.make_reference()
        ref.labels[0] = 99
        with pytest.raises(ValueError):
            predict_covariance(self.make_predictor(), ref)
        with pytest.raises(ValueError):
            predict_covariance(
                self.make_predictor(), SemanticFeatures(np.zeros((4, 6)))
            )


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
        ref = SemanticFeatures(rng.standard_normal((20, a)), rng.integers(0, c, size=20))
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
        info = meta_step(g, None, clf, ref, (x, y), cfg)
        assert len(info.inner_losses) == 2
        assert info.covariance.per_class_diag.shape == (4, 6)
        assert any(
            not np.array_equal(b_, layer.weights) for b_, layer in zip(before, g.layers)
        )

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


class TestLambdaSchedule:
    def test_linear_warmup_then_flat(self):
        assert effective_lambda(0.8, 0, 30, 0.25) == pytest.approx(0.1)
        assert effective_lambda(0.8, 7, 30, 0.25) == pytest.approx(0.8)
        assert effective_lambda(0.8, 29, 30, 0.25) == pytest.approx(0.8)

    def test_zero_warmup_starts_at_base(self):
        assert effective_lambda(0.8, 0, 30, 0.0) == 0.8


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
        row = make_logs([0.5])[0].csv_row()
        assert len(row.split(",")) == len(ROUNDLOG_CSV_HEADER.split(","))
        assert float(row.split(",")[2]) == 0.5


def blob_shard(seed, n=60, c=4, a=8, spread=3.0):
    rng = spawn_rng(seed, "blob")
    centers = rng.standard_normal((c, a)) * spread
    labels = rng.integers(0, c, size=n)
    return SemanticFeatures(centers[labels] + rng.standard_normal((n, a)) * 0.5, labels)


class TestFedAvg:
    CFG = FedAvgConfig(local_epochs=1, batch_size=16, learning_rate=0.1, seed=5)

    def centralized_oracle(self, shard, classifier, n_rounds):
        for r in range(n_rounds):
            rng = spawn_rng(self.CFG.seed, "fed_round", r)
            order = rng.permutation(shard.vectors.shape[0])
            for start in range(0, order.size, self.CFG.batch_size):
                batch = order[start : start + self.CFG.batch_size]
                logits, caches = nn.forward_cached(classifier, shard.vectors[batch])
                _, grad = nn.softmax_cross_entropy(logits, shard.labels[batch])
                grads = nn.backward(classifier, caches, grad)
                nn.sgd_step(classifier, grads, self.CFG.learning_rate)

    def test_single_client_reproduces_centralized_sgd(self):
        shard = blob_shard(0)
        start = nn.init_network([8, 4], ["linear"], seed=1)
        fed = start.copy()
        run_fedavg_baseline([shard], 4, self.CFG, classifier=fed)
        mine = start.copy()
        self.centralized_oracle(shard, mine, 4)
        np.testing.assert_array_equal(fed.layers[0].weights, mine.layers[0].weights)
        np.testing.assert_array_equal(fed.layers[0].biases, mine.layers[0].biases)

    def test_identical_shards_average_to_the_same_model(self):
        shard = blob_shard(1)
        start = nn.init_network([8, 4], ["linear"], seed=2)
        solo, duo = start.copy(), start.copy()
        logs_solo = run_fedavg_baseline([shard], 3, self.CFG, classifier=solo)
        logs_duo = run_fedavg_baseline([shard, shard], 3, self.CFG, classifier=duo)
        np.testing.assert_array_equal(solo.layers[0].weights, duo.layers[0].weights)
        assert [l.top1_accuracy for l in logs_solo] == [l.top1_accuracy for l in logs_duo]

    def test_bits_count_full_exchange_per_round(self):
        shard = blob_shard(2)
        clf = nn.init_network([8, 4], ["linear"], seed=3)
        logs = run_fedavg_baseline([shard, shard], 2, self.CFG, classifier=clf)
        expected = clf.parameter_count * 64 * 2 * 2
        assert all(l.bits_transmitted == expected for l in logs)
        assert all(l.side == "server" for l in logs)

    def test_disjoint_shards_still_learn_pooled_task(self):
        full = blob_shard(3, n=200)
        mask = full.labels < 2
        clients = [
            SemanticFeatures(full.vectors[mask], full.labels[mask]),
            SemanticFeatures(full.vectors[~mask], full.labels[~mask]),
        ]
        logs = run_fedavg_baseline(clients, 20, self.CFG)
        assert logs[-1].top1_accuracy >= 0.8
        assert logs[-1].top1_accuracy > logs[0].top1_accuracy

    def test_custom_eval_fn_drives_the_log(self):
        shard = blob_shard(4)
        calls = []

        def eval_fn(net):
            calls.append(1)
            return 0.42, 1.3

        logs = run_fedavg_baseline([shard], 3, self.CFG, eval_fn=eval_fn)
        assert len(calls) == 3
        assert all(l.top1_accuracy == 0.42 for l in logs)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fedavg_baseline([], 2, self.CFG)
        with pytest.raises(ValueError):
            run_fedavg_baseline([SemanticFeatures(np.zeros((2, 3)))], 2, self.CFG)
