"""Hand-rolled dense networks: forward oracles, backprop vs finite differences."""

from __future__ import annotations

import math

import numpy as np
import pytest

from semcom import nn
from semcom.seeding import spawn_rng


def make_mlp(seed=0, sizes=(5, 8, 3), activations=("tanh", "linear")):
    return nn.init_network(sizes, activations, seed)


class TestInitialization:
    def test_glorot_uniform_bounds_and_zero_biases(self):
        net = nn.init_network([40, 30, 10], ["relu", "linear"], seed=3)
        for layer in net.layers:
            fan_in, fan_out = layer.weights.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weights) <= bound)
            assert np.all(layer.biases == 0.0)

    def test_seed_controls_weights(self):
        a = make_mlp(seed=1)
        b = make_mlp(seed=1)
        c = make_mlp(seed=2)
        np.testing.assert_array_equal(a.layers[0].weights, b.layers[0].weights)
        assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)

    def test_shapes_and_dims(self):
        net = make_mlp()
        assert net.input_dim == 5 and net.output_dim == 3
        assert net.parameter_count == 5 * 8 + 8 + 8 * 3 + 3

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            nn.init_network([2, 2], ["sigmoidish"], seed=0)

    def test_zeroed_network_forward_is_bias_activation(self):
        net = nn.zeroed_network([4, 6], ["softplus"])
        out = nn.forward(net, np.ones((2, 4)))
        np.testing.assert_allclose(out, math.log(2.0), atol=1e-12)


class TestForward:
    def test_single_linear_layer_is_affine(self):
        net = make_mlp(sizes=(3, 2), activations=("linear",))
        x = spawn_rng(0, "fx").standard_normal((4, 3))
        w, b = net.layers[0].weights, net.layers[0].biases
        np.testing.assert_allclose(nn.forward(net, x), x @ w + b, atol=1e-14)

    def test_activation_tables(self):
        z = np.linspace(-3, 3, 13)[None, :]
        net_relu = nn.zeroed_network([13, 13], ["relu"])
        net_tanh = nn.zeroed_network([13, 13], ["tanh"])
        for net in (net_relu, net_tanh):
            net.layers[0].weights = np.eye(13)
        np.testing.assert_allclose(nn.forward(net_relu, z), np.maximum(z, 0))
        np.testing.assert_allclose(nn.forward(net_tanh, z), np.tanh(z))

    def test_softplus_matches_log1p_and_stays_stable(self):
        net = nn.zeroed_network([3, 3], ["softplus"])
        net.layers[0].weights = np.eye(3)
        z = np.array([[-800.0, 0.0, 800.0]])
        out = nn.forward(net, z)
        assert np.all(np.isfinite(out))
        assert out[0, 1] == pytest.approx(math.log(2))
        assert out[0, 2] == pytest.approx(800.0)


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_normalize_and_survive_large_logits(self):
        logits = np.array([[1000.0, 999.0, 0.0], [0.0, 0.0, 0.0]])
        p = nn.softmax(logits)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        np.testing.assert_allclose(p[1], np.ones(3) / 3)

    def test_uniform_logits_cost_ln_c(self):
        labels = np.array([0, 1, 2, 3, 4, 0, 1], dtype=np.int64)
        loss, _ = nn.softmax_cross_entropy(np.zeros((7, 5)), labels)
        assert loss == pytest.approx(math.log(5), abs=1e-12)

    def test_gradient_closed_form(self):
        rng = spawn_rng(0, "ce")
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = nn.softmax_cross_entropy(logits, labels)
        manual = nn.softmax(logits)
        manual[np.arange(6), labels] -= 1.0
        manual /= 6
        np.testing.assert_allclose(grad, manual, atol=1e-14)

    def test_gradient_against_finite_differences(self):
        rng = spawn_rng(1, "ce-fd")
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        _, grad = nn.softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(5):
            for j in range(3):
                up, down = logits.copy(), logits.copy()
                up[i, j] += eps
                down[i, j] -= eps
                lu, _ = nn.softmax_cross_entropy(up, labels)
                ld, _ = nn.softmax_cross_entropy(down, labels)
                assert grad[i, j] == pytest.approx((lu - ld) / (2 * eps), abs=1e-8)

    def test_label_shape_validated(self):
        with pytest.raises(ValueError):
            nn.softmax_cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))


class TestBackward:
    def test_gradient_check_on_deep_network(self):
        net = nn.init_network([6, 9, 7, 4], ["tanh", "softplus", "linear"], seed=5)
        rng = spawn_rng(2, "gc")
        x = rng.standard_normal((8, 6))
        labels = rng.integers(0, 4, size=8)
        err = nn.gradient_check(
            net,
            lambda out: nn.softmax_cross_entropy(out, labels),
            x,
            probes=40,
            rng=spawn_rng(3, "gc-probe"),
        )
        assert err < 1e-5

    def test_zero_probes_warns_and_returns_zero(self):
        net = make_mlp()
        with pytest.warns(UserWarning):
            err = nn.gradient_check(
                net, lambda out: (float(out.sum()), np.ones_like(out)), np.ones((1, 5)), probes=0
            )
        assert err == 0.0

    def test_input_gradient_matches_finite_differences(self):
        net = make_mlp(seed=9)
        rng = spawn_rng(4, "wrt")
        x = rng.standard_normal((3, 5))
        labels = rng.integers(0, 3, size=3)
        out, caches = nn.forward_cached(net, x)
        _, grad_out = nn.softmax_cross_entropy(out, labels)
        grads = nn.backward(net, caches, grad_out)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                up, down = x.copy(), x.copy()
                up[i, j] += eps
                down[i, j] -= eps
                lu, _ = nn.softmax_cross_entropy(nn.forward(net, up), labels)
                ld, _ = nn.softmax_cross_entropy(nn.forward(net, down), labels)
                assert grads.wrt_input[i, j] == pytest.approx((lu - ld) / (2 * eps), abs=1e-7)


class TestTraining:
    def test_sgd_step_applies_exact_update(self):
        net = make_mlp(seed=7, sizes=(3, 2), activations=("linear",))
        w0 = net.layers[0].weights.copy()
        b0 = net.layers[0].biases.copy()
        grads = nn.Gradients(layers=[(np.ones((3, 2)), np.ones(2))], wrt_input=np.zeros((1, 3)))
        nn.sgd_step(net, grads, 0.1)
        np.testing.assert_allclose(net.layers[0].weights, w0 - 0.1)
        np.testing.assert_allclose(net.layers[0].biases, b0 - 0.1)

    def test_copy_is_deep(self):
        net = make_mlp(seed=8)
        clone = net.copy()
        clone.layers[0].weights[0, 0] += 1.0
        assert net.layers[0].weights[0, 0] != clone.layers[0].weights[0, 0]


class TestCheckpointFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = nn.init_network([4, 6, 3], ["tanh", "linear"], seed=12)
        path = str(tmp_path / "net.mnn")
        nn.save_network(net, path)
        back = nn.load_network(path, activations=["tanh", "linear"])
        assert len(back.layers) == 2
        for a, b in zip(net.layers, back.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.biases, b.biases)
            assert a.activation == b.activation

    def test_default_activations_on_load(self, tmp_path):
        net = nn.init_network([4, 6, 3], ["tanh", "linear"], seed=12)
        path = str(tmp_path / "net.mnn")
        nn.save_network(net, path)
        back = nn.load_network(path)
        assert [l.activation for l in back.layers] == ["relu", "linear"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mnn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(nn.CheckpointError):
            nn.load_network(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        net = make_mlp()
        path = tmp_path / "cut.mnn"
        nn.save_network(net, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(nn.CheckpointError):
            nn.load_network(str(path))
