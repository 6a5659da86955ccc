"""Minimal dense neural networks on float64 numpy arrays.

Just enough machinery for the encoders, classifiers, and covariance
predictors used elsewhere: Glorot-uniform init, forward with caches, analytic
backprop, SGD, a central-finite-difference gradient checker, and a small
binary checkpoint format. No autograd framework is involved, so the gradient
checker is a genuinely independent route.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

MAGIC = b"MNN1"


class CheckpointError(Exception):
    """Malformed network checkpoint file."""


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _relu_prime(z: np.ndarray) -> np.ndarray:
    # A boolean mask multiplies like 0.0/1.0 without a float temporary.
    return z > 0.0


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _softplus_prime(z: np.ndarray) -> np.ndarray:
    # sigmoid(z), computed as exp(-softplus(-z)) for stability
    return np.exp(-np.logaddexp(0.0, -z))


def _tanh_prime(z: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(z) ** 2


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
    "relu": (_relu, _relu_prime),
    "softplus": (_softplus, _softplus_prime),
    "tanh": (np.tanh, _tanh_prime),
}


@dataclass
class Layer:
    """Dense layer. Weights are (fan_in, fan_out), row i holds input i's weights."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = "linear"

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-d")
        if self.biases.shape != (self.weights.shape[1],):
            raise ValueError("biases must match the layer fan-out")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class Network:
    layers: list[Layer]

    def __post_init__(self) -> None:
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weights.shape[1] != nxt.weights.shape[0]:
                raise ValueError("consecutive layer shapes do not chain")

    @property
    def input_dim(self) -> int:
        return int(self.layers[0].weights.shape[0])

    @property
    def output_dim(self) -> int:
        return int(self.layers[-1].weights.shape[1])

    @property
    def parameter_count(self) -> int:
        return sum(l.weights.size + l.biases.size for l in self.layers)

    def copy(self) -> "Network":
        return Network(
            [Layer(l.weights.copy(), l.biases.copy(), l.activation) for l in self.layers]
        )


def init_network(sizes: Sequence[int], activations: Sequence[str], seed: int) -> Network:
    """Glorot-uniform init: weights ~ U(+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if len(activations) != len(sizes) - 1:
        raise ValueError("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(weights, np.zeros(fan_out), act))
    return Network(layers)


def zeroed_network(sizes: Sequence[int], activations: Sequence[str]) -> Network:
    """All-zero parameters; useful as a degenerate reference."""
    layers = [
        Layer(np.zeros((fi, fo)), np.zeros(fo), act)
        for fi, fo, act in zip(sizes, sizes[1:], activations)
    ]
    return Network(layers)


def forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Batch forward pass; x is (B, input_dim)."""
    out = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        act, _ = ACTIVATIONS[layer.activation]
        out = act(out @ layer.weights + layer.biases)
    return out


@dataclass
class LayerCache:
    x: np.ndarray
    preact: np.ndarray


def forward_cached(net: Network, x: np.ndarray) -> tuple[np.ndarray, list[LayerCache]]:
    """Forward pass retaining per-layer inputs and pre-activations."""
    out = np.asarray(x, dtype=np.float64)
    caches: list[LayerCache] = []
    for layer in net.layers:
        preact = out @ layer.weights + layer.biases
        caches.append(LayerCache(x=out, preact=preact))
        act, _ = ACTIVATIONS[layer.activation]
        out = act(preact)
    return out, caches


@dataclass
class Gradients:
    layers: list[tuple[np.ndarray, np.ndarray]]
    wrt_input: np.ndarray = field(default=None)  # type: ignore[assignment]


def backward(net: Network, caches: list[LayerCache], grad_out: np.ndarray) -> Gradients:
    """Backprop ``grad_out`` (dL/d output) to parameter and input gradients."""
    grad = np.asarray(grad_out, dtype=np.float64)
    per_layer: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)  # type: ignore[list-item]
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        cache = caches[i]
        if layer.activation == "linear":
            dz = grad  # the derivative is one everywhere
        else:
            dz = grad * ACTIVATIONS[layer.activation][1](cache.preact)
        per_layer[i] = (cache.x.T @ dz, dz.sum(axis=0))
        grad = dz @ layer.weights.T
    return Gradients(layers=per_layer, wrt_input=grad)


def sgd_step(net: Network, grads: Gradients, learning_rate: float) -> None:
    """In-place SGD update."""
    for layer, (dw, db) in zip(net.layers, grads.layers):
        layer.weights -= learning_rate * dw
        layer.biases -= learning_rate * db


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient wrt the logits.

    Log-sum-exp stabilized; gradient is (softmax - one_hot) / B. Uniform zero
    logits over C classes give exactly ln C.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b = logits.shape[0]
    if labels.shape != (b,):
        raise ValueError("labels must be a vector matching the batch")
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    per_item = m[:, 0] + np.log(total[:, 0]) - logits[rows, labels]
    loss = float(per_item.sum() / b)  # how np.mean computes it
    grad = e / total  # the softmax, from the same exponentials
    grad[rows, labels] -= 1.0
    grad /= b
    return loss, grad


def gradient_check(
    net: Network,
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    epsilon: float = 1e-5,
    probes: int = 20,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` maps the network output to (loss, dloss/doutput). ``probes``
    parameters are sampled uniformly at random; probes == 0 warns and
    returns 0.0.
    """
    if probes == 0:
        warnings.warn("gradient_check ran with zero probes; result is vacuous")
        return 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    out, caches = forward_cached(net, x)
    _, grad_out = loss_fn(out)
    analytic = backward(net, caches, grad_out)
    arrays: list[tuple[np.ndarray, np.ndarray]] = []
    for layer, (dw, db) in zip(net.layers, analytic.layers):
        arrays.append((layer.weights, dw))
        arrays.append((layer.biases, db))
    total = sum(a.size for a, _ in arrays)
    worst = 0.0
    for flat_index in rng.choice(total, size=min(probes, total), replace=False):
        remaining = int(flat_index)
        for params, grad in arrays:
            if remaining < params.size:
                break
            remaining -= params.size
        idx = np.unravel_index(remaining, params.shape)
        original = params[idx]
        params[idx] = original + epsilon
        up, _ = loss_fn(forward(net, x))
        params[idx] = original - epsilon
        down, _ = loss_fn(forward(net, x))
        params[idx] = original
        numeric = (up - down) / (2.0 * epsilon)
        a = float(grad[idx])
        scale = max(abs(a), abs(numeric))
        err = abs(a - numeric) if scale < 1e-8 else abs(a - numeric) / scale
        worst = max(worst, err)
    return worst


def save_network(net: Network, path: str) -> None:
    """Write the little-endian binary checkpoint.

    Layout: magic "MNN1", then per layer u32 rows (fan_in), u32 cols
    (fan_out), rows*cols f64 weights row-major, cols f64 biases. Activations
    are not stored; supply them on load.
    """
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for layer in net.layers:
            rows, cols = layer.weights.shape
            fh.write(struct.pack("<II", rows, cols))
            fh.write(layer.weights.astype("<f8").tobytes(order="C"))
            fh.write(layer.biases.astype("<f8").tobytes())


def load_network(path: str, activations: Sequence[str] | None = None) -> Network:
    """Read a checkpoint written by :func:`save_network`.

    ``activations`` must match the stored layer count; when omitted, hidden
    layers default to relu and the final layer to linear.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        raw_layers: list[tuple[np.ndarray, np.ndarray]] = []
        while True:
            header = fh.read(8)
            if len(header) == 0:
                break
            if len(header) < 8:
                raise CheckpointError("truncated layer header")
            rows, cols = struct.unpack("<II", header)
            wbytes = fh.read(rows * cols * 8)
            bbytes = fh.read(cols * 8)
            if len(wbytes) < rows * cols * 8 or len(bbytes) < cols * 8:
                raise CheckpointError("truncated layer payload")
            weights = np.frombuffer(wbytes, dtype="<f8").reshape(rows, cols).copy()
            biases = np.frombuffer(bbytes, dtype="<f8").copy()
            raw_layers.append((weights, biases))
    if not raw_layers:
        raise CheckpointError("checkpoint holds no layers")
    if activations is None:
        activations = ["relu"] * (len(raw_layers) - 1) + ["linear"]
    if len(activations) != len(raw_layers):
        raise CheckpointError(
            f"{len(activations)} activations supplied for {len(raw_layers)} layers"
        )
    return Network(
        [Layer(w, b, act) for (w, b), act in zip(raw_layers, activations)]
    )
