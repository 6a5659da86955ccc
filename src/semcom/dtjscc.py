"""Discrete task-oriented source-channel pipeline.

An MLP encoder maps an image to a feature vector, a learned codebook
quantizes it to one index per feature block, the index bits ride the modem
and channel, and a linear classifier head decodes the received codewords
straight into class scores. Training is joint: cross-entropy through a
straight-through estimator, plus codebook and commitment pull terms, with
Gaussian channel noise injected in the quantized-feature domain at a
configurable training PSNR. No forward error correction is applied anywhere;
symbol decisions map directly back to indices.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .channel import (
    ChannelConfig,
    ChannelRealization,
    apply_channel,
    noise_variance_from_psnr,
    psnr_ratio,
    sample_gain_sequence,
    sample_realization,
)
from .dataset import Dataset, SplitDatasets
from .modem import (
    Constellation,
    DeepFadeError,
    bits_to_ints,
    demodulate_hard,
    fits_in_bits,
    ints_to_bits,
    modulate,
)
from .seeding import spawn_rng

CODEBOOK_MAGIC = b"MCB1"
# Hidden widths of the covariance predictor that train_dtjscc builds.
COVARIANCE_HIDDEN = (32, 32)
# Held-out accuracy this far above chance or less counts as not converged.
MIN_ACCURACY_MARGIN = 0.05


class CodebookError(Exception):
    """Malformed codebook file."""


@dataclass
class Codebook:
    """K learned codewords of a fixed block dimension."""

    entries: np.ndarray  # (K, dim) float64

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ValueError("entries must be (K, dim)")
        k = self.entries.shape[0]
        if k < 2 or (k & (k - 1)) != 0:
            raise ValueError(f"codebook size must be a power of two, got {k}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codewords must be finite")

    @property
    def k(self) -> int:
        return int(self.entries.shape[0])

    @property
    def dim(self) -> int:
        return int(self.entries.shape[1])

    @property
    def bits_per_index(self) -> int:
        return int(round(math.log2(self.k)))

    def nearest(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest codeword index per row, Euclidean, ties to lowest index.

        Rows run along the last axis; leading axes stack independent batches.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        d2 = (
            (vectors**2).sum(axis=-1, keepdims=True)
            - 2.0 * vectors @ self.entries.T
            + (self.entries**2).sum(axis=1)
        )
        return d2.argmin(axis=-1)


@dataclass
class SemanticFeatures:
    """Batch of feature vectors, optionally labelled."""

    vectors: np.ndarray  # (B, A) float64
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be (B, A)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.vectors.shape[0],):
                raise ValueError("labels must align with vectors")


@dataclass
class QuantizedMessage:
    """Codeword indices for one frame, plus transport bookkeeping."""

    indices: np.ndarray
    bits_per_index: int
    pad_bits: int = 0
    erased: bool = False

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1:
            raise ValueError("indices must be a vector")
        if self.bits_per_index <= 0:
            raise ValueError("bits_per_index must be positive")
        if not fits_in_bits(self.indices, self.bits_per_index):
            raise ValueError("indices exceed the index bit width")
        if self.pad_bits < 0:
            raise ValueError("pad_bits must be >= 0")


def encode(dataset: Dataset, encoder: nn.Network) -> SemanticFeatures:
    """Run the encoder over every image of ``dataset``; the features keep its labels."""
    return SemanticFeatures(nn.forward(encoder, dataset.flattened()), dataset.labels.copy())


def _split_blocks(vectors: np.ndarray, blocks: int) -> np.ndarray:
    b, a = vectors.shape
    if a % blocks != 0:
        raise ValueError(f"feature dim {a} not divisible into {blocks} blocks")
    return vectors.reshape(b * blocks, a // blocks)


def quantize(
    features: SemanticFeatures, codebook: Codebook, blocks: int = 1
) -> QuantizedMessage:
    """Nearest-codeword index per feature block."""
    vb = _split_blocks(features.vectors, blocks)
    if vb.shape[1] != codebook.dim:
        raise ValueError(
            f"block dim {vb.shape[1]} does not match codebook dim {codebook.dim}"
        )
    return QuantizedMessage(
        indices=codebook.nearest(vb),
        bits_per_index=codebook.bits_per_index,
    )


def dequantize(
    message: QuantizedMessage, codebook: Codebook, blocks: int = 1
) -> np.ndarray:
    """Look up codewords and reassemble (B, A) feature vectors."""
    if message.indices.size % blocks != 0:
        raise ValueError("index count does not divide into blocks")
    rows = codebook.entries[message.indices]
    return rows.reshape(message.indices.size // blocks, blocks * codebook.dim)


def transmit(
    message: QuantizedMessage,
    constellation: Constellation,
    realization: ChannelRealization,
    rng: np.random.Generator,
    channel_cfg: ChannelConfig | None = None,
) -> QuantizedMessage:
    """Push a frame of indices through modem and channel, return what arrived.

    Block fading applies the single realization gain to the whole frame;
    passing a ``channel_cfg`` with ``per_symbol_fading`` set draws a fresh
    gain per symbol instead. A deep fade (zero gain) returns the frame marked
    erased with all indices zeroed.
    """
    width = message.bits_per_index
    bits = ints_to_bits(message.indices, width)
    symbols, pad = modulate(bits, constellation)
    gains = None
    if channel_cfg is not None and channel_cfg.per_symbol_fading:
        gains = sample_gain_sequence(channel_cfg, symbols.size, rng)
    received = apply_channel(symbols, realization, rng, gains=gains)
    try:
        rx_bits = demodulate_hard(
            received, gains if gains is not None else realization.gain, constellation
        )
    except DeepFadeError:
        return QuantizedMessage(
            indices=np.zeros_like(message.indices),
            bits_per_index=width,
            pad_bits=pad,
            erased=True,
        )
    if pad:
        rx_bits = rx_bits[:-pad]
    indices = bits_to_ints(rx_bits, width)
    return QuantizedMessage(
        indices=indices,
        bits_per_index=width,
        pad_bits=pad,
        erased=False,
    )


def classify(
    message: QuantizedMessage,
    codebook: Codebook,
    classifier: nn.Network,
    blocks: int = 1,
) -> np.ndarray:
    """Class probabilities from received codewords; rows sum to one.

    An erased frame carries no information and yields the uniform
    distribution for every item.
    """
    n_classes = classifier.output_dim
    n_items = message.indices.size // blocks
    if message.erased:
        return np.full((n_items, n_classes), 1.0 / n_classes)
    vectors = dequantize(message, codebook, blocks)
    return nn.softmax(nn.forward(classifier, vectors))


def _frame_by_frame(fn, rows: np.ndarray, frame_rows: int) -> np.ndarray:
    """Apply row-wise ``fn`` to ``rows`` as if called once per frame of rows.

    BLAS can round a row's products differently depending on how many rows
    share the call, so one call over every row may differ in the last bit
    from frame-sized calls. Stacking the full frames into one batched call
    makes the frame-sized products, and the short last frame gets its own.
    """
    full = rows.shape[0] - rows.shape[0] % frame_rows
    head = fn(rows[:full].reshape(-1, frame_rows, rows.shape[1]))
    return np.concatenate([head.reshape(full, *head.shape[2:]), fn(rows[full:])])


def classify_over_channel(
    vectors: np.ndarray,
    codebook: Codebook,
    classifier: nn.Network,
    blocks: int,
    constellation: Constellation,
    channel_cfg: ChannelConfig,
    psnr_db: float,
    frame: int,
    seed: int,
    *tag: object,
) -> tuple[np.ndarray, int]:
    """Send feature vectors in frames of ``frame`` items and classify what arrives.

    Frame ``fi`` draws its realization, then its per-symbol gains and noise,
    from ``spawn_rng(seed, *tag, fi)``. Quantizing and classifying run once
    for all frames and give, bit for bit, what per-frame :func:`quantize`
    and :func:`classify` calls give; items of an erased frame get the
    uniform distribution. Returns the (n, classes) probabilities and the
    bits on the air.
    """
    n = vectors.shape[0]
    sent = _frame_by_frame(codebook.nearest, _split_blocks(vectors, blocks), frame * blocks)
    width = codebook.bits_per_index
    noise_variance = noise_variance_from_psnr(psnr_db)
    received = np.empty_like(sent)
    erased = np.zeros(n, dtype=bool)
    bits = 0
    for fi, start in enumerate(range(0, n, frame)):
        stop = min(start + frame, n)
        rows = slice(start * blocks, stop * blocks)
        rng = spawn_rng(seed, *tag, fi)
        message = QuantizedMessage(sent[rows], width)
        realization = sample_realization(channel_cfg, noise_variance, rng)
        arrived = transmit(message, constellation, realization, rng, channel_cfg)
        received[rows] = arrived.indices
        erased[start:stop] = arrived.erased
        bits += frame_bit_count(arrived)
    codewords = codebook.entries[received].reshape(n, vectors.shape[1])
    logits = _frame_by_frame(lambda v: nn.forward(classifier, v), codewords, frame)
    probs = nn.softmax(logits)
    probs[erased] = 1.0 / classifier.output_dim
    return probs, bits


@dataclass
class DtjsccConfig:
    """Architecture and training knobs for one system."""

    k: int = 32
    feature_dim: int = 16
    encoder_hidden: int = 64
    blocks: int = 1
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.05
    codebook_weight: float = 1.0
    commitment_weight: float = 0.25
    patience: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2 or self.k & (self.k - 1):
            raise ValueError(f"k must be a power of two, got {self.k}")
        for name in ("feature_dim", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.blocks < 1 or self.feature_dim % self.blocks != 0:
            raise ValueError(f"blocks must divide feature_dim {self.feature_dim}, got {self.blocks}")


@dataclass
class TrainedSystem:
    """Everything one end of the link needs: nets, codebook, geometry of use."""

    encoder: nn.Network
    codebook: Codebook
    classifier: nn.Network
    covariance_net: nn.Network
    blocks: int = 1
    history: list[float] = field(default_factory=list)
    val_accuracy: float = float("nan")
    converged: bool = True

    @property
    def feature_dim(self) -> int:
        return self.encoder.output_dim

    @property
    def n_classes(self) -> int:
        return self.classifier.output_dim


def _init_codebook(
    features: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Seed codewords from observed feature rows, jittered to stay distinct."""
    n = features.shape[0]
    replace = n < k
    picks = rng.choice(n, size=k, replace=replace)
    entries = features[picks].copy()
    spread = float(features.std()) or 1.0
    entries += rng.normal(0.0, 1e-3 * spread, size=entries.shape)
    return entries


def _train_step(
    encoder: nn.Network,
    classifier: nn.Network,
    codebook: Codebook,
    x: np.ndarray,
    y: np.ndarray,
    noise_factor: float,
    rng: np.random.Generator,
    cfg: DtjsccConfig,
) -> tuple[float, float]:
    """One joint SGD step on a batch; returns its cross-entropy and codebook MSE.

    Written for the networks :func:`train_dtjscc` builds (a relu-relu encoder
    and a single linear head) and updating them and the codebook in place.
    It does the floating-point operations of ``nn.forward_cached``,
    ``nn.backward`` and ``nn.sgd_step`` in their order, so the result is
    bit for bit theirs, but builds no caches or gradient objects and skips
    the encoder's input gradient, which nothing reads.
    """
    hidden, out = encoder.layers
    head = classifier.layers[0]
    lr = cfg.learning_rate
    z1 = x @ hidden.weights + hidden.biases
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ out.weights + out.biases
    feats = np.maximum(z2, 0.0)
    fb = _split_blocks(feats, cfg.blocks)
    idx = codebook.nearest(fb)
    qb = codebook.entries[idx]
    q = qb.reshape(feats.shape)
    # x.sum() / x.size is how np.mean computes a full mean.
    q2 = q**2
    sigma2 = float(q2.sum() / q2.size) / noise_factor
    noisy = q + rng.normal(0.0, math.sqrt(sigma2), size=q.shape) if sigma2 > 0 else q
    logits = noisy @ head.weights + head.biases
    ce, dlogits = nn.softmax_cross_entropy(logits, y)
    diff = feats - q
    d_feats = dlogits @ head.weights.T + (2.0 * cfg.commitment_weight / feats.size) * diff
    dz2 = d_feats * (z2 > 0.0)
    dz1 = (dz2 @ out.weights.T) * (z1 > 0.0)
    d_entries = np.zeros_like(codebook.entries)
    np.add.at(d_entries, idx, (2.0 * cfg.codebook_weight / fb.size) * (qb - fb))
    for param, grad in (
        (head.weights, noisy.T @ dlogits),
        (head.biases, dlogits.sum(axis=0)),
        (hidden.weights, x.T @ dz1),
        (hidden.biases, dz1.sum(axis=0)),
        (out.weights, h1.T @ dz2),
        (out.biases, dz2.sum(axis=0)),
        (codebook.entries, d_entries),
    ):
        grad *= lr  # in place: the same product as lr * grad
        param -= grad
    d2 = diff**2
    return ce, float(d2.sum() / d2.size)


def train_dtjscc(
    splits: SplitDatasets, train_psnr_db: float, cfg: DtjsccConfig
) -> TrainedSystem:
    """Jointly train encoder, codebook, and classifier head.

    Quantization passes gradients straight through; the codebook follows the
    features (squared-distance pull, weight ``codebook_weight``) and the
    features commit to their codewords (weight ``commitment_weight``).
    Training noise is Gaussian in the quantized-feature domain with power set
    by ``train_psnr_db`` relative to the mean square of the codewords in the
    batch. Stalled training (no loss improvement over the patience window)
    stops early and is reported through a warning and the ``converged`` flag.
    """
    train = splits.train
    n_classes = len(train.catalog)
    input_dim = train.flattened().shape[1]
    a = cfg.feature_dim
    encoder = nn.init_network(
        [input_dim, cfg.encoder_hidden, a], ["relu", "relu"], spawn_rng(cfg.seed, "enc").integers(2**32)
    )
    classifier = nn.init_network([a, n_classes], ["linear"], spawn_rng(cfg.seed, "clf").integers(2**32))
    covariance_net = nn.init_network(
        [a, *COVARIANCE_HIDDEN, n_classes * a],
        ["relu", "relu", "softplus"],
        spawn_rng(cfg.seed, "cov").integers(2**32),
    )

    x_all = train.flattened()
    y_all = train.labels
    rng = spawn_rng(cfg.seed, "train")
    warm = nn.forward(encoder, x_all[: max(cfg.k * 4, cfg.batch_size)])
    codebook = Codebook(_init_codebook(_split_blocks(warm, cfg.blocks), cfg.k, rng))

    noise_factor = psnr_ratio(train_psnr_db)
    history: list[float] = []
    best_loss = math.inf
    best_epoch = -1
    converged = True
    for epoch in range(cfg.epochs):
        order = spawn_rng(cfg.seed, "epoch", epoch).permutation(len(train))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(train), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ce, mse_cb = _train_step(
                encoder, classifier, codebook, x_all[batch], y_all[batch], noise_factor, rng, cfg
            )
            epoch_loss += ce + (cfg.codebook_weight + cfg.commitment_weight) * mse_cb
            n_batches += 1
        epoch_loss /= n_batches
        history.append(epoch_loss)
        if epoch_loss < best_loss - 1e-6:
            best_loss = epoch_loss
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            warnings.warn(
                f"training stalled at epoch {epoch} (best loss {best_loss:.4f})"
            )
            converged = False
            break

    if np.unique(codebook.entries, axis=0).shape[0] != codebook.k:
        raise RuntimeError("duplicate codewords after training")

    val = splits.val if len(splits.val) else splits.train
    val_feats = encode(val, encoder)
    val_probs = classify(
        quantize(val_feats, codebook, cfg.blocks), codebook, classifier, cfg.blocks
    )
    val_acc = float(np.mean(np.argmax(val_probs, axis=1) == val.labels))
    chance = 1.0 / n_classes
    if val_acc < chance + MIN_ACCURACY_MARGIN:
        warnings.warn(
            f"held-out accuracy {val_acc:.3f} within margin of chance {chance:.3f}"
        )
        converged = False
    return TrainedSystem(
        encoder=encoder,
        codebook=codebook,
        classifier=classifier,
        covariance_net=covariance_net,
        blocks=cfg.blocks,
        history=history,
        val_accuracy=val_acc,
        converged=converged,
    )


def save_codebook(path: str, codebook: Codebook) -> None:
    """Write the codebook: magic "MCB1", u32 K, u32 dim, f64 entries row-major."""
    with open(path, "wb") as fh:
        fh.write(CODEBOOK_MAGIC)
        fh.write(struct.pack("<II", codebook.k, codebook.dim))
        fh.write(codebook.entries.astype("<f8").tobytes(order="C"))


def load_codebook(path: str) -> Codebook:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CODEBOOK_MAGIC:
            raise CodebookError(f"bad magic {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise CodebookError("truncated header")
        k, dim = struct.unpack("<II", header)
        payload = fh.read(k * dim * 8)
        if len(payload) < k * dim * 8:
            raise CodebookError("truncated entries")
    entries = np.frombuffer(payload, dtype="<f8").reshape(k, dim).copy()
    return Codebook(entries)


BUNDLE_FILES = ("encoder.mnn1", "classifier.mnn1", "covariance.mnn1", "codebook.mcb1")


def save_bundle(directory: str, system: TrainedSystem) -> None:
    """Persist a trained system as three checkpoints plus the codebook."""
    os.makedirs(directory, exist_ok=True)
    nn.save_network(system.encoder, os.path.join(directory, BUNDLE_FILES[0]))
    nn.save_network(system.classifier, os.path.join(directory, BUNDLE_FILES[1]))
    nn.save_network(system.covariance_net, os.path.join(directory, BUNDLE_FILES[2]))
    save_codebook(os.path.join(directory, BUNDLE_FILES[3]), system.codebook)


def load_bundle(directory: str) -> TrainedSystem:
    """Rehydrate a bundle written by :func:`save_bundle`."""
    encoder = nn.load_network(
        os.path.join(directory, BUNDLE_FILES[0]), ["relu", "relu"]
    )
    classifier = nn.load_network(os.path.join(directory, BUNDLE_FILES[1]), ["linear"])
    covariance = nn.load_network(
        os.path.join(directory, BUNDLE_FILES[2]), ["relu", "relu", "softplus"]
    )
    codebook = load_codebook(os.path.join(directory, BUNDLE_FILES[3]))
    blocks = encoder.output_dim // codebook.dim
    return TrainedSystem(
        encoder=encoder,
        codebook=codebook,
        classifier=classifier,
        covariance_net=covariance,
        blocks=blocks,
    )


def frame_bit_count(message: QuantizedMessage) -> int:
    """Bits on the air for one frame, padding included."""
    return int(message.indices.size) * message.bits_per_index + int(message.pad_bits)
