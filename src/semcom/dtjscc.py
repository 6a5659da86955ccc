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

import copy
import hashlib
import math
import os
import struct
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .channel import apply_channel, noise_variance_from_psnr, sample_gain_sequence, sample_realization
from .config import EUROSAT_CLASS_NAMES, TABLE_ORDER, ChannelConfig, DtjsccConfig, is_table_order, psnr_ratio
from .dataset import Dataset, SplitDatasets
from .modem import (
    DeepFadeError,
    bits_to_ints,
    demodulate_hard,
    fits_in_bits,
    ints_to_bits,
    modulate,
)
from .seeding import spawn_rng

CODEBOOK_MAGIC = b"MCB1"
# Held-out accuracy this far above chance or less counts as not converged.
MIN_ACCURACY_MARGIN = 0.05


class CodebookError(Exception):
    """Malformed codebook file."""


class DivergenceError(Exception):
    """A training loss went non-finite or, in ``csa.meta_step``, past 10x the
    first; the message names the step-size key."""


@dataclass
class Codebook:
    """K learned codewords of a fixed block dimension."""

    entries: np.ndarray  # (K, dim) float64

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or not self.entries.shape[1]:
            raise ValueError("entries must be (K, dim) with dim at least 1")
        k = self.entries.shape[0]
        if not is_table_order(k):
            raise ValueError(f"codebook size {TABLE_ORDER[1]}, got {k}")
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
        d2 = 2.0 * vectors @ self.entries.T  # then |v|^2 - that + |e|^2, in place
        np.subtract((vectors**2).sum(axis=-1, keepdims=True), d2, out=d2)
        d2 += (self.entries**2).sum(axis=1)
        return d2.argmin(axis=-1)


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


def encode(dataset: Dataset, encoder: nn.Network) -> np.ndarray:
    """(N, A) features: the encoder run over every image of ``dataset``."""
    return nn.forward(encoder, dataset.flattened())


def _split_blocks(vectors: np.ndarray, blocks: int) -> np.ndarray:
    """One row per block; callers check that ``blocks`` divides the width."""
    b, a = vectors.shape
    return vectors.reshape(b * blocks, a // blocks)


def _block_count(width: int, codebook: Codebook) -> int:
    """Codeword blocks in a feature vector of ``width``: one per ``codebook.dim`` values."""
    if width % codebook.dim != 0:
        raise ValueError(f"feature width {width} is not a multiple of codebook dim {codebook.dim}")
    return width // codebook.dim


def quantize(vectors: np.ndarray, codebook: Codebook) -> QuantizedMessage:
    """Nearest-codeword index per feature block; the block count is width over ``codebook.dim``."""
    blocks = _block_count(vectors.shape[1], codebook)
    return QuantizedMessage(
        indices=codebook.nearest(_split_blocks(vectors, blocks)),
        bits_per_index=codebook.bits_per_index,
    )


def dequantize(message: QuantizedMessage, codebook: Codebook, width: int) -> np.ndarray:
    """Look up codewords and reassemble (B, ``width``) feature vectors."""
    blocks = _block_count(width, codebook)
    if message.indices.size % blocks != 0:
        raise ValueError("index count does not divide into blocks")
    rows = codebook.entries[message.indices]
    return rows.reshape(message.indices.size // blocks, width)


def transmit(
    message: QuantizedMessage,
    channel_cfg: ChannelConfig,
    noise_variance: float,
    rng: np.random.Generator,
) -> QuantizedMessage:
    """Push a frame of indices through ``channel_cfg``'s modem and channel, return what arrived.

    The frame draws its channel from ``rng``: one block gain for the whole
    frame, or with ``per_symbol_fading`` set a fresh gain per symbol, then
    the noise. A deep fade (zero gain) returns the frame marked erased with
    all indices zeroed.
    """
    width = message.bits_per_index
    bits = ints_to_bits(message.indices, width)
    symbols, pad = modulate(bits, channel_cfg.constellation)
    # A per-symbol frame still draws the block gain and discards it, so every
    # stream keeps its order: block gain, per-symbol gains, noise.
    gain = sample_realization(channel_cfg, rng)
    if channel_cfg.per_symbol_fading:
        gain = sample_gain_sequence(channel_cfg, symbols.size, rng)
    received = apply_channel(symbols, gain, noise_variance, rng)
    try:
        rx_bits = demodulate_hard(received, gain, channel_cfg.constellation)
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
) -> np.ndarray:
    """Class probabilities from received codewords; rows sum to one.

    An erased frame carries no information and yields the uniform
    distribution for every item.
    """
    n_classes = classifier.output_dim
    vectors = dequantize(message, codebook, classifier.input_dim)
    if message.erased:
        return np.full((vectors.shape[0], n_classes), 1.0 / n_classes)
    return nn.softmax(nn.forward(classifier, vectors))


def top1_and_ce(probs: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Top-1 accuracy and mean cross-entropy of (n, classes) probabilities."""
    top1 = float(np.mean(np.argmax(probs, axis=1) == labels))
    ce = float(np.mean(-np.log(probs[np.arange(len(labels)), labels] + 1e-12)))
    return top1, ce


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


def send_over_channel(
    vectors: np.ndarray,
    codebook: Codebook,
    channel_cfg: ChannelConfig,
    psnr_db: float,
    frame: int,
    rngs: Iterable[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Send feature vectors in frames of ``frame`` items and return what arrives.

    Frame ``fi`` draws its channel in :func:`transmit` from the ``fi``-th
    generator of ``rngs``, which holds one per frame.
    Quantizing runs once for all frames and gives, bit for bit, what
    per-frame :func:`quantize` calls give. Returns the received (n, A)
    codewords, a mask of the items whose frame was erased (their indices
    arrive as zeros), and the bits on the air.
    """
    if frame < 1:
        raise ValueError(f"frame must be at least 1, got {frame}")
    n = vectors.shape[0]
    blocks = _block_count(vectors.shape[1], codebook)
    sent = _frame_by_frame(codebook.nearest, _split_blocks(vectors, blocks), frame * blocks)
    width = codebook.bits_per_index
    noise_variance = noise_variance_from_psnr(psnr_db)
    received = np.empty_like(sent)
    erased = np.zeros(n, dtype=bool)
    bits = 0
    for start, rng in zip(range(0, n, frame), rngs, strict=True):
        stop = min(start + frame, n)
        rows = slice(start * blocks, stop * blocks)
        message = QuantizedMessage(sent[rows], width)
        arrived = transmit(message, channel_cfg, noise_variance, rng)
        received[rows] = arrived.indices
        erased[start:stop] = arrived.erased
        bits += frame_bit_count(arrived)
    return codebook.entries[received].reshape(n, vectors.shape[1]), erased, bits


def classify_over_channel(
    vectors: np.ndarray,
    codebook: Codebook,
    classifier: nn.Network,
    channel_cfg: ChannelConfig,
    psnr_db: float,
    frame: int,
    seed: int,
    *tag: object,
) -> tuple[np.ndarray, int]:
    """Send feature vectors in frames of ``frame`` items and classify what arrives.

    Frame ``fi`` draws from ``spawn_rng(seed, *tag, fi)`` in
    :func:`send_over_channel`. Classifying runs once for all frames and
    gives, bit for bit, what per-frame :func:`classify` calls give; items of
    an erased frame get the uniform distribution. Returns the (n, classes)
    probabilities and the bits on the air.
    """

    def rngs() -> Iterator[np.random.Generator]:  # lazy: send_over_channel checks frame first
        for fi in range(-(-vectors.shape[0] // frame)):
            yield spawn_rng(seed, *tag, fi)

    codewords, erased, bits = send_over_channel(
        vectors, codebook, channel_cfg, psnr_db, frame, rngs()
    )
    logits = _frame_by_frame(lambda v: nn.forward(classifier, v), codewords, frame)
    probs = nn.softmax(logits)
    probs[erased] = 1.0 / classifier.output_dim
    return probs, bits


@dataclass
class TrainedSystem:
    """Everything one end of the link needs: nets, codebook, geometry of use."""

    encoder: nn.Network
    codebook: Codebook
    classifier: nn.Network
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


def _flat_views(buf: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive stretches of ``buf``, each a view shaped like the array of ``like``."""
    ends = np.cumsum([a.size for a in like]).tolist()
    return [buf[end - a.size : end].reshape(a.shape) for a, end in zip(like, ends)]


def _has_duplicate_rows(rows: np.ndarray) -> bool:
    """Whether two rows compare equal; unlike ``np.unique(axis=0)``, this loads no ``numpy.ma``."""
    ordered = rows[np.lexsort(rows.T)]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


def _train_step(
    encoder: nn.Network,
    classifier: nn.Network,
    codebook: Codebook,
    grads: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    noise_factor: float,
    rng: np.random.Generator,
    cfg: DtjsccConfig,
) -> tuple[float, float]:
    """Gradients of one joint SGD step on a batch; returns its cross-entropy and codebook MSE.

    Written for the networks :func:`train_dtjscc` builds (a relu-relu encoder
    and a single linear head); writes the seven gradients, in the order of
    :func:`train_dtjscc`'s tensors, into ``grads``. It does the floating-point
    operations of ``nn.forward_cached`` and ``nn.backward`` in their order, so
    the gradients are bit for bit theirs, but builds no caches or gradient
    objects and skips the encoder's input gradient, which nothing reads.
    """
    hidden, out = encoder.layers
    head = classifier.layers[0]
    g_w1, g_b1, g_w2, g_b2, g_head_w, g_head_b, g_entries = grads
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
    np.matmul(noisy.T, dlogits, out=g_head_w)
    dlogits.sum(axis=0, out=g_head_b)
    np.matmul(x.T, dz1, out=g_w1)
    dz1.sum(axis=0, out=g_b1)
    np.matmul(h1.T, dz2, out=g_w2)
    dz2.sum(axis=0, out=g_b2)
    g_entries.fill(0.0)
    np.add.at(g_entries, idx, (2.0 * cfg.codebook_weight / fb.size) * (qb - fb))
    d2 = diff**2
    return ce, float(d2.sum() / d2.size)


# Key, system and warnings of the last training; train_dtjscc returns copies on a repeat.
_last_training: tuple[bytes, TrainedSystem, list[str]] | None = None


def _training_key(splits: SplitDatasets, train_psnr_db: float, cfg: DtjsccConfig) -> bytes:
    """Digest of everything training reads: both splits' pixels and labels, PSNR, settings.

    Shapes go in beside the bytes, so moving the train/val split point over
    the same concatenated bytes changes the key.
    """
    digest = hashlib.sha256()
    for array in (splits.train.pixels, splits.train.labels, splits.val.pixels, splits.val.labels):
        digest.update(repr((array.shape, array.dtype.str)).encode())
        digest.update(np.ascontiguousarray(array))
    digest.update(repr((train_psnr_db, cfg)).encode())
    return digest.digest()


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
    stops early and is reported through a warning and the ``converged``
    flag. A non-finite epoch loss raises :class:`DivergenceError` at once,
    naming the epoch and ``dtjscc.learning_rate``.

    A call with the same data, PSNR and settings as the one before it returns
    a deep copy of that call's system and repeats its warnings instead of
    training again; training is deterministic, so the copy is bit for bit what
    a second training gives. This is how the adapted and frozen ``csa.ini``
    arms, and the two sides of ``harness.run_round_race``, each building its
    own scenario, share one pretraining while each still gets a system of
    its own.
    """
    global _last_training
    key = _training_key(splits, train_psnr_db, cfg)
    if _last_training is None or _last_training[0] != key:
        system, issues = _train_system(splits, train_psnr_db, cfg)
        _last_training = (key, copy.deepcopy(system), issues)
    else:
        system, issues = copy.deepcopy(_last_training[1]), _last_training[2]
    for message in issues:
        warnings.warn(message)
    return system


# Overflow on the way to a non-finite loss is not reported: that loss raises DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def _train_system(
    splits: SplitDatasets, train_psnr_db: float, cfg: DtjsccConfig
) -> tuple[TrainedSystem, list[str]]:
    """The training :func:`train_dtjscc` describes; returns the system and its warning texts."""
    train = splits.train
    n_classes = len(EUROSAT_CLASS_NAMES)
    input_dim = train.flattened().shape[1]
    a = cfg.feature_dim
    encoder = nn.init_network(
        [input_dim, cfg.encoder_hidden, a], ["relu", "relu"], spawn_rng(cfg.seed, "enc").integers(2**32)
    )
    classifier = nn.init_network([a, n_classes], ["linear"], spawn_rng(cfg.seed, "clf").integers(2**32))

    x_all = train.flattened()
    y_all = train.labels
    rng = spawn_rng(cfg.seed, "train")
    warm = nn.forward(encoder, x_all[: max(cfg.k * 4, cfg.batch_size)])
    codebook = Codebook(_init_codebook(_split_blocks(warm, cfg.blocks), cfg.k, rng))

    # The seven trained tensors become views of one flat buffer and their
    # gradients views of another, so one in-place update moves them all.
    (hidden, out), (head,) = encoder.layers, classifier.layers
    tensors = [hidden.weights, hidden.biases, out.weights, out.biases]
    tensors += [head.weights, head.biases, codebook.entries]
    params = np.concatenate([t.reshape(-1) for t in tensors])
    grads = np.empty_like(params)
    grad_views = _flat_views(grads, tensors)
    tensors = _flat_views(params, tensors)
    hidden.weights, hidden.biases, out.weights, out.biases = tensors[:4]
    head.weights, head.biases, codebook.entries = tensors[4:]

    noise_factor = psnr_ratio(train_psnr_db)
    history: list[float] = []
    issues: list[str] = []
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
                encoder, classifier, codebook, grad_views,
                x_all[batch], y_all[batch], noise_factor, rng, cfg,
            )
            grads *= cfg.learning_rate  # in place: the same product as lr * grad
            params -= grads
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
            best_loss = epoch_loss
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            issues.append(f"training stalled at epoch {epoch} (best loss {best_loss:.4f})")
            converged = False
            break

    # The trained system owns plain arrays, not views of the buffer.
    tensors = [t.copy() for t in tensors]
    hidden.weights, hidden.biases, out.weights, out.biases = tensors[:4]
    head.weights, head.biases, codebook.entries = tensors[4:]
    if _has_duplicate_rows(codebook.entries):
        raise RuntimeError("duplicate codewords after training")

    val = splits.val if len(splits.val) else splits.train
    val_probs = classify(quantize(encode(val, encoder), codebook), codebook, classifier)
    val_acc = top1_and_ce(val_probs, val.labels)[0]
    chance = 1.0 / n_classes
    if val_acc < chance + MIN_ACCURACY_MARGIN:
        issues.append(f"held-out accuracy {val_acc:.3f} within margin of chance {chance:.3f}")
        converged = False
    system = TrainedSystem(encoder, codebook, classifier, history, val_accuracy=val_acc, converged=converged)
    return system, issues


def codebook_file(codebook: Codebook) -> bytes:
    """The codebook file: magic "MCB1", u32 K, u32 dim, f64 entries row-major."""
    header = CODEBOOK_MAGIC + struct.pack("<II", codebook.k, codebook.dim)
    return header + codebook.entries.astype("<f8").tobytes(order="C")


def read_codebook(data: bytes) -> Codebook:
    """The codebook of a :func:`codebook_file`; any fault raises :class:`CodebookError`."""
    if data[:4] != CODEBOOK_MAGIC:
        raise CodebookError(f"bad magic {data[:4]!r}")
    if len(data) < 12:
        raise CodebookError("truncated header")
    k, dim = struct.unpack_from("<II", data, 4)
    if len(data) - 12 < k * dim * 8:
        raise CodebookError("truncated entries")
    try:
        return Codebook(np.frombuffer(data, dtype="<f8", count=k * dim, offset=12).reshape(k, dim).copy())
    except ValueError as exc:
        raise CodebookError(str(exc)) from None


def bundle_files(system: TrainedSystem) -> dict[str, bytes]:
    """A trained system's files by name: two checkpoints plus the codebook."""
    return {
        "encoder.mnn1": nn.network_file(system.encoder),
        "classifier.mnn1": nn.network_file(system.classifier),
        "codebook.mcb1": codebook_file(system.codebook),
    }


def load_bundle(directory: str) -> TrainedSystem:
    """Rehydrate ``directory``'s :func:`bundle_files`, refusing parts that do not fit; it reads nothing else."""

    def read(name: str) -> bytes:
        with open(os.path.join(directory, name), "rb") as fh:
            return fh.read()

    system = TrainedSystem(
        encoder=nn.read_network(read("encoder.mnn1"), ["relu", "relu"]),
        classifier=nn.read_network(read("classifier.mnn1"), ["linear"]),
        codebook=read_codebook(read("codebook.mcb1")),
    )
    width, dim, inputs = system.feature_dim, system.codebook.dim, system.classifier.input_dim
    if width % dim:
        raise nn.CheckpointError(f"encoder.mnn1 width {width} is not a multiple of codebook.mcb1 dim {dim}")
    if inputs != width:
        raise nn.CheckpointError(f"classifier.mnn1 takes {inputs} inputs, but encoder.mnn1 width is {width}")
    return system


def frame_bit_count(message: QuantizedMessage) -> int:
    """Bits on the air for one frame, padding included."""
    return int(message.indices.size) * message.bits_per_index + int(message.pad_bits)
