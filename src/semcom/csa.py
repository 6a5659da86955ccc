"""Covariance-guided semantic augmentation and the two-satellite round loop.

The augmented loss is the closed-form expected cross-entropy upper bound for
Gaussian feature augmentation: each competing class logit is inflated by
``(lam / 2) (w_c - w_y)^T diag(sigma_y) (w_c - w_y)``, so no samples are ever
drawn. A small predictor network g maps per-class reference feature means to
the per-class diagonal covariances. Each communication round, a neighbour's
received reference batch drives one meta step: inner SGD on the augmented
loss with the covariance fixed, then a first-order update of g through the
covariance term of the post-inner objective (inner updates are treated as
constants). A parameter-averaging baseline is included for round-count
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .channel import ChannelConfig, ChannelKind, noise_variance_from_psnr, sample_realization
from .dataset import SplitDatasets
from .dtjscc import (
    Codebook,
    SemanticFeatures,
    TrainedSystem,
    classify,
    classify_over_channel,
    dequantize,
    encode,
    frame_bit_count,
    quantize,
    transmit,
)
from .modem import Constellation
from .seeding import spawn_rng


class DivergenceError(Exception):
    """Inner optimization blew up; the round is aborted."""


@dataclass
class CovarianceMatrix:
    """Per-class diagonal covariances, one non-negative vector per class."""

    per_class_diag: np.ndarray  # (C, A) float64

    def __post_init__(self) -> None:
        self.per_class_diag = np.asarray(self.per_class_diag, dtype=np.float64)
        if self.per_class_diag.ndim != 2:
            raise ValueError("per_class_diag must be (C, A)")
        if np.any(self.per_class_diag < 0):
            raise ValueError("covariance entries must be >= 0")

    @property
    def n_classes(self) -> int:
        return int(self.per_class_diag.shape[0])


@dataclass
class SAConfig:
    """Augmentation strength, the two-level step sizes and the round loop's links.

    ``sa_lambda`` ramps linearly from zero over the first ``warmup_fraction``
    of a run's rounds.
    """

    sa_lambda: float = 0.5
    inner_steps: int = 3
    meta_learning_rate: float = 0.05
    inner_learning_rate: float = 0.05
    warmup_fraction: float = 0.25
    rounds: int = 30
    reference_batch: int = 64
    downlink_kind: str = "leo_rician"
    isl_psnr_db: float = 12.0
    eval_psnr_db: float = 12.0
    fresh_ut_classifier: bool = False
    target_accuracy: float = 0.75

    def __post_init__(self) -> None:
        if self.sa_lambda < 0:
            raise ValueError(f"sa_lambda must be >= 0, got {self.sa_lambda}")
        if self.inner_steps < 0:
            raise ValueError(f"inner_steps must be >= 0, got {self.inner_steps}")
        if self.reference_batch < 1:
            raise ValueError(f"reference_batch must be at least 1, got {self.reference_batch}")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError(f"warmup_fraction must lie in [0, 1], got {self.warmup_fraction}")
        kinds = [kind.value for kind in ChannelKind]
        if self.downlink_kind not in kinds:
            raise ValueError(f"downlink_kind must be one of {kinds}, got {self.downlink_kind!r}")


@dataclass
class SaGradients:
    features: np.ndarray
    weights: np.ndarray
    biases: np.ndarray
    cov: np.ndarray


def _augmentation_quadratic(
    weights: np.ndarray, labels: np.ndarray, cov: CovarianceMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Penalty matrix Q[b, c] = (w_c - w_y)^T diag(sigma_y) (w_c - w_y)."""
    diffs = weights[None, :, :] - weights[labels][:, None, :]  # (B, C, A)
    sig_y = cov.per_class_diag[labels]  # (B, A)
    quad = np.einsum("bca,ba->bc", diffs**2, sig_y)
    return quad, diffs, sig_y


def sa_loss(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    cov: CovarianceMatrix,
    lam: float,
) -> tuple[float, SaGradients]:
    """Augmented cross-entropy and its analytic gradients.

    ``weights`` is (C, A), ``biases`` (C,). At lam = 0 the value and every
    gradient coincide exactly with plain softmax cross-entropy. The loss is
    monotone non-decreasing in lam for any non-negative covariance, since the
    penalty only inflates competing logits.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    logits = features @ weights.T + biases
    quad, diffs, sig_y = _augmentation_quadratic(weights, labels, cov)
    aug = logits + (lam * 0.5) * quad
    loss, grad_logits = nn.softmax_cross_entropy(aug, labels)
    d_features = grad_logits @ weights
    d_weights = grad_logits.T @ features
    coupling = grad_logits[:, :, None] * sig_y[:, None, :] * diffs  # (B, C, A)
    d_weights = d_weights + lam * coupling.sum(axis=0)
    row_sums = coupling.sum(axis=1)  # (B, A)
    np.add.at(d_weights, labels, -lam * row_sums)
    d_biases = grad_logits.sum(axis=0)
    d_cov = np.zeros_like(cov.per_class_diag)
    np.add.at(d_cov, labels, (lam * 0.5) * np.einsum("bc,bca->ba", grad_logits, diffs**2))
    return loss, SaGradients(
        features=d_features, weights=d_weights, biases=d_biases, cov=d_cov
    )


def _class_means(reference: SemanticFeatures, n_classes: int) -> np.ndarray:
    """Per-class mean vectors; classes absent from the batch use the global mean."""
    if reference.labels is None:
        raise ValueError("reference batch must carry labels")
    vectors = reference.vectors
    fallback = vectors.mean(axis=0)
    means = np.empty((n_classes, vectors.shape[1]))
    for cls in range(n_classes):
        mask = reference.labels == cls
        means[cls] = vectors[mask].mean(axis=0) if mask.any() else fallback
    return means


def _covariance_geometry(g: nn.Network) -> tuple[int, int]:
    a = g.input_dim
    out = g.output_dim
    if out % a != 0:
        raise ValueError(f"predictor output {out} is not a multiple of input {a}")
    return out // a, a


def predict_covariance(g: nn.Network, reference: SemanticFeatures) -> CovarianceMatrix:
    """Diagonal covariance per class from the reference batch.

    Each class mean goes through g; the class's own slice of the softplus
    output becomes its diagonal. Permuting the reference batch leaves the
    result unchanged (mean pooling). An all-zero g yields ln 2 everywhere.
    """
    cov, _ = _predict_covariance_cached(g, reference)
    return cov


def _predict_covariance_cached(
    g: nn.Network, reference: SemanticFeatures
) -> tuple[CovarianceMatrix, list[nn.LayerCache]]:
    n_classes, a = _covariance_geometry(g)
    if reference.labels is not None and reference.labels.size:
        if int(reference.labels.max()) >= n_classes:
            raise ValueError("reference labels exceed predictor class count")
    means = _class_means(reference, n_classes)
    out, caches = nn.forward_cached(g, means)
    diag = np.empty((n_classes, a))
    for cls in range(n_classes):
        diag[cls] = out[cls, cls * a : (cls + 1) * a]
    return CovarianceMatrix(diag), caches


def _covariance_backward(
    g: nn.Network, caches: list[nn.LayerCache], d_diag: np.ndarray
) -> nn.Gradients:
    n_classes, a = d_diag.shape
    upstream = np.zeros((n_classes, n_classes * a))
    for cls in range(n_classes):
        upstream[cls, cls * a : (cls + 1) * a] = d_diag[cls]
    return nn.backward(g, caches, upstream)


def _require_linear_classifier(classifier: nn.Network) -> nn.Layer:
    if len(classifier.layers) != 1 or classifier.layers[0].activation != "linear":
        raise ValueError("the augmented loss requires a single linear classifier layer")
    return classifier.layers[0]


@dataclass
class MetaStepInfo:
    inner_losses: list[float]
    outer_loss: float
    covariance: CovarianceMatrix


def meta_step(
    g: nn.Network,
    encoder: nn.Network | None,
    classifier: nn.Network,
    reference: SemanticFeatures,
    current_batch: tuple[np.ndarray, np.ndarray],
    cfg: SAConfig,
) -> MetaStepInfo:
    """One bi-level adaptation round. Mutates the networks in place.

    (i) predict the covariance from the reference batch, (ii) run
    ``inner_steps`` full-batch SGD steps of the augmented loss on the current
    batch ``(inputs, labels)`` with the covariance fixed (updating encoder and
    classifier, or the classifier alone when ``encoder`` is None), (iii)
    update g down the gradient of the post-inner augmented objective on the
    reference batch, taken through the covariance term only; the inner
    updates are constants.
    With lam = 0 the inner trajectory is exactly plain cross-entropy SGD and
    the g update vanishes.
    """
    layer = _require_linear_classifier(classifier)
    cov, cov_caches = _predict_covariance_cached(g, reference)
    cur_x = np.asarray(current_batch[0], dtype=np.float64)
    cur_y = np.asarray(current_batch[1], dtype=np.int64)
    lam = cfg.sa_lambda
    lr = cfg.inner_learning_rate

    inner_losses: list[float] = []
    first_loss = None
    for _ in range(cfg.inner_steps):
        if encoder is not None:
            feats, caches_f = nn.forward_cached(encoder, cur_x)
        else:
            feats, caches_f = cur_x, None
        logits, caches_l = nn.forward_cached(classifier, feats)
        quad, diffs, sig_y = _augmentation_quadratic(
            layer.weights.T, cur_y, cov
        )
        aug = logits + (lam * 0.5) * quad
        loss, grad_logits = nn.softmax_cross_entropy(aug, cur_y)
        grads_l = nn.backward(classifier, caches_l, grad_logits)
        coupling = grad_logits[:, :, None] * sig_y[:, None, :] * diffs
        extra = coupling.sum(axis=0)
        np.add.at(extra, cur_y, -coupling.sum(axis=1))
        grads_l.layers[0] = (
            grads_l.layers[0][0] + lam * extra.T,
            grads_l.layers[0][1],
        )
        if encoder is not None:
            grads_f = nn.backward(encoder, caches_f, grads_l.wrt_input)
            nn.sgd_step(encoder, grads_f, lr)
        nn.sgd_step(classifier, grads_l, lr)
        inner_losses.append(loss)
        if first_loss is None:
            first_loss = loss
        elif first_loss > 0 and loss > 10.0 * first_loss:
            raise DivergenceError(
                f"inner loss {loss:.4f} exceeded 10x initial {first_loss:.4f}"
            )

    outer_loss, outer_grads = sa_loss(
        reference.vectors,
        reference.labels,
        layer.weights.T,
        layer.biases,
        cov,
        lam,
    )
    g_grads = _covariance_backward(g, cov_caches, outer_grads.cov)
    nn.sgd_step(g, g_grads, cfg.meta_learning_rate)
    return MetaStepInfo(inner_losses=inner_losses, outer_loss=outer_loss, covariance=cov)


ROUNDLOG_CSV_HEADER = "round,side,top1,ce_loss,sa_loss,bits_tx"


@dataclass
class RoundLog:
    round_index: int
    side: str
    top1_accuracy: float
    ce_loss: float
    sa_loss: float
    bits_transmitted: int

    def csv_row(self) -> str:
        return ",".join(
            (
                str(self.round_index),
                self.side,
                repr(float(self.top1_accuracy)),
                repr(float(self.ce_loss)),
                repr(float(self.sa_loss)),
                str(self.bits_transmitted),
            )
        )


@dataclass
class CsaScenario:
    """Everything a round loop needs, pre-assembled."""

    splits_t0: SplitDatasets
    splits_t1: SplitDatasets
    system: TrainedSystem
    constellation: Constellation
    isl_channel: ChannelConfig
    downlink_channel: ChannelConfig
    sa: SAConfig = field(default_factory=SAConfig)
    eval_frame: int = 32
    meta_enabled: bool = True
    seed: int = 0


def effective_lambda(base: float, round_index: int, n_rounds: int, warmup_fraction: float) -> float:
    """Linear ramp from 0 to base over the first warmup fraction of rounds."""
    warm = max(1, int(math.ceil(warmup_fraction * n_rounds)))
    return base * min(1.0, (round_index + 1) / warm)


def _transmit_features(
    features: SemanticFeatures,
    codebook: Codebook,
    blocks: int,
    constellation: Constellation,
    channel_cfg: ChannelConfig,
    psnr_db: float,
    rng: np.random.Generator,
) -> tuple[SemanticFeatures, int, bool]:
    """Quantize, send one frame, dequantize. Returns features, bits, erased."""
    message = quantize(features, codebook, blocks)
    realization = sample_realization(
        channel_cfg, noise_variance_from_psnr(psnr_db), rng
    )
    received = transmit(message, constellation, realization, rng, channel_cfg)
    bits = frame_bit_count(received)
    vectors = dequantize(received, codebook, blocks)
    return SemanticFeatures(vectors, features.labels), bits, received.erased


def eval_through_downlink(
    encoder: nn.Network,
    classifier: nn.Network,
    system: TrainedSystem,
    scenario: CsaScenario,
    round_index: int,
) -> tuple[float, float, int]:
    """Transmit the t_1 test set in frames and classify at the terminal.

    Returns Top-1, mean cross-entropy and the bits sent on the downlink.
    """
    test = scenario.splits_t1.test
    feats = encode(test, encoder)
    probs, bits_total = classify_over_channel(
        feats.vectors,
        system.codebook,
        classifier,
        system.blocks,
        scenario.constellation,
        scenario.downlink_channel,
        scenario.sa.eval_psnr_db,
        max(1, scenario.eval_frame),
        scenario.seed,
        "eval",
        round_index,
    )
    labels = test.labels
    top1 = float(np.mean(np.argmax(probs, axis=1) == labels))
    eps = 1e-12
    ce = float(np.mean(-np.log(probs[np.arange(len(test)), labels] + eps)))
    return top1, ce, bits_total


def terminal_classifier(system: TrainedSystem, sa: SAConfig, seed: int) -> nn.Network:
    """The terminal's starting classifier: fresh with ``sa.fresh_ut_classifier``, else a copy."""
    if not sa.fresh_ut_classifier:
        return system.classifier.copy()
    rng_seed = spawn_rng(seed, "ut_clf").integers(2**32)
    return nn.init_network([system.feature_dim, system.n_classes], ["linear"], rng_seed)


def run_csa_end_to_end(scenario: CsaScenario, n_rounds: int) -> list[RoundLog]:
    """Full two-satellite loop; two log entries per round (sat2 and ut sides).

    Per round: the reference satellite encodes a labelled t_0 batch and sends
    it over the inter-satellite link; the second satellite and the terminal
    adapt on the identically received reference (the satellite also trains on
    its own current t_1 batch); the second satellite then transmits the t_1
    test set down to the terminal for inference. With ``meta_enabled`` off
    the networks stay frozen and the loop is pure evaluation.
    """
    system = scenario.system
    f_s1 = system.encoder
    f_s2 = system.encoder.copy()
    l_s2 = system.classifier.copy()
    l_ut = terminal_classifier(system, scenario.sa, scenario.seed)
    g_s2 = system.covariance_net.copy()
    g_ut = system.covariance_net.copy()

    t0_train = scenario.splits_t0.train
    t1_train = scenario.splits_t1.train
    t1_val = scenario.splits_t1.val if len(scenario.splits_t1.val) else t1_train
    logs: list[RoundLog] = []
    for i in range(n_rounds):
        lam_i = effective_lambda(
            scenario.sa.sa_lambda, i, n_rounds, scenario.sa.warmup_fraction
        )
        cfg_i = replace(scenario.sa, sa_lambda=lam_i)

        ref_rng = spawn_rng(scenario.seed, "ref", i)
        take = min(scenario.sa.reference_batch, len(t0_train))
        ref_idx = ref_rng.choice(len(t0_train), size=take, replace=False)
        ref_images = t0_train.subset(ref_idx)
        ref_feats = encode(ref_images, f_s1)
        received_ref, isl_bits, erased = _transmit_features(
            ref_feats,
            system.codebook,
            system.blocks,
            scenario.constellation,
            scenario.isl_channel,
            scenario.sa.isl_psnr_db,
            spawn_rng(scenario.seed, "isl", i),
        )

        sat2_sa = sat2_ce = float("nan")
        ut_sa = float("nan")
        if scenario.meta_enabled and not erased:
            cur_rng = spawn_rng(scenario.seed, "cur", i)
            take_cur = min(scenario.sa.reference_batch, len(t1_train))
            cur_idx = cur_rng.choice(len(t1_train), size=take_cur, replace=False)
            cur = t1_train.subset(cur_idx)
            info_s2 = meta_step(
                g_s2, f_s2, l_s2, received_ref,
                (cur.flattened(), cur.labels), cfg_i,
            )
            info_ut = meta_step(
                g_ut, None, l_ut, received_ref,
                (received_ref.vectors, received_ref.labels), cfg_i,
            )
            sat2_sa = info_s2.inner_losses[-1] if info_s2.inner_losses else info_s2.outer_loss
            ut_sa = info_ut.inner_losses[-1] if info_ut.inner_losses else info_ut.outer_loss

        val_feats = encode(t1_val, f_s2)
        val_msg = quantize(val_feats, system.codebook, system.blocks)
        val_probs = classify(val_msg, system.codebook, l_s2, system.blocks)
        sat2_top1 = float(np.mean(np.argmax(val_probs, axis=1) == t1_val.labels))
        eps = 1e-12
        sat2_ce = float(
            np.mean(-np.log(val_probs[np.arange(len(t1_val)), t1_val.labels] + eps))
        )

        ut_top1, ut_ce, down_bits = eval_through_downlink(
            f_s2, l_ut, system, scenario, i
        )
        logs.append(
            RoundLog(i, "sat2", sat2_top1, sat2_ce, sat2_sa, isl_bits)
        )
        logs.append(RoundLog(i, "ut", ut_top1, ut_ce, ut_sa, down_bits))
    return logs


# Client shard modes: class-disjoint blocks (the non-iid regime) or round robin.
SHARD_MODES = ("disjoint", "iid")


@dataclass
class FedAvgConfig:
    """Parameter-averaging baseline: clients, local SGD and the labelled pool.

    ``scarce_per_class`` above zero caps the labelled pool both protocols see.
    """

    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0
    clients: int = 2
    rounds: int = 30
    shards: str = "disjoint"
    scarce_per_class: int = 0

    def __post_init__(self) -> None:
        if self.shards not in SHARD_MODES:
            raise ValueError(f"shards must be one of {SHARD_MODES}, got {self.shards!r}")
        for name in ("clients", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


def run_fedavg_baseline(
    clients: list[SemanticFeatures],
    n_rounds: int,
    cfg: FedAvgConfig,
    classifier: nn.Network | None = None,
    eval_fn=None,
) -> list[RoundLog]:
    """Parameter-averaging baseline over labelled client feature shards.

    Each round every client copies the global classifier, runs
    ``local_epochs`` of minibatch cross-entropy SGD on its shard, and the
    server replaces the global model with the shard-size-weighted average.
    Per-round shuffling is seeded identically across clients, so identical
    shards produce identical locals. One client reproduces centralized SGD.
    ``eval_fn`` maps the aggregated classifier to (top1, ce); when omitted the
    pooled training shards are scored in the clear.
    """
    if not clients:
        raise ValueError("need at least one client")
    for shard in clients:
        if shard.labels is None:
            raise ValueError("client shards must carry labels")
    feature_dim = clients[0].vectors.shape[1]
    if classifier is None:
        n_classes = int(max(int(s.labels.max()) for s in clients)) + 1
        classifier = nn.init_network(
            [feature_dim, n_classes], ["linear"], spawn_rng(cfg.seed, "fed_clf").integers(2**32)
        )
    if eval_fn is None:
        pool_x = np.concatenate([s.vectors for s in clients])
        pool_y = np.concatenate([s.labels for s in clients])

        def eval_fn(net: nn.Network) -> tuple[float, float]:
            probs = nn.softmax(nn.forward(net, pool_x))
            top1 = float(np.mean(np.argmax(probs, axis=1) == pool_y))
            ce = float(
                np.mean(-np.log(probs[np.arange(len(pool_y)), pool_y] + 1e-12))
            )
            return top1, ce

    sizes = np.array([s.vectors.shape[0] for s in clients], dtype=np.float64)
    weights = sizes / sizes.sum()
    bits_per_round = classifier.parameter_count * 64 * 2 * len(clients)
    logs: list[RoundLog] = []
    for r in range(n_rounds):
        locals_: list[nn.Network] = []
        for shard in clients:
            local = classifier.copy()
            rng = spawn_rng(cfg.seed, "fed_round", r)
            x, y = shard.vectors, shard.labels
            for _ in range(cfg.local_epochs):
                order = rng.permutation(x.shape[0])
                for start in range(0, x.shape[0], cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
                    logits, caches = nn.forward_cached(local, x[batch])
                    _, grad = nn.softmax_cross_entropy(logits, y[batch])
                    grads = nn.backward(local, caches, grad)
                    nn.sgd_step(local, grads, cfg.learning_rate)
            locals_.append(local)
        for li, layer in enumerate(classifier.layers):
            layer.weights = sum(
                w * net.layers[li].weights for w, net in zip(weights, locals_)
            )
            layer.biases = sum(
                w * net.layers[li].biases for w, net in zip(weights, locals_)
            )
        top1, ce = eval_fn(classifier)
        logs.append(RoundLog(r, "server", top1, ce, float("nan"), bits_per_round))
    return logs


def rounds_to_target(
    logs: list[RoundLog], target: float, side: str
) -> int | None:
    """First round index whose side entry reaches the target Top-1, else None."""
    for entry in logs:
        if entry.side == side and entry.top1_accuracy >= target:
            return entry.round_index
    return None


def final_accuracy(logs: list[RoundLog], side: str, window: int = 1) -> float:
    """Mean Top-1 of a side's last ``window`` rounds.

    Per-round Top-1 bounces with the block-fading draws, so a run's headline
    number averages its closing window instead of trusting the single last
    round.
    """
    series = [entry.top1_accuracy for entry in logs if entry.side == side]
    if not series:
        raise ValueError(f"no log entries for side {side!r}")
    window = max(1, min(window, len(series)))
    return float(np.mean(series[-window:]))
