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
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import nn
from .config import ChannelConfig, FedAvgConfig, SAConfig
from .dataset import SplitDatasets
from .dtjscc import (
    DivergenceError,
    TrainedSystem,
    classify,
    classify_over_channel,
    encode,
    quantize,
    send_over_channel,
    top1_and_ce,
    # Not called here; perfbench's tracer test patches the csa.transmit binding.
    transmit,  # noqa: F401
)
from .seeding import spawn_rng


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


@dataclass
class SaGradients:
    features: np.ndarray
    weights: np.ndarray
    biases: np.ndarray
    cov: np.ndarray


def sa_loss(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    biases: np.ndarray,
    cov: CovarianceMatrix,
    lam: float,
) -> tuple[float, SaGradients]:
    """Augmented cross-entropy and its analytic gradients.

    ``weights`` is (C, A), ``biases`` (C,). The logit of class c grows by
    ``(lam / 2) Q[b, c]`` with Q[b, c] = (w_c - w_y)^T diag(sigma_y) (w_c - w_y).
    At lam = 0 the value and every gradient equal plain softmax
    cross-entropy's. The loss is monotone non-decreasing in lam for any
    non-negative covariance, since the penalty only inflates competing logits.
    The products are those of ``nn.forward_cached`` and ``nn.backward`` on a
    linear layer holding ``weights.T``, so :func:`meta_step` gets their bits.
    """
    if not lam >= 0:  # also true for NaN
        raise ValueError(f"lam must be >= 0, got {lam}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    logits = features @ weights.T + biases
    diffs = weights[None, :, :] - weights[labels][:, None, :]  # (B, C, A)
    diffs2 = diffs**2
    sig_y = cov.per_class_diag[labels]  # (B, A)
    aug = logits + (lam * 0.5) * np.einsum("bca,ba->bc", diffs2, sig_y)
    loss, grad_logits = nn.softmax_cross_entropy(aug, labels)
    coupling = grad_logits[:, :, None] * sig_y[:, None, :] * diffs  # (B, C, A)
    extra = coupling.sum(axis=0)
    np.add.at(extra, labels, -coupling.sum(axis=1))
    d_cov = np.zeros_like(cov.per_class_diag)
    np.add.at(d_cov, labels, (lam * 0.5) * np.einsum("bc,bca->ba", grad_logits, diffs2))
    return loss, SaGradients(
        features=grad_logits @ weights,
        weights=(features.T @ grad_logits).T + lam * extra,
        biases=grad_logits.sum(axis=0),
        cov=d_cov,
    )


def _class_means(reference: tuple[np.ndarray, np.ndarray], n_classes: int) -> np.ndarray:
    """Per-class means, summed in batch order as ``mean`` sums; absent classes take the global mean."""
    vectors, labels = reference
    sums = np.zeros((n_classes, vectors.shape[1]))
    np.add.at(sums, labels, vectors)
    counts = np.bincount(labels, minlength=n_classes)
    means = sums / np.maximum(counts, 1)[:, None]
    means[counts == 0] = vectors.mean(axis=0)
    return means


# Hidden widths of the covariance predictor g.
COVARIANCE_HIDDEN = (32, 32)


def predict_covariance(
    g: nn.Network, reference: tuple[np.ndarray, np.ndarray]
) -> tuple[CovarianceMatrix, list[nn.LayerCache]]:
    """Diagonal covariance per class from the ``(features, labels)`` reference batch, and g's caches.

    Each class mean goes through g; the class's own slice of the softplus
    output becomes its diagonal. Permuting the reference batch leaves the
    result unchanged (mean pooling). An all-zero g yields ln 2 everywhere.
    """
    a, out_dim = g.input_dim, g.output_dim
    if out_dim % a != 0:
        raise ValueError(f"predictor output {out_dim} is not a multiple of input {a}")
    n_classes = out_dim // a
    labels = reference[1]
    if labels.size and int(labels.max()) >= n_classes:
        raise ValueError("reference labels exceed predictor class count")
    out, caches = nn.forward_cached(g, _class_means(reference, n_classes))
    own = np.arange(n_classes)
    return CovarianceMatrix(out.reshape(n_classes, n_classes, a)[own, own]), caches


def _covariance_backward(
    g: nn.Network, caches: list[nn.LayerCache], d_diag: np.ndarray
) -> nn.Gradients:
    """g's gradients from the diagonal's: each class's slice gets its row, the rest zero."""
    n_classes, a = d_diag.shape
    upstream = np.zeros((n_classes, n_classes, a))
    own = np.arange(n_classes)
    upstream[own, own] = d_diag
    return nn.backward(g, caches, upstream.reshape(n_classes, n_classes * a))


def _require_linear_classifier(classifier: nn.Network) -> nn.Layer:
    if len(classifier.layers) != 1 or classifier.layers[0].activation != "linear":
        raise ValueError("the augmented loss requires a single linear classifier layer")
    return classifier.layers[0]


@dataclass
class MetaStepInfo:
    inner_losses: list[float]
    outer_loss: float


def meta_step(
    g: nn.Network,
    encoder: nn.Network | None,
    classifier: nn.Network,
    reference: tuple[np.ndarray, np.ndarray],
    current_batch: tuple[np.ndarray, np.ndarray],
    cfg: SAConfig,
) -> MetaStepInfo:
    """One bi-level adaptation round. Mutates the networks in place.

    (i) predict the covariance from the ``(features, labels)`` reference
    batch, (ii) run ``inner_steps`` full-batch SGD steps of the augmented loss
    on the current batch ``(inputs, labels)`` with the covariance fixed
    (updating encoder and classifier, or the classifier alone when
    ``encoder`` is None), (iii) update g down the gradient of the post-inner
    augmented objective on the reference batch, taken through the covariance
    term only; the inner updates are constants.
    With lam = 0 the inner trajectory is exactly plain cross-entropy SGD and
    the g update vanishes.
    """
    layer = _require_linear_classifier(classifier)
    cov, cov_caches = predict_covariance(g, reference)
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
            feats = cur_x
        loss, grads = sa_loss(feats, cur_y, layer.weights.T, layer.biases, cov, lam)
        if encoder is not None:
            nn.sgd_step(encoder, nn.backward(encoder, caches_f, grads.features), lr)
        nn.sgd_step(classifier, nn.Gradients([(grads.weights.T, grads.biases)]), lr)
        inner_losses.append(loss)
        if not math.isfinite(loss):
            raise DivergenceError(f"inner loss {loss} is not finite")
        if first_loss is None:
            first_loss = loss
        elif first_loss > 0 and loss > 10.0 * first_loss:
            raise DivergenceError(
                f"inner loss {loss:.4f} exceeded 10x initial {first_loss:.4f}"
            )

    outer_loss, outer_grads = sa_loss(*reference, layer.weights.T, layer.biases, cov, lam)
    g_grads = _covariance_backward(g, cov_caches, outer_grads.cov)
    nn.sgd_step(g, g_grads, cfg.meta_learning_rate)
    return MetaStepInfo(inner_losses=inner_losses, outer_loss=outer_loss)


ROUNDLOG_CSV_HEADER = "round,side,top1,ce_loss,sa_loss,bits_tx"


class RoundLog(NamedTuple):
    round_index: int
    side: str
    top1_accuracy: float
    ce_loss: float
    sa_loss: float
    bits_transmitted: int


@dataclass
class CsaScenario:
    """Everything a round loop needs, pre-assembled."""

    splits_t0: SplitDatasets
    splits_t1: SplitDatasets
    system: TrainedSystem
    covariance_net: nn.Network  # the untrained predictor g; each adapting side copies it
    isl_channel: ChannelConfig
    downlink_channel: ChannelConfig
    sa: SAConfig
    eval_frame: int
    seed: int


def effective_lambda(sa: SAConfig, round_index: int) -> float:
    """Linear ramp from 0 to ``sa_lambda`` over the first warmup fraction of ``sa.rounds``."""
    warm = max(1, int(math.ceil(sa.warmup_fraction * sa.rounds)))
    return sa.sa_lambda * min(1.0, (round_index + 1) / warm)


def eval_through_downlink(
    test_vectors: np.ndarray,
    classifier: nn.Network,
    scenario: CsaScenario,
    round_index: int,
) -> tuple[float, float, int]:
    """Transmit the encoded t_1 test set in frames and classify at the terminal.

    Returns Top-1, mean cross-entropy and the bits sent on the downlink.
    """
    probs, bits_total = classify_over_channel(
        test_vectors,
        scenario.system.codebook,
        classifier,
        scenario.downlink_channel,
        scenario.sa.eval_psnr_db,
        scenario.eval_frame,
        scenario.seed,
        "eval",
        round_index,
    )
    return (*top1_and_ce(probs, scenario.splits_t1.test.labels), bits_total)


def terminal_classifier(scenario: CsaScenario) -> nn.Network:
    """The terminal's starting classifier: fresh with ``sa.fresh_ut_classifier``, else a copy."""
    system = scenario.system
    if not scenario.sa.fresh_ut_classifier:
        return system.classifier.copy()
    rng_seed = spawn_rng(scenario.seed, "ut_clf").integers(2**32)
    return nn.init_network([system.feature_dim, system.n_classes], ["linear"], rng_seed)


def run_csa_end_to_end(scenario: CsaScenario, meta_enabled: bool = True) -> list[RoundLog]:
    """Full two-satellite loop over ``sa.rounds``; two log entries per round (sat2 and ut sides).

    Per round: the reference satellite encodes a labelled t_0 batch and sends
    it over the inter-satellite link; the second satellite and the terminal
    adapt on the identically received reference (the satellite also trains on
    its own current t_1 batch); the second satellite then transmits the t_1
    test set down to the terminal for inference. With ``meta_enabled`` off
    the networks stay frozen and the loop is pure evaluation. The validation
    score and the test features are recomputed only in round 0 and after a
    round that adapted, since only then can they change.
    """
    system = scenario.system
    f_s1 = system.encoder
    f_s2 = system.encoder.copy()
    l_s2 = system.classifier.copy()
    l_ut = terminal_classifier(scenario)
    g_s2 = scenario.covariance_net.copy()
    g_ut = scenario.covariance_net.copy()

    t0_train = scenario.splits_t0.train
    t1_train = scenario.splits_t1.train
    t1_val = scenario.splits_t1.val if len(scenario.splits_t1.val) else t1_train
    logs: list[RoundLog] = []
    for i in range(scenario.sa.rounds):
        lam_i = effective_lambda(scenario.sa, i)
        cfg_i = replace(scenario.sa, sa_lambda=lam_i)

        ref_rng = spawn_rng(scenario.seed, "ref", i)
        take = min(scenario.sa.reference_batch, len(t0_train))
        ref_idx = ref_rng.choice(len(t0_train), size=take, replace=False)
        ref_images = t0_train.subset(ref_idx)
        ref_vectors, erased, isl_bits = send_over_channel(
            encode(ref_images, f_s1),
            system.codebook,
            scenario.isl_channel,
            scenario.sa.isl_psnr_db,
            take,
            [spawn_rng(scenario.seed, "isl", i)],
        )
        reference = (ref_vectors, ref_images.labels)

        sat2_sa = ut_sa = float("nan")
        adapted = meta_enabled and not erased.any()
        if adapted:
            cur_rng = spawn_rng(scenario.seed, "cur", i)
            take_cur = min(scenario.sa.reference_batch, len(t1_train))
            cur_idx = cur_rng.choice(len(t1_train), size=take_cur, replace=False)
            cur = t1_train.subset(cur_idx)
            try:
                info_s2 = meta_step(g_s2, f_s2, l_s2, reference, (cur.flattened(), cur.labels), cfg_i)
                info_ut = meta_step(g_ut, None, l_ut, reference, reference, cfg_i)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"round {i}: {exc} at csa.inner_lr = {cfg_i.inner_learning_rate}"
                ) from exc
            sat2_sa = info_s2.inner_losses[-1] if info_s2.inner_losses else info_s2.outer_loss
            ut_sa = info_ut.inner_losses[-1] if info_ut.inner_losses else info_ut.outer_loss

        if adapted or i == 0:
            val_msg = quantize(encode(t1_val, f_s2), system.codebook)
            val_probs = classify(val_msg, system.codebook, l_s2)
            sat2_top1, sat2_ce = top1_and_ce(val_probs, t1_val.labels)
            test_vectors = encode(scenario.splits_t1.test, f_s2)

        ut_top1, ut_ce, down_bits = eval_through_downlink(
            test_vectors, l_ut, scenario, i
        )
        logs.append(
            RoundLog(i, "sat2", sat2_top1, sat2_ce, sat2_sa, isl_bits)
        )
        logs.append(RoundLog(i, "ut", ut_top1, ut_ce, ut_sa, down_bits))
    return logs


def run_fedavg_baseline(
    clients: list[tuple[np.ndarray, np.ndarray]],
    cfg: FedAvgConfig,
    eval_fn: Callable[[nn.Network], tuple[float, float]],
    classifier: nn.Network,
) -> list[RoundLog]:
    """Parameter-averaging baseline over ``(features, labels)`` client shards.

    ``classifier`` is the global model. Each of ``cfg.rounds`` rounds every
    client copies it, runs ``local_epochs`` of minibatch cross-entropy SGD on
    its shard, and the server replaces its parameters, in place, with the
    shard-size-weighted average.
    Per-round shuffling is seeded identically across clients, so identical
    shards produce identical locals. One client reproduces centralized SGD.
    ``eval_fn`` maps the aggregated classifier to (top1, ce) after each round.
    """
    if not clients:
        raise ValueError("need at least one client")
    sizes = np.array([x.shape[0] for x, _ in clients], dtype=np.float64)
    weights = sizes / sizes.sum()
    bits_per_round = classifier.parameter_count * 64 * 2 * len(clients)
    logs: list[RoundLog] = []
    for r in range(cfg.rounds):
        locals_: list[nn.Network] = []
        for x, y in clients:
            local = classifier.copy()
            rng = spawn_rng(cfg.seed, "fed_round", r)
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
