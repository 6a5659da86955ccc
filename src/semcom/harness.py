"""Experiment harness: sweeps, confusion matrices, round loops, plots.

Everything here is glue over the library modules. The one design rule is
reproducibility: every random draw is seeded from the master seed plus a
string tag, each sweep cell gets its own derived seed, and every CSV comes
from ``tables.csv_text``, whose floats parse back to the exact values.
Sweep output is therefore byte-identical no matter how many workers ran it.
"""

from __future__ import annotations

import html
import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import blas, nn
from .config import EUROSAT_CLASS_NAMES, SHARD_MODES, ChannelConfig, ChannelKind, HarnessConfig
from .csa import (
    COVARIANCE_HIDDEN,
    ROUNDLOG_CSV_HEADER,
    CsaScenario,
    RoundLog,
    eval_through_downlink,
    rounds_to_target,
    run_csa_end_to_end,
    run_fedavg_baseline,
    terminal_classifier,
)
from .dataset import Dataset, SplitDatasets, generate_synthetic
from .dtjscc import (
    TrainedSystem,
    classify_over_channel,
    dequantize,
    encode,
    quantize,
    train_dtjscc,
    # Not called here; perfbench's tracer test patches the harness.transmit binding.
    transmit,  # noqa: F401
)
from .seeding import derive_seed, spawn_rng
from .tables import csv_text

SWEEP_CSV_HEADER = "channel,modulation,K,psnr_db,seed,top1"
CONFUSION_CSV_HEADER = "true_class,pred_class,count,row_pct"


class SweepRow(NamedTuple):
    channel: str
    modulation: str
    k: int
    psnr_db: float
    seed: int
    top1: float


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def csv(self) -> str:
        return csv_text(SWEEP_CSV_HEADER, self.rows)

    def series(self) -> dict[tuple[str, int], list[tuple[float, float]]]:
        """Mean Top-1 over seeds, grouped by (channel, K), sorted by PSNR."""
        acc: dict[tuple[str, int, float], list[float]] = {}
        for row in self.rows:
            acc.setdefault((row.channel, row.k, row.psnr_db), []).append(row.top1)
        out: dict[tuple[str, int], list[tuple[float, float]]] = {}
        for (channel, k, psnr), vals in sorted(acc.items()):
            out.setdefault((channel, k), []).append((psnr, float(np.mean(vals))))
        return out


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, rows true / cols predicted; class i is EUROSAT_CLASS_NAMES[i]

    def top1(self) -> float:
        total = int(self.counts.sum())
        return float(np.trace(self.counts)) / total if total else 0.0

    def csv(self) -> str:
        names, totals = EUROSAT_CLASS_NAMES, self.counts.sum(axis=1)
        rows = [
            (names[i], names[j], int(n), 100.0 * n / totals[i] if totals[i] else 0.0)
            for (i, j), n in np.ndenumerate(self.counts)
        ]
        return csv_text(CONFUSION_CSV_HEADER, rows)


def evaluate_through_channel(
    system: TrainedSystem,
    dataset: Dataset,
    channel_cfg: ChannelConfig,
    psnr_db: float,
    seed: int,
    repetitions: int,
    frame: int,
) -> ConfusionMatrix:
    """Send the whole dataset through the channel and count its decisions.

    Images go out in frames of ``frame``; each (repetition, frame) pair draws
    its own channel state from a seed derived from ``seed``, so the result is
    a function of the arguments alone. Returns the (true, predicted) counts
    summed over every repetition.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    vectors = encode(dataset, system.encoder)
    c = len(EUROSAT_CLASS_NAMES)
    counts = np.zeros((c, c), dtype=np.int64)
    for rep in range(repetitions):
        probs, _ = classify_over_channel(
            vectors,
            system.codebook,
            system.classifier,
            channel_cfg,
            psnr_db,
            frame,
            seed,
            "rep",
            rep,
        )
        np.add.at(counts, (dataset.labels, np.argmax(probs, axis=1)), 1)
    return ConfusionMatrix(counts)


@blas.single_thread()
def _sweep_job(args: tuple[HarnessConfig, SplitDatasets, int, int]) -> list[SweepRow]:
    """Train one (K, trial) system and score every (channel, PSNR) cell.

    Pins BLAS itself so that pool workers run on one thread whatever the
    start method.
    """
    cfg, splits, k, trial = args
    ex = cfg.experiment
    dj = replace(
        cfg.dtjscc, k=k, seed=derive_seed(ex.master_seed, "sweep_train", k, trial)
    )
    system = train_dtjscc(splits, ex.train_psnr_db, dj)
    rows = []
    for channel in ex.channels:
        channel_cfg = replace(cfg.channel, kind=channel)
        for psnr in ex.psnr_grid_db:
            cell_seed = derive_seed(ex.master_seed, "sweep_cell", channel, k, psnr, trial)
            matrix = evaluate_through_channel(
                system,
                splits.test,
                channel_cfg,
                psnr,
                cell_seed,
                ex.eval_repetitions,
                ex.eval_frame,
            )
            rows.append(SweepRow(channel, channel_cfg.modulation, k, float(psnr), trial, matrix.top1()))
    return rows


@blas.single_thread()
def run_sweep(cfg: HarnessConfig) -> SweepResult:
    """Run the full grid. Worker count changes wall time, never the bytes.

    The dataset is generated once and shared by every (K, trial) job.
    """
    ex = cfg.experiment
    splits, _ = generate_synthetic(cfg.dataset)
    jobs = [(cfg, splits, k, trial) for k in ex.k_presets for trial in range(ex.trials)]
    # A forked pool starts every worker at once, so never more than the jobs.
    workers = min(ex.workers, len(jobs))
    if workers <= 1:
        chunks = [_sweep_job(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pool runs only

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_job, jobs))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.channel, r.modulation, r.k, r.psnr_db, r.seed))
    return SweepResult(rows)


@blas.single_thread()
def run_confusion(cfg: HarnessConfig) -> ConfusionMatrix:
    """Train once and tabulate test-set decisions at the evaluation PSNR."""
    ex = cfg.experiment
    splits, _ = generate_synthetic(cfg.dataset)
    system = train_dtjscc(splits, ex.train_psnr_db, cfg.dtjscc)
    return evaluate_through_channel(
        system,
        splits.test,
        replace(cfg.channel, kind=ex.channels[0]),
        ex.eval_psnr_db,
        derive_seed(ex.master_seed, "confusion"),
        ex.eval_repetitions,
        ex.eval_frame,
    )


def roundlog_csv(logs: list[RoundLog]) -> str:
    """The round-log file: one row per entry, its fields in order."""
    return csv_text(ROUNDLOG_CSV_HEADER, logs)


def build_csa_scenario(cfg: HarnessConfig) -> CsaScenario:
    """Generate data, pretrain the pipeline, and wire the round-loop inputs.

    ``fedavg.scarce_per_class`` above zero caps the labelled t_1 train pool at
    that many images per class, drawn from the master seed's "scarce" stream:
    after an environment change the archive reference stream stays plentiful
    while fresh labels are rare.
    """
    ex = cfg.experiment
    splits_t0, splits_t1 = generate_synthetic(cfg.dataset)
    per_class = cfg.fedavg.scarce_per_class
    if per_class:
        t1 = splits_t1.train
        rng = spawn_rng(ex.master_seed, "scarce")
        keep = []
        for c in range(len(EUROSAT_CLASS_NAMES)):
            idx = np.flatnonzero(t1.labels == c)
            keep.append(rng.choice(idx, size=min(per_class, len(idx)), replace=False))
        splits_t1 = SplitDatasets(t1.subset(np.sort(np.concatenate(keep))), splits_t1.val, splits_t1.test)
    system = train_dtjscc(splits_t0, ex.train_psnr_db, cfg.dtjscc)
    a = system.feature_dim
    # The pretraining seed's "cov" stream: the g every recorded round log starts from.
    g_seed = spawn_rng(cfg.dtjscc.seed, "cov").integers(2**32)
    g = nn.init_network([a, *COVARIANCE_HIDDEN, system.n_classes * a], ["relu", "relu", "softplus"], g_seed)
    return CsaScenario(
        splits_t0=splits_t0,
        splits_t1=splits_t1,
        system=system,
        covariance_net=g,
        # The inter-satellite link's gain never varies, per symbol or per frame.
        isl_channel=replace(cfg.channel, kind=ChannelKind.ISL, per_symbol_fading=False),
        downlink_channel=replace(cfg.channel, kind=cfg.csa.downlink_kind),
        sa=cfg.csa,
        eval_frame=ex.eval_frame,
        seed=ex.master_seed,
    )


@blas.single_thread()
def run_csa_experiment(
    cfg: HarnessConfig, meta_enabled: bool = True
) -> tuple[list[RoundLog], CsaScenario]:
    scenario = build_csa_scenario(cfg)
    return run_csa_end_to_end(scenario, meta_enabled), scenario


def fedavg_client_shards(
    system: TrainedSystem, dataset: Dataset, n_clients: int, mode: str = "disjoint"
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split codeword-domain features into ``(features, labels)`` client shards.

    ``disjoint`` gives each client a contiguous block of classes (the non-iid
    regime parameter averaging struggles with); ``iid`` deals samples round
    robin.
    """
    if mode not in SHARD_MODES:
        raise ValueError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
    message = quantize(encode(dataset, system.encoder), system.codebook)
    clean = dequantize(message, system.codebook, system.feature_dim)
    labels = dataset.labels
    if mode == "disjoint":
        assign = labels * n_clients // len(EUROSAT_CLASS_NAMES)
    else:
        assign = np.arange(len(labels)) % n_clients
    shards = []
    for j in range(n_clients):
        mask = assign == j
        if not mask.any():
            raise ValueError(f"client {j} received no samples")
        shards.append((clean[mask], labels[mask]))
    return shards


@blas.single_thread()
def run_fedavg_experiment(cfg: HarnessConfig) -> list[RoundLog]:
    """Parameter-averaging counterpart evaluated over the same downlink.

    Builds the scenario the adaptation loop builds and starts from the
    terminal's classifier, so dataset, labelled pool, pretrained pipeline,
    starting head and per-round evaluation noise match that loop draw for
    draw; only the coordination protocol differs.
    """
    scenario = build_csa_scenario(cfg)
    fa, system = cfg.fedavg, scenario.system
    shards = fedavg_client_shards(system, scenario.splits_t1.train, fa.clients, fa.shards)
    test_vectors = encode(scenario.splits_t1.test, system.encoder)
    rounds = itertools.count()

    def eval_fn(net: nn.Network) -> tuple[float, float]:
        top1, ce, _ = eval_through_downlink(test_vectors, net, scenario, next(rounds))
        return top1, ce

    return run_fedavg_baseline(shards, fa, eval_fn, terminal_classifier(scenario))


@dataclass
class RaceResult:
    """Rounds-to-target comparison between the two coordination protocols."""

    csa_logs: list[RoundLog]
    fedavg_logs: list[RoundLog]
    target: float
    csa_rounds: int | None
    fedavg_rounds: int | None


@blas.single_thread()
def run_round_race(cfg: HarnessConfig) -> RaceResult:
    """Race the adaptation loop against parameter averaging to a target Top-1.

    The race is its two sides: ``run_csa_experiment`` and
    ``run_fedavg_experiment`` on ``cfg``, each building its own scenario, so
    both get the same pretrained pipeline, the same (optionally scarce)
    labelled current-epoch pool, the same starting classifier, and the same
    per-round downlink evaluation draws. The adaptation loop additionally
    receives the reference stream over the inter-satellite link; the
    averaging baseline instead exchanges classifier parameters between
    clients holding class-disjoint shards. The first side's scenario is
    dropped before the second builds its own, so one is alive at a time.
    """
    csa_logs = run_csa_experiment(cfg)[0]
    fedavg_logs = run_fedavg_experiment(cfg)
    target = cfg.csa.target_accuracy
    return RaceResult(
        csa_logs,
        fedavg_logs,
        target,
        rounds_to_target(csa_logs, target, "ut"),
        rounds_to_target(fedavg_logs, target, "server"),
    )


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("", "6,3", "2,2", "8,2,2,2")


def svg_text(result: SweepResult) -> str:
    """Hand-rolled SVG line chart: one series per (channel, K).

    Each marker carries its coordinates as data attributes, so the plotted
    numbers can be read back out of the file.
    """
    series = result.series()
    width, height = 640, 420
    left, right, top, bottom = 64, 170, 40, 52
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = sorted({p for pts in series.values() for p, _ in pts})
    if not xs:
        raise ValueError("empty sweep result")
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0

    def sx(p: float) -> float:
        return left + (p - x_lo) / (x_hi - x_lo) * plot_w

    def sy(a: float) -> float:
        return top + (1.0 - a) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        'font-size="14">Top-1 vs PSNR</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end">{frac:g}</text>'
        )
    for p in xs:
        x = sx(p)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16}" text-anchor="middle">{p:g}</text>'
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444"/>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" '
        f'text-anchor="middle">PSNR (dB)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">Top-1 accuracy</text>'
    )
    channels = sorted({ch for ch, _ in series})
    ks = sorted({k for _, k in series})
    for si, ((channel, k), pts) in enumerate(sorted(series.items())):
        color = _PALETTE[channels.index(channel) % len(_PALETTE)]
        dash = _DASHES[ks.index(k) % len(_DASHES)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{sx(p):.2f},{sy(a):.2f}" for p, a in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        for p, a in pts:
            parts.append(
                f'<circle cx="{sx(p):.2f}" cy="{sy(a):.2f}" r="3" fill="{color}" '
                f'data-psnr-db="{repr(float(p))}" data-top1="{repr(float(a))}"/>'
            )
        ly = top + 14 + 16 * si
        parts.append(
            f'<line x1="{left + plot_w + 10}" y1="{ly - 4:.1f}" '
            f'x2="{left + plot_w + 34}" y2="{ly - 4:.1f}" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 40}" y="{ly:.1f}">'
            f"{html.escape(channel, quote=False)} K={k}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
