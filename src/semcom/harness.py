"""Experiment harness: sweeps, confusion matrices, round loops, plots.

Everything here is glue over the library modules. The one design rule is
reproducibility: every random draw is seeded from the master seed plus a
string tag, each sweep cell gets its own derived seed, and CSV floats are
written with ``repr`` so a file parses back to the exact in-memory values.
Sweep output is therefore byte-identical no matter how many workers ran it.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple
from xml.sax.saxutils import escape

import numpy as np

from . import blas, nn
from .channel import ChannelConfig, ChannelKind
from .config import HarnessConfig, LinkBudgetSettings
from .csa import (
    SHARD_MODES,
    CsaScenario,
    RoundLog,
    eval_through_downlink,
    rounds_to_target,
    run_csa_end_to_end,
    run_fedavg_baseline,
    terminal_classifier,
)
from .dataset import ClassCatalog, Dataset, SplitDatasets, generate_synthetic
from .dtjscc import (
    SemanticFeatures,
    TrainedSystem,
    classify_over_channel,
    dequantize,
    encode,
    quantize,
    train_dtjscc,
    # Not called here; perfbench's tracer test patches the harness.transmit binding.
    transmit,  # noqa: F401
)
from .geometry import LinkBudget, LinkReport, OrbitGeometry, isl_link_report, link_budget_report
from .modem import Constellation, build_constellation
from .seeding import derive_seed, spawn_rng

SWEEP_CSV_HEADER = "channel,modulation,K,psnr_db,seed,top1"
CONFUSION_CSV_HEADER = "true_class,pred_class,count,row_pct"


class SweepRow(NamedTuple):
    channel: str
    modulation: str
    k: int
    psnr_db: float
    seed: int
    top1: float

    def csv_row(self) -> str:
        return ",".join(
            (
                self.channel,
                self.modulation,
                str(self.k),
                repr(float(self.psnr_db)),
                str(self.seed),
                repr(float(self.top1)),
            )
        )


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        lines.extend(row.csv_row() for row in self.rows)
        return "\n".join(lines) + "\n"

    def series(self) -> dict[tuple[str, int], list[tuple[float, float]]]:
        """Mean Top-1 over seeds, grouped by (channel, K), sorted by PSNR."""
        acc: dict[tuple[str, int, float], list[float]] = {}
        for row in self.rows:
            acc.setdefault((row.channel, row.k, row.psnr_db), []).append(row.top1)
        out: dict[tuple[str, int], list[tuple[float, float]]] = {}
        for (channel, k, psnr), vals in sorted(acc.items()):
            out.setdefault((channel, k), []).append((psnr, float(np.mean(vals))))
        return out


def parse_sweep_csv(text: str) -> SweepResult:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError("not a sweep CSV")
    rows = []
    for ln in lines[1:]:
        channel, modulation, k, psnr, seed, top1 = ln.split(",")
        rows.append(
            SweepRow(channel, modulation, int(k), float(psnr), int(seed), float(top1))
        )
    return SweepResult(rows)


@dataclass
class EvalResult:
    top1: float
    predictions: np.ndarray  # (reps * N,) int64
    labels: np.ndarray  # (reps * N,) int64


def evaluate_through_channel(
    system: TrainedSystem,
    dataset: Dataset,
    constellation: Constellation,
    channel_cfg: ChannelConfig,
    psnr_db: float,
    seed: int,
    repetitions: int = 1,
    frame: int = 32,
) -> EvalResult:
    """Send the whole dataset through the channel and score Top-1.

    Images go out in frames of ``frame``; each (repetition, frame) pair draws
    its own channel state from a seed derived from ``seed``, so the result is
    a function of the arguments alone.
    """
    feats = encode(dataset, system.encoder)
    n = len(dataset)
    frame = max(1, frame)
    preds_all = []
    correct = 0
    for rep in range(repetitions):
        probs, _ = classify_over_channel(
            feats.vectors,
            system.codebook,
            system.classifier,
            system.blocks,
            constellation,
            channel_cfg,
            psnr_db,
            frame,
            seed,
            "rep",
            rep,
        )
        preds = np.argmax(probs, axis=1)
        correct += int(np.sum(preds == dataset.labels))
        preds_all.append(preds)
    predictions = np.concatenate(preds_all)
    labels = np.tile(dataset.labels, repetitions)
    return EvalResult(correct / (n * repetitions), predictions, labels)


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
    constellation = build_constellation(ex.modulation, ex.apsk_ring_ratio)
    rows = []
    for channel in ex.channels:
        channel_cfg = ex.channel_config(channel)
        for psnr in ex.psnr_grid_db:
            cell_seed = derive_seed(ex.master_seed, "sweep_cell", channel, k, psnr, trial)
            result = evaluate_through_channel(
                system,
                splits.test,
                constellation,
                channel_cfg,
                psnr,
                cell_seed,
                ex.eval_repetitions,
                ex.eval_frame,
            )
            rows.append(SweepRow(channel, ex.modulation, k, psnr, trial, result.top1))
    return rows


@blas.single_thread()
def run_sweep(cfg: HarnessConfig) -> SweepResult:
    """Run the full grid. Worker count changes wall time, never the bytes.

    The dataset is generated once and shared by every (K, trial) job.
    """
    ex = cfg.experiment
    splits, _ = generate_synthetic(cfg.dataset)
    jobs = [(cfg, splits, k, trial) for k in ex.k_presets for trial in range(ex.trials)]
    if ex.workers <= 1:
        chunks = [_sweep_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=ex.workers) as pool:
            chunks = list(pool.map(_sweep_job, jobs))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.channel, r.modulation, r.k, r.psnr_db, r.seed))
    return SweepResult(rows)


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, rows true / cols predicted
    catalog: ClassCatalog

    @classmethod
    def from_predictions(
        cls, labels: np.ndarray, predictions: np.ndarray, catalog: ClassCatalog
    ) -> "ConfusionMatrix":
        c = len(catalog.names)
        counts = np.zeros((c, c), dtype=np.int64)
        np.add.at(counts, (labels, predictions), 1)
        return cls(counts, catalog)

    def top1(self) -> float:
        total = int(self.counts.sum())
        return float(np.trace(self.counts)) / total if total else 0.0

    def csv(self) -> str:
        lines = [CONFUSION_CSV_HEADER]
        row_totals = self.counts.sum(axis=1)
        for i, true_name in enumerate(self.catalog.names):
            for j, pred_name in enumerate(self.catalog.names):
                count = int(self.counts[i, j])
                pct = 100.0 * count / row_totals[i] if row_totals[i] else 0.0
                lines.append(f"{true_name},{pred_name},{count},{repr(float(pct))}")
        return "\n".join(lines) + "\n"


@blas.single_thread()
def run_confusion(cfg: HarnessConfig) -> ConfusionMatrix:
    """Train once and tabulate test-set decisions at the evaluation PSNR."""
    ex = cfg.experiment
    splits, _ = generate_synthetic(cfg.dataset)
    system = train_dtjscc(splits, ex.train_psnr_db, cfg.dtjscc)
    constellation = build_constellation(ex.modulation, ex.apsk_ring_ratio)
    channel_cfg = ex.channel_config(ex.channels[0])
    result = evaluate_through_channel(
        system,
        splits.test,
        constellation,
        channel_cfg,
        ex.eval_psnr_db,
        derive_seed(ex.master_seed, "confusion"),
        ex.eval_repetitions,
        ex.eval_frame,
    )
    return ConfusionMatrix.from_predictions(
        result.labels, result.predictions, splits.test.catalog
    )


def linkbudget_reports(lb: LinkBudgetSettings) -> tuple[LinkReport, LinkReport]:
    """Ground link report and inter-satellite report from one settings block."""
    geom = OrbitGeometry(lb.altitude_km, math.radians(lb.elevation_deg))
    budget = LinkBudget(
        carrier_ghz=lb.carrier_ghz,
        sat_antenna_gain_db=lb.sat_antenna_gain_db,
        atmospheric_loss_db=lb.atmospheric_loss_db,
        scintillation_loss_db=lb.scintillation_loss_db,
    )
    ground = link_budget_report(geom, budget, shadow_db=lb.shadow_db, mode=lb.slant_mode)
    isl = isl_link_report(lb.isl_distance_km, budget)
    return ground, isl


def build_csa_scenario(cfg: HarnessConfig, meta_enabled: bool = True) -> CsaScenario:
    """Generate data, pretrain the pipeline, and wire the round-loop inputs."""
    ex = cfg.experiment
    splits_t0, splits_t1 = generate_synthetic(cfg.dataset)
    system = train_dtjscc(splits_t0, ex.train_psnr_db, cfg.dtjscc)
    constellation = build_constellation(ex.modulation, ex.apsk_ring_ratio)
    isl_channel = ChannelConfig(kind=ChannelKind.ISL, rician_factor=ex.rician_factor)
    downlink = ex.channel_config(cfg.csa.downlink_kind)
    return CsaScenario(
        splits_t0=splits_t0,
        splits_t1=splits_t1,
        system=system,
        constellation=constellation,
        isl_channel=isl_channel,
        downlink_channel=downlink,
        sa=cfg.csa,
        eval_frame=ex.eval_frame,
        meta_enabled=meta_enabled,
        seed=ex.master_seed,
    )


@blas.single_thread()
def run_csa_experiment(
    cfg: HarnessConfig, meta_enabled: bool = True
) -> tuple[list[RoundLog], CsaScenario]:
    scenario = build_csa_scenario(cfg, meta_enabled=meta_enabled)
    logs = run_csa_end_to_end(scenario, cfg.csa.rounds)
    return logs, scenario


def fedavg_client_shards(
    system: TrainedSystem, dataset: Dataset, n_clients: int, mode: str = "disjoint"
) -> list[SemanticFeatures]:
    """Split codeword-domain features into labelled client shards.

    ``disjoint`` gives each client a contiguous block of classes (the non-iid
    regime parameter averaging struggles with); ``iid`` deals samples round
    robin.
    """
    if mode not in SHARD_MODES:
        raise ValueError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
    feats = encode(dataset, system.encoder)
    message = quantize(feats, system.codebook, system.blocks)
    clean = dequantize(message, system.codebook, system.blocks)
    labels = dataset.labels
    if mode == "disjoint":
        n_classes = len(dataset.catalog.names)
        assign = labels * n_clients // n_classes
        assign = np.minimum(assign, n_clients - 1)
    else:
        assign = np.arange(len(labels)) % n_clients
    shards = []
    for j in range(n_clients):
        mask = assign == j
        if not mask.any():
            raise ValueError(f"client {j} received no samples")
        shards.append(SemanticFeatures(clean[mask], labels[mask]))
    return shards


@blas.single_thread()
def run_fedavg_experiment(
    cfg: HarnessConfig,
    scenario: CsaScenario | None = None,
    classifier: nn.Network | None = None,
) -> list[RoundLog]:
    """Parameter-averaging counterpart evaluated over the same downlink.

    Reuses (or builds) the scenario so dataset, pretrained pipeline, and the
    per-round evaluation noise match the adaptation loop draw for draw; only
    the coordination protocol differs.
    """
    if scenario is None:
        scenario = build_csa_scenario(cfg, meta_enabled=False)
    fa = cfg.fedavg
    shards = fedavg_client_shards(
        scenario.system, scenario.splits_t1.train, fa.clients, fa.shards
    )
    rounds = itertools.count()

    def eval_fn(net: nn.Network) -> tuple[float, float]:
        system = scenario.system
        top1, ce, _ = eval_through_downlink(system.encoder, net, system, scenario, next(rounds))
        return top1, ce

    return run_fedavg_baseline(shards, fa.rounds, fa, classifier, eval_fn)


def restrict_t1_train(scenario: CsaScenario, per_class: int, seed: int) -> CsaScenario:
    """Cap the labelled current-epoch pool at ``per_class`` samples per class.

    Models the scarce-label regime after an environment change: the archive
    reference stream stays plentiful while fresh labels are rare. Returns a
    new scenario and leaves the argument as it was; a value of zero returns
    the argument itself.
    """
    if per_class <= 0:
        return scenario
    t1 = scenario.splits_t1.train
    rng = spawn_rng(seed, "scarce")
    keep: list[np.ndarray] = []
    for c in range(len(t1.catalog.names)):
        idx = np.flatnonzero(t1.labels == c)
        take = min(per_class, len(idx))
        if take:
            keep.extend(rng.choice(idx, size=take, replace=False))
    small = t1.subset(np.sort(np.asarray(keep, dtype=np.int64)))
    return replace(
        scenario, splits_t1=SplitDatasets(small, scenario.splits_t1.val, scenario.splits_t1.test)
    )


@dataclass
class RaceResult:
    """Rounds-to-target comparison between the two coordination protocols."""

    csa_logs: list[RoundLog]
    fedavg_logs: list[RoundLog]
    target: float
    csa_rounds: int | None
    fedavg_rounds: int | None

    def csa_wins(self) -> bool:
        if self.csa_rounds is None:
            return False
        return self.fedavg_rounds is None or self.csa_rounds < self.fedavg_rounds


@blas.single_thread()
def run_round_race(cfg: HarnessConfig) -> RaceResult:
    """Race the adaptation loop against parameter averaging to a target Top-1.

    Both protocols get the same pretrained pipeline, the same (optionally
    scarce) labelled current-epoch pool, the same starting classifier, and
    the same per-round downlink evaluation draws. The adaptation loop
    additionally receives the reference stream over the inter-satellite
    link; the averaging baseline instead exchanges classifier parameters
    between clients holding class-disjoint shards.
    """
    seed = cfg.experiment.master_seed
    per_class = cfg.fedavg.scarce_per_class
    scenario = restrict_t1_train(build_csa_scenario(cfg, meta_enabled=True), per_class, seed)
    csa_logs = run_csa_end_to_end(scenario, cfg.csa.rounds)
    # An identical second build for the averaging side; perfbench's traced adapt run counts two.
    eval_scenario = restrict_t1_train(build_csa_scenario(cfg, meta_enabled=False), per_class, seed)
    classifier = terminal_classifier(scenario.system, cfg.csa, seed)
    fedavg_logs = run_fedavg_experiment(cfg, eval_scenario, classifier)
    target = cfg.csa.target_accuracy
    return RaceResult(
        csa_logs,
        fedavg_logs,
        target,
        rounds_to_target(csa_logs, target, "ut"),
        rounds_to_target(fedavg_logs, target, "server"),
    )


def roundlog_csv(logs: list[RoundLog]) -> str:
    from .csa import ROUNDLOG_CSV_HEADER

    lines = [ROUNDLOG_CSV_HEADER]
    lines.extend(entry.csv_row() for entry in logs)
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_DASHES = ("", "6,3", "2,2", "8,2,2,2")


def emit_svg_plot(result: SweepResult, path: str, title: str = "Top-1 vs PSNR") -> None:
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
        f'font-size="14">{escape(title)}</text>',
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
            f"{escape(channel)} K={k}</text>"
        )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
