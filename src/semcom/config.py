"""INI configuration for the experiment harness.

One file drives every subcommand. Sections: ``[linkbudget]``, ``[dataset]``,
``[channel]``, ``[dtjscc]``, ``[sweep]``, ``[csa]``, ``[fedavg]``. Every key
has a default, so an empty file is valid. Seeds are never read from the file;
the master seed comes from the command line or the ``SEMCOM_SEED``
environment variable and every component seed is derived from it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .channel import psnr_ratio
from .dataset import SPLIT_RATIOS, DatasetSpec, split_counts
from .dtjscc import DtjsccConfig
from .seeding import derive_seed


class ConfigError(ValueError):
    """A configuration value no run can use; the message names ``section.key``."""


@dataclass
class LinkBudgetSettings:
    carrier_ghz: float = 28.0
    altitude_km: float = 600.0
    elevation_deg: float = 90.0
    sat_antenna_gain_db: float = 35.0
    user_antenna_gain_db: float = 37.0
    atmospheric_loss_db: float = 0.3
    scintillation_loss_db: float = 0.5
    shadow_sigma_db: float = 0.0
    shadow_db: float = 0.0
    isl_distance_km: float = 2000.0
    slant_mode: str = "corrected"


@dataclass
class ExperimentConfig:
    """Sweep-facing settings: grid axes plus the shared evaluation knobs."""

    name: str = "sweep"
    channels: tuple[str, ...] = ("leo_rician", "leo_rayleigh")
    modulation: str = "16apsk"
    k_presets: tuple[int, ...] = (32,)
    psnr_grid_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0)
    trials: int = 5
    train_psnr_db: float = 4.0
    eval_psnr_db: float = 12.0
    eval_repetitions: int = 3
    eval_frame: int = 32
    rician_factor: float = 2.8
    apsk_ring_ratio: float = 2.57
    per_symbol_fading: bool = False
    workers: int = 1
    master_seed: int = 0


@dataclass
class CsaSettings:
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


@dataclass
class FedAvgSettings:
    clients: int = 2
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.05
    rounds: int = 30
    shards: str = "disjoint"  # or "iid"
    scarce_per_class: int = 0  # >0 caps the labelled pool both protocols see


@dataclass
class HarnessConfig:
    linkbudget: LinkBudgetSettings = field(default_factory=LinkBudgetSettings)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    dtjscc: DtjsccConfig = field(default_factory=DtjsccConfig)
    csa: CsaSettings = field(default_factory=CsaSettings)
    fedavg: FedAvgSettings = field(default_factory=FedAvgSettings)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def load_config(path: str | None, master_seed: int = 0) -> HarnessConfig:
    """Parse an INI file (or defaults when ``path`` is None) and bind seeds."""
    parser = configparser.ConfigParser()
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)

    lbs = parser["linkbudget"] if parser.has_section("linkbudget") else {}
    lb = LinkBudgetSettings()
    lb = replace(
        lb,
        carrier_ghz=float(lbs.get("carrier_ghz", lb.carrier_ghz)),
        altitude_km=float(lbs.get("altitude_km", lb.altitude_km)),
        elevation_deg=float(lbs.get("elevation_deg", lb.elevation_deg)),
        sat_antenna_gain_db=float(lbs.get("sat_antenna_gain_db", lb.sat_antenna_gain_db)),
        user_antenna_gain_db=float(lbs.get("user_antenna_gain_db", lb.user_antenna_gain_db)),
        atmospheric_loss_db=float(lbs.get("atmospheric_loss_db", lb.atmospheric_loss_db)),
        scintillation_loss_db=float(lbs.get("scintillation_loss_db", lb.scintillation_loss_db)),
        shadow_sigma_db=float(lbs.get("shadow_sigma_db", lb.shadow_sigma_db)),
        shadow_db=float(lbs.get("shadow_db", lb.shadow_db)),
        isl_distance_km=float(lbs.get("isl_distance_km", lb.isl_distance_km)),
        slant_mode=str(lbs.get("slant_mode", lb.slant_mode)),
    )

    dss = parser["dataset"] if parser.has_section("dataset") else {}
    base_ds = DatasetSpec()
    ds = replace(
        base_ds,
        per_class_count=int(dss.get("per_class_count", base_ds.per_class_count)),
        height=int(dss.get("height", base_ds.height)),
        width=int(dss.get("width", base_ds.width)),
        bands=int(dss.get("bands", base_ds.bands)),
        class_separation=float(dss.get("class_separation", base_ds.class_separation)),
        temporal_drift=float(dss.get("temporal_drift", base_ds.temporal_drift)),
        noise_sigma=float(dss.get("noise_sigma", base_ds.noise_sigma)),
        texture_amplitude=float(dss.get("texture_amplitude", base_ds.texture_amplitude)),
        seed=derive_seed(master_seed, "dataset"),
    )

    chs = parser["channel"] if parser.has_section("channel") else {}
    sws = parser["sweep"] if parser.has_section("sweep") else {}
    base_ex = ExperimentConfig()
    ex = replace(
        base_ex,
        name=str(sws.get("name", base_ex.name)),
        channels=_names(chs.get("kinds", ",".join(base_ex.channels))),
        modulation=str(chs.get("modulation", base_ex.modulation)),
        rician_factor=float(chs.get("rician_factor", base_ex.rician_factor)),
        apsk_ring_ratio=float(chs.get("apsk_ring_ratio", base_ex.apsk_ring_ratio)),
        per_symbol_fading=str(chs.get("per_symbol", "false")).lower() in ("1", "true", "yes"),
        k_presets=_ints(sws.get("k_presets", ",".join(str(k) for k in base_ex.k_presets))),
        psnr_grid_db=_floats(sws.get("psnr_grid", ",".join(str(p) for p in base_ex.psnr_grid_db))),
        trials=int(sws.get("trials", base_ex.trials)),
        train_psnr_db=float(sws.get("train_psnr_db", base_ex.train_psnr_db)),
        eval_psnr_db=float(sws.get("eval_psnr_db", base_ex.eval_psnr_db)),
        eval_repetitions=int(sws.get("eval_repetitions", base_ex.eval_repetitions)),
        eval_frame=int(sws.get("eval_frame", base_ex.eval_frame)),
        workers=int(sws.get("workers", base_ex.workers)),
        master_seed=master_seed,
    )

    dts = parser["dtjscc"] if parser.has_section("dtjscc") else {}
    base_dt = DtjsccConfig()
    dt = replace(
        base_dt,
        k=int(dts.get("k", base_dt.k)),
        feature_dim=int(dts.get("feature_dim", base_dt.feature_dim)),
        encoder_hidden=int(dts.get("encoder_hidden", base_dt.encoder_hidden)),
        blocks=int(dts.get("blocks", base_dt.blocks)),
        epochs=int(dts.get("epochs", base_dt.epochs)),
        batch_size=int(dts.get("batch_size", base_dt.batch_size)),
        learning_rate=float(dts.get("learning_rate", base_dt.learning_rate)),
        codebook_weight=float(dts.get("codebook_weight", base_dt.codebook_weight)),
        commitment_weight=float(dts.get("commitment_weight", base_dt.commitment_weight)),
        patience=int(dts.get("patience", base_dt.patience)),
        seed=derive_seed(master_seed, "dtjscc"),
    )

    css = parser["csa"] if parser.has_section("csa") else {}
    base_cs = CsaSettings()
    cs = replace(
        base_cs,
        sa_lambda=float(css.get("lambda", base_cs.sa_lambda)),
        inner_steps=int(css.get("inner_steps", base_cs.inner_steps)),
        meta_learning_rate=float(css.get("meta_lr", base_cs.meta_learning_rate)),
        inner_learning_rate=float(css.get("inner_lr", base_cs.inner_learning_rate)),
        warmup_fraction=float(css.get("warmup_fraction", base_cs.warmup_fraction)),
        rounds=int(css.get("rounds", base_cs.rounds)),
        reference_batch=int(css.get("reference_batch", base_cs.reference_batch)),
        downlink_kind=str(css.get("downlink_kind", base_cs.downlink_kind)),
        isl_psnr_db=float(css.get("isl_psnr_db", base_cs.isl_psnr_db)),
        eval_psnr_db=float(css.get("eval_psnr_db", base_cs.eval_psnr_db)),
        fresh_ut_classifier=str(css.get("fresh_ut_classifier", "false")).lower()
        in ("1", "true", "yes"),
        target_accuracy=float(css.get("target_accuracy", base_cs.target_accuracy)),
    )

    fas = parser["fedavg"] if parser.has_section("fedavg") else {}
    base_fa = FedAvgSettings()
    fa = replace(
        base_fa,
        clients=int(fas.get("clients", base_fa.clients)),
        local_epochs=int(fas.get("local_epochs", base_fa.local_epochs)),
        batch_size=int(fas.get("batch_size", base_fa.batch_size)),
        learning_rate=float(fas.get("learning_rate", base_fa.learning_rate)),
        rounds=int(fas.get("rounds", base_fa.rounds)),
        shards=str(fas.get("shards", base_fa.shards)),
        scarce_per_class=int(fas.get("scarce_per_class", base_fa.scarce_per_class)),
    )

    return validate(
        HarnessConfig(linkbudget=lb, dataset=ds, experiment=ex, dtjscc=dt, csa=cs, fedavg=fa)
    )


def validate(cfg: HarnessConfig) -> HarnessConfig:
    """Return ``cfg`` unchanged, or raise :class:`ConfigError` naming the bad key.

    Counts must be at least 1, PSNR values finite with a power ratio a float
    can hold, and ``dataset.per_class_count`` large enough to give every
    split at least one image per class. Keys carry their INI names.
    """
    ex, cs = cfg.experiment, cfg.csa
    counts = {
        "sweep.trials": ex.trials,
        "sweep.workers": ex.workers,
        "sweep.eval_frame": ex.eval_frame,
        "sweep.eval_repetitions": ex.eval_repetitions,
        "csa.rounds": cs.rounds,
        "fedavg.rounds": cfg.fedavg.rounds,
    }
    for key, value in counts.items():
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    psnrs = [("sweep.psnr_grid", p) for p in ex.psnr_grid_db] + [
        ("sweep.train_psnr_db", ex.train_psnr_db),
        ("sweep.eval_psnr_db", ex.eval_psnr_db),
        ("csa.isl_psnr_db", cs.isl_psnr_db),
        ("csa.eval_psnr_db", cs.eval_psnr_db),
    ]
    for key, value in psnrs:
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite PSNR in dB, got {value}")
        try:
            psnr_ratio(value)
        except ValueError:
            raise ConfigError(
                f"{key} is too far from 0 dB for a float power ratio, got {value}"
            ) from None
    per_class = cfg.dataset.per_class_count
    if min(split_counts(per_class, SPLIT_RATIOS)) < 1:
        raise ConfigError(
            "dataset.per_class_count must give every train/val/test split "
            f"at least one image per class, got {per_class}"
        )
    return cfg
