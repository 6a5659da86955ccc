"""INI configuration for the experiment harness.

One file drives every subcommand. Sections: ``[linkbudget]``, ``[dataset]``,
``[channel]``, ``[dtjscc]``, ``[sweep]``, ``[csa]``, ``[fedavg]``. Every key
has a default, so an empty file is valid; ``configs/default.ini`` lists every
accepted key. A key binds the settings-class field of the same name (or of
its ``_ALIASES`` entry) and is parsed by that field's type. An unknown
section or key, a value that does not parse and a value the settings class
rejects each raise :class:`ConfigError`. Seeds are never read from the file;
the master seed comes from the command line or the ``SEMCOM_SEED``
environment variable and every component seed is derived from it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .channel import ChannelConfig, ChannelKind, psnr_ratio
from .csa import FedAvgConfig, SAConfig
from .dataset import SPLIT_RATIOS, DatasetSpec, split_counts
from .dtjscc import DtjsccConfig
from .geometry import SLANT_RANGE_MODES
from .modem import build_constellation
from .seeding import derive_seed


class ConfigError(ValueError):
    """A configuration value no run can use; the message names ``section.key``."""


@dataclass
class LinkBudgetSettings:
    carrier_ghz: float = 28.0
    altitude_km: float = 600.0
    elevation_deg: float = 90.0
    sat_antenna_gain_db: float = 35.0
    atmospheric_loss_db: float = 0.3
    scintillation_loss_db: float = 0.5
    shadow_db: float = 0.0
    isl_distance_km: float = 2000.0
    slant_mode: str = "corrected"

    def __post_init__(self) -> None:
        for name in ("carrier_ghz", "altitude_km", "isl_distance_km"):
            if not getattr(self, name) > 0:  # also false for NaN
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError(f"elevation_deg must lie in (0, 90], got {self.elevation_deg}")
        if self.slant_mode not in SLANT_RANGE_MODES:
            raise ValueError(f"slant_mode must be one of {SLANT_RANGE_MODES}, got {self.slant_mode!r}")


@dataclass
class ExperimentConfig:
    """Sweep-facing settings: grid axes plus the shared evaluation knobs.

    The ``[channel]`` section fills the fields named in ``_CHANNEL_KEYS``,
    ``[sweep]`` the rest.
    """

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

    def __post_init__(self) -> None:
        kinds = [kind.value for kind in ChannelKind]
        for kind in self.channels:
            if kind not in kinds:
                raise ValueError(f"channels must each be one of {kinds}, got {kind!r}")
        try:
            build_constellation(self.modulation, self.apsk_ring_ratio)
        except ValueError as exc:
            raise ValueError(f"modulation is not usable ({exc}), got {self.modulation!r}") from None

    def channel_config(self, kind: str) -> ChannelConfig:
        """The ``[channel]`` settings applied to a channel of ``kind``."""
        return ChannelConfig(
            ChannelKind(kind), rician_factor=self.rician_factor, per_symbol_fading=self.per_symbol_fading
        )


@dataclass
class HarnessConfig:
    linkbudget: LinkBudgetSettings = field(default_factory=LinkBudgetSettings)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    dtjscc: DtjsccConfig = field(default_factory=DtjsccConfig)
    csa: SAConfig = field(default_factory=SAConfig)
    fedavg: FedAvgConfig = field(default_factory=FedAvgConfig)


# INI key -> settings field, where the two names differ.
_ALIASES = {
    "lambda": "sa_lambda",
    "meta_lr": "meta_learning_rate",
    "inner_lr": "inner_learning_rate",
    "kinds": "channels",
    "per_symbol": "per_symbol_fading",
    "psnr_grid": "psnr_grid_db",
}
# Fields bound from the master seed or fixed in code, never read from the file.
_NOT_IN_FILE = {"seed", "master_seed", "catalog"}
# [channel] and [sweep] both fill ExperimentConfig; these keys are [channel]'s.
_CHANNEL_KEYS = ("kinds", "modulation", "rician_factor", "apsk_ring_ratio", "per_symbol")


# Field annotation -> parser of one raw INI value; a bad value raises
# ValueError or KeyError.
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "bool": lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
}


def _parse(annotation: str, text: str):
    """``text`` as a value of the field type ``annotation``.

    ``tuple[T, ...]`` reads a non-empty comma-separated list of ``T``.
    """
    if not annotation.startswith("tuple["):
        return _PARSERS[annotation](text)
    parse = _PARSERS[annotation.removeprefix("tuple[").removesuffix(", ...]")]
    values = tuple(parse(part.strip()) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(text)
    return values


def _section_table() -> dict:
    """INI section -> (HarnessConfig field, {INI key: settings field})."""
    key_of = {name: key for key, name in _ALIASES.items()}
    table = {}
    for part in fields(HarnessConfig):
        keys = {
            key_of.get(f.name, f.name): f
            for f in fields(part.default_factory)
            if f.name not in _NOT_IN_FILE
        }
        if part.name == "experiment":
            table["channel"] = (part.name, {k: f for k, f in keys.items() if k in _CHANNEL_KEYS})
            table["sweep"] = (part.name, {k: f for k, f in keys.items() if k not in _CHANNEL_KEYS})
        else:
            table[part.name] = (part.name, keys)
    return table


_SECTIONS = _section_table()
# (HarnessConfig field, settings field) -> "section.key", for error messages.
_WHERE = {
    (part, f.name): f"{section}.{key}"
    for section, (part, keys) in _SECTIONS.items()
    for key, f in keys.items()
}


def _suggest(name: str, valid) -> str:
    import difflib  # imported on this error path only, to keep start-up time flat

    close = difflib.get_close_matches(name, list(valid), n=1)
    return f"; did you mean {close[0]!r}?" if close else f"; valid: {', '.join(valid)}"


def load_config(path: str | None, master_seed: int = 0) -> HarnessConfig:
    """Parse an INI file (or defaults when ``path`` is None) and bind seeds."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigError(str(exc)) from None
    values: dict[str, dict] = {
        "dataset": {"seed": derive_seed(master_seed, "dataset")},
        "experiment": {"master_seed": master_seed},
        "dtjscc": {"seed": derive_seed(master_seed, "dtjscc")},
        "fedavg": {"seed": master_seed},
    }
    sections = parser.sections()
    if parser.defaults():
        sections.insert(0, parser.default_section)
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]{_suggest(section, _SECTIONS)}")
        part, keys = _SECTIONS[section]
        for key, raw in parser[section].items():
            if key not in keys:
                raise ConfigError(f"unknown key {section}.{key}{_suggest(key, keys)}")
            f = keys[key]
            try:
                values.setdefault(part, {})[f.name] = _parse(f.type, raw)
            except (ValueError, KeyError):
                raise ConfigError(f"{section}.{key} must be {f.type}, got {raw!r}") from None
    built = {}
    for part in fields(HarnessConfig):
        try:
            built[part.name] = part.default_factory(**values.get(part.name, {}))
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{_WHERE.get((part.name, name), name)} {rest}") from None
    return validate(HarnessConfig(**built))


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
        try:
            usable = math.isfinite(psnr_ratio(value))
        except ValueError:
            usable = False
        if not usable:
            raise ConfigError(f"{key} must be a finite PSNR whose power ratio fits a float, got {value}")
    per_class = cfg.dataset.per_class_count
    if min(split_counts(per_class, SPLIT_RATIOS)) < 1:
        raise ConfigError(
            "dataset.per_class_count must give every train/val/test split "
            f"at least one image per class, got {per_class}"
        )
    return cfg
