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

from .channel import ChannelConfig, ChannelKind, check_psnr
from .csa import FedAvgConfig, SAConfig
from .dataset import EUROSAT_CLASS_NAMES, SPLIT_RATIOS, DatasetSpec, split_counts
from .dtjscc import DtjsccConfig
from .geometry import LinkBudget
from .modem import TABLE_BITS, build_constellation
from .seeding import derive_seed


class ConfigError(ValueError):
    """A configuration value no run can use; the message names ``section.key``."""


@dataclass(frozen=True)
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
        for name in ("trials", "workers", "eval_frame", "eval_repetitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        check_psnr("psnr_grid_db", *self.psnr_grid_db)
        check_psnr("train_psnr_db", self.train_psnr_db)
        check_psnr("eval_psnr_db", self.eval_psnr_db)
        for k in self.k_presets:
            if k < 2 or k & (k - 1) or k > 1 << TABLE_BITS:
                raise ValueError(f"k_presets must each be a power of two in [2, {1 << TABLE_BITS}], got {k}")
        if not self.rician_factor >= 0:  # also false for NaN
            raise ValueError(f"rician_factor must be >= 0, got {self.rician_factor}")
        kinds = [kind.value for kind in ChannelKind]
        for kind in self.channels:
            if kind not in kinds:
                raise ValueError(f"channels must each be one of {kinds}, got {kind!r}")
        if not 0.0 < self.apsk_ring_ratio < math.inf:  # also false for NaN
            raise ValueError(f"apsk_ring_ratio must be positive and finite, got {self.apsk_ring_ratio}")
        for name in ("channels", "k_presets", "psnr_grid_db"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} must not repeat a value, got {repeated[0]!r} twice")
        try:
            build_constellation(self.modulation, self.apsk_ring_ratio)
        except ValueError as exc:
            raise ValueError(f"modulation is not usable ({exc}), got {self.modulation!r}") from None

    def channel_config(self, kind: str) -> ChannelConfig:
        """The ``[channel]`` settings applied to a channel of ``kind``."""
        return ChannelConfig(
            ChannelKind(kind), rician_factor=self.rician_factor, per_symbol_fading=self.per_symbol_fading
        )


@dataclass(frozen=True)
class HarnessConfig:
    """One run's settings. Each section checks its own fields; this class
    checks the bounds that span sections, raising :class:`ConfigError`.

    ``dataset.per_class_count`` must give every split an image per class, and
    ``fedavg.clients`` must leave every client shard a sample; with iid shards
    the bound counts at most ``fedavg.scarce_per_class`` per class for every
    subcommand, though only ``semcom race`` caps the pool.
    """

    linkbudget: LinkBudget = field(default_factory=LinkBudget)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    dtjscc: DtjsccConfig = field(default_factory=DtjsccConfig)
    csa: SAConfig = field(default_factory=SAConfig)
    fedavg: FedAvgConfig = field(default_factory=FedAvgConfig)

    def __post_init__(self) -> None:
        per_class = self.dataset.per_class_count
        per_split = split_counts(per_class, SPLIT_RATIOS)
        if min(per_split) < 1:
            raise ConfigError(
                "dataset.per_class_count must give every train/val/test split "
                f"at least one image per class, got {per_class}"
            )
        fa, n_classes = self.fedavg, len(EUROSAT_CLASS_NAMES)
        if fa.shards == "disjoint":
            most, why = n_classes, "disjoint shards give each client at least one class"
        else:
            train = min(per_split[0], fa.scarce_per_class or per_split[0])
            most, why = n_classes * train, "iid shards give each client a labelled t_1 train image"
        if fa.clients > most:
            raise ConfigError(f"fedavg.clients must be at most {most} ({why}), got {fa.clients}")


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
_NOT_IN_FILE = {"seed", "master_seed"}
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
    return HarnessConfig(**built)
