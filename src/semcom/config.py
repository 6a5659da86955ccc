"""INI configuration for the experiment harness, and every settings class.

One file drives every subcommand. Sections: ``[linkbudget]``, ``[dataset]``,
``[channel]``, ``[dtjscc]``, ``[sweep]``, ``[csa]``, ``[fedavg]``. Every key
has a default, so an empty file is valid; ``configs/default.ini`` lists every
accepted key. A key binds the settings-class field of the same name (or of
its ``_ALIASES`` entry) and is parsed by that field's type. A file that
cannot be read as UTF-8, an unknown section or key, a value that does not
parse and a value the settings class rejects each raise :class:`ConfigError`.
Each section fills the ``HarnessConfig`` field of its name, except
``[sweep]``, which fills ``experiment``. Seeds are never read from the file;
the master seed comes from the command line or the ``SEMCOM_SEED``
environment variable and every component seed is derived from it.

This module needs only the standard library (``geometry`` and ``seeding``
import no numpy either), so reading and checking settings loads no numpy:
the numeric modules import their settings from here, never the reverse.
"""

from __future__ import annotations

import configparser
import enum
import functools
import math
import sys
from dataclasses import dataclass, field, fields

from .geometry import LinkReport, doppler_shift_hz, free_space_path_loss_db, slant_range
from .seeding import derive_seed

# 16APSK outer-to-inner ring radius ratio where [channel] sets none.
DEFAULT_APSK_RING_RATIO = 2.57
# The widest bit width the modem's lookup tables cover; PSK orders and
# codebook sizes are capped at 2**TABLE_BITS so every index and label fits one table.
TABLE_BITS = 16
# The widest value of an MSIT u16 field: an image's height, width or bands, and a label.
U16_MAX = 0xFFFF
# The widest u32: MSIT's record count, an MNN1 layer size, MCB1's dim.
U32_MAX = 0xFFFFFFFF
# Client shard modes: class-disjoint blocks (the non-iid regime) or round robin.
SHARD_MODES = ("disjoint", "iid")
SPLIT_RATIOS = (0.70, 0.15, 0.15)
# The ten EuroSAT classes: label c names EUROSAT_CLASS_NAMES[c] in every dataset.
EUROSAT_CLASS_NAMES = (
    "AnnualCrop",
    "Forest",
    "HerbaceousVegetation",
    "Highway",
    "Industrial",
    "Pasture",
    "PermanentCrop",
    "Residential",
    "River",
    "SeaLake",
)


class ConfigError(ValueError):
    """A configuration value no run can use; the message names ``section.key``."""


class ChannelKind(str, enum.Enum):
    AWGN = "awgn"
    LEO_RICIAN = "leo_rician"
    LEO_RAYLEIGH = "leo_rayleigh"
    ISL = "isl"


@dataclass(frozen=True)
class ChannelConfig:
    """The ``[channel]`` settings, and one link: a modulation over a gain law.

    ``kind`` picks the gain law; code sets it for each link and the file
    never does. The modem's :attr:`constellation` is built on first use.
    """

    kind: ChannelKind = ChannelKind.AWGN
    modulation: str = "16apsk"
    rician_factor: float = 2.8
    apsk_ring_ratio: float = DEFAULT_APSK_RING_RATIO
    per_symbol_fading: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        require(self, NOT_NEGATIVE_FINITE, "rician_factor")
        require(self, POSITIVE_FINITE, "apsk_ring_ratio")
        try:
            apsk = parse_modulation(self.modulation)[0] == "apsk"
        except ValueError as exc:
            raise ValueError(f"modulation is not usable ({exc}), got {self.modulation!r}") from None
        if apsk:
            try:
                apsk16_radii(self.apsk_ring_ratio)
            except ValueError as exc:
                raise ValueError(f"apsk_ring_ratio is not usable with {self.modulation!r}: {exc}") from None

    @functools.cached_property
    def constellation(self):
        """The modem's :class:`~semcom.modem.Constellation` for ``modulation``, built once."""
        from .modem import build_constellation  # here, not at the top, so that settings load without numpy

        return build_constellation(self.modulation, self.apsk_ring_ratio)


def psnr_ratio(psnr_db: float) -> float:
    """Linear power ratio ``10^(psnr/10)`` of a PSNR in dB; +inf gives inf.

    NaN and minus infinity name no noise level, and neither does a finite
    PSNR whose ratio underflows to 0 or overflows a float, or an int past
    the largest float; all raise :class:`ValueError` naming the value.
    """
    if psnr_db == math.inf:
        return math.inf
    if psnr_db != psnr_db or psnr_db == -math.inf:  # NaN != NaN; math.isnan fails on a huge int
        raise ValueError(f"PSNR must be finite or +inf dB, got {psnr_db}")
    try:
        ratio = 10.0 ** (float(psnr_db) / 10.0)
    except OverflowError:  # the power, or float() of an int past the largest float
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"PSNR {psnr_db} dB is out of range: its power ratio does not fit a float"
        )
    return ratio


def _is_psnr(psnr_db: float) -> bool:
    """Whether ``psnr_db`` is finite with a power ratio a float holds."""
    try:
        return math.isfinite(psnr_ratio(psnr_db))
    except ValueError:
        return False


def is_table_order(n: int) -> bool:
    """Whether ``n`` is a power of two in ``[2, 2**TABLE_BITS]``: a codebook size or PSK order."""
    return 2 <= n <= 1 << TABLE_BITS and not n & (n - 1)


# Named range rules, each a (test, words) pair for :func:`require`. Every test
# is written as the in-range comparison, so NaN fails it, and "finite" means at
# most the largest float, so an int too large to convert fails it too.
_KINDS = [kind.value for kind in ChannelKind]
AT_LEAST_1 = (lambda n: n >= 1, "must be at least 1")
NOT_NEGATIVE = (lambda n: n >= 0, "must be >= 0")
POSITIVE = (lambda x: x > 0, "must be positive")
POSITIVE_FINITE = (lambda x: 0.0 < x <= sys.float_info.max, "must be positive and finite")
NOT_NEGATIVE_FINITE = (lambda x: 0.0 <= x <= sys.float_info.max, "must be >= 0 and finite")
TABLE_ORDER = (is_table_order, f"must be a power of two in [2, {1 << TABLE_BITS}]")
PSNR = (_is_psnr, "must be a finite PSNR whose power ratio fits a float")
CHANNEL_KIND = (lambda kind: kind in _KINDS, f"must be one of {_KINDS}")
SHARD_MODE = (lambda mode: mode in SHARD_MODES, f"must be one of {SHARD_MODES}")


def require(settings, rule: tuple, *names: str) -> None:
    """Raise ``ValueError("<name> <words>, got <value!r>")`` at the first of
    ``names`` whose value fails ``rule``'s test; a tuple field names its first
    failing item. :func:`load_config` reads ``<name>`` as the key at fault.
    """
    test, words = rule
    for name in names:
        value = getattr(settings, name)
        for item in value if isinstance(value, tuple) else (value,):
            if not test(item):
                raise ValueError(f"{name} {words}, got {item!r}")


def parse_modulation(name: str) -> tuple[str, int]:
    """``("apsk", 16)`` for '16apsk', ``("psk", M)`` for '<M>psk', in any case.

    Any other name, and an M that is not a power of two in
    ``[2, 2**TABLE_BITS]``, raises :class:`ValueError`.
    """
    name = name.lower()
    if name == "16apsk":
        return "apsk", 16
    if name.endswith("psk") and name[:-3].isdigit():
        order = int(name[:-3])
        if not is_table_order(order):
            raise ValueError(f"order {TABLE_ORDER[1]}, got {order}")
        return "psk", order
    raise ValueError(f"unknown constellation {name!r}")


def apsk16_radii(ring_ratio: float) -> tuple[float, float]:
    """Inner and outer ring radius of unit-mean-energy 4+12 APSK, outer = ring_ratio * inner.

    Where ``3 * ring_ratio**2`` overflows a float, from about 7.7e153 on, no
    ring pair has unit energy, and that raises :class:`ValueError`.
    """
    try:
        r1 = 2.0 / math.sqrt(1.0 + 3.0 * ring_ratio**2)
    except OverflowError:  # ring_ratio**2 itself overflows
        r1 = 0.0
    if not r1:
        raise ValueError(f"ring ratio must keep 3 * ratio**2 finite, got {ring_ratio}")
    return r1, ring_ratio * r1


def split_counts(n: int) -> list[int]:
    """Train, val and test records when ``n`` records are split in :data:`SPLIT_RATIOS`.

    Largest-remainder rounding: each part gets within one record of its
    exact share, and the counts sum to ``n``.
    """
    raw = [r * n for r in SPLIT_RATIOS]
    counts = [math.floor(r) for r in raw]
    remainders = [r - c for r, c in zip(raw, counts)]
    for _ in range(n - sum(counts)):
        j = remainders.index(max(remainders))
        counts[j] += 1
        remainders[j] = -1.0
    return counts


@dataclass(frozen=True)
class LinkBudget:
    """The ``[linkbudget]`` settings: one ground link and one inter-satellite link."""

    carrier_ghz: float = 28.0
    altitude_km: float = 600.0
    elevation_deg: float = 90.0
    sat_antenna_gain_db: float = 35.0
    atmospheric_loss_db: float = 0.3
    scintillation_loss_db: float = 0.5
    shadow_db: float = 0.0
    isl_distance_km: float = 2000.0

    def __post_init__(self) -> None:
        require(self, POSITIVE, "carrier_ghz", "altitude_km", "isl_distance_km")
        require(self, (lambda x: 0.0 < x <= 90.0, "must lie in (0, 90]"), "elevation_deg")
        # A subnormal angle underflows to zero radians.
        require(self, (lambda x: math.radians(x) > 0, "must be positive in radians too"), "elevation_deg")
        db_fields = [f.name for f in fields(self) if f.name.endswith("_db")]
        require(self, (lambda x: abs(x) <= sys.float_info.max, "must be finite"), *db_fields)
        try:
            fits = all(math.isfinite(x) for report in self.reports() for x in (*report, report.zeta_linear))
        except (OverflowError, ValueError):  # 10^(-zeta/10) past the largest float, or a zero slant range
            fits = False
        if not fits:
            # Blame the key whose dB term of zeta is largest in magnitude; a
            # distance counts in metres, as in the FSPL, and an int one stays exact.
            terms = {
                "carrier_ghz": 20.0 * math.log10(self.carrier_ghz),
                "altitude_km": 20.0 * math.log10(self.altitude_km * 1000),
                "isl_distance_km": 20.0 * math.log10(self.isl_distance_km * 1000),
                "shadow_db": self.shadow_db,
                "atmospheric_loss_db": self.atmospheric_loss_db,
                "scintillation_loss_db": self.scintillation_loss_db,
                "sat_antenna_gain_db": -self.sat_antenna_gain_db,
            }
            key = max(terms, key=lambda name: abs(terms[name]))
            raise ValueError(
                f"{key} must leave every link-budget figure finite, the large-scale gain "
                f"10^(-zeta/10) included, got {getattr(self, key)}"
            )

    def reports(self) -> tuple[LinkReport, LinkReport]:
        """Ground link report and inter-satellite report.

        Ground: FSPL at the slant range plus shadowing, gas and scintillation,
        with the Doppler shift. Inter-satellite: FSPL only, no shadowing,
        atmosphere or Doppler.
        """
        elevation_rad = math.radians(self.elevation_deg)
        doppler_hz = doppler_shift_hz(self.altitude_km, elevation_rad, self.carrier_ghz)
        losses_db = (self.shadow_db, self.atmospheric_loss_db, self.scintillation_loss_db)
        ground = self._report(slant_range(self.altitude_km, elevation_rad), doppler_hz, losses_db)
        return ground, self._report(self.isl_distance_km, 0.0)

    def _report(
        self, distance_km: float, doppler_hz: float, losses_db: tuple[float, float, float] = (0.0, 0.0, 0.0)
    ) -> LinkReport:
        """FSPL at ``distance_km`` plus ``losses_db`` (shadowing, gas, scintillation), every figure a float."""
        fspl_db = free_space_path_loss_db(distance_km, self.carrier_ghz)
        shadow_db, atmospheric_db, scintillation_db = map(float, losses_db)
        total_db = fspl_db + shadow_db + atmospheric_db + scintillation_db
        losses = (fspl_db, shadow_db, atmospheric_db, scintillation_db, total_db)
        return LinkReport(float(distance_km), *losses, total_db - self.sat_antenna_gain_db, float(doppler_hz))


# Largest [dataset] scale. Pixels then stay below 2e30, inside float32: a normal draw is under
# 14 sigma, and _class_signatures scales unit draws by under 1e9 * class_separation.
DATASET_SCALE_MAX = 1e20


@dataclass(frozen=True)
class DatasetSpec:
    """Generation knobs for one synthetic scenario."""

    per_class_count: int = 100
    height: int = 8
    width: int = 8
    bands: int = 4
    class_separation: float = 3.0
    temporal_drift: float = 0.0
    noise_sigma: float = 1.0
    texture_amplitude: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        top = DATASET_SCALE_MAX
        require(self, POSITIVE, "per_class_count", "height", "width", "bands")
        require(self, (lambda n: n <= U16_MAX, f"must be at most {U16_MAX}"), "height", "width", "bands")
        require(self, (lambda n: n <= sys.float_info.max, "must not exceed the largest float"), "per_class_count")
        records, inputs = U32_MAX // len(EUROSAT_CLASS_NAMES), U32_MAX // (self.height * self.width)
        require(self, (lambda n: n <= records, f"must be at most {records} (u32 records)"), "per_class_count")
        require(self, (lambda n: n <= inputs, f"must be at most {inputs} (u32 height * width * bands)"), "bands")
        require(self, (lambda x: 0.0 < x <= top, f"must lie in (0, {top}]"), "class_separation")
        require(self, (lambda x: 0.0 <= x <= top, f"must lie in [0, {top}]"), "temporal_drift", "noise_sigma")
        require(self, (lambda x: abs(x) <= top, f"must lie in [-{top}, {top}]"), "texture_amplitude")


@dataclass(frozen=True)
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
        require(self, TABLE_ORDER, "k")
        require(self, AT_LEAST_1, "feature_dim", "encoder_hidden", "epochs", "batch_size", "patience")
        require(self, (lambda n: n <= U32_MAX, f"must be at most {U32_MAX}"), "feature_dim", "encoder_hidden")
        require(self, POSITIVE_FINITE, "learning_rate")
        require(self, NOT_NEGATIVE_FINITE, "codebook_weight", "commitment_weight")
        dim = self.feature_dim
        require(self, (lambda b: b >= 1 and dim % b == 0, f"must divide feature_dim {dim}"), "blocks")


@dataclass(frozen=True)
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
        require(self, NOT_NEGATIVE_FINITE, "sa_lambda")
        require(self, NOT_NEGATIVE, "inner_steps")
        require(self, AT_LEAST_1, "rounds", "reference_batch")
        require(self, PSNR, "isl_psnr_db", "eval_psnr_db")
        require(self, (lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]"), "warmup_fraction")
        require(self, (lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"), "target_accuracy")
        require(self, NOT_NEGATIVE_FINITE, "meta_learning_rate")
        require(self, POSITIVE_FINITE, "inner_learning_rate")
        require(self, CHANNEL_KIND, "downlink_kind")


@dataclass(frozen=True)
class FedAvgConfig:
    """Parameter-averaging baseline: clients, local SGD and the labelled pool.

    ``scarce_per_class`` above zero caps the labelled t_1 pool that every round
    loop starts from, and ``HarnessConfig``'s iid client bound counts that cap.
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
        require(self, NOT_NEGATIVE, "scarce_per_class")
        require(self, SHARD_MODE, "shards")
        require(self, AT_LEAST_1, "clients", "rounds", "batch_size", "local_epochs")
        require(self, POSITIVE_FINITE, "learning_rate")


@dataclass(frozen=True)
class ExperimentConfig:
    """The ``[sweep]`` settings: grid axes plus the shared evaluation knobs."""

    channels: tuple[str, ...] = ("leo_rician", "leo_rayleigh")
    k_presets: tuple[int, ...] = (32,)
    psnr_grid_db: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0, 16.0)
    trials: int = 5
    train_psnr_db: float = 4.0
    eval_psnr_db: float = 12.0
    eval_repetitions: int = 3
    eval_frame: int = 32
    workers: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        require(self, AT_LEAST_1, "trials", "workers", "eval_frame", "eval_repetitions")
        require(self, PSNR, "psnr_grid_db", "train_psnr_db", "eval_psnr_db")
        require(self, TABLE_ORDER, "k_presets")
        require(self, CHANNEL_KIND, "channels")
        for name in ("channels", "k_presets", "psnr_grid_db"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} must not repeat a value, got {repeated[0]!r} twice")


@dataclass(frozen=True)
class HarnessConfig:
    """One run's settings. Each section checks its own fields; this class
    checks the bounds that span sections, raising :class:`ConfigError`.

    ``dataset.per_class_count`` must give every split an image per class, and
    ``fedavg.clients`` must leave every client shard a sample; with iid shards
    the bound counts at most ``fedavg.scarce_per_class`` per class, the cap
    every round loop puts on the pool. ``channel.rician_factor`` must be
    positive, since the inter-satellite link's gain is its line of sight alone.
    """

    linkbudget: LinkBudget = field(default_factory=LinkBudget)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    dtjscc: DtjsccConfig = field(default_factory=DtjsccConfig)
    csa: SAConfig = field(default_factory=SAConfig)
    fedavg: FedAvgConfig = field(default_factory=FedAvgConfig)

    def __post_init__(self) -> None:
        per_class = self.dataset.per_class_count
        per_split = split_counts(per_class)
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
        if not self.channel.rician_factor:
            raise ConfigError(
                "channel.rician_factor must be positive: at 0 the inter-satellite link has no line of "
                "sight and erases every frame; leo_rayleigh is the channel without a line of sight, "
                f"got {self.channel.rician_factor}"
            )


# INI key -> settings field, where the two names differ.
_ALIASES = {
    "lambda": "sa_lambda",
    "meta_lr": "meta_learning_rate",
    "inner_lr": "inner_learning_rate",
    "kinds": "channels",
    "per_symbol": "per_symbol_fading",
    "psnr_grid": "psnr_grid_db",
}
# Fields bound from the master seed or set in code, never read from the file.
_NOT_IN_FILE = {"seed", "master_seed", "kind"}


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
    return {
        "sweep" if part.name == "experiment" else part.name: (
            part.name,
            {key_of.get(f.name, f.name): f for f in fields(part.default_factory) if f.name not in _NOT_IN_FILE},
        )
        for part in fields(HarnessConfig)
    }


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
    """Parse a UTF-8 INI file (or defaults when ``path`` is None) and bind seeds.

    A file that cannot be opened or decoded raises :class:`ConfigError` naming it.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 ({exc})"
            raise ConfigError(f"cannot read config file {path!r}: {reason}") from None
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
