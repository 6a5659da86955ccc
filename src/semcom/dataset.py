"""Synthetic multispectral scenes and their binary container format.

Each class c gets a band-space signature mu_c; a pixel is the signature plus
a smooth per-image texture and i.i.d. Gaussian noise. The t_1 variant shifts
every class signature by a drift vector of configurable magnitude applied to
the same pixel realizations, modelling a later capture of the same scenes.
Pixels are quantized to f32 resolution at generation time so file round trips
are exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .seeding import spawn_rng

MAGIC = b"MSIT"
FORMAT_VERSION = 1
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF

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


class TensorFileError(Exception):
    """Base class for container format failures."""


class BadMagicError(TensorFileError):
    pass


class TruncatedFileError(TensorFileError):
    pass


class DimensionOverflowError(TensorFileError):
    pass


@dataclass(frozen=True)
class ClassCatalog:
    names: tuple[str, ...] = EUROSAT_CLASS_NAMES

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")
        if not self.names:
            raise ValueError("catalog must not be empty")

    def __len__(self) -> int:
        return len(self.names)


@dataclass
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
    catalog: ClassCatalog = field(default_factory=ClassCatalog)

    def __post_init__(self) -> None:
        for name in ("per_class_count", "height", "width", "bands", "class_separation"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.temporal_drift < 0:
            raise ValueError(f"temporal_drift must be >= 0, got {self.temporal_drift}")


@dataclass
class Dataset:
    """Columnar batch of images sharing one catalog."""

    pixels: np.ndarray  # (N, H, W, D) float64
    labels: np.ndarray  # (N,) int64
    timestamps: np.ndarray  # (N,) int64
    catalog: ClassCatalog = field(default_factory=ClassCatalog)

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.pixels.ndim != 4:
            raise ValueError("pixels must be (N, H, W, bands)")
        n = self.pixels.shape[0]
        if self.labels.shape != (n,) or self.timestamps.shape != (n,):
            raise ValueError("labels/timestamps must align with pixels")
        if n and (self.labels.min() < 0 or self.labels.max() >= len(self.catalog)):
            raise ValueError("labels out of catalog range")

    def __len__(self) -> int:
        return int(self.pixels.shape[0])

    def flattened(self) -> np.ndarray:
        """(N, H*W*bands) view for dense encoders."""
        return self.pixels.reshape(len(self), -1)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.pixels[indices],
            self.labels[indices],
            self.timestamps[indices],
            self.catalog,
        )


@dataclass
class SplitDatasets:
    train: Dataset
    val: Dataset
    test: Dataset


def _class_signatures(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Signatures with pairwise distance >= class_separation, by rescaling."""
    c = len(spec.catalog)
    while True:
        sig = rng.normal(0.0, 1.0, size=(c, spec.bands))
        diff = sig[:, None, :] - sig[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dmin = dist[~np.eye(c, dtype=bool)].min() if c > 1 else np.inf
        if dmin > 1e-9:
            break
    if c == 1:
        return sig
    return sig * (spec.class_separation / dmin)


def _texture(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Smooth per-image plane-wave pattern, shared across bands."""
    u = rng.uniform(0.5, 2.0)
    v = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    ii = np.arange(spec.height)[:, None] / spec.height
    jj = np.arange(spec.width)[None, :] / spec.width
    return spec.texture_amplitude * np.cos(2.0 * np.pi * (u * ii + v * jj) + phase)


SPLIT_RATIOS = (0.70, 0.15, 0.15)


def generate_synthetic(
    spec: DatasetSpec, ratios: tuple[float, float, float] = SPLIT_RATIOS
) -> tuple[SplitDatasets, SplitDatasets]:
    """Generate the t_0 scenario and its drifted t_1 twin, both split.

    Returns (splits at t_0, splits at t_1). The t_1 pixels are the t_0 pixels
    with each class signature shifted by ``temporal_drift`` along a fixed
    random unit direction; drift 0 makes the twins identical.
    """
    rng = spawn_rng(spec.seed, "dataset", "images")
    signatures = _class_signatures(spec, spawn_rng(spec.seed, "dataset", "signatures"))
    c = len(spec.catalog)
    n = c * spec.per_class_count
    pixels = np.empty((n, spec.height, spec.width, spec.bands))
    labels = np.repeat(np.arange(c), spec.per_class_count)
    for i in range(n):
        tex = _texture(spec, rng)
        noise = rng.normal(0.0, spec.noise_sigma, size=pixels.shape[1:])
        pixels[i] = signatures[labels[i]][None, None, :] + tex[:, :, None] + noise
    pixels = pixels.astype(np.float32).astype(np.float64)

    drift_rng = spawn_rng(spec.seed, "dataset", "drift")
    directions = drift_rng.normal(size=(c, spec.bands))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    shift = (spec.temporal_drift * directions[labels]).astype(np.float32)
    pixels_t1 = pixels + shift[:, None, None, :].astype(np.float64)
    pixels_t1 = pixels_t1.astype(np.float32).astype(np.float64)

    ds_t0 = Dataset(pixels, labels, np.zeros(n, dtype=np.int64), spec.catalog)
    ds_t1 = Dataset(pixels_t1, labels, np.ones(n, dtype=np.int64), spec.catalog)
    split_seed = spec.seed
    return (
        split(ds_t0, ratios, split_seed),
        split(ds_t1, ratios, split_seed),
    )


def split_counts(n: int, ratios: tuple[float, float, float]) -> list[int]:
    """Records per part when ``n`` records are split in ``ratios``.

    Largest-remainder rounding: each part gets within one record of its
    exact share, and the counts sum to ``n``.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios) or sum(ratios) <= 0:
        raise ValueError("ratios must be three non-negative numbers")
    total = float(sum(ratios))
    raw = [r / total * n for r in ratios]
    counts = [int(np.floor(r)) for r in raw]
    remainders = [r - c for r, c in zip(raw, counts)]
    for _ in range(n - sum(counts)):
        j = int(np.argmax(remainders))
        counts[j] += 1
        remainders[j] = -1.0
    return counts


def split(
    dataset: Dataset, ratios: tuple[float, float, float], seed: int
) -> SplitDatasets:
    """Stratified split; deterministic, disjoint, exhaustive.

    Within each class the three parts match the requested proportions to
    within one record (:func:`split_counts`).
    """
    rng = spawn_rng(seed, "dataset", "split")
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in range(len(dataset.catalog)):
        idx = np.flatnonzero(dataset.labels == cls)
        idx = idx[rng.permutation(idx.size)]
        counts = split_counts(idx.size, ratios)
        start = 0
        for part, count in zip(parts, counts):
            part.append(idx[start : start + count])
            start += count
    chosen = [
        np.sort(np.concatenate(p)) if p else np.empty(0, dtype=np.int64) for p in parts
    ]
    return SplitDatasets(
        train=dataset.subset(chosen[0]),
        val=dataset.subset(chosen[1]),
        test=dataset.subset(chosen[2]),
    )


def save_tensor_file(path: str, dataset: Dataset) -> None:
    """Write the MSIT container.

    Little-endian: magic "MSIT", u32 version, u32 record count, then per
    record u16 height, u16 width, u16 bands, u16 label, u32 timestamp index,
    and f32 pixels row-major.
    """
    n = len(dataset)
    h, w, d = dataset.pixels.shape[1:]
    if max(h, w, d) > _U16_MAX:
        raise DimensionOverflowError(f"dimensions ({h}, {w}, {d}) exceed u16")
    if n and int(dataset.labels.max()) > _U16_MAX:
        raise DimensionOverflowError("label exceeds u16")
    if n and int(dataset.timestamps.max()) > _U32_MAX:
        raise DimensionOverflowError("timestamp index exceeds u32")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, n))
        for i in range(n):
            fh.write(
                struct.pack(
                    "<HHHHI",
                    h,
                    w,
                    d,
                    int(dataset.labels[i]),
                    int(dataset.timestamps[i]),
                )
            )
            fh.write(dataset.pixels[i].astype("<f4").tobytes(order="C"))


def load_tensor_file(path: str, catalog: ClassCatalog | None = None) -> Dataset:
    """Read an MSIT container written by :func:`save_tensor_file`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise TruncatedFileError("truncated header")
        version, count = struct.unpack("<II", header)
        if version != FORMAT_VERSION:
            raise TensorFileError(f"unsupported version {version}")
        pixels = []
        labels = np.empty(count, dtype=np.int64)
        timestamps = np.empty(count, dtype=np.int64)
        for i in range(count):
            rec = fh.read(12)
            if len(rec) < 12:
                raise TruncatedFileError(f"truncated record header at {i}")
            h, w, d, label, ts = struct.unpack("<HHHHI", rec)
            payload = fh.read(h * w * d * 4)
            if len(payload) < h * w * d * 4:
                raise TruncatedFileError(f"truncated pixel payload at {i}")
            pixels.append(
                np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w, d)
            )
            labels[i] = label
            timestamps[i] = ts
    if count == 0:
        raise TensorFileError("container holds no records")
    stack = np.stack(pixels)
    if catalog is None:
        n_classes = int(labels.max()) + 1
        if n_classes <= len(EUROSAT_CLASS_NAMES):
            catalog = ClassCatalog()
        else:
            catalog = ClassCatalog(tuple(f"class{i}" for i in range(n_classes)))
    return Dataset(stack, labels, timestamps, catalog)


SUMMARY_CSV_HEADER = "class,count_train,count_val,count_test"


def summary_csv(splits: SplitDatasets) -> str:
    """Per-class record counts across the three splits."""
    catalog = splits.train.catalog
    lines = [SUMMARY_CSV_HEADER]
    for cls, name in enumerate(catalog.names):
        counts = (
            int((splits.train.labels == cls).sum()),
            int((splits.val.labels == cls).sum()),
            int((splits.test.labels == cls).sum()),
        )
        lines.append(f"{name},{counts[0]},{counts[1]},{counts[2]}")
    return "\n".join(lines) + "\n"


def nearest_centroid_accuracy(train: Dataset, test: Dataset) -> float:
    """Accuracy of a per-class mean-pixel-vector classifier; sanity oracle."""
    c = len(train.catalog)
    flat_train = train.flattened()
    centroids = np.stack(
        [flat_train[train.labels == cls].mean(axis=0) for cls in range(c)]
    )
    flat_test = test.flattened()
    d2 = ((flat_test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == test.labels))
