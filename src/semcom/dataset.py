"""Synthetic multispectral scenes and their binary container format.

Each class c gets a band-space signature mu_c; a pixel is the signature plus
a smooth per-image texture and i.i.d. Gaussian noise. The t_1 variant shifts
every class signature by a drift vector of configurable magnitude applied to
the same pixel realizations, modelling a later capture of the same scenes.
Pixels are quantized to f32 resolution at generation time so file round trips
are exact. A record is its label and pixels: whether it is a t_0 or a t_1
capture is told by which of the pair it came in. Label c names the class
``config.EUROSAT_CLASS_NAMES[c]``, and every scenario splits in ``config.SPLIT_RATIOS``.
An MSIT container states the image shape once in its header and holds labels
and pixels as two columns; one with a label that names no class is refused.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import EUROSAT_CLASS_NAMES, U16_MAX, DatasetSpec, split_counts
from .seeding import spawn_rng
from .tables import csv_text

MAGIC = b"MSIT"
FORMAT_VERSION = 3
# After the magic: u32 version, u32 record count, u16 height, width and bands.
_HEADER = struct.Struct("<IIHHH")
_COLUMNS = len(MAGIC) + _HEADER.size  # where the label column starts


class TensorFileError(Exception):
    """A container that cannot be written or read."""


@dataclass
class Dataset:
    """Columnar batch of images; label ``c`` names the class ``EUROSAT_CLASS_NAMES[c]``."""

    pixels: np.ndarray  # (N, H, W, D) float64
    labels: np.ndarray  # (N,) int64

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.ndim != 4:
            raise ValueError("pixels must be (N, H, W, bands)")
        n = self.pixels.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must align with pixels")
        if n and (self.labels.min() < 0 or self.labels.max() >= len(EUROSAT_CLASS_NAMES)):
            raise ValueError("labels out of EUROSAT_CLASS_NAMES range")

    def __len__(self) -> int:
        return int(self.pixels.shape[0])

    def flattened(self) -> np.ndarray:
        """(N, H*W*bands) view for dense encoders."""
        return self.pixels.reshape(len(self), -1)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.pixels[indices], self.labels[indices])


@dataclass
class SplitDatasets:
    train: Dataset
    val: Dataset
    test: Dataset


def _class_signatures(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Signatures with pairwise distance >= class_separation, by rescaling."""
    c = len(EUROSAT_CLASS_NAMES)
    while True:
        sig = rng.normal(0.0, 1.0, size=(c, spec.bands))
        diff = sig[:, None, :] - sig[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        dmin = dist[~np.eye(c, dtype=bool)].min()
        if dmin > 1e-9:
            return sig * (spec.class_separation / dmin)


def generate_synthetic(spec: DatasetSpec) -> tuple[SplitDatasets, SplitDatasets]:
    """Generate the t_0 scenario and its drifted t_1 twin, both split.

    Returns (splits at t_0, splits at t_1). The t_1 pixels are the t_0 pixels
    with each class signature shifted by ``temporal_drift`` along a fixed
    random unit direction; drift 0 makes the twins identical. Each t_1 part
    is its t_0 part drifted, as :func:`split` gives both the same indices.
    """
    rng = spawn_rng(spec.seed, "dataset", "images")
    signatures = _class_signatures(spec, spawn_rng(spec.seed, "dataset", "signatures"))
    c = len(EUROSAT_CLASS_NAMES)
    n = c * spec.per_class_count
    pixels = np.empty((n, spec.height, spec.width, spec.bands))
    labels = np.repeat(np.arange(c), spec.per_class_count)
    # Draws only, image by image: two wave numbers and a phase, then the noise.
    waves = np.empty((n, 3))
    for i in range(n):
        waves[i] = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi)
        pixels[i] = rng.normal(0.0, spec.noise_sigma, size=pixels.shape[1:])
    # Each image's smooth plane wave, shared across bands, composed one class
    # at a time so no temporary outgrows a class's images. One sum, noise +
    # (signature + texture); two in-place adds would reassociate it.
    u, v, phase = waves.T[:, :, None, None, None]
    ii = np.arange(spec.height)[:, None, None] / spec.height
    jj = np.arange(spec.width)[:, None] / spec.width
    for cls, signature in enumerate(signatures):
        rows = slice(cls * spec.per_class_count, (cls + 1) * spec.per_class_count)
        wave = u[rows] * ii + v[rows] * jj
        texture = spec.texture_amplitude * np.cos(2.0 * np.pi * wave + phase[rows])
        pixels[rows] += signature + texture
    pixels[...] = pixels.astype(np.float32)
    splits_t0 = split(Dataset(pixels, labels), spec.seed)
    del pixels  # the parts hold their own copies, and no other full-size array is made

    drift_rng = spawn_rng(spec.seed, "dataset", "drift")
    directions = drift_rng.normal(size=(c, spec.bands))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    shift = (spec.temporal_drift * directions).astype(np.float32).astype(np.float64)[:, None, None, :]
    parts_t1 = []
    for part in (splits_t0.train, splits_t0.val, splits_t0.test):
        pixels_t1 = part.pixels + shift[part.labels]
        pixels_t1[...] = pixels_t1.astype(np.float32)
        parts_t1.append(Dataset(pixels_t1, part.labels.copy()))
    return splits_t0, SplitDatasets(*parts_t1)


def split(dataset: Dataset, seed: int) -> SplitDatasets:
    """Stratified train/val/test split; deterministic, disjoint, exhaustive.

    Within each class the three parts match :data:`~semcom.config.SPLIT_RATIOS`
    to within one record (:func:`~semcom.config.split_counts`).
    """
    rng = spawn_rng(seed, "dataset", "split")
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in range(len(EUROSAT_CLASS_NAMES)):
        idx = np.flatnonzero(dataset.labels == cls)
        idx = idx[rng.permutation(idx.size)]
        train, val, _ = split_counts(idx.size)
        for part, chunk in zip(parts, np.split(idx, [train, train + val])):
            part.append(chunk)
    return SplitDatasets(*(dataset.subset(np.sort(np.concatenate(p))) for p in parts))


def tensor_file(dataset: Dataset) -> bytes:
    """The MSIT container of ``dataset``.

    Little-endian: magic "MSIT", then :data:`_HEADER` (u32 version 3, u32
    record count N, u16 height H, width W and bands D), then two columns:
    N u16 labels and the N x H x W x D f32 pixels, row-major. An empty
    dataset raises, as its reader would.
    """
    n = len(dataset)
    if not n:
        raise TensorFileError("container holds no records")
    shape = dataset.pixels.shape[1:]
    if max(shape) > U16_MAX:
        raise TensorFileError(f"dimensions {shape} exceed u16")
    columns = (dataset.labels.astype("<u2"), dataset.pixels.astype("<f4"))
    return MAGIC + _HEADER.pack(FORMAT_VERSION, n, *shape) + b"".join(c.tobytes() for c in columns)


def read_tensor_file(data: bytes) -> Dataset:
    """The dataset of a :func:`tensor_file` container; bytes past its pixels are ignored.

    A NaN pixel, signalling or quiet, reads as NaN; a label that names no class raises.
    """
    if data[:4] != MAGIC:
        raise TensorFileError(f"bad magic {data[:4]!r}")
    if len(data) < _COLUMNS:
        raise TensorFileError("truncated header")
    version, n, *shape = _HEADER.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise TensorFileError(f"unsupported version {version}")
    if n == 0:
        raise TensorFileError("container holds no records")
    size = n * math.prod(shape)
    if len(data) < _COLUMNS + 2 * n + 4 * size:
        raise TensorFileError("truncated payload")
    labels = np.frombuffer(data, "<u2", n, _COLUMNS).astype(np.int64)
    if labels.max() >= len(EUROSAT_CLASS_NAMES):
        raise TensorFileError(f"label {labels.max()} names no class; there are {len(EUROSAT_CLASS_NAMES)}")
    with np.errstate(invalid="ignore"):  # widening a signalling NaN flags "invalid"
        pixels = np.frombuffer(data, "<f4", size, _COLUMNS + 2 * n).astype(np.float64).reshape(n, *shape)
    return Dataset(pixels, labels)


SUMMARY_CSV_HEADER = "class,count_train,count_val,count_test"


def summary_csv(splits: SplitDatasets) -> str:
    """Per-class record counts across the three splits."""
    parts = (splits.train, splits.val, splits.test)
    counts = [np.bincount(part.labels, minlength=len(EUROSAT_CLASS_NAMES)) for part in parts]
    return csv_text(SUMMARY_CSV_HEADER, zip(EUROSAT_CLASS_NAMES, *counts))

