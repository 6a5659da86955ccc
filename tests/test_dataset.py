"""Synthetic imagery generation, stratified splitting, container format."""

from __future__ import annotations

import dataclasses
import math
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.config import (
    DATASET_SCALE_MAX,
    EUROSAT_CLASS_NAMES,
    SPLIT_RATIOS,
    DatasetSpec,
    load_config,
    split_counts,
)
from semcom.dataset import (
    Dataset,
    TensorFileError,
    _class_signatures,
    generate_synthetic,
    read_tensor_file,
    split,
    summary_csv,
    tensor_file,
)
from semcom.seeding import spawn_rng


def nearest_centroid_accuracy(train: Dataset, test: Dataset) -> float:
    """Accuracy of a per-class mean-pixel-vector classifier; sanity oracle."""
    c = len(EUROSAT_CLASS_NAMES)
    flat_train = train.flattened()
    centroids = np.stack(
        [flat_train[train.labels == cls].mean(axis=0) for cls in range(c)]
    )
    flat_test = test.flattened()
    d2 = ((flat_test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == test.labels))


def combined(splits):
    """Stack a SplitDatasets back into one Dataset (order: train, val, test)."""
    return Dataset(
        np.concatenate([splits.train.pixels, splits.val.pixels, splits.test.pixels]),
        np.concatenate([splits.train.labels, splits.val.labels, splits.test.labels]),
    )


def reference_texture(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """One image's plane-wave pattern, shared across bands, drawn on its own."""
    u = rng.uniform(0.5, 2.0)
    v = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    ii = np.arange(spec.height)[:, None] / spec.height
    jj = np.arange(spec.width)[None, :] / spec.width
    return spec.texture_amplitude * np.cos(2.0 * np.pi * (u * ii + v * jj) + phase)


def reference_generate(spec: DatasetSpec):
    """generate_synthetic assembled image by image: the slow reference."""
    rng = spawn_rng(spec.seed, "dataset", "images")
    signatures = _class_signatures(spec, spawn_rng(spec.seed, "dataset", "signatures"))
    c = len(EUROSAT_CLASS_NAMES)
    n = c * spec.per_class_count
    pixels = np.empty((n, spec.height, spec.width, spec.bands))
    labels = np.repeat(np.arange(c), spec.per_class_count)
    for i in range(n):
        tex = reference_texture(spec, rng)
        noise = rng.normal(0.0, spec.noise_sigma, size=pixels.shape[1:])
        pixels[i] = signatures[labels[i]][None, None, :] + tex[:, :, None] + noise
    pixels = pixels.astype(np.float32).astype(np.float64)

    drift_rng = spawn_rng(spec.seed, "dataset", "drift")
    directions = drift_rng.normal(size=(c, spec.bands))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    shift = (spec.temporal_drift * directions[labels]).astype(np.float32)
    pixels_t1 = pixels + shift[:, None, None, :].astype(np.float64)
    pixels_t1 = pixels_t1.astype(np.float32).astype(np.float64)

    return tuple(split(Dataset(p, labels), spec.seed) for p in (pixels, pixels_t1))


side = st.integers(1, 9)
magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))


class TestGenerationMatchesReference:
    @given(
        per_class_count=st.integers(1, 6),
        height=side,
        width=side,
        bands=side,
        noise_sigma=magnitude,
        texture_amplitude=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
        temporal_drift=magnitude,
        class_separation=st.floats(1e-3, 6.0),
        seed=st.integers(-(2**40), 2**40),
    )
    def test_every_split_has_the_reference_bytes(self, **fields):
        spec = DatasetSpec(**fields)
        for got, want in zip(generate_synthetic(spec), reference_generate(spec)):
            for part in ("train", "val", "test"):
                g, w = getattr(got, part), getattr(want, part)
                assert g.pixels.tobytes() == w.pixels.tobytes()
                np.testing.assert_array_equal(g.labels, w.labels)


class TestGeneration:
    def test_counts_and_shapes(self):
        spec = DatasetSpec(per_class_count=20, seed=1)
        t0, t1 = generate_synthetic(spec)
        n_classes = len(EUROSAT_CLASS_NAMES)
        for splits in (t0, t1):
            total = combined(splits)
            assert total.pixels.shape == (20 * n_classes, 8, 8, 4)
            counts = np.bincount(total.labels, minlength=n_classes)
            assert np.all(counts == 20)
        assert len(t0.train) == 14 * n_classes
        assert len(t0.val) == 3 * n_classes
        assert len(t0.test) == 3 * n_classes

    def test_generation_is_seed_deterministic(self):
        spec = DatasetSpec(per_class_count=5, seed=4)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        np.testing.assert_array_equal(a.train.pixels, b.train.pixels)
        c, _ = generate_synthetic(dataclasses.replace(spec, seed=5))
        assert not np.array_equal(a.train.pixels, c.train.pixels)

    def test_zero_drift_copies_are_identical(self):
        spec = DatasetSpec(per_class_count=5, temporal_drift=0.0, seed=2)
        t0, t1 = generate_synthetic(spec)
        np.testing.assert_array_equal(t0.train.pixels, t1.train.pixels)
        np.testing.assert_array_equal(t0.train.labels, t1.train.labels)

    def test_drift_shifts_each_class_by_one_fixed_pattern(self):
        spec = DatasetSpec(per_class_count=6, temporal_drift=1.5, seed=3)
        t0, t1 = generate_synthetic(spec)
        np.testing.assert_array_equal(t0.train.labels, t1.train.labels)
        diff = t1.train.pixels - t0.train.pixels
        for cls in np.unique(t0.train.labels):
            rows = diff[t0.train.labels == cls].reshape(-1, 8 * 8 * 4)
            assert np.linalg.norm(rows[0]) > 0
            # Pixels are rounded through float32 so files round-trip exactly;
            # the shared shift therefore matches only to f32 resolution.
            assert np.max(np.abs(rows - rows[0])) < 2e-6

    @pytest.mark.parametrize("per_class_count", [60, 300])
    def test_generation_peaks_near_the_pixel_bytes_it_returns(self, per_class_count):
        """Once held the full t_0 and t_1 scenes beside both sets of splits, a
        traced peak of 2.05x the pixel bytes returned."""
        spec = DatasetSpec(per_class_count=per_class_count, temporal_drift=1.0, seed=1)
        tracemalloc.start()
        try:
            result = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(part.pixels.nbytes for splits in result for part in (splits.train, splits.val, splits.test))
        assert peak <= 1.25 * returned

    def test_drift_magnitude_scales_linearly(self):
        base = DatasetSpec(per_class_count=4, temporal_drift=1.0, seed=6)
        t0a, t1a = generate_synthetic(base)
        t0b, t1b = generate_synthetic(dataclasses.replace(base, temporal_drift=2.0))
        np.testing.assert_array_equal(t0a.train.pixels, t0b.train.pixels)
        np.testing.assert_allclose(
            t1b.train.pixels - t0b.train.pixels,
            2.0 * (t1a.train.pixels - t0a.train.pixels),
            atol=5e-6,
        )

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(per_class_count=0)
        with pytest.raises(ValueError):
            DatasetSpec(temporal_drift=-0.5)
        with pytest.raises(ValueError):
            DatasetSpec(class_separation=0.0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("texture", [DATASET_SCALE_MAX, -DATASET_SCALE_MAX])
    def test_the_largest_scales_keep_every_pixel_finite(self, seed, texture):
        spec = DatasetSpec(
            per_class_count=3,
            noise_sigma=DATASET_SCALE_MAX,
            texture_amplitude=texture,
            temporal_drift=DATASET_SCALE_MAX,
            class_separation=DATASET_SCALE_MAX,
            seed=seed,
        )
        for splits in generate_synthetic(spec):
            for part in (splits.train, splits.val, splits.test):
                assert np.isfinite(part.pixels).all()

    @pytest.mark.parametrize("name", ["noise_sigma", "texture_amplitude", "temporal_drift", "class_separation"])
    @pytest.mark.parametrize("value", [math.nextafter(DATASET_SCALE_MAX, math.inf), 1e308])
    def test_a_scale_past_the_bound_is_rejected_naming_it(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in .*, 1e\+20\], got {re.escape(str(value))}$"):
            DatasetSpec(**{name: value})

    def test_a_negative_texture_past_the_bound_is_rejected(self):
        with pytest.raises(ValueError, match=r"^texture_amplitude must lie in \[-1e\+20, 1e\+20\], got -1e\+308$"):
            DatasetSpec(texture_amplitude=-1e308)


class TestDatasetFields:
    @pytest.mark.parametrize("label", [-1, 10, 65_535])
    def test_a_label_that_names_no_class_is_refused(self, label):
        with pytest.raises(ValueError, match="^labels out of EUROSAT_CLASS_NAMES range$"):
            Dataset(np.zeros((2, 1, 1, 1)), [0, label])

    def test_labels_must_align_with_pixels(self):
        with pytest.raises(ValueError, match="^labels must align with pixels$"):
            Dataset(np.zeros((3, 1, 1, 1)), np.arange(2))


class TestSplit:
    def make_dataset(self, per_class=10, n_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        n = per_class * n_classes
        return Dataset(rng.standard_normal((n, 2, 2, 1)), np.repeat(np.arange(n_classes), per_class))

    def test_exact_proportions_when_divisible(self):
        ds = self.make_dataset(per_class=20)
        sp = split(ds, seed=1)
        for part, expected in ((sp.train, 14), (sp.val, 3), (sp.test, 3)):
            counts = np.bincount(part.labels, minlength=3)
            assert np.all(counts == expected)

    @pytest.mark.parametrize("seed", [0, 1, 9])
    @pytest.mark.parametrize("per_class,n_classes", [(1, 10), (4, 3), (13, 3), (11, 10), (37, 2)])
    def test_within_one_of_proportions_otherwise(self, per_class, n_classes, seed):
        ds = self.make_dataset(per_class, n_classes, seed)
        sp = split(ds, seed)
        for part, frac in zip((sp.train, sp.val, sp.test), SPLIT_RATIOS):
            counts = np.bincount(part.labels, minlength=n_classes)
            assert np.all(np.abs(counts - per_class * frac) <= 1)
        assert len(sp.train) + len(sp.val) + len(sp.test) == len(ds)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    @pytest.mark.parametrize("per_class,n_classes", [(1, 10), (11, 3), (26, 10)])
    def test_partition_is_disjoint_and_exhaustive(self, per_class, n_classes, seed):
        ds = self.make_dataset(per_class, n_classes, seed)
        sp = split(ds, seed)
        seen = np.concatenate([p.pixels.sum(axis=(1, 2, 3)) for p in (sp.train, sp.val, sp.test)])
        original = ds.pixels.sum(axis=(1, 2, 3))
        np.testing.assert_allclose(np.sort(seen), np.sort(original))

    def test_seed_determinism(self):
        ds = self.make_dataset()
        a = split(ds, seed=3)
        b = split(ds, seed=3)
        c = split(ds, seed=4)
        np.testing.assert_array_equal(a.train.pixels, b.train.pixels)
        assert not np.array_equal(a.train.pixels, c.train.pixels)


class TestSplitCounts:
    @pytest.mark.parametrize("n", range(0, 40))
    def test_counts_sum_to_n_and_stay_within_one_of_the_share(self, n):
        counts = split_counts(n)
        assert sum(counts) == n
        for count, ratio in zip(counts, SPLIT_RATIOS):
            assert abs(count - ratio * n) < 1.0

    def test_five_per_class_is_the_smallest_that_fills_every_split(self):
        assert split_counts(4) == [3, 1, 0]
        assert split_counts(5) == [3, 1, 1]
        assert all(min(split_counts(n)) >= 1 for n in range(5, 200))

    def test_split_uses_the_same_counts(self):
        spec = DatasetSpec(per_class_count=13, seed=4)
        splits, _ = generate_synthetic(spec)
        want = split_counts(13)
        for part, count in zip((splits.train, splits.val, splits.test), want):
            assert np.all(np.bincount(part.labels, minlength=10) == count)


def oracle_save_tensor_file(path, dataset):
    """The per-record MSIT version 1 writer, each record stamped with timestamp 0: its files must be refused."""
    n = len(dataset)
    h, w, d = dataset.pixels.shape[1:]
    if max(h, w, d) > 0xFFFF:
        raise TensorFileError(f"dimensions ({h}, {w}, {d}) exceed u16")
    if n and int(dataset.labels.max()) > 0xFFFF:
        raise TensorFileError("label exceeds u16")
    with open(path, "wb") as fh:
        fh.write(b"MSIT")
        fh.write(struct.pack("<II", 1, n))
        for i in range(n):
            fh.write(struct.pack("<HHHHI", h, w, d, int(dataset.labels[i]), 0))
            fh.write(dataset.pixels[i].astype("<f4").tobytes(order="C"))


def column_writer(dataset):
    """The v3 container written value by value with ``struct``, apart from ``tensor_file``."""
    n = len(dataset)
    header = b"MSIT" + struct.pack("<IIHHH", 3, n, *dataset.pixels.shape[1:])
    labels = b"".join(struct.pack("<H", int(label)) for label in dataset.labels)
    pixels = b"".join(struct.pack("<f", float(x)) for x in dataset.pixels.ravel())
    return header + labels + pixels


def v2_column_writer(dataset):
    """The former v2 column writer, each record stamped with timestamp 0: its files must be refused."""
    n = len(dataset)
    header = b"MSIT" + struct.pack("<IIHHH", 2, n, *dataset.pixels.shape[1:])
    labels = b"".join(struct.pack("<H", int(label)) for label in dataset.labels)
    stamps = struct.pack("<I", 0) * n
    pixels = b"".join(struct.pack("<f", float(x)) for x in dataset.pixels.ravel())
    return header + labels + stamps + pixels


def header(count, shape=(1, 1, 2), version=3):
    return b"MSIT" + struct.pack("<IIHHH", version, count, *shape)


# Two records of 1x1x2 pixels: labels 3 and 7, pixels (1, -2) and (0.5, 3).
TWO_RECORDS = (
    b"MSIT"
    b"\x03\x00\x00\x00"  # version 3
    b"\x02\x00\x00\x00"  # two records
    b"\x01\x00\x01\x00\x02\x00"  # height 1, width 1, bands 2
    b"\x03\x00\x07\x00"  # labels
    b"\x00\x00\x80\x3f\x00\x00\x00\xc0"  # record 0's pixels: 1.0, -2.0
    b"\x00\x00\x00\x3f\x00\x00\x40\x40"  # record 1's pixels: 0.5, 3.0
)
TWO_RECORDS_DATASET = Dataset([[[[1.0, -2.0]]], [[[0.5, 3.0]]]], [3, 7])

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestContainerFormat:
    def test_bytes_equal_the_hand_written_container(self):
        assert tensor_file(TWO_RECORDS_DATASET) == TWO_RECORDS
        assert len(TWO_RECORDS) == 18 + 2 * (2 + 4 * 2)

    def test_the_hand_written_container_reads_back(self):
        back = read_tensor_file(TWO_RECORDS)
        np.testing.assert_array_equal(back.pixels, TWO_RECORDS_DATASET.pixels)
        assert back.labels.tolist() == [3, 7]

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (7, 2, 13), (2, 9, 1)])
    @pytest.mark.parametrize("n", [1, 6])
    def test_bytes_equal_the_value_by_value_writer(self, shape, n):
        rng = spawn_rng(2, "msit", n, *shape)
        ds = Dataset(rng.normal(0.0, 1e3, size=(n, *shape)), rng.integers(0, 10, size=n))
        assert tensor_file(ds) == column_writer(ds)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (7, 2, 13), (2, 9, 1)])
    def test_an_empty_dataset_is_refused_as_its_reader_would(self, shape):
        """The reader refuses a container of no records, so the writer makes none."""
        with pytest.raises(TensorFileError, match="^container holds no records$"):
            tensor_file(Dataset(np.zeros((0, *shape)), []))

    def test_round_trip_is_exact(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=3, seed=7))
        back = read_tensor_file(tensor_file(t0.train))
        np.testing.assert_array_equal(back.pixels, t0.train.pixels)
        np.testing.assert_array_equal(back.labels, t0.train.labels)
        assert back.pixels.flags.c_contiguous and back.pixels.flags.writeable

    @pytest.mark.parametrize("seed", [0, 5, 19])
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
    def test_every_split_of_every_shipped_config_round_trips_byte_for_byte(self, name, seed):
        spec = load_config(str(CONFIGS / name), seed).dataset
        for splits in generate_synthetic(spec):
            for part in (splits.train, splits.val, splits.test):
                data = tensor_file(part)
                assert len(data) == 18 + len(part) * (2 + 4 * spec.height * spec.width * spec.bands)
                back = read_tensor_file(data)
                assert back.pixels.tobytes() == part.pixels.tobytes()
                assert back.labels.tobytes() == part.labels.tobytes()

    def test_a_signalling_nan_pixel_reads_as_nan_without_a_warning(self):
        """The writer takes any pixel, so its reader converts a NaN rather than refuse it."""
        one_pixel = header(1, (1, 1, 1)) + b"\x00\x00" + b"\x01\x00\x80\x7f"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_tensor_file(one_pixel)
        assert back.pixels.shape == (1, 1, 1, 1) and np.isnan(back.pixels[0, 0, 0, 0])

    def test_bad_magic(self):
        with pytest.raises(TensorFileError, match=r"^bad magic b'JUNK'$"):
            read_tensor_file(b"JUNKxxxxxxxx")

    def test_truncated_header_and_payload(self):
        for cut in (4, 6, 17):
            with pytest.raises(TensorFileError, match="^truncated header$"):
                read_tensor_file(TWO_RECORDS[:cut])
        for cut in range(18, len(TWO_RECORDS)):
            with pytest.raises(TensorFileError, match="^truncated payload$"):
                read_tensor_file(TWO_RECORDS[:cut])

    def test_a_record_count_beyond_the_data_is_a_cut(self):
        with pytest.raises(TensorFileError, match="^truncated payload$"):
            read_tensor_file(header(2**32 - 1, (0xFFFF, 0xFFFF, 0xFFFF)) + TWO_RECORDS[18:])

    def test_bytes_past_the_pixels_are_ignored(self):
        back = read_tensor_file(TWO_RECORDS + b"trailing")
        assert tensor_file(back) == TWO_RECORDS

    @settings(max_examples=500)
    @given(
        n=st.integers(1, 3),
        shape=st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**16),
        cut=st.one_of(st.none(), st.integers(0, 2**16)),
        corrupt=st.one_of(st.none(), st.tuples(st.integers(0, 31), st.integers(0, 255))),
    )
    def test_a_damaged_container_reads_or_raises_a_format_error(self, n, shape, seed, cut, corrupt):
        """Cut anywhere, or with any of its first 32 bytes changed: a dataset or a
        ``TensorFileError``, never another exception; every cut short of the
        pixels' end raises."""
        rng = spawn_rng(seed, "msit")
        ds = Dataset(rng.standard_normal((n, *shape)), rng.integers(0, 10, size=n))
        whole = tensor_file(ds)
        data = bytearray(whole)
        if corrupt is not None and corrupt[0] < len(data):
            data[corrupt[0]] = corrupt[1]
        if cut is not None:
            data = data[: cut % (len(whole) + 1)]
        try:
            read_tensor_file(bytes(data))
        except TensorFileError:
            return
        assert len(data) == len(whole) or corrupt is not None

    def test_a_version_1_container_is_unsupported(self, tmp_path):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=2, seed=8))
        oracle_save_tensor_file(str(tmp_path / "v1.msit"), t0.train)
        with pytest.raises(TensorFileError, match="^unsupported version 1$"):
            read_tensor_file((tmp_path / "v1.msit").read_bytes())

    def test_a_version_2_container_is_unsupported(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=2, seed=8))
        with pytest.raises(TensorFileError, match="^unsupported version 2$"):
            read_tensor_file(v2_column_writer(t0.train))

    def test_unsupported_version(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=2, seed=8))
        blob = bytearray(tensor_file(t0.train))
        blob[4:8] = struct.pack("<I", 9)
        with pytest.raises(TensorFileError, match="^unsupported version 9$"):
            read_tensor_file(bytes(blob))

    def test_empty_container_rejected(self):
        with pytest.raises(TensorFileError, match="^container holds no records$"):
            read_tensor_file(header(0))

    @pytest.mark.parametrize("label", [10, 11, 65_535])
    def test_a_label_that_names_no_class_is_refused(self, label):
        data = header(2) + struct.pack("<HH", 9, label) + b"\x00" * 16
        with pytest.raises(TensorFileError, match=f"^label {label} names no class; there are 10$"):
            read_tensor_file(data)


class TestSummaries:
    def test_summary_csv_counts(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=10, seed=1))
        lines = summary_csv(t0).strip().splitlines()
        assert lines[0] == "class,count_train,count_val,count_test"
        assert lines[1:] == [f"{name},7,2,1" for name in EUROSAT_CLASS_NAMES]

    def test_nearest_centroid_separates_easy_classes(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=20, class_separation=3.0, seed=2))
        assert nearest_centroid_accuracy(t0.train, t0.test) >= 0.9

    def test_nearest_centroid_near_chance_when_unseparated(self):
        t0, _ = generate_synthetic(
            DatasetSpec(per_class_count=20, class_separation=1e-6, seed=3)
        )
        assert nearest_centroid_accuracy(t0.train, t0.test) <= 0.35
