"""Synthetic imagery generation, stratified splitting, container format."""

from __future__ import annotations

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom.config import DATASET_SCALE_MAX, EUROSAT_CLASS_NAMES, SPLIT_RATIOS, DatasetSpec, split_counts
from semcom.dataset import (
    BadMagicError,
    Dataset,
    DimensionOverflowError,
    TensorFileError,
    TruncatedFileError,
    _class_signatures,
    generate_synthetic,
    load_tensor_file,
    save_tensor_file,
    split,
    summary_csv,
)
from semcom.seeding import spawn_rng


def nearest_centroid_accuracy(train: Dataset, test: Dataset) -> float:
    """Accuracy of a per-class mean-pixel-vector classifier; sanity oracle."""
    c = len(train.class_names)
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
        np.concatenate(
            [splits.train.timestamps, splits.val.timestamps, splits.test.timestamps]
        ),
        splits.train.class_names,
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

    ds_t0 = Dataset(pixels, labels, np.zeros(n, dtype=np.int64))
    ds_t1 = Dataset(pixels_t1, labels, np.ones(n, dtype=np.int64))
    return split(ds_t0, SPLIT_RATIOS, spec.seed), split(ds_t1, SPLIT_RATIOS, spec.seed)


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
                np.testing.assert_array_equal(g.timestamps, w.timestamps)


class TestGeneration:
    def test_counts_shapes_and_timestamps(self):
        spec = DatasetSpec(per_class_count=20, seed=1)
        t0, t1 = generate_synthetic(spec)
        n_classes = len(t0.train.class_names)
        for splits, stamp in ((t0, 0), (t1, 1)):
            total = combined(splits)
            assert total.pixels.shape == (20 * n_classes, 8, 8, 4)
            assert np.all(total.timestamps == stamp)
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


class TestSplit:
    def make_dataset(self, per_class=10, n_classes=3, seed=0):
        rng = np.random.default_rng(seed)
        n = per_class * n_classes
        return Dataset(
            rng.standard_normal((n, 2, 2, 1)),
            np.repeat(np.arange(n_classes), per_class),
            np.zeros(n, dtype=np.int64),
            tuple(f"c{i}" for i in range(n_classes)),
        )

    def test_exact_proportions_when_divisible(self):
        ds = self.make_dataset(per_class=20)
        sp = split(ds, (0.7, 0.15, 0.15), seed=1)
        for part, expected in ((sp.train, 14), (sp.val, 3), (sp.test, 3)):
            counts = np.bincount(part.labels, minlength=3)
            assert np.all(counts == expected)

    def test_within_one_of_proportions_otherwise(self):
        ds = self.make_dataset(per_class=13)
        sp = split(ds, (0.5, 0.3, 0.2), seed=1)
        for part, frac in ((sp.train, 0.5), (sp.val, 0.3), (sp.test, 0.2)):
            counts = np.bincount(part.labels, minlength=3)
            assert np.all(np.abs(counts - 13 * frac) <= 1)
        assert len(sp.train) + len(sp.val) + len(sp.test) == len(ds)

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = self.make_dataset(per_class=11, seed=5)
        sp = split(ds, (0.6, 0.2, 0.2), seed=9)
        seen = np.concatenate(
            [p.pixels.reshape(len(p), -1).sum(axis=1) for p in (sp.train, sp.val, sp.test)]
        )
        original = ds.pixels.reshape(len(ds), -1).sum(axis=1)
        np.testing.assert_allclose(np.sort(seen), np.sort(original))

    def test_seed_determinism(self):
        ds = self.make_dataset()
        a = split(ds, (0.7, 0.15, 0.15), seed=3)
        b = split(ds, (0.7, 0.15, 0.15), seed=3)
        c = split(ds, (0.7, 0.15, 0.15), seed=4)
        np.testing.assert_array_equal(a.train.pixels, b.train.pixels)
        assert not np.array_equal(a.train.pixels, c.train.pixels)

    def test_bad_ratios_rejected(self):
        ds = self.make_dataset()
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.5), seed=0)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            split(ds, (-0.1, 0.6, 0.5), seed=0)


class TestSplitCounts:
    @pytest.mark.parametrize("n", range(0, 40))
    def test_counts_sum_to_n_and_stay_within_one_of_the_share(self, n):
        counts = split_counts(n, SPLIT_RATIOS)
        assert sum(counts) == n
        for count, ratio in zip(counts, SPLIT_RATIOS):
            assert abs(count - ratio * n) < 1.0

    def test_five_per_class_is_the_smallest_that_fills_every_split(self):
        assert split_counts(4, SPLIT_RATIOS) == [3, 1, 0]
        assert split_counts(5, SPLIT_RATIOS) == [3, 1, 1]
        assert all(min(split_counts(n, SPLIT_RATIOS)) >= 1 for n in range(5, 200))

    def test_split_uses_the_same_counts(self):
        spec = DatasetSpec(per_class_count=13, seed=4)
        splits, _ = generate_synthetic(spec)
        want = split_counts(13, SPLIT_RATIOS)
        for part, count in zip((splits.train, splits.val, splits.test), want):
            assert np.all(np.bincount(part.labels, minlength=10) == count)


class TestContainerFormat:
    def test_round_trip_is_exact(self, tmp_path):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=3, seed=7))
        path = str(tmp_path / "data.msit")
        save_tensor_file(path, t0.train)
        back = load_tensor_file(path)
        np.testing.assert_array_equal(back.pixels, t0.train.pixels)
        np.testing.assert_array_equal(back.labels, t0.train.labels)
        np.testing.assert_array_equal(back.timestamps, t0.train.timestamps)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.msit"
        path.write_bytes(b"JUNKxxxxxxxx")
        with pytest.raises(BadMagicError):
            load_tensor_file(str(path))

    def test_truncated_header_and_payload(self, tmp_path):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=2, seed=8))
        path = tmp_path / "cut.msit"
        save_tensor_file(str(path), t0.val)
        blob = path.read_bytes()
        path.write_bytes(blob[:6])
        with pytest.raises(TruncatedFileError):
            load_tensor_file(str(path))
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(TruncatedFileError):
            load_tensor_file(str(path))

    def test_mixed_record_shapes_name_the_first_odd_record(self, tmp_path):
        def record(h, w, d):
            return struct.pack("<HHHHI", h, w, d, 0, 0) + np.zeros(h * w * d, dtype="<f4").tobytes()

        path = tmp_path / "mixed.msit"
        records = record(2, 2, 3) + record(2, 2, 3) + record(2, 3, 3) + record(1, 1, 1)
        path.write_bytes(b"MSIT" + struct.pack("<II", 1, 4) + records)
        want = r"^record 2 has shape \(2, 3, 3\), record 0 has \(2, 2, 3\)$"
        with pytest.raises(TensorFileError, match=want):
            load_tensor_file(str(path))

    def test_unsupported_version(self, tmp_path):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=2, seed=8))
        path = tmp_path / "v9.msit"
        save_tensor_file(str(path), t0.val)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFileError):
            load_tensor_file(str(path))

    def test_empty_container_rejected(self, tmp_path):
        path = tmp_path / "empty.msit"
        path.write_bytes(b"MSIT" + struct.pack("<II", 1, 0))
        with pytest.raises(TensorFileError):
            load_tensor_file(str(path))

    def test_dimension_overflow_on_save(self, tmp_path):
        ds = Dataset(
            np.zeros((1, 2, 2, 1)),
            np.array([70000]),
            np.zeros(1, dtype=np.int64),
            tuple(f"c{i}" for i in range(70001)),
        )
        with pytest.raises(DimensionOverflowError):
            save_tensor_file(str(tmp_path / "o.msit"), ds)


class TestSummaries:
    def test_summary_csv_counts(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=10, seed=1))
        lines = summary_csv(t0).strip().splitlines()
        assert lines[0] == "class,count_train,count_val,count_test"
        assert len(lines) == 1 + len(t0.train.class_names)
        first = lines[1].split(",")
        assert [int(x) for x in first[1:]] == [7, 2, 1] or sum(int(x) for x in first[1:]) == 10

    def test_nearest_centroid_separates_easy_classes(self):
        t0, _ = generate_synthetic(DatasetSpec(per_class_count=20, class_separation=3.0, seed=2))
        assert nearest_centroid_accuracy(t0.train, t0.test) >= 0.9

    def test_nearest_centroid_near_chance_when_unseparated(self):
        t0, _ = generate_synthetic(
            DatasetSpec(per_class_count=20, class_separation=1e-6, seed=3)
        )
        assert nearest_centroid_accuracy(t0.train, t0.test) <= 0.35
