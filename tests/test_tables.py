"""The one CSV formatter: exact round trips, and bytes equal to the per-record writers it replaced."""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom.cli import main
from semcom.config import EUROSAT_CLASS_NAMES, load_config
from semcom.csa import ROUNDLOG_CSV_HEADER, RoundLog
from semcom.dataset import SUMMARY_CSV_HEADER, Dataset, SplitDatasets, generate_synthetic, summary_csv
from semcom.dtjscc import train_dtjscc
from semcom.geometry import LINK_REPORT_CSV_HEADER
from semcom.harness import (
    CONFUSION_CSV_HEADER,
    SWEEP_CSV_HEADER,
    ConfusionMatrix,
    SweepResult,
    SweepRow,
    roundlog_csv,
    run_sweep,
)
from semcom.tables import csv_text

from conftest import LINK_BUDGETS, tiny_harness_cfg

# ---------------------------------------------------------------------------
# The writers csv_text replaced, kept verbatim as the oracle.


def old_sweep_csv(rows):
    lines = [SWEEP_CSV_HEADER]
    lines.extend(
        ",".join((r.channel, r.modulation, str(r.k), repr(float(r.psnr_db)), str(r.seed), repr(float(r.top1))))
        for r in rows
    )
    return "\n".join(lines) + "\n"


def old_roundlog_csv(logs):
    lines = [ROUNDLOG_CSV_HEADER]
    for e in logs:
        cells = (
            str(e.round_index),
            e.side,
            repr(float(e.top1_accuracy)),
            repr(float(e.ce_loss)),
            repr(float(e.sa_loss)),
            str(e.bits_transmitted),
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def old_link_csv(report):
    cells = (
        report.distance_km,
        report.fspl_db,
        report.shadow_db,
        report.atmospheric_db,
        report.scintillation_db,
        report.total_db,
        report.zeta_db,
        report.doppler_hz,
    )
    return LINK_REPORT_CSV_HEADER + "\n" + ",".join(repr(float(c)) for c in cells) + "\n"


def old_confusion_csv(matrix):
    lines = [CONFUSION_CSV_HEADER]
    row_totals = matrix.counts.sum(axis=1)
    names = EUROSAT_CLASS_NAMES[: len(matrix.counts)]
    for i, true_name in enumerate(names):
        for j, pred_name in enumerate(names):
            count = int(matrix.counts[i, j])
            pct = 100.0 * count / row_totals[i] if row_totals[i] else 0.0
            lines.append(f"{true_name},{pred_name},{count},{repr(float(pct))}")
    return "\n".join(lines) + "\n"


def old_summary_csv(splits):
    lines = [SUMMARY_CSV_HEADER]
    for cls, name in enumerate(EUROSAT_CLASS_NAMES):
        counts = (
            int((splits.train.labels == cls).sum()),
            int((splits.val.labels == cls).sum()),
            int((splits.test.labels == cls).sum()),
        )
        lines.append(f"{name},{counts[0]},{counts[1]},{counts[2]}")
    return "\n".join(lines) + "\n"


def old_history_csv(history):
    lines = ["epoch,loss"]
    lines.extend(f"{i},{repr(loss)}" for i, loss in enumerate(history))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
finite_float = st.floats(allow_nan=False, allow_infinity=False)
some_float = st.one_of(any_float, any_float.map(np.float64))
name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)


@st.composite
def square_counts(draw):
    """A (C, C) int64 count matrix; rows of zeros included."""
    c = draw(st.integers(1, 5))
    flat = draw(st.lists(st.one_of(st.just(0), st.integers(0, 10**6)), min_size=c * c, max_size=c * c))
    return np.array(flat, dtype=np.int64).reshape(c, c)


@st.composite
def split_labels(draw):
    """The labels of three splits, any of them empty."""
    c = draw(st.integers(1, len(EUROSAT_CLASS_NAMES)))
    return [draw(st.lists(st.integers(0, c - 1), max_size=12)) for _ in range(3)]


def same_float(a: float, b: float) -> bool:
    """Equal bit for bit, except that every NaN matches every NaN."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


class TestCsvText:
    NUMBERS = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1,
        np.float64(1 / 3), np.float32(0.1), np.float32(-3.4e38), np.float16(0.5),
        0, -7, 2**70, np.int64(-(2**63)), np.uint8(255), np.int32(12),
    ]

    def test_layout(self):
        assert csv_text("a,b", []) == "a,b\n"
        assert csv_text("a,b", [("x", 1), ["y", 2.5]]) == "a,b\nx,1\ny,2.5\n"
        assert csv_text("n", (row for row in [(3,)])) == "n\n3\n"

    @pytest.mark.parametrize("value", NUMBERS, ids=repr)
    def test_each_number_parses_back_exactly(self, value):
        (cell,) = csv_text("v", [(value,)]).splitlines()[1:]
        if isinstance(value, (int, np.integer)):
            assert int(cell) == int(value)
        else:
            assert same_float(float(cell), float(value))
            assert type(value)(float(cell)) == value or math.isnan(value)

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    some_float,
                    st.floats(width=32).map(np.float32),
                    st.integers(),
                    st.integers(-(2**63), 2**63 - 1).map(np.int64),
                ),
                max_size=6,
            ),
            max_size=5,
        )
    )
    def test_cells_parse_back_to_the_exact_values(self, rows):
        lines = csv_text("h", rows).split("\n")
        assert lines[0] == "h" and lines[-1] == ""
        assert len(lines) == len(rows) + 2
        for row, line in zip(rows, lines[1:]):
            cells = line.split(",") if row else []
            assert len(cells) == len(row)
            for value, cell in zip(row, cells):
                if isinstance(value, (int, np.integer)):
                    assert int(cell) == int(value)
                else:
                    assert same_float(float(cell), float(value))


class TestBytesEqualTheOldWriters:
    @given(
        st.lists(
            st.builds(
                SweepRow,
                name,
                name,
                st.sampled_from([2, 32, 1024]),
                finite_float,
                st.integers(0, 50),
                st.one_of(any_float, any_float.map(np.float64)),
            ),
            max_size=8,
        )
    )
    def test_sweep(self, rows):
        assert SweepResult(rows).csv() == old_sweep_csv(rows)

    def test_sweep_with_an_int_psnr_grid(self):
        cfg = tiny_harness_cfg(master_seed=4, experiment={"psnr_grid_db": (0, 8), "trials": 1})
        result = run_sweep(cfg)
        assert {type(row.psnr_db) for row in result.rows} == {float}
        assert result.csv() == old_sweep_csv(result.rows)
        assert ",8.0," in result.csv()

    @given(
        st.lists(
            st.builds(
                RoundLog,
                st.integers(0, 10**6),
                st.sampled_from(["sat2", "ut", "server"]),
                some_float,
                some_float,
                some_float,
                st.one_of(st.integers(0, 2**40), st.integers(0, 2**40).map(np.int64)),
            ),
            max_size=8,
        )
    )
    def test_round_log(self, logs):
        assert roundlog_csv(logs) == old_roundlog_csv(logs)

    @given(LINK_BUDGETS)
    def test_link_budget(self, budget):
        for report in budget.reports():
            assert csv_text(LINK_REPORT_CSV_HEADER, [report]) == old_link_csv(report)

    @given(square_counts())
    def test_confusion(self, counts):
        matrix = ConfusionMatrix(counts)
        assert matrix.csv() == old_confusion_csv(matrix)

    @given(split_labels())
    def test_summary(self, parts):
        splits = SplitDatasets(*(Dataset(np.zeros((len(labels), 1, 1, 1)), labels) for labels in parts))
        assert summary_csv(splits) == old_summary_csv(splits)

    @given(st.lists(st.floats(allow_subnormal=True), max_size=10))
    def test_history(self, history):
        assert csv_text("epoch,loss", enumerate(history)) == old_history_csv(history)

    def test_history_file_of_the_train_command(self, tmp_path):
        ini = tmp_path / "t.ini"
        ini.write_text("[dataset]\nper_class_count = 8\n[dtjscc]\nepochs = 3\n")
        cfg = load_config(str(ini), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["train", "--config", str(ini), "--out", str(tmp_path / "out"), "--seed", "2"]) in (0, 3)
            system = train_dtjscc(generate_synthetic(cfg.dataset)[0], cfg.experiment.train_psnr_db, cfg.dtjscc)
        assert (tmp_path / "out" / "history.csv").read_text() == old_history_csv(system.history)
