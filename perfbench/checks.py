"""Output checks and the environment fingerprint.

References hold, per master seed, the sha256 of each CSV a workload writes,
a short digest of every CSV row, and the simulated statistics (link
counters, converged count, rounds to target). A row that differs from its
reference, is missing, is extra, or holds NaN counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import statistics
from itertools import zip_longest
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Round logs carry NaN by design in the sa_loss column of frozen and
# parameter-averaging rows; only these columns must be finite.
FINITE_COLUMNS = ("top1", "ce_loss")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_digest(row: str) -> str:
    return sha256(row)[:16]


def csv_reference(text: str) -> dict:
    rows = text.splitlines()
    return {"sha256": sha256(text), "header": rows[0], "rows": [row_digest(r) for r in rows[1:]]}


def _bad_cell(header: list[str], row: str) -> bool:
    cells = row.split(",")
    for col in FINITE_COLUMNS:
        if col in header:
            idx = header.index(col)
            try:
                if not math.isfinite(float(cells[idx])):
                    return True
            except (IndexError, ValueError):
                return True
    return False


def bad_rows(text: str, reference: dict) -> int:
    """Data rows that differ from the reference, are missing or extra, or hold NaN."""
    rows = text.splitlines()
    if not rows or rows[0] != reference["header"]:
        return max(len(rows) - 1, len(reference["rows"]))
    header = rows[0].split(",")
    return sum(
        got is None or want is None or _bad_cell(header, got) or row_digest(got) != want
        for got, want in zip_longest(rows[1:], reference["rows"])
    )


def load_references(group: str) -> dict:
    with open(REFERENCE_DIR / f"{group}.json") as fh:
        return json.load(fh)


def stat_mismatches(got: dict, want: dict) -> list[str]:
    """One message per statistic in ``got`` whose value differs from ``want``."""
    return [
        f"{k}: got {got[k]!r}, reference {want.get(k)!r}"
        for k in sorted(got)
        if want.get(k, object()) != got[k]
    ]


def index_errors(sent_indices, received) -> int:
    """Codeword indices that did not arrive as sent, for one frame.

    ``received`` is the QuantizedMessage that came out of the channel. An
    erased frame delivers nothing, so every one of its indices counts.
    """
    sent = np.asarray(sent_indices)
    if received.erased:
        return int(sent.size)
    if received.indices.shape != sent.shape:
        raise ValueError("sent and received frames differ in length")
    return int(np.count_nonzero(received.indices != sent))


def fingerprint() -> dict:
    """Machine facts that decide whether two results may be compared."""
    blas: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    core = re.search(r"(\S+)\s+MAX_THREADS", str(blas.get("openblas configuration", "")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_core": core.group(1) if core else "unknown",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def fingerprint_mismatch(a: dict, b: dict) -> list[str]:
    """Keys whose values differ between two fingerprints; empty when comparable."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
