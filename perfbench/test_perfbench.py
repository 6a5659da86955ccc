"""Self-tests for the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import resource
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from semcom import dtjscc, harness, seeding  # noqa: E402
from semcom.dtjscc import QuantizedMessage  # noqa: E402
from tracer import Tracer, self_times, tail_percentile  # noqa: E402
from workloads import MASTER_SEEDS, WORKLOADS, master_seeds  # noqa: E402


def test_self_time_subtracts_children_once_and_clips_to_parent():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [9, 12] overruns;
    # the grandchild [3, 4] lies inside a child and does not touch the parent.
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 3.0, 5.0, 4.0, 12.0]
    parent = [-1, 0, 0, 2, 0]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 2.0, 1.0, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([1.0], [3.5], [-1]) == [2.5]


def test_tracer_spans_nest_and_self_time_adds_up():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    assert list(tr.parent) == [-1, 0, 0]
    selfs = tr.self_times()
    outer = tr.end[0] - tr.start[0]
    assert selfs[0] + selfs[1] + selfs[2] == pytest.approx(outer, abs=1e-12)
    assert min(selfs) >= 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    samples = [float(v) for v in np.random.default_rng(n).permutation(n)]
    got = tail_percentile(samples)
    if expected is None:
        assert got is None
        return
    q, value, count = got
    assert (q, count) == (expected, n)
    assert value == pytest.approx(float(np.percentile(samples, q)))
    assert sum(s > value for s in samples) >= 10


def _message(indices, erased=False):
    return QuantizedMessage(indices=np.array(indices), bits_per_index=4, erased=erased)


def test_index_errors_on_hand_built_frames():
    sent = _message([1, 2, 3, 15])
    assert checks.index_errors(sent.indices, _message([1, 2, 3, 15])) == 0
    assert checks.index_errors(sent.indices, _message([1, 0, 3, 14])) == 2
    assert checks.index_errors(sent.indices, _message([0, 0, 0, 0], erased=True)) == 4
    with pytest.raises(ValueError):
        checks.index_errors(sent.indices, _message([1, 2, 3]))


def test_fingerprint_mismatch_is_flagged():
    fp = checks.fingerprint()
    assert checks.fingerprint_mismatch(fp, json.loads(json.dumps(fp))) == []
    other = dict(fp, nproc=fp["nproc"] + 1)
    assert checks.fingerprint_mismatch(fp, other) == ["nproc"]
    capped = dict(fp, thread_env=dict(fp["thread_env"], OPENBLAS_NUM_THREADS="1"))
    if fp["thread_env"]["OPENBLAS_NUM_THREADS"] != "1":
        assert checks.fingerprint_mismatch(fp, capped) == ["thread_env"]


def test_quartile_spread_is_interquartile_range_over_median():
    assert checks.quartile_spread(range(1, 10)) == pytest.approx((7.5 - 2.5) / 5)
    assert checks.quartile_spread([2.0] * 10) == 0.0


def test_baseline_spreads_follow_from_its_runs():
    base = json.loads((HERE / "baseline.json").read_text())
    for entry in base["workloads"].values():
        for name, spread in entry.get("spread", {}).items():
            assert checks.quartile_spread(entry["per_run"][name]) == pytest.approx(spread)


def test_setup_interpreters_stay_out_of_the_benchmarks_own_figures():
    children = lambda: resource.getrusage(resource.RUSAGE_CHILDREN)  # noqa: E731
    before = children()
    with run.SetupSampler(WORKLOADS["adapt"]) as setup:
        setup.top_up(2)
        during = children()
    assert len(setup.setups) == len(setup.imports) == 2
    assert all(s > i > 0 for s, i in zip(setup.setups, setup.imports))
    assert (during.ru_utime, during.ru_maxrss) == (before.ru_utime, before.ru_maxrss)
    assert children().ru_utime > before.ru_utime


def test_bad_rows_counts_differing_missing_extra_and_nan_rows():
    text = "round,side,top1,ce_loss,sa_loss,bits_tx\n0,ut,0.5,1.0,nan,8\n1,ut,0.6,0.9,nan,8\n"
    ref = checks.csv_reference(text)
    assert checks.bad_rows(text, ref) == 0
    assert checks.bad_rows(text.replace("0.6", "0.7"), ref) == 1
    assert checks.bad_rows(text + "2,ut,0.6,0.9,nan,8\n", ref) == 1
    assert checks.bad_rows(text.replace("1,ut,0.6,0.9,nan,8\n", ""), ref) == 1
    for broken in ("nan,1.0", "x,1.0"):
        bad_text = text.replace("0.5,1.0", broken)
        assert checks.bad_rows(bad_text, checks.csv_reference(bad_text)) == 1
    assert checks.bad_rows("", ref) == 2


def test_install_patches_every_binding_and_uninstall_restores():
    original = dtjscc.transmit
    tr = Tracer()
    tr.install(layers.TARGETS, layers.OBSERVERS, layers.PACKAGE)
    try:
        bound = tr.bindings()
        for name in ("semcom.dtjscc.transmit", "semcom.harness.transmit", "semcom.csa.transmit"):
            assert name in bound
        assert harness.transmit is dtjscc.transmit is not original
        seeding.spawn_rng(0, "probe")
        assert tr.names[tr.name_id[-1]] == "seeding.spawn_rng"
    finally:
        assert tr.uninstall(layers.PACKAGE)
    assert dtjscc.transmit is original and harness.transmit is original


def test_master_seeds_follow_the_workload_seed():
    first = list(islice(master_seeds(3), 40))
    assert first == list(islice(master_seeds(3), 40))
    assert sorted(first[:32]) == list(MASTER_SEEDS)
    assert first[:32] != list(islice(master_seeds(4), 32))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_references_cover_every_master_seed():
    for group in ("sweep", "adapt"):
        refs = checks.load_references(group)["master_seeds"]
        assert sorted(map(int, refs)) == list(MASTER_SEEDS)
        for entry in refs.values():
            assert entry["stats"]["link.frames"] > 0
