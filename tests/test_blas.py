"""The one-thread BLAS scope: counts inside and after it, pool workers, bytes."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from semcom import blas, dataset, dtjscc, harness
from semcom.cli import main
from semcom.dataset import generate_synthetic

from conftest import forget_training, tiny_harness_cfg

needs_openblas = pytest.mark.skipif(not blas._controls(), reason="numpy does not use OpenBLAS")


def thread_counts() -> list[int]:
    return [get() for _, get in blas._controls()]


def set_threads(count: int) -> None:
    for set_fn, _ in blas._controls():
        set_fn(count)


@pytest.fixture()
def two_threads():
    """Start from two BLAS threads so that a pinned scope is visible."""
    before = thread_counts()
    set_threads(2)
    yield
    for (set_fn, _), count in zip(blas._controls(), before):
        set_fn(count)


class _Probe(Exception):
    pass


def _threads_in_sweep_job(job) -> list[int]:
    """Run ``_sweep_job`` in a worker and report the thread counts it trains with."""

    def probe(*args, **kwargs):
        raise _Probe(thread_counts())

    harness.train_dtjscc = probe  # this worker process only
    try:
        harness._sweep_job(job)
    except _Probe as seen:
        return seen.args[0]
    raise AssertionError("_sweep_job never trained")


@needs_openblas
class TestScope:
    def test_pins_and_restores(self, two_threads):
        with blas.single_thread():
            assert set(thread_counts()) == {1}
        assert set(thread_counts()) == {2}

    def test_nested_scopes_restore_the_outer_count(self, two_threads):
        with blas.single_thread():
            with blas.single_thread():
                assert set(thread_counts()) == {1}
            assert set(thread_counts()) == {1}
        assert set(thread_counts()) == {2}

    def test_restores_when_the_body_raises(self, two_threads):
        with pytest.raises(RuntimeError):
            with blas.single_thread():
                raise RuntimeError("boom")
        assert set(thread_counts()) == {2}

    def test_no_library_found_is_a_no_op(self, two_threads, monkeypatch):
        real = blas._controls()
        monkeypatch.setattr(blas, "_controls", lambda: ())
        with blas.single_thread():
            assert {get() for _, get in real} == {2}

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_train_on_one_thread(self, two_threads, method):
        cfg = tiny_harness_cfg()
        splits, _ = generate_synthetic(cfg.dataset)
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            seen = pool.submit(_threads_in_sweep_job, (cfg, splits, 32, 0)).result(timeout=120)
        assert seen and set(seen) == {1}


@needs_openblas
def test_core_name_reports_the_kernel_in_use():
    """OPENBLAS_CORETYPE forces a kernel at load time; ``core_name`` reports that one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "from semcom import blas; print(blas.core_name())"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "Haswell"


def test_lookup_without_openblas_finds_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_loaded_openblas_paths", lambda: ["/nonexistent/libopenblas.so"])
    assert blas._controls.__wrapped__() == ()
    assert blas.core_name() is None


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_bytes_do_not_depend_on_the_scope(workers, two_threads, monkeypatch):
    cfg = tiny_harness_cfg(master_seed=4, experiment={"workers": workers})
    with monkeypatch.context() as unpinned:
        unpinned.setattr(blas, "_controls", lambda: ())
        reference = harness.run_sweep(cfg).csv()
    forget_training()  # forked pool workers would copy the unpinned run's last system
    assert harness.run_sweep(cfg).csv() == reference


@needs_openblas
@pytest.mark.parametrize(
    "command,module,function", [("train", dtjscc, "train_dtjscc"), ("gen-data", dataset, "generate_synthetic")]
)
def test_commands_outside_the_harness_compute_on_one_thread(
    command, module, function, two_threads, tmp_path, monkeypatch
):
    """``semcom train`` and ``gen-data`` call no pinned harness entry point; the CLI pins them."""
    seen = []
    real = getattr(module, function)

    def probe(*args, **kwargs):
        seen.append(thread_counts())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, function, probe)
    ini = tmp_path / "tiny.ini"
    ini.write_text("[dataset]\nper_class_count = 8\n[dtjscc]\nepochs = 2\n")
    assert main([command, "--config", str(ini), "--out", str(tmp_path / "out")]) in (0, 3)
    assert seen and all(set(counts) == {1} for counts in seen)
    assert set(thread_counts()) == {2}
