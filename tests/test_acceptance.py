"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints one summary line (run with ``pytest -s`` to see them all) and
enforces its own wall-clock budget. The experiment-level checks load the same
INI files the command line documents, so a passing gate certifies the shipped
configurations, not a private variant.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from semcom import nn
from semcom.channel import apply_channel, noise_variance_from_psnr, sample_realization
from semcom.config import ChannelConfig, ChannelKind, LinkBudget, load_config
from semcom.csa import CovarianceMatrix, final_accuracy, sa_loss
from semcom.dtjscc import Codebook
from semcom.harness import run_csa_experiment, run_round_race, run_sweep
from semcom.modem import bits_to_ints, build_constellation, build_psk, demodulate_hard, modulate
from semcom.seeding import spawn_rng

from conftest import forget_training

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Per-round downlink Top-1 fluctuates with the fading draws, so a run is
# summarized by the mean of its last rounds rather than the single final one.
FINAL_WINDOW = 8


def report(criterion: str, elapsed: float, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS in {elapsed:.1f}s ({detail})")


def test_criterion_1_link_budget():
    start = time.perf_counter()
    budget = LinkBudget(carrier_ghz=28.0, altitude_km=600.0, elevation_deg=90.0, sat_antenna_gain_db=35.0)
    rep, _ = budget.reports()

    # Independent calculator: tabulated free-space constant, then the loss sum.
    fspl_reference = 32.45 + 20 * math.log10(28.0) + 20 * math.log10(600e3)
    total_reference = fspl_reference + 0.3 + 0.5

    assert rep.fspl_db == pytest.approx(176.956, abs=1e-3)
    assert rep.fspl_db == pytest.approx(fspl_reference, abs=1e-3)
    assert rep.total_db == pytest.approx(177.756, abs=1e-3)
    assert rep.total_db == pytest.approx(total_reference, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        "criterion 1 (link budget)",
        elapsed,
        f"fspl {rep.fspl_db:.3f} dB, total {rep.total_db:.3f} dB",
    )


def test_criterion_2_channel_statistics():
    start = time.perf_counter()
    n = 100_000
    rng = spawn_rng(0, "acc", "rician")
    rayleigh = ChannelConfig(kind=ChannelKind.LEO_RAYLEIGH)
    magnitudes = np.abs(
        np.fromiter(
            (sample_realization(rayleigh, rng) for _ in range(n)),
            dtype=np.complex128,
            count=n,
        )
    )
    reference = spawn_rng(1, "acc", "rayleigh").rayleigh(
        scale=math.sqrt(0.5), size=n
    )
    ks = stats.ks_2samp(magnitudes, reference)
    assert ks.pvalue > 0.01

    powers = {}
    for factor in (0.0, 2.8, 10.0):
        rng = spawn_rng(2, "acc", "power", factor)
        rician = ChannelConfig(kind=ChannelKind.LEO_RICIAN, rician_factor=factor)
        draws = np.fromiter(
            (sample_realization(rician, rng) for _ in range(60_000)),
            dtype=np.complex128,
            count=60_000,
        )
        powers[factor] = float(np.mean(np.abs(draws) ** 2))
        assert powers[factor] == pytest.approx(1.0, rel=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        "criterion 2 (channel statistics)",
        elapsed,
        f"KS p={ks.pvalue:.3f}, E|g|^2={', '.join(f'{k}:{v:.4f}' for k, v in powers.items())}",
    )


def test_criterion_3_modem_fidelity():
    start = time.perf_counter()
    for name in ("16psk", "16apsk"):
        c = build_constellation(name)
        bits = spawn_rng(0, "acc", "ber", name).integers(0, 2, size=400_000).astype(np.uint8)
        symbols, _ = modulate(bits, c)
        out = demodulate_hard(symbols, 1.0 + 0j, c)
        assert np.array_equal(out, bits), f"noiseless BER != 0 for {name}"

    c = build_psk(16)
    n_symbols = 1_000_000
    bits = spawn_rng(1, "acc", "ser").integers(0, 2, size=4 * n_symbols).astype(np.uint8)
    symbols, _ = modulate(bits, c)
    tx = bits_to_ints(bits, 4)
    observed = {}
    for es_n0_db in (10.0, 15.0):
        noise_variance = noise_variance_from_psnr(es_n0_db)
        received = apply_channel(symbols, 1.0, noise_variance, spawn_rng(2, "acc", "ser", es_n0_db))
        rx = bits_to_ints(demodulate_hard(received, 1.0 + 0j, c), 4)
        ser = float(np.mean(tx != rx))
        arg = math.sqrt(2 * 10 ** (es_n0_db / 10)) * math.sin(math.pi / 16)
        approx_ser = math.erfc(arg / math.sqrt(2))
        assert approx_ser / 2 < ser < approx_ser * 2, (es_n0_db, ser, approx_ser)
        observed[es_n0_db] = (ser, approx_ser)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        "criterion 3 (modem fidelity)",
        elapsed,
        "; ".join(
            f"{db} dB: ser {s:.4f} vs 2Q {q:.4f}" for db, (s, q) in observed.items()
        ),
    )


def numeric_gradient(fn, arr, eps=1e-6):
    grad = np.zeros_like(arr, dtype=np.float64)
    flat, out = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn()
        flat[i] = orig - eps
        down = fn()
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


def relative_error(analytic, numeric):
    denom = np.maximum(1e-4, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def test_criterion_4_gradient_integrity():
    start = time.perf_counter()
    worst_ce, worst_sa, worst_gap = 0.0, 0.0, 0.0
    for instance in range(10):
        rng = spawn_rng(instance, "acc", "grad")
        b, c, a = 8, 4, 6
        feats = rng.standard_normal((b, a))
        labels = rng.integers(0, c, size=b)
        weights = rng.standard_normal((c, a)) * 0.5
        biases = rng.standard_normal(c) * 0.1
        diag = rng.uniform(0.05, 1.5, size=(c, a))

        net = nn.init_network([a, 10, c], ["tanh", "linear"], seed=instance)
        err = nn.gradient_check(
            net,
            lambda out: nn.softmax_cross_entropy(out, labels),
            feats,
            probes=30,
            rng=spawn_rng(instance, "acc", "probes"),
        )
        worst_ce = max(worst_ce, err)
        assert err < 1e-5

        for lam in (0.0, 0.5, 2.0):

            def value():
                return sa_loss(feats, labels, weights, biases, CovarianceMatrix(diag.copy()), lam)[0]

            _, grads = sa_loss(feats, labels, weights, biases, CovarianceMatrix(diag.copy()), lam)
            for analytic, target in (
                (grads.features, feats),
                (grads.weights, weights),
                (grads.biases, biases),
                (grads.cov, diag),
            ):
                err = relative_error(analytic, numeric_gradient(value, target))
                worst_sa = max(worst_sa, err)
                assert err < 1e-5, (instance, lam)

        loss_sa, _ = sa_loss(feats, labels, weights, biases, CovarianceMatrix(diag), 0.0)
        loss_ce, _ = nn.softmax_cross_entropy(feats @ weights.T + biases, labels)
        worst_gap = max(worst_gap, abs(loss_sa - loss_ce))
        assert abs(loss_sa - loss_ce) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        "criterion 4 (gradient integrity)",
        elapsed,
        f"max rel err ce {worst_ce:.2e}, sa {worst_sa:.2e}, lambda0 gap {worst_gap:.1e}",
    )


def test_criterion_5_quantizer_oracle():
    start = time.perf_counter()
    agreements = {}
    for k in (32, 64, 128):
        rng = spawn_rng(k, "acc", "vq")
        codebook = Codebook(rng.standard_normal((k, 8)))
        vectors = rng.standard_normal((1000, 8))
        fast = codebook.nearest(vectors)
        exhaustive = np.empty(1000, dtype=np.int64)
        for i, v in enumerate(vectors):
            exhaustive[i] = int(np.argmin(((codebook.entries - v) ** 2).sum(axis=1)))
        agreements[k] = float(np.mean(fast == exhaustive))
        assert agreements[k] == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        "criterion 5 (quantizer oracle)",
        elapsed,
        f"agreement {agreements}",
    )


def test_criterion_6_accuracy_vs_psnr_trend():
    start = time.perf_counter()
    cfg = load_config(str(CONFIGS / "sweep.ini"), master_seed=0)
    assert cfg.experiment.psnr_grid_db == (0.0, 4.0, 8.0, 12.0, 16.0)
    assert cfg.experiment.trials == 5
    cfg = dataclasses.replace(
        cfg, experiment=dataclasses.replace(cfg.experiment, workers=4)
    )
    result = run_sweep(cfg)
    series = result.series()

    worst_rho = 1.0
    for (channel, k), points in series.items():
        psnr = [p for p, _ in points]
        top1 = [t for _, t in points]
        rho = float(stats.spearmanr(psnr, top1).statistic)
        worst_rho = min(worst_rho, rho)
        assert rho >= 0.9, (channel, k, points)

    min_margin = 1.0
    for k in cfg.experiment.k_presets:
        rician = dict(series[("leo_rician", k)])
        rayleigh = dict(series[("leo_rayleigh", k)])
        for psnr in cfg.experiment.psnr_grid_db:
            margin = rician[psnr] - rayleigh[psnr]
            min_margin = min(min_margin, margin)
            assert margin >= 0.0, (k, psnr, rician[psnr], rayleigh[psnr])
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        "criterion 6 (accuracy vs PSNR trend)",
        elapsed,
        f"min spearman {worst_rho:.3f}, min rician-rayleigh margin {min_margin:+.3f}",
    )


def test_criterion_7_adaptation_beats_frozen_baseline():
    start = time.perf_counter()
    deltas = []
    for seed in range(5):
        cfg = load_config(str(CONFIGS / "csa.ini"), master_seed=seed)
        assert cfg.experiment.train_psnr_db == 4.0
        assert cfg.csa.eval_psnr_db == 12.0
        adapted, _ = run_csa_experiment(cfg, meta_enabled=True)
        frozen, _ = run_csa_experiment(cfg, meta_enabled=False)
        deltas.append(
            final_accuracy(adapted, "ut", FINAL_WINDOW)
            - final_accuracy(frozen, "ut", FINAL_WINDOW)
        )
    mean_delta = float(np.mean(deltas))
    assert mean_delta >= 0.02, deltas
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    report(
        "criterion 7 (adaptation gain)",
        elapsed,
        f"mean delta {mean_delta:+.3f} over seeds 0-4 ({', '.join(f'{d:+.3f}' for d in deltas)})",
    )


def test_criterion_8_fewer_rounds_than_parameter_averaging():
    start = time.perf_counter()
    cfg = load_config(str(CONFIGS / "race.ini"), master_seed=0)
    race = run_round_race(cfg)
    assert race.csa_rounds is not None, "adaptation never reached the target"
    if race.fedavg_rounds is not None:
        assert race.csa_rounds < race.fedavg_rounds, (race.csa_rounds, race.fedavg_rounds)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    report(
        "criterion 8 (rounds to target)",
        elapsed,
        f"target {race.target}: adaptation {race.csa_rounds}, averaging {race.fedavg_rounds}",
    )


def test_criterion_9_byte_identical_reruns():
    start = time.perf_counter()
    base = load_config(str(CONFIGS / "sweep.ini"), master_seed=0)
    small = dataclasses.replace(
        base,
        dataset=dataclasses.replace(base.dataset, per_class_count=30),
        dtjscc=dataclasses.replace(base.dtjscc, epochs=5),
        experiment=dataclasses.replace(
            base.experiment,
            k_presets=(32,),
            psnr_grid_db=(0.0, 8.0, 16.0),
            trials=2,
            workers=1,
        ),
    )
    serial = run_sweep(small).csv()
    eight = dataclasses.replace(
        small, experiment=dataclasses.replace(small.experiment, workers=8)
    )
    forget_training()  # each rerun trains, as a new process would
    parallel = run_sweep(eight).csv()
    assert serial == parallel

    from semcom.harness import roundlog_csv

    csa_cfg = load_config(str(CONFIGS / "csa.ini"), master_seed=0)
    csa_cfg = dataclasses.replace(
        csa_cfg,
        dataset=dataclasses.replace(csa_cfg.dataset, per_class_count=30),
        dtjscc=dataclasses.replace(csa_cfg.dtjscc, epochs=5),
        csa=dataclasses.replace(csa_cfg.csa, rounds=6),
    )
    first, _ = run_csa_experiment(csa_cfg)
    forget_training()
    second, _ = run_csa_experiment(csa_cfg)
    assert roundlog_csv(first) == roundlog_csv(second)
    elapsed = time.perf_counter() - start
    report(
        "criterion 9 (determinism)",
        elapsed,
        f"sweep workers 1 vs 8 identical ({len(serial.splitlines()) - 1} rows), csa rerun identical",
    )
