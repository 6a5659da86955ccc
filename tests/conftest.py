"""Shared fixtures: a small trained pipeline reused across test modules."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from semcom import dtjscc, nn
from semcom.config import DatasetSpec, DtjsccConfig, HarnessConfig, LinkBudget, load_config
from semcom.dataset import generate_synthetic
from semcom.dtjscc import TrainedSystem, train_dtjscc

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# At master seed 0, pixels near 1e20 overflow the first forward pass and
# every epoch loss of the pretraining is NaN.
DIVERGING_INI = (
    "[dataset]\ntexture_amplitude = 1e20\nper_class_count = 20\n[dtjscc]\nepochs = 4\n[csa]\nrounds = 2\n"
)
# Usable link budgets whose fields are drawn as ints and as floats.
LINK_BUDGETS = st.builds(
    LinkBudget,
    carrier_ghz=st.one_of(st.integers(1, 100), st.floats(0.5, 100.0)),
    altitude_km=st.one_of(st.integers(200, 2000), st.floats(200.0, 2000.0)),
    elevation_deg=st.one_of(st.integers(1, 90), st.floats(1.0, 90.0)),
    sat_antenna_gain_db=st.one_of(st.integers(0, 50), st.floats(0.0, 50.0)),
    atmospheric_loss_db=st.one_of(st.integers(0, 5), st.floats(0.0, 5.0)),
    scintillation_loss_db=st.one_of(st.integers(0, 5), st.floats(0.0, 5.0)),
    shadow_db=st.one_of(st.integers(-3, 10), st.floats(-3.0, 10.0)),
    isl_distance_km=st.one_of(st.integers(100, 5000), st.floats(100.0, 5000.0)),
)
EASY_SPEC = DatasetSpec(per_class_count=30, class_separation=3.0, seed=11)
SMALL_TRAIN = DtjsccConfig(k=32, epochs=8, batch_size=32, seed=7)


def forget_training() -> None:
    """Empty train_dtjscc's memory of its last training, as a new process starts."""
    dtjscc._last_training = None


@pytest.fixture(autouse=True)
def _empty_training_cache():
    """Each test starts with no remembered training, so its train_dtjscc calls train."""
    forget_training()


@pytest.fixture
def trainings(monkeypatch):
    """One entry per training train_dtjscc really runs, rather than copies."""
    runs = []
    real = dtjscc._train_system

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(dtjscc, "_train_system", counted)
    return runs


@pytest.fixture(scope="session")
def small_splits():
    splits_t0, _ = generate_synthetic(EASY_SPEC)
    return splits_t0


@pytest.fixture(scope="session")
def small_system(small_splits) -> TrainedSystem:
    return train_dtjscc(small_splits, train_psnr_db=8.0, cfg=SMALL_TRAIN)


def tiny_harness_cfg(master_seed: int = 0, **sections) -> HarnessConfig:
    """Default config shrunk until a full experiment takes a few seconds.

    ``sections`` maps section name to a dict of dataclass field overrides,
    e.g. ``tiny_harness_cfg(experiment={"trials": 2})``.
    """
    cfg = load_config(None, master_seed=master_seed)
    cfg = dataclasses.replace(
        cfg,
        dataset=dataclasses.replace(cfg.dataset, per_class_count=30),
        dtjscc=dataclasses.replace(cfg.dtjscc, epochs=6),
        experiment=dataclasses.replace(
            cfg.experiment,
            k_presets=(32,),
            psnr_grid_db=(0.0, 8.0),
            trials=2,
            eval_repetitions=1,
            eval_frame=4,
        ),
        csa=dataclasses.replace(cfg.csa, rounds=4),
        fedavg=dataclasses.replace(cfg.fedavg, rounds=4),
    )
    for name, fields in sections.items():
        cfg = dataclasses.replace(
            cfg, **{name: dataclasses.replace(getattr(cfg, name), **fields)}
        )
    return cfg


def zeroed_network(sizes, activations) -> nn.Network:
    """All-zero parameters; a degenerate reference network for oracles."""
    return nn.Network(
        [
            nn.Layer(np.zeros((fi, fo)), np.zeros(fo), act)
            for fi, fo, act in zip(sizes, sizes[1:], activations)
        ]
    )
