"""Desk-scale simulator of task-oriented semantic links between LEO satellites
and ground terminals: link budgets, fading channels, a discrete joint
source-channel pipeline, and covariance-guided cross-node adaptation."""

__version__ = "0.1.0"

from .channel import ChannelConfig, ChannelKind
from .csa import CsaScenario, SAConfig, meta_step, run_csa_end_to_end, sa_loss
from .dataset import DatasetSpec, generate_synthetic
from .dtjscc import Codebook, DtjsccConfig, TrainedSystem, train_dtjscc
from .config import ExperimentConfig, HarnessConfig, load_config
from .geometry import LinkBudget, slant_range
from .harness import run_sweep
from .modem import Constellation, build_constellation
from .seeding import derive_seed, spawn_rng

__all__ = [
    "__version__",
    "ChannelConfig",
    "ChannelKind",
    "CsaScenario",
    "SAConfig",
    "meta_step",
    "run_csa_end_to_end",
    "sa_loss",
    "DatasetSpec",
    "generate_synthetic",
    "Codebook",
    "DtjsccConfig",
    "TrainedSystem",
    "train_dtjscc",
    "LinkBudget",
    "slant_range",
    "ExperimentConfig",
    "HarnessConfig",
    "load_config",
    "run_sweep",
    "Constellation",
    "build_constellation",
    "derive_seed",
    "spawn_rng",
]
