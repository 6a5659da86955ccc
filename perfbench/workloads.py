"""The benchmark's workloads: shipped experiment configs run through semcom's
public entry points, one master seed per repetition.

Each workload is a closed loop in one process: a repetition starts when the
previous one has returned. The program sees only the master seed.
"""

from __future__ import annotations

import math
import os
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from semcom import config, csa, dataset, harness

from tracer import Phase, no_phase

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Master seeds with stored references. A workload seed picks its order.
MASTER_SEEDS = tuple(range(32))

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def master_seeds(workload_seed: int):
    """Endless, reproducible sequence of master seeds for one workload seed."""
    order = random.Random(workload_seed).sample(MASTER_SEEDS, len(MASTER_SEEDS))
    while True:
        yield from order


@dataclass
class Outputs:
    csvs: dict[str, str]  # file name -> text, as the CLI would write it
    stats: dict[str, int | None]  # simulated statistics checked in every run
    rounds: int  # logged rounds completed, all arms


def _test_size(spec) -> int:
    return len(dataset.generate_synthetic(spec)[0].test)


class Sweep:
    """``configs/sweep.ini`` as shipped, at a fixed worker count."""

    group = "sweep"
    configs = ("sweep.ini",)
    throughput = ("cells_per_s", "cells/s")

    def __init__(self, name: str, workers: Callable[[], int]) -> None:
        self.name = name
        self.workers = workers

    def load(self, master_seed: int):
        cfg = config.load_config(str(CONFIGS / "sweep.ini"), master_seed)
        return replace(cfg, experiment=replace(cfg.experiment, workers=self.workers()))

    def run(self, cfg, phase: Phase = no_phase) -> Outputs:
        with phase("sweep"):
            result = harness.run_sweep(cfg)
        return Outputs({"sweep.csv": result.csv()}, {}, 0)

    def expected_calls(self, cfg) -> dict[tuple[str, str], int]:
        """Config-derived calls per repetition that a traced run must see."""
        if cfg.experiment.workers > 1:
            return {("sweep", "harness.run_sweep"): 1}
        ex = cfg.experiment
        jobs = len(ex.k_presets) * ex.trials
        cells = jobs * len(ex.channels) * len(ex.psnr_grid_db)
        frames = math.ceil(_test_size(cfg.dataset) / ex.eval_frame)
        return {
            ("sweep", "dtjscc.train_dtjscc"): jobs,
            ("sweep", "harness.evaluate_through_channel"): cells,
            ("sweep", "dtjscc.transmit"): cells * ex.eval_repetitions * frames,
        }


class Adapt:
    """Adaptation with meta-learning on, the same config frozen, then the race."""

    name = "adapt"
    group = "adapt"
    configs = ("csa.ini", "race.ini")
    throughput = ("rounds_per_s", "rounds/s")

    def load(self, master_seed: int):
        return (
            config.load_config(str(CONFIGS / "csa.ini"), master_seed),
            config.load_config(str(CONFIGS / "race.ini"), master_seed),
        )

    def run(self, cfgs, phase: Phase = no_phase) -> Outputs:
        csa_cfg, race_cfg = cfgs
        with phase("adapt.csa_meta"):
            meta_logs, _ = harness.run_csa_experiment(csa_cfg, meta_enabled=True)
        with phase("adapt.csa_frozen"):
            frozen_logs, _ = harness.run_csa_experiment(csa_cfg, meta_enabled=False)
        with phase("adapt.race"):
            race = harness.run_round_race(race_cfg)
        arms = (meta_logs, frozen_logs, race.csa_logs, race.fedavg_logs)
        names = ("csa_rounds.csv", "csa_static_rounds.csv", "race_csa_rounds.csv", "race_fedavg_rounds.csv")
        target = csa_cfg.csa.target_accuracy
        return Outputs(
            {name: harness.roundlog_csv(logs) for name, logs in zip(names, arms)},
            {
                "csa.rounds_to_target": csa.rounds_to_target(meta_logs, target, "ut"),
                "csa_static.rounds_to_target": csa.rounds_to_target(frozen_logs, target, "ut"),
                "race.csa_rounds": race.csa_rounds,
                "race.fedavg_rounds": race.fedavg_rounds,
            },
            sum(len({entry.round_index for entry in logs}) for logs in arms),
        )

    def expected_calls(self, cfgs) -> dict[tuple[str, str], int]:
        csa_cfg, race_cfg = cfgs
        frames = math.ceil(_test_size(csa_cfg.dataset) / csa_cfg.experiment.eval_frame)
        race_frames = math.ceil(_test_size(race_cfg.dataset) / race_cfg.experiment.eval_frame)
        arm = csa_cfg.csa.rounds * (1 + frames)
        race = race_cfg.csa.rounds * (1 + race_frames) + race_cfg.fedavg.rounds * race_frames
        return {
            ("adapt.csa_meta", "dtjscc.transmit"): arm,
            ("adapt.csa_frozen", "dtjscc.transmit"): arm,
            ("adapt.race", "dtjscc.transmit"): race,
            ("adapt.csa_meta", "harness.build_csa_scenario"): 1,
            ("adapt.csa_frozen", "harness.build_csa_scenario"): 1,
            ("adapt.race", "harness.build_csa_scenario"): 2,
        }


WORKLOADS = {
    w.name: w
    for w in (Sweep("sweep-serial", lambda: 1), Sweep("sweep-pool", nproc), Adapt())
}
