"""Experiment harness: config layer, sweeps, logs, scenario wiring."""

from __future__ import annotations

import configparser
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from semcom import config, harness
from semcom.channel import ChannelConfig, ChannelKind
from semcom.cli import main
from semcom.config import ConfigError, load_config
from semcom.csa import ROUNDLOG_CSV_HEADER, run_csa_end_to_end
from semcom.dataset import ClassCatalog, generate_synthetic
from semcom.harness import (
    CONFUSION_CSV_HEADER,
    SWEEP_CSV_HEADER,
    ConfusionMatrix,
    SweepResult,
    SweepRow,
    build_csa_scenario,
    emit_svg_plot,
    evaluate_through_channel,
    fedavg_client_shards,
    linkbudget_reports,
    parse_sweep_csv,
    restrict_t1_train,
    roundlog_csv,
    run_round_race,
    run_sweep,
    write_text,
)
from semcom.modem import build_constellation

from conftest import tiny_harness_cfg

DEFAULT_INI = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


class TestConfigLayer:
    def test_defaults(self):
        cfg = load_config(None, master_seed=3)
        assert cfg.experiment.modulation == "16apsk"
        assert cfg.experiment.psnr_grid_db == (0.0, 4.0, 8.0, 12.0, 16.0)
        assert cfg.experiment.rician_factor == 2.8
        assert cfg.experiment.train_psnr_db == 4.0
        assert cfg.experiment.eval_psnr_db == 12.0
        assert cfg.experiment.master_seed == 3
        assert cfg.csa.sa_lambda == 0.5
        assert cfg.csa.inner_steps == 3
        assert cfg.fedavg.clients == 2
        assert cfg.linkbudget.carrier_ghz == 28.0
        assert cfg.linkbudget.altitude_km == 600.0

    def test_ini_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nper_class_count = 12\ntemporal_drift = 1.25\n"
            "[channel]\nmodulation = 4psk\nper_symbol = true\nkinds = awgn,leo_rician\n"
            "[dtjscc]\nepochs = 3\nblocks = 4\n"
            "[sweep]\nk_presets = 32,64\npsnr_grid = 0,8\ntrials = 2\nworkers = 2\n"
            "[csa]\nlambda = 1.5\ninner_steps = 5\nmeta_lr = 0.01\n"
            "[fedavg]\nclients = 3\nscarce_per_class = 4\n"
            "[linkbudget]\nelevation_deg = 30\n"
        )
        cfg = load_config(str(ini), master_seed=1)
        assert cfg.dataset.per_class_count == 12
        assert cfg.dataset.temporal_drift == 1.25
        assert cfg.experiment.modulation == "4psk"
        assert cfg.experiment.per_symbol_fading is True
        assert cfg.experiment.channels == (ChannelKind.AWGN, ChannelKind.LEO_RICIAN)
        assert cfg.dtjscc.epochs == 3
        assert cfg.dtjscc.blocks == 4
        assert cfg.experiment.k_presets == (32, 64)
        assert cfg.experiment.psnr_grid_db == (0.0, 8.0)
        assert cfg.experiment.workers == 2
        assert cfg.csa.sa_lambda == 1.5
        assert cfg.csa.inner_steps == 5
        assert cfg.csa.meta_learning_rate == 0.01
        assert cfg.fedavg.clients == 3
        assert cfg.fedavg.scarce_per_class == 4
        assert cfg.linkbudget.elevation_deg == 30.0

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/path.ini")

    def test_default_ini_loads_to_the_defaults(self):
        assert load_config(str(DEFAULT_INI), 4) == load_config(None, 4)

    def test_default_ini_lists_every_accepted_key(self):
        parser = configparser.ConfigParser()
        parser.read(DEFAULT_INI)
        written = {(section, key) for section in parser.sections() for key in parser[section]}
        accepted = {
            (section, key) for section, (_, keys) in config._SECTIONS.items() for key in keys
        }
        assert written == accepted

    @pytest.mark.parametrize(
        "text,shown",
        [
            ("[chanel]\nkinds = awgn\n", "unknown section [chanel]; did you mean 'channel'?"),
            ("[sweep]\ntrails = 3\n", "unknown key sweep.trails; did you mean 'trials'?"),
            ("[dtjscc]\nepoch = 5\n", "unknown key dtjscc.epoch; did you mean 'epochs'?"),
            ("[DEFAULT]\nrounds = 3\n", "unknown section [DEFAULT]; valid: linkbudget, "),
            ("kinds = awgn\n", "File contains no section headers"),
        ],
        ids=["section", "key", "another-key", "default-section", "no-header"],
    )
    def test_unknown_names_exit_one_with_a_suggestion(self, tmp_path, capsys, text, shown):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(ini), "--out", str(out)]) == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key",
        [
            ("dtjscc", "seed"),
            ("dataset", "seed"),
            ("sweep", "master_seed"),
            ("dtjscc", "min_accuracy_margin"),
            ("sweep", "name"),
            ("linkbudget", "user_antenna_gain_db"),
            ("linkbudget", "shadow_sigma_db"),
        ],
    )
    def test_seeds_and_removed_options_are_rejected(self, tmp_path, section, key):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{key} = 5\n")
        with pytest.raises(ConfigError, match=f"unknown key {section}.{key}"):
            load_config(str(ini))

    @pytest.mark.parametrize(
        "text,value", [("on", True), ("YES", True), ("1", True), ("Off", False), ("no", False)]
    )
    def test_boolean_spellings(self, tmp_path, text, value):
        ini = tmp_path / "bool.ini"
        ini.write_text(f"[channel]\nper_symbol = {text}\n[csa]\nfresh_ut_classifier = {text}\n")
        cfg = load_config(str(ini))
        assert cfg.experiment.per_symbol_fading is value
        assert cfg.csa.fresh_ut_classifier is value


class TestLinkBudgetReports:
    def test_reference_numbers(self):
        cfg = load_config(None)
        ground, isl = linkbudget_reports(cfg.linkbudget)
        assert ground.breakdown.fspl_db == pytest.approx(176.956, abs=1e-3)
        assert ground.breakdown.total_db == pytest.approx(177.756, abs=1e-3)
        assert ground.zeta_db == pytest.approx(142.756, abs=1e-3)
        assert isl.breakdown.fspl_db == pytest.approx(187.414, abs=1e-3)
        assert isl.distance_km == 2000.0


class TestSweepCsv:
    def make_rows(self):
        return [
            SweepRow("leo_rician", "16apsk", 32, 0.0, 7, 0.28200000000000003),
            SweepRow("leo_rician", "16apsk", 32, 8.0, 7, 0.71),
            SweepRow("leo_rician", "16apsk", 32, 8.0, 8, 0.73),
        ]

    def test_round_trip_preserves_every_float_digit(self):
        result = SweepResult(self.make_rows())
        back = parse_sweep_csv(result.csv())
        assert back.rows == result.rows
        assert result.csv().splitlines()[0] == SWEEP_CSV_HEADER

    def test_series_averages_over_seeds(self):
        series = SweepResult(self.make_rows()).series()
        points = series[("leo_rician", 32)]
        assert points == [(0.0, 0.28200000000000003), (8.0, pytest.approx(0.72))]

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_sweep_csv("nope\n1,2,3\n")


@pytest.fixture(scope="module")
def sweep_cfg():
    return tiny_harness_cfg(master_seed=1)


@pytest.fixture(scope="module")
def sweep_result(sweep_cfg):
    return run_sweep(sweep_cfg)


class TestRunSweep:
    def test_grid_is_fully_populated(self, sweep_cfg, sweep_result):
        exp = sweep_cfg.experiment
        expected = len(exp.channels) * len(exp.k_presets) * len(exp.psnr_grid_db) * exp.trials
        assert len(sweep_result.rows) == expected
        assert sweep_result.rows == sorted(
            sweep_result.rows, key=lambda r: (r.channel, r.modulation, r.k, r.psnr_db, r.seed)
        )
        assert all(r.modulation == exp.modulation for r in sweep_result.rows)
        assert all(0.0 <= r.top1 <= 1.0 for r in sweep_result.rows)

    def test_worker_count_does_not_change_bytes(self, sweep_cfg, sweep_result, monkeypatch):
        specs = []

        def counting(spec):
            specs.append(spec)
            return generate_synthetic(spec)

        monkeypatch.setattr(harness, "generate_synthetic", counting)
        assert run_sweep(sweep_cfg).csv() == sweep_result.csv()
        assert specs == [sweep_cfg.dataset]  # one dataset shared by every job
        parallel = dataclasses.replace(
            sweep_cfg, experiment=dataclasses.replace(sweep_cfg.experiment, workers=2)
        )
        assert run_sweep(parallel).csv() == sweep_result.csv()

    def test_svg_plot_embeds_the_series_means(self, sweep_result, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg_plot(sweep_result, str(path))
        text = path.read_text()
        assert text.startswith("<svg")
        embedded = {
            (float(m.group(1)), float(m.group(2)))
            for m in re.finditer(r'data-psnr-db="([^"]+)" data-top1="([^"]+)"', text)
        }
        expected = {
            point for series in sweep_result.series().values() for point in series
        }
        assert embedded == expected


class TestConfusionMatrix:
    def test_counts_follow_pair_histogram(self):
        catalog = ClassCatalog(("a", "b", "c"))
        labels = np.array([0, 0, 1, 2, 2, 2])
        preds = np.array([0, 1, 1, 2, 0, 2])
        m = ConfusionMatrix.from_predictions(labels, preds, catalog)
        np.testing.assert_array_equal(
            m.counts, [[1, 1, 0], [0, 1, 0], [1, 0, 2]]
        )
        assert m.top1() == pytest.approx(4 / 6)

    def test_csv_percentages_sum_per_row(self):
        catalog = ClassCatalog(("x", "y"))
        m = ConfusionMatrix.from_predictions(
            np.array([0, 0, 1]), np.array([0, 1, 1]), catalog
        )
        lines = m.csv().strip().splitlines()
        assert lines[0] == CONFUSION_CSV_HEADER
        pct = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert pct[0] + pct[1] == pytest.approx(100.0)
        assert pct[2] + pct[3] == pytest.approx(100.0)


@pytest.fixture(scope="module")
def scenario_cfg():
    return tiny_harness_cfg(
        master_seed=2,
        dataset={"temporal_drift": 1.0},
        csa={"rounds": 3},
    )


@pytest.fixture(scope="module")
def scenario(scenario_cfg):
    return build_csa_scenario(scenario_cfg, meta_enabled=True)


class TestScenario:
    def test_wiring(self, scenario, scenario_cfg):
        assert scenario.isl_channel.kind is ChannelKind.ISL
        assert scenario.downlink_channel.kind is ChannelKind.LEO_RICIAN
        assert scenario.system.converged
        assert scenario.meta_enabled
        assert scenario.sa == scenario_cfg.csa

    def test_round_logs_structure(self, scenario, scenario_cfg):
        logs = run_csa_end_to_end(scenario, n_rounds=3)
        assert len(logs) == 6
        assert {entry.side for entry in logs} == {"sat2", "ut"}
        assert all(entry.bits_transmitted > 0 for entry in logs)
        assert all(0.0 <= entry.top1_accuracy <= 1.0 for entry in logs)
        text = roundlog_csv(logs)
        lines = text.strip().splitlines()
        assert lines[0] == ROUNDLOG_CSV_HEADER
        assert len(lines) == 7

    def test_evaluation_is_seed_deterministic(self, scenario, scenario_cfg):
        dataset = scenario.splits_t1.test
        channel_cfg = scenario.downlink_channel
        constellation = scenario.constellation
        a = evaluate_through_channel(
            scenario.system, dataset, constellation, channel_cfg, 12.0, seed=5, frame=4
        )
        b = evaluate_through_channel(
            scenario.system, dataset, constellation, channel_cfg, 12.0, seed=5, frame=4
        )
        c = evaluate_through_channel(
            scenario.system, dataset, constellation, channel_cfg, 12.0, seed=6, frame=4
        )
        assert a.top1 == b.top1
        np.testing.assert_array_equal(a.predictions, b.predictions)
        assert a.predictions.shape == c.predictions.shape

    def test_restrict_t1_train_caps_every_class(self, scenario):
        before = scenario.splits_t1.train.pixels.copy()
        scarce = restrict_t1_train(scenario, per_class=2, seed=0)
        assert scenario.splits_t1.train.pixels.tobytes() == before.tobytes()
        counts = np.bincount(scarce.splits_t1.train.labels)
        assert np.all(counts[counts > 0] <= 2)
        assert len(scarce.splits_t1.val) == len(scenario.splits_t1.val)
        assert len(scarce.splits_t1.test) == len(scenario.splits_t1.test)
        again = restrict_t1_train(scenario, per_class=2, seed=0)
        np.testing.assert_array_equal(
            scarce.splits_t1.train.pixels, again.splits_t1.train.pixels
        )

    def test_fedavg_shards_modes(self, scenario):
        disjoint = fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2)
        labels0 = set(disjoint[0].labels.tolist())
        labels1 = set(disjoint[1].labels.tolist())
        assert labels0.isdisjoint(labels1)
        total = len(disjoint[0].labels) + len(disjoint[1].labels)
        assert total == len(scenario.splits_t1.train)
        iid = fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2, mode="iid")
        spread0 = np.bincount(iid[0].labels, minlength=10)
        spread1 = np.bincount(iid[1].labels, minlength=10)
        assert np.all(np.abs(spread0 - spread1) <= 1)
        with pytest.raises(ValueError):
            fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2, mode="sorted")

    def test_shard_features_live_on_the_codebook_grid(self, scenario):
        shard = fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2)[0]
        blocks = scenario.system.blocks
        dim = scenario.system.codebook.dim
        entries = {tuple(np.round(e, 9)) for e in scenario.system.codebook.entries}
        sample = shard.vectors[:5]
        for row in sample:
            for b in range(blocks):
                assert tuple(np.round(row[b * dim : (b + 1) * dim], 9)) in entries


class TestRace:
    def test_structural_consistency(self):
        cfg = tiny_harness_cfg(
            master_seed=3,
            dataset={"temporal_drift": 1.0},
            csa={"rounds": 3, "fresh_ut_classifier": True, "target_accuracy": 0.3},
            fedavg={"rounds": 3, "scarce_per_class": 3},
        )
        race = run_round_race(cfg)
        assert race.target == 0.3
        assert len(race.fedavg_logs) == 3
        ut_entries = [e for e in race.csa_logs if e.side == "ut"]
        assert len(ut_entries) == 3
        if race.csa_rounds is not None:
            assert any(
                e.top1_accuracy >= 0.3 and e.round_index == race.csa_rounds
                for e in ut_entries
            )
        wins = race.csa_wins()
        assert isinstance(wins, bool)


class TestWriteText:
    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"
