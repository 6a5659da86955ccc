"""Experiment harness: config layer, sweeps, logs, scenario wiring."""

from __future__ import annotations

import concurrent.futures
import configparser
import dataclasses
import hashlib
import math
import re
import weakref
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

from semcom import config, harness
from semcom.cli import main, write_files
from semcom.config import EUROSAT_CLASS_NAMES, ChannelKind, ConfigError, HarnessConfig, load_config
from semcom.csa import ROUNDLOG_CSV_HEADER, rounds_to_target, run_csa_end_to_end
from semcom.dataset import SplitDatasets, generate_synthetic
from semcom.dtjscc import encode
from semcom.harness import (
    CONFUSION_CSV_HEADER,
    SWEEP_CSV_HEADER,
    ConfusionMatrix,
    SweepResult,
    SweepRow,
    build_csa_scenario,
    evaluate_through_channel,
    fedavg_client_shards,
    roundlog_csv,
    run_round_race,
    run_sweep,
    svg_text,
)
from semcom.seeding import spawn_rng

from conftest import forget_training, tiny_harness_cfg
from test_golden import ROUNDS_INI


def parse_sweep_csv(text: str) -> SweepResult:
    """Read a sweep CSV back into rows; the inverse of ``SweepResult.csv``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError("not a sweep CSV")
    rows = []
    for ln in lines[1:]:
        channel, modulation, k, psnr, seed, top1 = ln.split(",")
        rows.append(
            SweepRow(channel, modulation, int(k), float(psnr), int(seed), float(top1))
        )
    return SweepResult(rows)

DEFAULT_INI = Path(__file__).resolve().parents[1] / "configs" / "default.ini"

# (section, field) of every count and PSNR its settings class checks, and the
# values each must reject: 1e400 parses to inf, and +-4000 dB give a power
# ratio past a float's range.
COUNT_FIELDS = [
    ("experiment", "trials"),
    ("experiment", "workers"),
    ("experiment", "eval_frame"),
    ("experiment", "eval_repetitions"),
    ("csa", "rounds"),
    ("fedavg", "rounds"),
]
PSNR_FIELDS = [
    ("experiment", "psnr_grid_db"),
    ("experiment", "train_psnr_db"),
    ("experiment", "eval_psnr_db"),
    ("csa", "isl_psnr_db"),
    ("csa", "eval_psnr_db"),
]
BAD_PSNRS = [math.nan, -math.inf, math.inf, 1e400, 4000.0, -4000.0]


class TestConfigLayer:
    def test_defaults(self):
        cfg = load_config(None, master_seed=3)
        assert cfg.channel.modulation == "16apsk"
        assert cfg.experiment.psnr_grid_db == (0.0, 4.0, 8.0, 12.0, 16.0)
        assert cfg.channel.rician_factor == 2.8
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
            "[channel]\nmodulation = 4psk\nper_symbol = true\n"
            "[dtjscc]\nepochs = 3\nblocks = 4\n"
            "[sweep]\nkinds = awgn,leo_rician\nk_presets = 32,64\npsnr_grid = 0,8\ntrials = 2\nworkers = 2\n"
            "[csa]\nlambda = 1.5\ninner_steps = 5\nmeta_lr = 0.01\n"
            "[fedavg]\nclients = 3\nscarce_per_class = 4\n"
            "[linkbudget]\nelevation_deg = 30\n"
        )
        cfg = load_config(str(ini), master_seed=1)
        assert cfg.dataset.per_class_count == 12
        assert cfg.dataset.temporal_drift == 1.25
        assert cfg.channel.modulation == "4psk"
        assert cfg.channel.per_symbol_fading is True
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
        with pytest.raises(ConfigError, match=r"^cannot read config file '/nonexistent/path.ini': No such file"):
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
            ("[chanel]\nmodulation = 4psk\n", "unknown section [chanel]; did you mean 'channel'?"),
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
        assert cfg.channel.per_symbol_fading is value
        assert cfg.csa.fresh_ut_classifier is value

    @pytest.mark.parametrize(
        "section,name,bad",
        [(section, name, 0) for section, name in COUNT_FIELDS]
        + [(section, name, psnr) for section, name in PSNR_FIELDS for psnr in BAD_PSNRS],
    )
    def test_replace_checks_the_field_and_names_it(self, section, name, bad):
        cfg = load_config(None)
        value = (0.0, bad) if name == "psnr_grid_db" else bad
        with pytest.raises(ValueError) as info:
            dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **{name: value})})
        assert str(info.value).startswith(f"{name} must be ")

    def test_replace_checks_the_bounds_that_span_sections(self):
        cfg = load_config(None)
        with pytest.raises(ConfigError, match=r"^dataset\.per_class_count must give every"):
            dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, per_class_count=4))
        with pytest.raises(ConfigError, match=r"^fedavg\.clients must be at most 10 "):
            dataclasses.replace(cfg, fedavg=dataclasses.replace(cfg.fedavg, clients=11))

    @pytest.mark.parametrize("section", [f.name for f in dataclasses.fields(HarnessConfig)])
    def test_loaded_config_is_frozen(self, section):
        cfg = load_config(None)
        part = getattr(cfg, section)
        name = dataclasses.fields(part)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, name, getattr(part, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, section, part)

    @pytest.mark.parametrize(
        "sections,message",
        [
            ({"experiment": {"eval_repetitions": 0}}, "eval_repetitions must be at least 1, got 0"),
            ({"experiment": {"trials": 0}}, "trials must be at least 1, got 0"),
            ({"csa": {"rounds": 0}}, "rounds must be at least 1, got 0"),
        ],
        ids=["eval_repetitions", "trials", "csa-rounds"],
    )
    def test_unusable_counts_raise_when_built(self, sections, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_harness_cfg(**sections)


class TestLinkBudgetReports:
    def test_reference_numbers(self):
        cfg = load_config(None)
        ground, isl = cfg.linkbudget.reports()
        assert ground.fspl_db == pytest.approx(176.956, abs=1e-3)
        assert ground.total_db == pytest.approx(177.756, abs=1e-3)
        assert ground.zeta_db == pytest.approx(142.756, abs=1e-3)
        assert isl.fspl_db == pytest.approx(187.414, abs=1e-3)
        assert isl.distance_km == 2000.0

    def test_gain_past_float_range_is_rejected_at_load(self, tmp_path):
        """10^(-zeta/10) overflows a float near zeta = -3083 dB; the ground total is 177.8 dB."""
        ini = tmp_path / "gain.ini"
        ini.write_text("[linkbudget]\nsat_antenna_gain_db = 3000\n")
        ground, _ = load_config(str(ini)).linkbudget.reports()
        assert 1e282 < ground.zeta_linear < math.inf
        ini.write_text("[linkbudget]\nsat_antenna_gain_db = 3300\n")
        with pytest.raises(ConfigError, match=r"^linkbudget\.sat_antenna_gain_db .* got 3300\.0$"):
            load_config(str(ini))


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
        assert all(r.modulation == sweep_cfg.channel.modulation for r in sweep_result.rows)
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
        forget_training()  # pool workers fork with the memory; train as a new process would
        assert run_sweep(parallel).csv() == sweep_result.csv()

    def test_pool_never_starts_more_workers_than_jobs(self, sweep_cfg, sweep_result, monkeypatch):
        """A forked pool starts all its workers at once: ``workers = 5000`` once meant 5,000 processes."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        ex = sweep_cfg.experiment
        many = dataclasses.replace(sweep_cfg, experiment=dataclasses.replace(ex, workers=5000))
        assert run_sweep(many).csv() == sweep_result.csv()
        assert sizes == [len(ex.k_presets) * ex.trials] == [2]
        one_job = dataclasses.replace(sweep_cfg, experiment=dataclasses.replace(ex, workers=5000, trials=1))
        assert run_sweep(one_job).rows == [r for r in sweep_result.rows if r.seed == 0]
        assert sizes == [2]  # one job runs in this process, with no pool

    def test_svg_plot_embeds_the_series_means(self, sweep_result):
        text = svg_text(sweep_result)
        assert text.startswith("<svg")
        embedded = {
            (float(m.group(1)), float(m.group(2)))
            for m in re.finditer(r'data-psnr-db="([^"]+)" data-top1="([^"]+)"', text)
        }
        expected = {
            point for series in sweep_result.series().values() for point in series
        }
        assert embedded == expected

    def test_svg_legend_escapes_markup(self):
        name = "a&b<c>d"
        rows = [SweepRow(name, "16apsk", 32, psnr, 0, 0.5) for psnr in (0.0, 8.0)]
        text = svg_text(SweepResult(rows))
        assert f">{escape(name)} K=32</text>" in text
        assert ">a&amp;b&lt;c&gt;d K=32</text>" in text
        assert name not in text


class TestConfusionMatrix:
    def test_top1_is_trace_over_total(self):
        m = ConfusionMatrix(np.array([[1, 1, 0], [0, 1, 0], [1, 0, 2]]))
        assert m.top1() == 4 / 6
        assert ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)).top1() == 0.0

    def test_csv_percentages_sum_per_row(self):
        m = ConfusionMatrix(np.array([[1, 1], [0, 1]]))
        lines = m.csv().strip().splitlines()
        assert lines[0] == CONFUSION_CSV_HEADER
        pct = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert pct[0] + pct[1] == pytest.approx(100.0)
        assert pct[2] + pct[3] == pytest.approx(100.0)
        # A class with no test items gets 0.0 per cell.
        assert ConfusionMatrix(np.zeros((1, 1), dtype=np.int64)).csv() == CONFUSION_CSV_HEADER + "\nAnnualCrop,AnnualCrop,0,0.0\n"


def restrict_t1_train(splits: SplitDatasets, per_class: int, seed: int) -> SplitDatasets:
    """The labelled-pool cap as the race alone once drew it: the reference for
    ``build_csa_scenario``'s ``scarce_per_class`` draw."""
    t1 = splits.train
    rng = spawn_rng(seed, "scarce")
    keep: list[np.ndarray] = []
    for c in range(len(EUROSAT_CLASS_NAMES)):
        idx = np.flatnonzero(t1.labels == c)
        take = min(per_class, len(idx))
        if take:
            keep.extend(rng.choice(idx, size=take, replace=False))
    small = t1.subset(np.sort(np.asarray(keep, dtype=np.int64)))
    return SplitDatasets(small, splits.val, splits.test)


def dataset_bytes(dataset) -> tuple[bytes, bytes]:
    return dataset.pixels.tobytes(), dataset.labels.tobytes()


@pytest.fixture(scope="module")
def scenario_cfg():
    return tiny_harness_cfg(
        master_seed=2,
        dataset={"temporal_drift": 1.0},
        csa={"rounds": 3},
    )


@pytest.fixture(scope="module")
def scenario(scenario_cfg):
    return build_csa_scenario(scenario_cfg)


# sha256 of the untrained covariance predictor's weight and bias bytes, layer
# by layer, recorded from train_dtjscc's system when pretraining still built
# the predictor: the scenario must start every round loop from the same g.
PREDICTOR_DIGESTS = {
    ("ROUNDS_INI", 0): "de84e12e431d10cec997af7b646d5831c3e166ea3d2caca00fa0e1b3f22046d6",
    ("ROUNDS_INI", 5): "0e9c92defaf84b42a16e1c1065c341d93a1e159477d1de87026eb0f62756e893",
    ("csa.ini", 0): "de84e12e431d10cec997af7b646d5831c3e166ea3d2caca00fa0e1b3f22046d6",
    ("csa.ini", 5): "0e9c92defaf84b42a16e1c1065c341d93a1e159477d1de87026eb0f62756e893",
    ("race.ini", 0): "de84e12e431d10cec997af7b646d5831c3e166ea3d2caca00fa0e1b3f22046d6",
    ("race.ini", 5): "0e9c92defaf84b42a16e1c1065c341d93a1e159477d1de87026eb0f62756e893",
}


def predictor_digest(net) -> str:
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(layer.weights.tobytes())
        digest.update(layer.biases.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(PREDICTOR_DIGESTS))
def test_scenario_builds_the_recorded_covariance_predictor(name, seed, tmp_path):
    path = DEFAULT_INI.parent / name
    if name == "ROUNDS_INI":
        path = tmp_path / "rounds.ini"
        path.write_text(ROUNDS_INI)
    scenario = build_csa_scenario(load_config(str(path), seed))
    g = scenario.covariance_net
    assert [(layer.weights.shape, layer.activation) for layer in g.layers] == [
        ((16, 32), "relu"),
        ((32, 32), "relu"),
        ((32, 160), "softplus"),
    ]
    assert predictor_digest(g) == PREDICTOR_DIGESTS[name, seed]
    if name == "ROUNDS_INI":  # the round loop adapts copies and leaves the scenario's g as built
        run_csa_end_to_end(scenario)
        assert predictor_digest(g) == PREDICTOR_DIGESTS[name, seed]


class TestScenario:
    def test_wiring(self, scenario, scenario_cfg):
        assert scenario.isl_channel.kind is ChannelKind.ISL
        assert scenario.downlink_channel.kind is ChannelKind.LEO_RICIAN
        assert scenario.system.converged
        assert scenario.sa == scenario_cfg.csa

    def test_links_are_the_channel_settings_per_kind(self):
        """Both links carry ``[channel]``'s modulation; the inter-satellite one never fades per symbol."""
        cfg = tiny_harness_cfg(channel={"modulation": "4psk", "per_symbol_fading": True}, dtjscc={"epochs": 1})
        scenario = build_csa_scenario(cfg)
        isl = dataclasses.replace(cfg.channel, kind=ChannelKind.ISL, per_symbol_fading=False)
        assert scenario.isl_channel == isl
        assert scenario.downlink_channel == dataclasses.replace(cfg.channel, kind=cfg.csa.downlink_kind)
        assert scenario.downlink_channel.constellation.points.size == 4

    def test_round_logs_structure(self, scenario, scenario_cfg):
        logs = run_csa_end_to_end(
            dataclasses.replace(scenario, sa=dataclasses.replace(scenario.sa, rounds=3))
        )
        assert len(logs) == 6
        assert {entry.side for entry in logs} == {"sat2", "ut"}
        assert all(entry.bits_transmitted > 0 for entry in logs)
        assert all(0.0 <= entry.top1_accuracy <= 1.0 for entry in logs)
        text = roundlog_csv(logs)
        lines = text.strip().splitlines()
        assert lines[0] == ROUNDLOG_CSV_HEADER
        assert len(lines) == 7
        first = logs[0]
        named = (first.top1_accuracy, first.ce_loss, first.sa_loss)
        assert lines[1] == f"0,sat2,{','.join(repr(float(x)) for x in named)},{first.bits_transmitted}"

    def test_frozen_rounds_encode_the_evaluation_sets_once(
        self, scenario, scenario_cfg, monkeypatch
    ):
        """Round 0 encodes the reference batch, t_1 val and t_1 test; later
        frozen rounds only the reference batch. Averaging encodes its shards
        and the test set once."""
        frozen = dataclasses.replace(scenario, sa=dataclasses.replace(scenario.sa, rounds=4))
        calls = []

        def counting_encode(dataset, encoder):
            calls.append(len(dataset))
            return encode(dataset, encoder)

        monkeypatch.setattr("semcom.csa.encode", counting_encode)
        monkeypatch.setattr("semcom.harness.encode", counting_encode)
        run_csa_end_to_end(frozen, meta_enabled=False)
        assert len(calls) == 6
        calls.clear()
        harness.run_fedavg_experiment(
            dataclasses.replace(scenario_cfg, fedavg=dataclasses.replace(scenario_cfg.fedavg, rounds=4))
        )
        assert len(calls) == 2

    def test_evaluation_is_seed_deterministic(self, scenario, scenario_cfg):
        dataset = scenario.splits_t1.test
        channel_cfg = scenario.downlink_channel
        a = evaluate_through_channel(scenario.system, dataset, channel_cfg, 12.0, seed=5, repetitions=1, frame=4)
        b = evaluate_through_channel(scenario.system, dataset, channel_cfg, 12.0, seed=5, repetitions=1, frame=4)
        c = evaluate_through_channel(scenario.system, dataset, channel_cfg, 12.0, seed=6, repetitions=1, frame=4)
        assert a.top1() == b.top1()
        assert a.counts.tobytes() == b.counts.tobytes()
        per_class = np.bincount(dataset.labels, minlength=len(EUROSAT_CLASS_NAMES))
        np.testing.assert_array_equal(a.counts.sum(axis=1), per_class)
        np.testing.assert_array_equal(c.counts.sum(axis=1), per_class)

    def test_restrict_t1_train_caps_every_class(self, scenario, scenario_cfg):
        """``fedavg.scarce_per_class`` draws the pool ``restrict_t1_train`` drew,
        touches neither val nor test, and at 0 leaves the pool whole."""
        assert scenario_cfg.fedavg.scarce_per_class == 0
        whole = generate_synthetic(scenario_cfg.dataset)[1]
        assert dataset_bytes(scenario.splits_t1.train) == dataset_bytes(whole.train)
        scarce = build_csa_scenario(
            dataclasses.replace(scenario_cfg, fedavg=dataclasses.replace(scenario_cfg.fedavg, scarce_per_class=2))
        )
        reference = restrict_t1_train(scenario.splits_t1, 2, scenario.seed)
        assert dataset_bytes(scarce.splits_t1.train) == dataset_bytes(reference.train)
        assert np.bincount(scarce.splits_t1.train.labels).tolist() == [2] * len(EUROSAT_CLASS_NAMES)
        for part in ("val", "test"):
            assert dataset_bytes(getattr(scarce.splits_t1, part)) == dataset_bytes(getattr(whole, part))

    def test_fedavg_shards_modes(self, scenario):
        disjoint = fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2)
        labels0 = set(disjoint[0][1].tolist())
        labels1 = set(disjoint[1][1].tolist())
        assert labels0.isdisjoint(labels1)
        total = len(disjoint[0][1]) + len(disjoint[1][1])
        assert total == len(scenario.splits_t1.train)
        iid = fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2, mode="iid")
        spread0 = np.bincount(iid[0][1], minlength=10)
        spread1 = np.bincount(iid[1][1], minlength=10)
        assert np.all(np.abs(spread0 - spread1) <= 1)
        with pytest.raises(ValueError):
            fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2, mode="sorted")

    def test_shard_features_live_on_the_codebook_grid(self, scenario):
        vectors, _ = fedavg_client_shards(scenario.system, scenario.splits_t1.train, 2)[0]
        blocks = scenario.system.feature_dim // scenario.system.codebook.dim
        dim = scenario.system.codebook.dim
        entries = {tuple(np.round(e, 9)) for e in scenario.system.codebook.entries}
        for row in vectors[:5]:
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
        assert race.csa_rounds == rounds_to_target(race.csa_logs, 0.3, "ut")
        assert race.fedavg_rounds == rounds_to_target(race.fedavg_logs, 0.3, "server")

    @pytest.mark.parametrize("fresh", [False, True])
    def test_the_race_is_its_two_sides(self, fresh):
        cfg = tiny_harness_cfg(
            master_seed=3,
            dataset={"temporal_drift": 1.0},
            csa={"rounds": 3, "fresh_ut_classifier": fresh},
            fedavg={"rounds": 3, "scarce_per_class": 3},
        )
        race = run_round_race(cfg)
        assert roundlog_csv(race.csa_logs) == roundlog_csv(harness.run_csa_experiment(cfg)[0])
        assert roundlog_csv(race.fedavg_logs) == roundlog_csv(harness.run_fedavg_experiment(cfg))

    def test_both_sides_share_one_pretraining(self, monkeypatch, trainings):
        calls = []
        real = harness.train_dtjscc

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "train_dtjscc", counted)
        run_round_race(tiny_harness_cfg())
        assert (len(calls), len(trainings)) == (2, 1)

    def test_one_scenario_is_alive_at_a_time(self, monkeypatch):
        """The race once kept the adaptation side's scenario, both epochs of data
        included, while the averaging side built its own."""
        built, alive_at_build = [], []
        real = harness.build_csa_scenario

        def tracked(cfg):
            alive_at_build.append([ref() is not None for ref in built])
            scenario = real(cfg)
            built.append(weakref.ref(scenario))
            return scenario

        monkeypatch.setattr(harness, "build_csa_scenario", tracked)
        run_round_race(tiny_harness_cfg())
        assert alive_at_build == [[], [False]]


class TestWriteFiles:
    def test_makes_each_directory_and_writes_text_without_newline_translation(self, tmp_path):
        out = tmp_path / "deep" / "out"
        write_files(str(out), {"a.csv": "x\r\ny\n", "bundle/net.mnn1": b"\x00\n\r\xff"})
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == ["a.csv", "bundle", "bundle/net.mnn1"]
        assert (out / "a.csv").read_bytes() == b"x\r\ny\n"
        assert (out / "bundle" / "net.mnn1").read_bytes() == b"\x00\n\r\xff"
