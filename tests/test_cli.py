"""Command-line entry points: exit codes and artifact files."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import semcom
from semcom.cli import main
from semcom.config import load_config
from semcom.dataset import read_tensor_file
from semcom.geometry import LINK_REPORT_CSV_HEADER

from conftest import DIVERGING_INI


COMMANDS = ["linkbudget", "gen-data", "train", "sweep", "csa", "fedavg", "race", "confusion"]


@pytest.fixture()
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(
        "[dataset]\nper_class_count = 8\n"
        "[dtjscc]\nepochs = 2\n"
        "[sweep]\nk_presets = 32\npsnr_grid = 0,8\ntrials = 1\neval_repetitions = 1\neval_frame = 2\n"
        "[csa]\nrounds = 2\n"
        "[fedavg]\nrounds = 2\n"
    )
    return str(path)


class TestExitCodes:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_fails(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0

    def test_runtime_errors_map_to_two(self, tmp_path, capsys):
        (tmp_path / "linkbudget.csv").mkdir()
        code = main(["linkbudget", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_an_unreadable_config_file_exits_one_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path / "probe.ini"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b"\xff[linkbudget]\n")
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {str(path)!r}: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestDivergence:
    """A diverged adaptation exits 2 naming the round and the step-size key, and writes nothing."""

    @pytest.mark.parametrize("command", ["csa", "race"])
    def test_exit_two_names_round_and_key(self, tmp_path, tiny_ini, command, capsys):
        ini = tmp_path / "diverge.ini"
        ini.write_text(Path(tiny_ini).read_text().replace("[csa]\n", "[csa]\ninner_lr = 10000\n"))
        out = tmp_path / "out"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: round 0: inner loss ")
        assert err.rstrip().endswith("at csa.inner_lr = 10000.0")
        assert "Traceback" not in err
        assert not out.exists()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "section,key,value,shown",
        [
            ("csa", "rounds", "0", "0"),
            ("fedavg", "rounds", "0", "0"),
            ("sweep", "trials", "0", "0"),
            ("sweep", "workers", "0", "0"),
            ("sweep", "eval_frame", "0", "0"),
            ("sweep", "eval_repetitions", "-1", "-1"),
            ("sweep", "psnr_grid", "nan,4", "nan"),
            ("sweep", "train_psnr_db", "inf", "inf"),
            ("sweep", "eval_psnr_db", "-inf", "-inf"),
            ("csa", "isl_psnr_db", "nan", "nan"),
            ("sweep", "psnr_grid", "0,-4000", "-4000.0"),
            ("sweep", "train_psnr_db", "4000", "4000.0"),
            ("csa", "eval_psnr_db", "3090", "3090.0"),
            ("dataset", "per_class_count", "4", "4"),
            ("dataset", "per_class_count", "0", "0"),
            ("dataset", "height", "0", "0"),
            # Each image dimension is a u16 field of the MSIT container.
            ("dataset", "height", "70000", "70000"),
            ("dataset", "width", "65536", "65536"),
            ("dataset", "bands", "65536", "65536"),
            # The record count, an MNN1 layer size and MCB1's dim are u32 fields.
            ("dataset", "per_class_count", "500000000", "500000000"),
            ("dtjscc", "encoder_hidden", "5000000000", "5000000000"),
            ("dtjscc", "feature_dim", "4294967312", "4294967312"),
            ("dtjscc", "k", "48", "48"),
            ("dtjscc", "k", "1099511627776", "1099511627776"),
            ("sweep", "k_presets", "32,1099511627776", "1099511627776"),
            ("channel", "modulation", "1099511627776psk", "'1099511627776psk'"),
            ("dtjscc", "blocks", "3", "3"),
            ("csa", "lambda", "-1", "-1.0"),
            ("csa", "warmup_fraction", "2", "2.0"),
            ("sweep", "trials", "3.5", "'3.5'"),
            ("channel", "per_symbol", "ture", "'ture'"),
            ("sweep", "kinds", "leo_rician,leo_rayleig", "'leo_rayleig'"),
            ("csa", "downlink_kind", "leo_rican", "'leo_rican'"),
            ("channel", "modulation", "16qam", "'16qam'"),
            ("fedavg", "shards", "iidd", "'iidd'"),
            ("dtjscc", "batch_size", "0", "0"),
            ("dtjscc", "feature_dim", "0", "0"),
            ("dtjscc", "epochs", "0", "0"),
            ("dtjscc", "learning_rate", "nan", "nan"),
            ("linkbudget", "carrier_ghz", "-1", "-1.0"),
            ("linkbudget", "altitude_km", "0", "0.0"),
            ("linkbudget", "elevation_deg", "0", "0.0"),
            ("linkbudget", "elevation_deg", "1e-322", "1e-322"),
            ("linkbudget", "isl_distance_km", "0", "0.0"),
            ("fedavg", "clients", "0", "0"),
            ("fedavg", "batch_size", "0", "0"),
            ("csa", "reference_batch", "0", "0"),
            ("csa", "inner_lr", "nan", "nan"),
            ("csa", "inner_lr", "inf", "inf"),
            ("csa", "meta_lr", "-0.1", "-0.1"),
            ("fedavg", "learning_rate", "nan", "nan"),
            ("fedavg", "learning_rate", "0", "0.0"),
            ("channel", "rician_factor", "-1", "-1.0"),
            ("channel", "rician_factor", "nan", "nan"),
            ("channel", "rician_factor", "inf", "inf"),
            # Once ran with an inter-satellite link that erased every frame, and exited 0.
            ("channel", "rician_factor", "0", "0.0"),
            ("dataset", "noise_sigma", "-1", "-1.0"),
            ("dataset", "noise_sigma", "nan", "nan"),
            ("dataset", "temporal_drift", "nan", "nan"),
            ("dtjscc", "encoder_hidden", "0", "0"),
            ("fedavg", "local_epochs", "0", "0"),
            ("linkbudget", "sat_antenna_gain_db", "nan", "nan"),
            ("linkbudget", "atmospheric_loss_db", "inf", "inf"),
            ("linkbudget", "scintillation_loss_db", "-inf", "-inf"),
            ("linkbudget", "shadow_db", "nan", "nan"),
            ("csa", "lambda", "nan", "nan"),
            ("csa", "lambda", "inf", "inf"),
            ("channel", "apsk_ring_ratio", "nan", "nan"),
            ("channel", "apsk_ring_ratio", "inf", "inf"),
            ("channel", "apsk_ring_ratio", "0", "0.0"),
            ("dataset", "class_separation", "nan", "nan"),
            ("dataset", "class_separation", "inf", "inf"),
            ("dataset", "class_separation", "0", "0.0"),
            ("dataset", "texture_amplitude", "nan", "nan"),
            ("dataset", "texture_amplitude", "-inf", "-inf"),
            ("dataset", "noise_sigma", "inf", "inf"),
            ("dataset", "temporal_drift", "inf", "inf"),
            ("sweep", "k_presets", "32,48", "48"),
            ("sweep", "k_presets", "1", "1"),
            ("fedavg", "clients", "11", "11"),
            # The rest of each value is more keys of the same section.
            ("fedavg", "clients", "30\nshards = iid\nscarce_per_class = 2", "30"),
            ("fedavg", "clients", "701\nshards = iid", "701"),
            ("dtjscc", "codebook_weight", "nan", "nan"),
            ("dtjscc", "codebook_weight", "-1", "-1.0"),
            ("dtjscc", "commitment_weight", "nan", "nan"),
            ("dtjscc", "commitment_weight", "-0.5", "-0.5"),
            ("dtjscc", "patience", "-3", "-3"),
            ("dtjscc", "patience", "0", "0"),
            ("csa", "target_accuracy", "nan", "nan"),
            ("csa", "target_accuracy", "0", "0.0"),
            ("csa", "target_accuracy", "1.5", "1.5"),
            ("fedavg", "scarce_per_class", "-3", "-3"),
            ("sweep", "k_presets", "32,64,32", "32 twice"),
            ("sweep", "psnr_grid", "4,8,4.0", "4.0 twice"),
            ("sweep", "kinds", "awgn,awgn", "'awgn' twice"),
            ("linkbudget", "sat_antenna_gain_db", "1e308", "1e+308"),
            ("linkbudget", "shadow_db", "-1e308", "-1e+308"),
            ("linkbudget", "carrier_ghz", "1e-300", "1e-300"),
            ("linkbudget", "isl_distance_km", "1e-300", "1e-300"),
            ("linkbudget", "altitude_km", "1e-300", "1e-300"),
            ("linkbudget", "carrier_ghz", "1e300", "1e+300"),
            ("channel", "apsk_ring_ratio", "1.2e154", "1.2e+154"),
            ("channel", "apsk_ring_ratio", "1e200", "1e+200"),
            ("dataset", "texture_amplitude", "1e308", "1e+308"),
            ("dataset", "texture_amplitude", "-1e308", "-1e+308"),
            ("dataset", "class_separation", "1e308", "1e+308"),
            ("dataset", "noise_sigma", "1e308", "1e+308"),
            ("dataset", "temporal_drift", "1e308", "1e+308"),
        ],
    )
    def test_bad_value_exits_one_naming_key_and_value(
        self, tmp_path, capsys, section, key, value, shown
    ):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        code = main(["csa", "--config", str(ini), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{section}.{key}" in err
        assert f"got {shown}\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.2e154", "1e200"])
    def test_an_oversized_ring_ratio_is_named_first(self, tmp_path, capsys, ratio):
        """Once blamed on channel.modulation (1.2e154) or an OverflowError with exit 2 (1e200)."""
        ini = tmp_path / "ring.ini"
        ini.write_text(f"[channel]\napsk_ring_ratio = {ratio}\n")
        out = tmp_path / "out"
        assert main(["csa", "--config", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: channel.apsk_ring_ratio ")
        assert err.endswith(f"got {float(ratio)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_per_class_count_past_the_largest_float_exits_one_naming_it(self, tmp_path, capsys, command):
        """Once exited 2 with "int too large to convert to float", from every subcommand."""
        ini = tmp_path / "big.ini"
        ini.write_text(f"[dataset]\nper_class_count = {10**400}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: dataset.per_class_count must not exceed the largest float, got {10**400}\n"
        )
        assert not out.exists()

    def test_gen_data_rejects_a_texture_that_overflows_float32(self, tmp_path, capsys):
        """Once wrote .msit files whose pixels were all infinite, and exited 0."""
        ini = tmp_path / "texture.ini"
        ini.write_text("[dataset]\ntexture_amplitude = 1e308\n")
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(ini), "--out", str(out)]) == 1
        assert "dataset.texture_amplitude" in capsys.readouterr().err
        assert not out.exists()

    def test_a_zero_meta_rate_loads(self, tmp_path):
        """``meta_lr = 0`` freezes the covariance predictor; a negative rate stays refused."""
        (tmp_path / "frozen.ini").write_text("[csa]\nmeta_lr = 0\n")
        assert load_config(str(tmp_path / "frozen.ini")).csa.meta_learning_rate == 0.0

    def test_kinds_moved_to_sweep(self, tmp_path, capsys):
        ini = tmp_path / "kinds.ini"
        ini.write_text("[channel]\nkinds = awgn\n")
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(ini), "--out", str(out)]) == 1
        assert "unknown key channel.kinds" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_slant_mode_is_an_unknown_key(self, tmp_path, capsys):
        ini = tmp_path / "slant.ini"
        ini.write_text("[linkbudget]\nslant_mode = corrected\n")
        out = tmp_path / "out"
        assert main(["linkbudget", "--config", str(ini), "--out", str(out)]) == 1
        assert "unknown key linkbudget.slant_mode" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_seed_variable_exits_one_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMCOM_SEED", "abc")
        out = tmp_path / "out"
        assert main(["linkbudget", "--out", str(out)]) == 1
        assert "SEMCOM_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag_below_one_exits_one(self, tmp_path, tiny_ini, capsys):
        code = main(["sweep", "--config", tiny_ini, "--workers", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "sweep.workers must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestBadOut:
    """An --out that can never be a directory is refused before any work:
    exit 1, one line naming it, nothing created and nothing trained."""

    @pytest.mark.parametrize("kind", ["empty", "file", "under-a-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_exits_one_before_training(self, tmp_path, monkeypatch, capsys, command, kind):
        from semcom import dtjscc, harness

        def never(*args, **kwargs):
            raise AssertionError("trained despite a bad --out")

        monkeypatch.setattr(dtjscc, "train_dtjscc", never)
        monkeypatch.setattr(harness, "train_dtjscc", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept")
        out = {"empty": "", "file": "file", "under-a-file": os.path.join("file", "out")}[kind]
        assert main([command, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out must name a directory, got {out!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept"


class TestDivergedPretraining:
    """A NaN epoch loss stops every command that trains at once: exit 2, one
    line naming the step size, and no output directory."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train"],
            ["sweep"],
            ["sweep", "--workers", "2"],
            ["confusion"],
            ["csa"],
            ["csa", "--no-meta"],
            ["fedavg"],
            ["race"],
        ],
        ids=" ".join,
    )
    def test_exits_two_naming_the_step_size(self, tmp_path, argv, capsys):
        """Overflow on the way to the NaN loss raises no RuntimeWarning, even one made an error."""
        (tmp_path / "nan.ini").write_text(DIVERGING_INI)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--config", str(tmp_path / "nan.ini"), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 0 (loss nan) at dtjscc.learning_rate = 0.05\n"
        )
        assert not (tmp_path / "out").exists()


class TestTrainCommand:
    # Trains to chance under every recorded BLAS kernel: the step size blows
    # the epoch-0 loss up and the codebook collapses.
    CHANCE_INI = "[dataset]\nper_class_count = 20\n[dtjscc]\nepochs = 15\nlearning_rate = 5\n"

    def test_no_convergence_exits_three_after_writing_the_bundle(self, tmp_path, capsys):
        ini = tmp_path / "chance.ini"
        ini.write_text(self.CHANCE_INI)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="within margin of chance"):
            code = main(["train", "--config", str(ini), "--out", str(out)])
        assert code == 3
        assert "val top1 0.1000 (did not converge)" in capsys.readouterr().out
        assert (out / "history.csv").is_file()
        assert sorted(p.name for p in (out / "bundle").iterdir()) == [
            "classifier.mnn1",
            "codebook.mcb1",
            "encoder.mnn1",
        ]


class TestLinkBudgetCommand:
    def test_writes_parseable_tables(self, tmp_path, capsys):
        out = str(tmp_path / "lb")
        assert main(["linkbudget", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "176.956" in stdout
        ground = (tmp_path / "lb" / "linkbudget.csv").read_text().splitlines()
        isl = (tmp_path / "lb" / "isl_linkbudget.csv").read_text().splitlines()
        assert ground[0] == LINK_REPORT_CSV_HEADER
        row = dict(zip(ground[0].split(","), ground[1].split(",")))
        assert float(row["fspl_db"]) == pytest.approx(176.956, abs=1e-3)
        assert float(row["zeta_db"]) == pytest.approx(142.756, abs=1e-3)
        isl_row = dict(zip(isl[0].split(","), isl[1].split(",")))
        assert float(isl_row["total_db"]) == pytest.approx(187.414, abs=1e-3)


class TestDataCommand:
    def test_generates_loadable_containers(self, tmp_path, tiny_ini):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", tiny_ini, "--out", str(out)]) == 0
        for tag in ("t0", "t1"):
            for part in ("train", "val", "test"):
                ds = read_tensor_file((out / f"{tag}_{part}.msit").read_bytes())
                assert len(ds) > 0
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("class,")

    def test_seed_changes_pixels(self, tmp_path, tiny_ini):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["gen-data", "--config", tiny_ini, "--seed", "1", "--out", str(out_a)]) == 0
        assert main(["gen-data", "--config", tiny_ini, "--seed", "2", "--out", str(out_b)]) == 0
        a = (out_a / "t0_train.msit").read_bytes()
        b = (out_b / "t0_train.msit").read_bytes()
        assert a != b

    def test_same_seed_is_byte_identical(self, tmp_path, tiny_ini):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["gen-data", "--config", tiny_ini, "--seed", "3", "--out", str(out_a)])
        main(["gen-data", "--config", tiny_ini, "--seed", "3", "--out", str(out_b)])
        assert (out_a / "t0_train.msit").read_bytes() == (out_b / "t0_train.msit").read_bytes()


class TestScarcePerClass:
    """The key caps the t_1 pool of every round loop; the frozen loop never samples it."""

    @pytest.mark.parametrize(
        "argv,log,moves",
        [
            (["csa"], "csa_rounds.csv", True),
            (["fedavg"], "fedavg_rounds.csv", True),
            (["csa", "--no-meta"], "csa_static_rounds.csv", False),
        ],
    )
    def test_round_log_follows_the_key(self, tmp_path, tiny_ini, argv, log, moves):
        texts = []
        for scarce in (0, 2):
            ini = tmp_path / f"scarce{scarce}.ini"
            ini.write_text(Path(tiny_ini).read_text() + f"scarce_per_class = {scarce}\n")
            out = tmp_path / f"out{scarce}"
            assert main([*argv, "--config", str(ini), "--out", str(out)]) == 0
            texts.append((out / log).read_bytes())
        assert (texts[0] != texts[1]) == moves


def run_fresh(code: str, *argv: str) -> str:
    """Run ``code`` in a fresh interpreter from the source tree; its stdout."""
    src = str(Path(semcom.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, cwd=src, timeout=120
    )
    return done.stdout


def test_import_loads_no_network_or_process_modules():
    """``import semcom`` pulls in neither the XML/HTTP stack nor multiprocessing."""
    heavy = (
        "xml.sax", "urllib.request", "http.client", "ssl", "email",
        "concurrent.futures", "multiprocessing",
    )
    probe = (
        "import sys; before = set(sys.modules); import semcom; "
        f"print(','.join(m for m in {heavy!r} if m in set(sys.modules) - before))"
    )
    assert run_fresh(probe).strip() == ""


def test_settings_load_without_numpy():
    """``semcom.config`` and every shipped config load on the standard library alone."""
    configs = sorted(str(p) for p in (Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    probe = (
        "import sys; from semcom.config import load_config\n"
        "for path in sys.argv[1:]: load_config(path, 5)\n"
        "print(len(sys.argv) - 1, 'numpy' in sys.modules)"
    )
    assert run_fresh(probe, *configs).splitlines()[-1] == f"{len(configs)} False"


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_numpy_ma(tiny_ini, tmp_path, command):
    """The duplicate-codeword check once called ``np.unique(axis=0)``, whose
    first call imports ``numpy.ma`` in every process that trains."""
    probe = "import sys; from semcom.cli import main; code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    argv = [command, "--config", tiny_ini, "--out", str(tmp_path / "out")]
    assert run_fresh(probe, *argv).splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "argv,ini,code",
    [
        (["--help"], None, 0),
        ([], None, 1),
        (["frobnicate"], None, 1),
        (["csa", "--workers", "2"], None, 1),
        (["csa", "--config"], "[channel]\nmodulation = 1099511627776psk\n", 1),
        (["train", "--config"], "[fedavg]\nclients = 0\n", 1),
        (["linkbudget", "--config"], "[channel]\nmodulation = 65536psk\n", 0),
        (["linkbudget", "--config", "no-such-config.ini", "--out", "no-such-out"], None, 1),
        (["train", "--out", ""], None, 1),
    ],
    ids=[
        "help", "no-command", "unknown-command", "unknown-option", "bad-modulation", "bad-value", "linkbudget",
        "missing-config", "empty-out",
    ],
)
def test_commands_that_compute_nothing_never_import_numpy(tmp_path, argv, ini, code):
    if ini is not None:
        (tmp_path / "probe.ini").write_text(ini)
        argv = [*argv, str(tmp_path / "probe.ini"), "--out", str(tmp_path / "out")]
    probe = "import sys; from semcom.cli import main; code = main(sys.argv[1:]); print(code, 'numpy' in sys.modules)"
    assert run_fresh(probe, *argv).splitlines()[-1] == f"{code} False"
