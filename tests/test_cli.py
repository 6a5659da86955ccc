"""Command-line entry points: exit codes and artifact files."""

from __future__ import annotations

import pytest

from semcom.cli import main
from semcom.dataset import load_tensor_file
from semcom.geometry import LINK_REPORT_CSV_HEADER


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
        code = main(
            ["linkbudget", "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err.strip() != ""


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
            ("dtjscc", "k", "48", "48"),
            ("dtjscc", "blocks", "3", "3"),
            ("csa", "lambda", "-1", "-1.0"),
            ("csa", "warmup_fraction", "2", "2.0"),
            ("sweep", "trials", "3.5", "'3.5'"),
            ("channel", "per_symbol", "ture", "'ture'"),
            ("channel", "kinds", "leo_rician,leo_rayleig", "'leo_rayleig'"),
            ("csa", "downlink_kind", "leo_rican", "'leo_rican'"),
            ("channel", "modulation", "16qam", "'16qam'"),
            ("linkbudget", "slant_mode", "corected", "'corected'"),
            ("fedavg", "shards", "iidd", "'iidd'"),
            ("dtjscc", "batch_size", "0", "0"),
            ("dtjscc", "feature_dim", "0", "0"),
            ("dtjscc", "epochs", "0", "0"),
            ("dtjscc", "learning_rate", "nan", "nan"),
            ("linkbudget", "carrier_ghz", "-1", "-1.0"),
            ("linkbudget", "altitude_km", "0", "0.0"),
            ("linkbudget", "elevation_deg", "0", "0.0"),
            ("linkbudget", "isl_distance_km", "0", "0.0"),
            ("fedavg", "clients", "0", "0"),
            ("fedavg", "batch_size", "0", "0"),
            ("csa", "reference_batch", "0", "0"),
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
        assert not (tmp_path / "out" / "csa_rounds.csv").exists()

    def test_workers_flag_below_one_exits_one(self, tmp_path, tiny_ini, capsys):
        code = main(["sweep", "--config", tiny_ini, "--workers", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "sweep.workers must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


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
                ds = load_tensor_file(str(out / f"{tag}_{part}.msit"))
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
