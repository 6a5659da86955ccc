"""Golden digests: the exact bytes every file-writing subcommand produces.

Reruns are checked against each other elsewhere; this file checks them
against stored answers, so a change that shifts a random stream or the order
of a floating-point reduction fails here even when it stays self-consistent.
The configs are tiny and the seed is fixed. When a change alters outputs on
purpose, rerecord with ``PYTHONPATH=src python tests/test_golden.py`` and say
why in the change log.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from semcom import blas
from semcom.cli import main

SEED = 5

# Per-symbol-faded QPSK with four blocks per image, as configs/sweep.ini;
# thirty test images in frames of 4, so the last frame is short.
SWEEP_INI = """
[dataset]
per_class_count = 20
[channel]
modulation = 4psk
per_symbol = true
[dtjscc]
epochs = 4
blocks = 4
[sweep]
k_presets = 32,64
psnr_grid = 0,8
trials = 1
eval_repetitions = 2
eval_frame = 4
"""

# Block-faded 16APSK, one block per image; frames of 7 over thirty test images.
CONFUSION_INI = """
[dataset]
per_class_count = 20
[channel]
kinds = leo_rayleigh
[dtjscc]
epochs = 4
[sweep]
eval_repetitions = 2
eval_frame = 7
eval_psnr_db = 6
"""

# Drifted second epoch, scarce labels and a fresh terminal classifier, as
# configs/race.ini; csa, fedavg and race all read it.
ROUNDS_INI = """
[dataset]
per_class_count = 20
temporal_drift = 2.0
[dtjscc]
epochs = 4
[sweep]
eval_frame = 3
[csa]
rounds = 3
fresh_ut_classifier = true
target_accuracy = 0.3
[fedavg]
rounds = 3
scarce_per_class = 2
"""

# Seventy scenes of an odd shape with negative texture, drift and a
# non-default noise level; gen-data reads it. No trained product enters
# these bytes, so they do not depend on the BLAS kernel.
GEN_DATA_INI = """
[dataset]
per_class_count = 7
height = 5
width = 3
bands = 6
noise_sigma = 0.37
texture_amplitude = -1.7
temporal_drift = 0.9
class_separation = 2.2
"""

# Run name -> (subcommand, config, extra arguments).
RUNS = {
    "gen-data": ("gen-data", GEN_DATA_INI, []),
    "linkbudget": ("linkbudget", None, []),
    "sweep": ("sweep", SWEEP_INI, []),
    "confusion": ("confusion", CONFUSION_INI, []),
    "train": ("train", CONFUSION_INI, []),
    "csa": ("csa", ROUNDS_INI, []),
    "csa-static": ("csa", ROUNDS_INI, ["--no-meta"]),
    "fedavg": ("fedavg", ROUNDS_INI, []),
    "race": ("race", ROUNDS_INI, []),
}

# The OpenBLAS kernel (``blas.core_name()``) the digests were recorded under;
# the trained products, and so the files, round differently under others.
RECORDED_CORE = "SkylakeX"

GOLDEN = {
    'confusion': {
        'confusion.csv': '6f48112f12e3ad60b4d2b53210633bdcd4408c3863205c1228c345d12cd549fd',
    },
    'csa': {
        'csa_rounds.csv': '1db5e6d2778a934045ff9cdd880a303b792bb3471c53f5cac7ae1873dfa7ad20',
    },
    'csa-static': {
        'csa_static_rounds.csv': '1c4e4d51f9fcf672e89d7ce1d83020dd664c9b7e01f8d5001a2e4e8624564f6b',
    },
    'fedavg': {
        'fedavg_rounds.csv': '67f1c91b6f23c141cc785072c28b408e2abff35afe4ab80b781752ef0b65b434',
    },
    'gen-data': {
        'summary.csv': 'bc357c87905b1a0ef3df333a5974f108491722549a98599219b3ab5a5eb9636f',
        't0_test.msit': 'ad0efb4d7a334cedcf43c248bd87532ccd33d78383da82d72fb07fc2d458bcdc',
        't0_train.msit': '915a5b685dd478be773c277bd9252c61893ff9605149a0be6a7b30aed00b6087',
        't0_val.msit': '715a2e0e99ea404315c0998e9fef470223c09f5e4d704efe023d1abe8afb8457',
        't1_test.msit': '52b966ce4d8d641e5d89f622fed0d155a01036092c0106eac791b70081b9d703',
        't1_train.msit': '2d5abd985a9ca91995b19c04bdec6d25edea07f7d2b67b7fa959670deb71fc81',
        't1_val.msit': 'cc9161559d463b6334b82bd5e539bd64db117c200e80daaff40d2b090c71215c',
    },
    'linkbudget': {
        'isl_linkbudget.csv': '7c7d0128e28e0420ff010bf96a4f443bf1d1fc748c4c18504dd6071d4f6aa7fc',
        'linkbudget.csv': 'f93ff1951af8e36a00dc98aba4704200417a5cb990fb7547c8222491a0099616',
    },
    'race': {
        'csa_rounds.csv': '5239e9cce38d6b0820fef03bd13d3d24dd5e35bd18f95dd25fae0f61c6d5cd10',
        'fedavg_rounds.csv': '371680808419cf9fb15df1d6a96afad5f9e9b67d77d88f6d9a4c5fbd6ff5db92',
    },
    'sweep': {
        'sweep.csv': 'df7080fccf6cc2004b0ee66ddf78ff19c193d6ad877130154810a0ac35d1af2b',
    },
    'train': {
        'bundle/classifier.mnn1': 'd8b70a09a50a31490ad5667d088a468af8fe739ec506b9acaeaab1268f06fbd2',
        'bundle/codebook.mcb1': '765acbb743dec7c441a1c7e7c5ce7be5efdaf08b308685c02c94717c688dcabb',
        'bundle/covariance.mnn1': '1c435ab7030d032ba55bbab856ea0c963cbd72224cb890e5641df1c544cfb4dd',
        'bundle/encoder.mnn1': 'c4014049215f862ee3c2c5d27358a612220c3147df0e62d88004676772a9e269',
        'history.csv': '6336fd3efd309300e76690f0a87aa2a6978b0aa7eee64de09f51f21d80b87eae',
    },
}


def run_digests(name: str, tmp: Path) -> dict[str, str]:
    """Run one subcommand and hash every data, CSV and model file it wrote."""
    command, ini, extra = RUNS[name]
    out = tmp / "out"
    argv = [command, "--seed", str(SEED), "--out", str(out)] + extra
    if ini is not None:
        path = tmp / "golden.ini"
        path.write_text(ini)
        argv += ["--config", str(path)]
    if main(argv) != 0:
        raise RuntimeError(f"semcom {' '.join(argv)} failed")
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.suffix != ".svg"
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_stored_digests(name, tmp_path):
    digests = run_digests(name, tmp_path)
    assert digests == GOLDEN[name], (
        f"digests recorded under the {RECORDED_CORE} BLAS kernel; this run used {blas.core_name()}"
    )


if __name__ == "__main__":
    import tempfile

    print(f"RECORDED_CORE = {blas.core_name()!r}", file=sys.stderr)
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            found = run_digests(run, Path(tmp))
        print(f"    {run!r}: {{", file=sys.stderr)
        for csv_name, digest in found.items():
            print(f"        {csv_name!r}: {digest!r},", file=sys.stderr)
        print("    },", file=sys.stderr)
