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

# Digests under the OpenBLAS kernel ``SkylakeX`` (``blas.core_name()``).
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


# Files whose digests differ from GOLDEN's under each other recorded kernel,
# since the trained products round differently under each; a kernel missing
# here is checked against GOLDEN and named when that fails. Record a set with
# ``OPENBLAS_CORETYPE=<kernel> PYTHONPATH=src python tests/test_golden.py``
# and file it under the name that prints, which ``blas.core_name()`` returns.
KERNEL_DIGESTS = {
    "SkylakeX": {},
    'Haswell': {
        'csa': {
            'csa_rounds.csv': 'c121a752ad2434968b84945a47cd3076efc62e7796dfad5917bf7b9d070bb54b',
        },
        'race': {
            'csa_rounds.csv': 'e31df9738307626933bfdb56e7ed1b322be74dd98acddf942645cebed2793504',
        },
        'train': {
            'bundle/classifier.mnn1': '1599a27479e32b4df90b1e4581bc377c5c5ffb6cd38b56ad8b93d74b3c6bea72',
            'bundle/codebook.mcb1': 'b8fd4cf27fd2f75da6356172e56a51c8a3de069c04695c85d4c0171bacab6afd',
            'bundle/encoder.mnn1': 'b00e6f81aa71f7a46672c092e55cc72967c553be976b0b120fce263cb679d715',
            'history.csv': 'efb94657ed961197f148e719c8abb2590abbfd084f5fda14aeff6b3a1ef1d394',
        },
    },
    'Sandybridge': {
        'csa': {
            'csa_rounds.csv': 'd60851e82182734c42ec3da2b6c6526b556a6ee0f9f754b6680a9dd33969cb7e',
        },
        'csa-static': {
            'csa_static_rounds.csv': '6dbfb7a7877b5007788bfae2fcd4e7ac24c96c0db35fa1f1a585745de876fda9',
        },
        'fedavg': {
            'fedavg_rounds.csv': 'f7e91daeab2f75df6f95410bd63292dcb67db12dce8016f07c84cde7431fd6a7',
        },
        'race': {
            'csa_rounds.csv': '9137ae852f12697fc72cdb0c65b2bb7f38106f9d08cd0e9471090d6f8aea370c',
            'fedavg_rounds.csv': '630029b93abe1aecf7d5ff151e65d5fdf80555eb244ea202e88751a6ca3f3f6c',
        },
        'train': {
            'bundle/classifier.mnn1': '5fefaa6d98aa3ff3ef0c1b329176576112ce070f072f029e63b81af2db70ee82',
            'bundle/codebook.mcb1': '19304d2c5f76f919edd8b5c9fc31a9b0ae2f4214362edbce440f7a652b722b14',
            'bundle/encoder.mnn1': 'af0d0c830805b96f9133834ad1ea9a0de4639cc73b7f6d3c1e71290854b48964',
            'history.csv': 'a29c2e1bfc6cfce6410d727a3ae5227253b92ceeda69c98b1b384b16bf80c2c8',
        },
    },
    'Katmai': {
        'csa': {
            'csa_rounds.csv': 'c0caf89bd8c1cbeacf96eae6d7319241eac8255f4966a0e03575dd61169a46d9',
        },
        'csa-static': {
            'csa_static_rounds.csv': 'cbf13fe64eee058c076b79050814fe0be8c850ea361d189ad2cc58ca709cb6f0',
        },
        'fedavg': {
            'fedavg_rounds.csv': '117ff25985ba6bcc6d16ae85017f5fe01c8139470d6699579bce885c38a6a358',
        },
        'race': {
            'csa_rounds.csv': '6779d74907072c8247dd3d937d5d6a2ccac194f88811fd98c1f780a03953ee8e',
            'fedavg_rounds.csv': '20cc1c551e70c5a9af0a8fc38369d213190db7d5b97467a3560f0532c9c4c950',
        },
        'train': {
            'bundle/classifier.mnn1': '84c87591fb694dda366cb9c22882d4ec3d5bfe524e0248cf63817fc08efd91e2',
            'bundle/codebook.mcb1': '9c1b121e8ddd4c35e70791c38ec81a13890c6e7f17d7eb0fe1cbef9681971da5',
            'bundle/encoder.mnn1': '3a9d6f265720e609cb4f03e367b004a71c4b8560464ab1951913a5c250e10c8b',
            'history.csv': 'a29c2e1bfc6cfce6410d727a3ae5227253b92ceeda69c98b1b384b16bf80c2c8',
        },
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


def expected_digests(name: str, core: str | None) -> dict[str, str]:
    """GOLDEN's digests for run ``name``, with ``core``'s recorded differences applied."""
    return {**GOLDEN[name], **KERNEL_DIGESTS.get(core, {}).get(name, {})}


def mismatch_message(core: str | None) -> str:
    if core in KERNEL_DIGESTS:
        return f"digests differ from those recorded under the {core} BLAS kernel"
    return f"no digests recorded under the {core} BLAS kernel; recorded: {', '.join(KERNEL_DIGESTS)}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_stored_digests(name, tmp_path):
    core = blas.core_name()
    assert run_digests(name, tmp_path) == expected_digests(name, core), mismatch_message(core)


def test_an_unrecorded_kernel_is_named_in_the_failure():
    assert expected_digests("train", "Nehalem") == GOLDEN["train"]
    assert mismatch_message("Nehalem").startswith("no digests recorded under the Nehalem BLAS kernel")
    assert "Haswell" in mismatch_message("Haswell")


if __name__ == "__main__":
    import tempfile

    # Under SkylakeX this prints GOLDEN; under another kernel, that kernel's
    # KERNEL_DIGESTS entry: the files whose digests differ from GOLDEN's.
    core = blas.core_name()
    base = {} if core == "SkylakeX" else GOLDEN
    print(f"{core!r}: {{", file=sys.stderr)
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            found = run_digests(run, Path(tmp))
        differ = {f: d for f, d in found.items() if base.get(run, {}).get(f) != d}
        if differ:
            print(f"    {run!r}: {{", file=sys.stderr)
            for file_name, digest in differ.items():
                print(f"        {file_name!r}: {digest!r},", file=sys.stderr)
            print("    },", file=sys.stderr)
    print("},", file=sys.stderr)
