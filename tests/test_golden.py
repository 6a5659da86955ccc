"""Golden digests: the exact bytes every file-writing subcommand produces.

Reruns are checked against each other elsewhere; this file checks them
against stored answers, so a change that shifts a random stream or the order
of a floating-point reduction fails here even when it stays self-consistent.
The configs are tiny and the seed is fixed. When a change alters outputs on
purpose, rerecord with ``PYTHONPATH=src python tests/test_golden.py`` and say
why in the change log.

The trained products round differently under each OpenBLAS kernel and each
numpy SIMD dispatch target, so the digests are keyed on that pair.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from semcom import blas
from semcom.cli import main

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

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
[dtjscc]
epochs = 4
[sweep]
kinds = leo_rayleigh
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

# Digests under the OpenBLAS kernel ``SkylakeX`` (``blas.core_name()``) and
# the numpy dispatch target ``AVX512_SPR`` (``dispatch_target()``).
GOLDEN = {
    'confusion': {
        'confusion.csv': '6f48112f12e3ad60b4d2b53210633bdcd4408c3863205c1228c345d12cd549fd',
    },
    'csa': {
        'csa_rounds.csv': '5239e9cce38d6b0820fef03bd13d3d24dd5e35bd18f95dd25fae0f61c6d5cd10',
    },
    'csa-static': {
        'csa_static_rounds.csv': '1c4e4d51f9fcf672e89d7ce1d83020dd664c9b7e01f8d5001a2e4e8624564f6b',
    },
    'fedavg': {
        'fedavg_rounds.csv': '371680808419cf9fb15df1d6a96afad5f9e9b67d77d88f6d9a4c5fbd6ff5db92',
    },
    'gen-data': {
        'summary.csv': 'bc357c87905b1a0ef3df333a5974f108491722549a98599219b3ab5a5eb9636f',
        't0_test.msit': '068f4899f3ed41820d0a663cd14d100265a9976e58c9489c10687ba14c720ee8',
        't0_train.msit': '541072d5a61c8a0ff7eb283d9783e3f5641aa35b83de4e63b3e510af00a9d1cb',
        't0_val.msit': 'ef57719b78073e1e04ab99de171f550da10406bb62f09831482bb5dbc176f079',
        't1_test.msit': '61bc2b1ed29943c5de9c0c4a76d31fb5ce1c81b78941b8c0d4f681d98d8c9e24',
        't1_train.msit': 'f4833bc0858d9eef72bfaea1cdc24e7eaf6f1291a3ed9ea10dbad5cbc9f071bb',
        't1_val.msit': '1b16c8d688c2819e65d041a8a1b98a3afbd036ed6ed173df3319fe441fb1b7bb',
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
        'sweep.svg': '1c472e4569f2b39fb3387ea79d59b11aae96e3e66265e271d1e490d17149aa08',
    },
    'train': {
        'bundle/classifier.mnn1': 'd8b70a09a50a31490ad5667d088a468af8fe739ec506b9acaeaab1268f06fbd2',
        'bundle/codebook.mcb1': '765acbb743dec7c441a1c7e7c5ce7be5efdaf08b308685c02c94717c688dcabb',
        'bundle/encoder.mnn1': 'c4014049215f862ee3c2c5d27358a612220c3147df0e62d88004676772a9e269',
        'history.csv': '6336fd3efd309300e76690f0a87aa2a6978b0aa7eee64de09f51f21d80b87eae',
    },
}


# numpy dispatch targets that gave the same bytes as each other under every
# recorded kernel: exp and log round one way on the three AVX-512 targets and
# another on X86_V3 and the X86_V2 baseline. Each pair was recorded on its own.
AVX512_TARGETS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
AVX2_TARGETS = ("X86_V3", "X86_V2")

# Files whose digests differ from GOLDEN's under each other recorded kernel,
# with an AVX512_TARGETS dispatch target. Record a set with
# ``OPENBLAS_CORETYPE=<kernel> PYTHONPATH=src python tests/test_golden.py``
# (add ``NPY_DISABLE_CPU_FEATURES`` to pick a dispatch target) and file it
# under the pair that prints.
KERNEL_DIGESTS = {
    "SkylakeX": {},
    'Haswell': {
        'csa': {
            'csa_rounds.csv': 'e31df9738307626933bfdb56e7ed1b322be74dd98acddf942645cebed2793504',
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
            'csa_rounds.csv': '9137ae852f12697fc72cdb0c65b2bb7f38106f9d08cd0e9471090d6f8aea370c',
        },
        'csa-static': {
            'csa_static_rounds.csv': '6dbfb7a7877b5007788bfae2fcd4e7ac24c96c0db35fa1f1a585745de876fda9',
        },
        'fedavg': {
            'fedavg_rounds.csv': '630029b93abe1aecf7d5ff151e65d5fdf80555eb244ea202e88751a6ca3f3f6c',
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
            'csa_rounds.csv': '6779d74907072c8247dd3d937d5d6a2ccac194f88811fd98c1f780a03953ee8e',
        },
        'csa-static': {
            'csa_static_rounds.csv': 'cbf13fe64eee058c076b79050814fe0be8c850ea361d189ad2cc58ca709cb6f0',
        },
        'fedavg': {
            'fedavg_rounds.csv': '20cc1c551e70c5a9af0a8fc38369d213190db7d5b97467a3560f0532c9c4c950',
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

# The same, with an AVX2_TARGETS dispatch target
# (``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` here).
AVX2_KERNEL_DIGESTS = {
    'SkylakeX': {
        'csa': {
            'csa_rounds.csv': '92c7ef2709f995357c9c0d7cf950bf9a2874a5dad515548f20f813f1d468616b',
        },
        'race': {
            'csa_rounds.csv': '92c7ef2709f995357c9c0d7cf950bf9a2874a5dad515548f20f813f1d468616b',
        },
        'train': {
            'bundle/classifier.mnn1': '5e8ffd7f32f7bcaf74a9190cd062bba6bb806d2829fc59e0b29aafd9a5e997d7',
            'bundle/codebook.mcb1': 'e721701f4fe22263b165f9a35208a8d40ae17f14d2fb94be89315526b3ccc465',
            'bundle/encoder.mnn1': '40714f70bbfc831f6950680ffb1de0a98984cffea4884521015de3f6289618fe',
            'history.csv': '378ed0343433d47c59e7f364794e8cb13ff36805bc28e663c71c671a9ba3b3d1',
        },
    },
    'Haswell': {
        'csa': {
            'csa_rounds.csv': 'b2a240b3ff3849b02099789084f7f764e3b6edcdf0cc90ee101da27391f2d8d1',
        },
        'race': {
            'csa_rounds.csv': 'b2a240b3ff3849b02099789084f7f764e3b6edcdf0cc90ee101da27391f2d8d1',
        },
        'train': {
            'bundle/classifier.mnn1': '4a3f3604b8c6ae7f90d49390fed5be47a7992a19f2ad981f728117a17638c64a',
            'bundle/codebook.mcb1': 'bbf6155acbafc3d55338dfed87771d93a724ddb8670b960a767cee750c1bedc1',
            'bundle/encoder.mnn1': 'c2f102ec99cec9da62c1a8f5d0dcb4f64aaa0fec119250f66578208d75c10ce8',
            'history.csv': '5477e071ae28552b1066101a68516995123abce3eb2123d6b9f22f3452cacd8c',
        },
    },
    'Sandybridge': {
        'csa': {
            'csa_rounds.csv': '6cb74ccac4a36e064c5adb9f51a60f65149f52bc0ab2dea74e3bec1adebbf03c',
        },
        'csa-static': {
            'csa_static_rounds.csv': '6dbfb7a7877b5007788bfae2fcd4e7ac24c96c0db35fa1f1a585745de876fda9',
        },
        'fedavg': {
            'fedavg_rounds.csv': '8521cd6cf857b0161ddc440447c7f35f7b99098e24db9dd162a41865b0803afd',
        },
        'race': {
            'csa_rounds.csv': '6cb74ccac4a36e064c5adb9f51a60f65149f52bc0ab2dea74e3bec1adebbf03c',
            'fedavg_rounds.csv': '8521cd6cf857b0161ddc440447c7f35f7b99098e24db9dd162a41865b0803afd',
        },
        'train': {
            'bundle/classifier.mnn1': '7716454253c773ae0d39f518614c07e25908b107968aa25e6a676ece69ac36d5',
            'bundle/codebook.mcb1': '408fe28cb9709b6f80c1f4a64ba894035f80f0238fed1b4e211c64f2cc5a83aa',
            'bundle/encoder.mnn1': 'e3764a0d7aab4747d68df11b23aae9e08b051223a173c4a663b7759c8f3d3faa',
            'history.csv': 'a29c2e1bfc6cfce6410d727a3ae5227253b92ceeda69c98b1b384b16bf80c2c8',
        },
    },
    'Katmai': {
        'csa': {
            'csa_rounds.csv': '50732c3805e97a4649aefafd39faa904f0d525799358fd86733e1c1239276dfa',
        },
        'csa-static': {
            'csa_static_rounds.csv': '70e7768823393ac328a16b16df2c3e5da94912b5fe604723f972b2ead778c92a',
        },
        'fedavg': {
            'fedavg_rounds.csv': '88fa0c21b0cfe2985c746d9584298eb3bfb61dab0e1a9b650e00e9ca5e0b397d',
        },
        'race': {
            'csa_rounds.csv': '50732c3805e97a4649aefafd39faa904f0d525799358fd86733e1c1239276dfa',
            'fedavg_rounds.csv': '88fa0c21b0cfe2985c746d9584298eb3bfb61dab0e1a9b650e00e9ca5e0b397d',
        },
        'train': {
            'bundle/classifier.mnn1': 'b38ec5ff2a4bee051b2778ea06dbf63b5a238b10a970a1e7036a5907bee3f862',
            'bundle/codebook.mcb1': '1c4f07fb8b11ea9de823e00af8d2d3efedc971243aaa54b66d411c79488a4532',
            'bundle/encoder.mnn1': '5e80217616ff4b44a1a7bbc3699b98e1b4f17e8a0ade66fedd1245d9f7ef9671',
            'history.csv': 'efb94657ed961197f148e719c8abb2590abbfd084f5fda14aeff6b3a1ef1d394',
        },
    },
}

# (OpenBLAS kernel, numpy dispatch target) -> files whose digests differ from GOLDEN's.
RECORDED = {
    (core, target): digests
    for targets, per_kernel in ((AVX512_TARGETS, KERNEL_DIGESTS), (AVX2_TARGETS, AVX2_KERNEL_DIGESTS))
    for core, digests in per_kernel.items()
    for target in targets
}


def dispatch_target() -> str:
    """numpy's highest enabled SIMD dispatch target, or its last baseline one."""
    enabled = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
    return enabled[-1] if enabled else _umath.__cpu_baseline__[-1]


def run_digests(name: str, tmp: Path) -> dict[str, str]:
    """Run one subcommand and hash every file it wrote."""
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
        if p.is_file()
    }


def expected_digests(name: str, key: tuple[str | None, str]) -> dict[str, str]:
    """GOLDEN's digests for run ``name``, with the recorded differences of ``key`` applied."""
    return {**GOLDEN[name], **RECORDED[key].get(name, {})}


def describe(key: tuple[str | None, str]) -> str:
    return f"the {key[0]} BLAS kernel and numpy dispatch target {key[1]}"


def unrecorded_message(key: tuple[str | None, str]) -> str:
    recorded = ", ".join(f"{core}/{target}" for core, target in RECORDED)
    return f"no digests recorded under {describe(key)}; recorded: {recorded}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_stored_digests(name, tmp_path):
    key = (blas.core_name(), dispatch_target())
    assert key in RECORDED, unrecorded_message(key)
    found = run_digests(name, tmp_path)
    assert found == expected_digests(name, key), f"digests differ from those recorded under {describe(key)}"


def test_an_unrecorded_pair_is_named_in_the_failure():
    message = unrecorded_message(("Nehalem", "X86_V3"))
    assert message.startswith("no digests recorded under the Nehalem BLAS kernel and numpy dispatch target X86_V3;")
    assert "Haswell/X86_V3" in message and "SkylakeX/AVX512_SPR" in message
    assert ("SkylakeX", "X86_V3") in RECORDED and ("Nehalem", "X86_V3") not in RECORDED


if __name__ == "__main__":
    import tempfile

    # Under SkylakeX and AVX512_SPR this prints GOLDEN; under another pair,
    # that pair's entry: the files whose digests differ from GOLDEN's.
    key = (blas.core_name(), dispatch_target())
    base = {} if key == ("SkylakeX", "AVX512_SPR") else GOLDEN
    print(f"{key!r}: {{", file=sys.stderr)
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
