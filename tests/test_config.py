"""The settings layer: shipped configs load to fixed values, every range
rule rejects NaN and names its key, and the modulation grammar agrees with
the constellations the modem builds."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom import config, dataset, dtjscc, nn
from semcom.cli import main
from semcom.config import ChannelConfig, apsk16_radii, load_config, parse_modulation, require
from semcom.modem import build_constellation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# sha256 of repr(load_config(path, seed)) for each shipped config: every
# field value, derived seed and class name of the loaded settings. Recorded
# when [channel] got its own settings class; every value was checked, field by
# field, to equal the one loaded before, where ExperimentConfig held them.
CONFIG_REPR_DIGESTS = {
    ("csa.ini", 0): "832f08a2da9905dd96fa98297712da9efd5f75aa258bf09c64acd95d4674b88a",
    ("csa.ini", 5): "724854cbd39d3d1b87960e86229461a39c427689cba27670e5cd1b49ac7ed1fd",
    ("default.ini", 0): "38753afe66a759e7581a7eb7b319d4fc2fbc296ed474b2621d417c429cf3638a",
    ("default.ini", 5): "77455d31aa431dc59a96c086ab41d5c02893ee8602002204de30ca2ae4efab18",
    ("race.ini", 0): "f5013d815e4d28d5b49814e07d9a699d4fa52055dbd36c8e0c352af721e8677c",
    ("race.ini", 5): "1f366e58c98cfa27751b14cb5a8bef8f47b80aae54979769acd894854f5d612d",
    ("sweep.ini", 0): "4ba1e0349ebddfcd20911bf9301d75220573adaf875526e86fba280d827d7197",
    ("sweep.ini", 5): "53ab50ccba01e93eb32a406f97ae80cffa4ef1b571c14a385b3cc3e0790d4169",
}


def test_every_section_class_is_defined_here():
    """One home for settings: each ``HarnessConfig`` section is a class of ``semcom.config``."""
    sections = dataclasses.fields(config.HarnessConfig)
    assert [f.name for f in sections if f.default_factory.__module__ != config.__name__] == []


def test_every_section_fills_its_own_field():
    """One settings class per section: each [section] fills one ``HarnessConfig`` field, and no field two."""
    filled = [part for part, _ in config._SECTIONS.values()]
    assert sorted(filled) == sorted(f.name for f in dataclasses.fields(config.HarnessConfig))


def test_a_link_builds_its_constellation_once():
    """The constellation is the modem's for the link's modulation, built on first use and kept."""
    link = ChannelConfig(modulation="4psk")
    assert "constellation" not in vars(link)
    assert link.constellation is link.constellation
    built = build_constellation("4psk")
    assert link.constellation.points.tobytes() == built.points.tobytes()
    assert link.constellation.labels.tobytes() == built.labels.tobytes()


def test_every_shipped_config_is_recorded():
    assert sorted(p.name for p in CONFIGS.glob("*.ini")) == sorted({name for name, _ in CONFIG_REPR_DIGESTS})


@pytest.mark.parametrize("name,seed", sorted(CONFIG_REPR_DIGESTS))
def test_shipped_config_loads_to_the_recorded_settings(name, seed):
    text = repr(load_config(str(CONFIGS / name), seed))
    assert hashlib.sha256(text.encode()).hexdigest() == CONFIG_REPR_DIGESTS[name, seed], text


# Every named rule of semcom.config: a module-level (test, words) pair.
RULES = {
    name: value
    for name, value in vars(config).items()
    if name.isupper() and isinstance(value, tuple) and len(value) == 2 and callable(value[0])
}


class TestRequire:
    def test_the_rules_are_found(self):
        assert sorted(RULES) == [
            "AT_LEAST_1",
            "CHANNEL_KIND",
            "NOT_NEGATIVE",
            "NOT_NEGATIVE_FINITE",
            "POSITIVE",
            "POSITIVE_FINITE",
            "PSNR",
            "SHARD_MODE",
            "TABLE_ORDER",
        ]

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_every_named_rule_rejects_nan(self, rule):
        with pytest.raises(ValueError) as caught:
            require(SimpleNamespace(x=math.nan), RULES[rule], "x")
        assert str(caught.value) == f"x {RULES[rule][1]}, got nan"

    def test_a_tuple_names_its_first_bad_item(self):
        settings = SimpleNamespace(ok=(2, 4), k=(32, 48, 3))
        with pytest.raises(ValueError) as caught:
            require(settings, config.TABLE_ORDER, "ok", "k")
        assert str(caught.value) == "k must be a power of two in [2, 65536], got 48"

    def test_the_first_failing_name_is_named(self):
        settings = SimpleNamespace(a="isl", b="x", c="y")
        with pytest.raises(ValueError) as caught:
            require(settings, config.CHANNEL_KIND, "a", "b", "c")
        assert str(caught.value) == "b must be one of ['awgn', 'leo_rician', 'leo_rayleigh', 'isl'], got 'x'"


def _numeric_keys():
    """``(section, key, item type)`` for every INI key whose field holds ints or floats."""
    for section, (_, keys) in config._SECTIONS.items():
        for key, f in keys.items():
            item = f.type.removeprefix("tuple[").removesuffix(", ...]")
            if item in ("int", "float"):
                yield section, key, item


BAD_NUMBERS = {"float": ("nan", "inf", "-inf"), "int": ("-1",)}


@pytest.mark.parametrize(
    "section,key,value",
    [(section, key, value) for section, key, item in _numeric_keys() for value in BAD_NUMBERS[item]],
)
def test_every_numeric_key_rejects_a_value_no_run_can_use(tmp_path, capsys, section, key, value):
    """Every float key rejects NaN and both infinities, every int key -1: exit 1, naming key and value."""
    (tmp_path / "bad.ini").write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["linkbudget", "--config", str(tmp_path / "bad.ini"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}.{key} ")
    assert err.endswith(f", got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "section,key", [(section, key) for section, key, item in _numeric_keys() if item == "int"]
)
def test_every_int_key_loads_or_names_itself_at_10_to_the_400(tmp_path, section, key):
    """An int too large for a float either loads or is blamed on its key, never escapes unnamed."""
    (tmp_path / "big.ini").write_text(f"[{section}]\n{key} = {10**400}\n")
    try:
        load_config(str(tmp_path / "big.ini"))
    except config.ConfigError as exc:
        assert str(exc).startswith(f"{section}.{key} ")


# Every settings class: one per [section].
SETTINGS_CLASSES = [f.default_factory for f in dataclasses.fields(config.HarnessConfig)]


@pytest.mark.parametrize(
    "cls,name,value",
    [
        pytest.param(cls, f.name, (big,) if f.type.startswith("tuple") else big, id=f"{cls.__name__}.{f.name}{id_}")
        for cls in SETTINGS_CLASSES
        for f in dataclasses.fields(cls)
        if f.type in ("float", "tuple[float, ...]")
        for big, id_ in ((10**400, "+1e400"), (-(10**400), "-1e400"))
    ],
)
def test_every_float_field_rejects_an_int_past_the_largest_float(cls, name, value):
    """A library caller's int too large for a float fails as a ValueError naming its field."""
    with pytest.raises(ValueError, match=f"^{name} "):
        cls(**{name: value})


# Each binary format semcom writes: the struct layout of its header and the
# names of the header's fields, after the four-byte magic.
FORMAT_FIELDS = {
    "MSIT": (dataset._HEADER.format, ("version", "records", "height", "width", "bands")),
    "MCB1": ("<II", ("k", "dim")),
    "MNN1 layer": ("<II", ("rows", "cols")),
}
N_CLASSES = len(config.EUROSAT_CLASS_NAMES)
SIDE = config.U16_MAX
# (format, field) -> every INI key that sets the field, as (section, key, the
# rest of the section, the largest value that loads given the field's widest
# value). A field no key sets is a constant: MSIT's version is FORMAT_VERSION.
FIELD_RULES = {
    ("MSIT", "version"): [],
    ("MSIT", "records"): [("dataset", "per_class_count", "", lambda top: top // N_CLASSES)],
    ("MSIT", "height"): [("dataset", "height", "", lambda top: top)],
    ("MSIT", "width"): [("dataset", "width", "", lambda top: top)],
    ("MSIT", "bands"): [("dataset", "bands", "", lambda top: top)],
    # K is a table order, far inside the u32; dim is feature_dim / blocks.
    ("MCB1", "k"): [
        ("dtjscc", "k", "", lambda top: min(top, 1 << config.TABLE_BITS)),
        ("sweep", "k_presets", "", lambda top: min(top, 1 << config.TABLE_BITS)),
    ],
    ("MCB1", "dim"): [("dtjscc", "feature_dim", "", lambda top: top)],
    # The encoder's layers are (height * width * bands, encoder_hidden) and
    # (encoder_hidden, feature_dim); the classifier's is (feature_dim, classes).
    ("MNN1 layer", "rows"): [
        ("dataset", "bands", f"height = {SIDE}\nwidth = {SIDE}\n", lambda top: top // SIDE**2),
        ("dtjscc", "encoder_hidden", "", lambda top: top),
        ("dtjscc", "feature_dim", "", lambda top: top),
    ],
    ("MNN1 layer", "cols"): [
        ("dtjscc", "encoder_hidden", "", lambda top: top),
        ("dtjscc", "feature_dim", "", lambda top: top),
    ],
}


def _header_fields():
    """``(format, field, widest value)`` for every header field, walked from its struct layout."""
    for name, (layout, names) in FORMAT_FIELDS.items():
        codes = layout.removeprefix("<")
        assert len(codes) == len(names), name
        for code, field_name in zip(codes, names):
            yield name, field_name, (1 << 8 * struct.calcsize("<" + code)) - 1


class TestFormatFieldRules:
    """Every fixed-width field of a format semcom writes is a load-time rule, so
    a setting no file can hold fails at load, exits 1 and names its key."""

    def test_the_walked_layouts_are_the_written_ones(self):
        images = dataset.Dataset(np.zeros((3, 2, 5, 7)), np.arange(3))
        assert struct.unpack_from(FORMAT_FIELDS["MSIT"][0], dataset.tensor_file(images), 4) == (3, 3, 2, 5, 7)
        codebook = dtjscc.codebook_file(dtjscc.Codebook(np.arange(8.0).reshape(4, 2)))
        assert struct.unpack_from(FORMAT_FIELDS["MCB1"][0], codebook, 4) == (4, 2)
        checkpoint = nn.network_file(nn.init_network([6, 5, 3], ["relu", "linear"], 0))
        second = 4 + 8 + (6 + 1) * 5 * 8  # past the first layer's header, weights and biases
        assert struct.unpack_from(FORMAT_FIELDS["MNN1 layer"][0], checkpoint, 4) == (6, 5)
        assert struct.unpack_from(FORMAT_FIELDS["MNN1 layer"][0], checkpoint, second) == (5, 3)

    def test_every_header_field_has_a_rule(self):
        assert [(name, field_name) for name, field_name, _ in _header_fields()] == list(FIELD_RULES)

    @pytest.mark.parametrize(
        "section,key,rest,largest",
        [
            pytest.param(section, key, rest, bound(top), id=f"{name}.{field_name}-{section}.{key}")
            for name, field_name, top in _header_fields()
            for section, key, rest, bound in FIELD_RULES[(name, field_name)]
        ],
    )
    def test_the_largest_value_loads_and_one_more_names_its_key(self, tmp_path, section, key, rest, largest):
        ini = tmp_path / "wide.ini"
        ini.write_text(f"[{section}]\n{rest}{key} = {largest}\n")
        load_config(str(ini))
        ini.write_text(f"[{section}]\n{rest}{key} = {largest + 1}\n")
        with pytest.raises(config.ConfigError, match=rf"^{section}\.{key} .*, got {largest + 1}$"):
            load_config(str(ini))


class TestModulationGrammar:
    @pytest.mark.parametrize(
        "name,parsed",
        [("16apsk", ("apsk", 16)), ("16APSK", ("apsk", 16)), ("2psk", ("psk", 2)), ("65536PSK", ("psk", 65536))],
    )
    def test_names(self, name, parsed):
        assert parse_modulation(name) == parsed

    # Messages as the settings check gave them when it built the constellation.
    @pytest.mark.parametrize(
        "name,ratio,message",
        [
            ("1099511627776psk", 2.57, "order must be a power of two in [2, 65536], got 1099511627776"),
            ("131072psk", 2.57, "order must be a power of two in [2, 65536], got 131072"),
            ("3PSK", 2.57, "order must be a power of two in [2, 65536], got 3"),
            ("0psk", 2.57, "order must be a power of two in [2, 65536], got 0"),
            ("QAM", 2.57, "unknown constellation 'qam'"),
            ("psk", 2.57, "unknown constellation 'psk'"),
            ("-4psk", 2.57, "unknown constellation '-4psk'"),
            ("²psk", 2.57, "invalid literal for int() with base 10: '²'"),
        ],
    )
    def test_unusable_settings_keep_their_message(self, name, ratio, message):
        with pytest.raises(ValueError) as caught:
            ChannelConfig(modulation=name, apsk_ring_ratio=ratio)
        assert str(caught.value) == f"modulation is not usable ({message}), got {name!r}"

    # Past about 7.7e153, 3 * ratio**2 overflows; past about 1.34e154, ratio**2 alone does.
    @pytest.mark.parametrize("name", ["16apsk", "16APSK"])
    @pytest.mark.parametrize("ratio", [7.8e153, 1.2e154, 1.4e154, 1e200, 1.79e308])
    def test_an_oversized_ring_ratio_names_the_ratio(self, name, ratio):
        with pytest.raises(ValueError) as caught:
            ChannelConfig(modulation=name, apsk_ring_ratio=ratio)
        assert str(caught.value) == (
            f"apsk_ring_ratio is not usable with {name!r}: ring ratio must keep 3 * ratio**2 finite, got {ratio}"
        )

    @pytest.mark.parametrize("ratio", [2.57, 7.7e153])
    def test_a_usable_ring_ratio_keeps_its_radii(self, ratio):
        """The radii are the formula's own bytes; the largest usable ratio keeps a nonzero inner ring."""
        r1 = 2.0 / math.sqrt(1.0 + 3.0 * ratio**2)
        assert r1 > 0.0
        assert apsk16_radii(ratio) == (r1, ratio * r1)
        ChannelConfig(apsk_ring_ratio=ratio)

    def test_a_psk_run_ignores_the_ring_ratio(self):
        assert ChannelConfig(modulation="4psk", apsk_ring_ratio=1e200).apsk_ring_ratio == 1e200

    @given(
        name=st.one_of(
            st.builds(lambda m, case: f"{m}{case}", st.integers(-3, 1 << 17), st.sampled_from(["psk", "PSK", "apsk"])),
            st.sampled_from(["16apsk", "16Apsk", "apsk", "16 psk", "psk16"]),
            st.text(max_size=8),
        ),
        ratio=st.floats(min_value=5e-324, max_value=1.79e308, allow_nan=False, allow_infinity=False),
    )
    def test_settings_accept_what_the_modem_builds(self, name, ratio):
        """The stdlib check and the constellation builder agree on every name and ring ratio."""

        def outcome(build):
            try:
                build()
            except (ValueError, OverflowError) as exc:
                return type(exc), str(exc)
            return None

        built = outcome(lambda: build_constellation(name, ratio))
        if built is not None and built[0] is ValueError:
            if built[1].startswith("ring ratio"):
                built = (ValueError, f"apsk_ring_ratio is not usable with {name!r}: {built[1]}")
            else:
                built = (ValueError, f"modulation is not usable ({built[1]}), got {name!r}")
        assert outcome(lambda: ChannelConfig(modulation=name, apsk_ring_ratio=ratio)) == built
