"""Config parsing, canonicalization, tensor container, and phantoms."""

import csv
import dataclasses
import re
import struct

import numpy as np
import pytest

from phaseuq.cli import DEMO_CONFIG
from phaseuq.config import (
    _BLOCK_TYPES,
    ExperimentConfig,
    canonical_text,
    config_hash,
    load_config,
    parse_blocks,
    parse_config,
)
from phaseuq.errors import ConfigError, FormatError, NonFiniteInput
from phaseuq.phantom import gaussian_bumps, resolution_target
from phaseuq.tensorfile import (
    read_records,
    read_tensor,
    write_pgm16,
    write_records,
    write_tensor,
)

FULL = """
# comment line
geometry {
  rows 9
  cols 9
  pitch_led 2.2
  height 60.0
  wavelength 0.532
  center_row 4
  center_col 4
}
optics {
  na_obj 0.1
  na_max 0.41
  n_detector 32
  n_hires 128
  pitch_detector 2.0
}
phantom {
  kind gaussian-bumps
  amplitude_lo 0.6
  amplitude_hi 1.0
}
noise {
  model gaussian
  level 0.002
}
train {
  epochs 40
  stride 12
}
"""


# ------------------------------------------------------------ config


def test_parse_full_config():
    cfg = parse_config(FULL)
    assert cfg.geometry.rows == 9
    assert cfg.optics.na_max == pytest.approx(0.41)
    assert cfg.phantom.kind == "gaussian-bumps"
    assert cfg.phantom.count == 8  # default
    assert cfg.noise.level == pytest.approx(0.002)
    assert cfg.train.epochs == 40
    assert cfg.train.lr == pytest.approx(1e-3)
    assert cfg.paths.simulate_dir == ""


def test_parse_optional_blocks_default():
    cfg = parse_config("")
    assert cfg.geometry is None and cfg.optics is None and cfg.phantom is None
    assert cfg.sfpm.epochs == 50


def test_unknown_block_rejected():
    with pytest.raises(ConfigError):
        parse_config("mystery {\n  a 1\n}\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("noise {\n  model gaussian\n  sigma 1.0\n}\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("noise {\n  level 1.0\n  level 2.0\n}\n")


def test_duplicate_block_rejected():
    with pytest.raises(ConfigError):
        parse_config("noise {\n}\nnoise {\n}\n")


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("phantom {\n  kind gaussian-bumps\n  amplitude_lo 0.5\n}\n")


def test_bad_value_type_rejected():
    with pytest.raises(ConfigError):
        parse_config("train {\n  epochs three\n}\n")


def test_bad_enum_rejected():
    with pytest.raises(ConfigError):
        parse_config("noise {\n  model salt-and-pepper\n}\n")


def test_unbalanced_braces_rejected():
    with pytest.raises(ConfigError):
        parse_config("noise {\n  level 1.0\n")


def test_nested_block_rejected():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("noise {\n  level 1.0\n  inner {\n  }\n}\n")


def test_key_outside_block_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("# top\nlevel 1.0\nnoise {\n}\n")


def set_key(key, value, text=None):
    """Canonical text of FULL, or text, with block.key set to value, added if absent."""
    block, name = key.split(".")
    out, current = [], None
    for line in (text or canonical_text(parse_config(FULL))).splitlines():
        if line.endswith("{"):
            current = line[:-2]
        elif current == block and line.split()[0] == name:
            continue
        out.append(line)
        if current == block and line.endswith("{"):
            out.append(f"  {name} {value}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("train.lr", "-1", "train.lr"),
        ("train.lr", "inf", "train.lr"),
        ("noise.level", "nan", "noise.level"),
        ("optics.na_max", "0.05", "optics.na_max"),
        ("sfpm.order", "raster", "sfpm.order"),
        ("train.epochs", "0", "train.epochs"),
        ("train.patch", "0", "train.patch"),
        ("train.stride", "0", "train.stride"),
        ("train.dropout_rate", "1.0", "train.dropout_rate"),
        ("analysis.target_p", "1.5", "analysis.target_p"),
        ("phantom.count", "0", "phantom.count"),
        ("phantom.seed", "-1", "phantom.seed"),
        ("noise.seed", "-1", "noise.seed"),
        ("train.seed", "-1", "train.seed"),
        ("analysis.delta_p", "1e-320", "analysis.delta_p"),  # 1/delta_p overflows
        ("analysis.delta_p", "1e-6", "analysis.delta_p"),  # a million bins
        ("analysis.delta_p", "1e-9", "analysis.delta_p"),
        ("train.patch", "256", "train.patch must be <= optics.n_hires"),
        ("analysis.target_p", "1.0", "analysis.target_p"),
        ("analysis.delta_p", "0.03", "analysis.delta_p"),  # 1/delta_p not an integer
        ("phantom.amplitude_hi", "0.5", "phantom.amplitude_hi"),  # below amplitude_lo
        ("noise.model,noise.level", "poisson,0", "noise.level"),
        ("noise.model", "speckle", "noise.model"),
        ("noise.model", "none", "noise.model must be one of gaussian, poisson"),
        # sfpm starts from the upsampled brightfield at full step, and epsilon comes
        # from the background noise: neither is a setting
        ("sfpm.step", "1.0", "unknown key sfpm.step"),
        ("sfpm.init", "flat", "unknown key sfpm.init"),
        ("analysis.policy", "background-noise", "unknown key analysis.policy"),
        ("analysis.epsilon", "0.01", "unknown key analysis.epsilon"),
        ("train.stride", "20", "train.stride must be in [1, patch=16]"),  # gaps between patches
        ("optics.n_detector,optics.n_hires", "33,132", "optics.n_detector"),  # odd grid
    ],
)
def test_out_of_range_value_rejected_at_parse(key, value, named):
    # the message must name the key, so a malformed test config cannot pass
    text = None
    for k, v in zip(key.split(","), value.split(",")):
        text = set_key(k, v, text)
    with pytest.raises(ConfigError, match=re.escape(named)):
        parse_config(text)


def test_canonical_roundtrip():
    cfg = parse_config(FULL)
    text = canonical_text(cfg)
    again = parse_config(text)
    assert again == cfg
    assert canonical_text(again) == text


def test_config_hash_stable_under_formatting():
    shuffled = FULL.replace("  rows 9\n  cols 9\n", "  cols 9\n  rows 9\n")
    assert config_hash(parse_config(FULL)) == config_hash(parse_config(shuffled))


def test_config_hash_sees_value_changes():
    other = FULL.replace("level 0.002", "level 0.003")
    assert config_hash(parse_config(FULL)) != config_hash(parse_config(other))


def test_demo_config_hash_pinned():
    # the hash is in every manifest and checkpoint header, so block field
    # names and their order are part of the run-tree format
    assert config_hash(parse_config(DEMO_CONFIG)) == (
        "81597ed90a7e62f751e1f85d91ed8d1f814bbdfb9dd23aef3662092badacc715"
    )


def test_demo_config_sets_every_setting():
    # every setting is one the built-in demo, and so every benchmark workload, runs
    named = {f"{b}.{k}" for b, body in parse_blocks(DEMO_CONFIG).items() for k in body}
    every = {
        f"{name}.{f.name}"
        for name, cls in _BLOCK_TYPES.items()
        if name != "paths"
        for f in dataclasses.fields(cls)
    }
    assert every - named == set()


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FULL, encoding="utf-8")
    assert load_config(path) == parse_config(FULL)


# ------------------------------------------------------------ tensor container


def test_tensor_roundtrip_float64(tmp_path):
    path = tmp_path / "a.puqt"
    a = np.linspace(-3.0, 7.0, 24).reshape(2, 3, 4)
    write_tensor(path, a, "pitch 0.5")
    b, meta = read_tensor(path)
    assert b.dtype == np.float64 and meta == "pitch 0.5"
    np.testing.assert_array_equal(a, b)


def test_tensor_roundtrip_float32(tmp_path):
    path = tmp_path / "a.puqt"
    a = np.arange(6.0, dtype=np.float32).reshape(2, 3)
    write_tensor(path, a)
    b, meta = read_tensor(path)
    assert b.dtype == np.float32 and meta == ""
    np.testing.assert_array_equal(a, b)


def _concatenated_record(array, metadata):
    """One record built as one bytes object by concatenation, for reference."""
    code = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}[array.dtype]
    blob = b"PUQT" + struct.pack("<BBB", 1, code, array.ndim)
    blob += struct.pack(f"<{array.ndim}I", *array.shape)
    blob += np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes()
    if metadata:
        enc = metadata.encode("utf-8")
        blob += struct.pack("<I", len(enc)) + enc
    return blob


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("meta", ["", "pitch 0.5\nleds 1 2"])
def test_tensor_bytes_match_concatenated_record(tmp_path, dtype, rank, meta):
    a = np.random.default_rng(rank).standard_normal((3, 4, 2, 5)[:rank]).astype(dtype)
    path = tmp_path / "a.puqt"
    for array in (a, a.T):  # a.T is not contiguous from rank 2 on
        write_tensor(path, array, meta)
        assert path.read_bytes() == _concatenated_record(array, meta)


def test_records_bytes_match_concatenated_records(tmp_path):
    rng = np.random.default_rng(5)
    records = [
        ("w", rng.standard_normal((3, 4)).T, ""),
        ("b", rng.standard_normal(5).astype(np.float32), "lr 0.005"),
        ("s", rng.standard_normal((2, 3, 2)), ""),
    ]
    path = tmp_path / "r.puqt"
    write_records(path, records)
    expected = b"".join(
        _concatenated_record(a, f"{name}\n{text}" if text else name) for name, a, text in records
    )
    assert path.read_bytes() == expected


def test_tensor_rejects_integer_payload(tmp_path):
    with pytest.raises(FormatError):
        write_tensor(tmp_path / "a.puqt", np.arange(4))


def test_tensor_rejects_non_finite(tmp_path):
    with pytest.raises(NonFiniteInput):
        write_tensor(tmp_path / "a.puqt", np.array([1.0, np.inf]))


def test_tensor_rejects_bad_magic(tmp_path):
    path = tmp_path / "a.puqt"
    write_tensor(path, np.ones((2, 2)))
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_rejects_truncation(tmp_path):
    path = tmp_path / "a.puqt"
    write_tensor(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_rejects_non_utf8_metadata(tmp_path):
    path = tmp_path / "a.puqt"
    write_tensor(path, np.ones((2, 2)), "ab")
    path.write_bytes(path.read_bytes()[:-2] + b"\xff\xfe")
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_rejects_rank_zero_record(tmp_path):
    path = tmp_path / "a.puqt"
    path.write_bytes(b"PUQT" + struct.pack("<BBB", 1, 2, 0) + struct.pack("<d", 1.0))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_rejects_dims_whose_product_wraps(tmp_path):
    # 2**31 * 2**31 * 4 is 0 in int64: the payload size must not wrap around
    path = tmp_path / "a.puqt"
    dims = (2**31, 2**31, 4)
    path.write_bytes(b"PUQT" + struct.pack("<BBB3I", 1, 2, 3, *dims) + struct.pack("<d", 1.0))
    with pytest.raises(FormatError, match="need"):
        read_tensor(path)


def test_tensor_rejects_empty_axis(tmp_path):
    path = tmp_path / "a.puqt"
    path.write_bytes(b"PUQT" + struct.pack("<BBB2I", 1, 2, 2, 3, 0))
    with pytest.raises(FormatError, match="empty axis"):
        read_tensor(path)


@pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 1, 2)])
def test_tensor_rejects_non_finite_on_read(tmp_path, shape):
    path = tmp_path / "a.puqt"
    write_tensor(path, np.ones(shape), "meta")
    blob = bytearray(path.read_bytes())
    header = 7 + 4 * len(shape)
    blob[header : header + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(NonFiniteInput):
        read_tensor(path)


def test_records_roundtrip(tmp_path):
    path = tmp_path / "ckpt.puqt"
    rng = np.random.default_rng(0)
    records = [
        ("k1", rng.normal(size=(4, 2, 3, 3)), "arch toy\nseed 5"),
        ("b1", np.zeros(4), ""),
        ("k2", rng.normal(size=(1, 4, 3, 3)).astype(np.float32), ""),
    ]
    write_records(path, records)
    back = read_records(path)
    assert [name for name, _, _ in back] == ["k1", "b1", "k2"]
    for (_, sent, text), (_, got, text_back) in zip(records, back):
        np.testing.assert_array_equal(sent, got)
        assert text_back == text
    with pytest.raises(FormatError):
        read_tensor(path)  # multi-record file is not a single tensor


def test_records_require_names(tmp_path):
    with pytest.raises(FormatError):
        write_records(tmp_path / "x.puqt", [("", np.ones(2), "")])


def test_pgm_scaling(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm16(path, np.linspace(0.0, 2.0, 12).reshape(3, 4))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n")
    header, payload = raw.split(b"65535\n", 1)
    assert b"# lo=0 hi=2" in header
    values = np.frombuffer(payload, dtype=">u2").reshape(3, 4)
    assert values[0, 0] == 0 and values[-1, -1] == 65535
    steps = np.diff(values.ravel().astype(int))
    assert np.all(np.abs(steps - steps[0]) <= 1)


def test_pgm_constant_image(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm16(path, np.full((2, 2), 3.5))
    payload = path.read_bytes().split(b"65535\n", 1)[1]
    assert not np.frombuffer(payload, dtype=">u2").any()


# ------------------------------------------------------------ phantoms


def test_bumps_deterministic_and_bounded():
    a = gaussian_bumps((64, 64), 6, 0.5, 1.0, seed=3)
    b = gaussian_bumps((64, 64), 6, 0.5, 1.0, seed=3)
    c = gaussian_bumps((64, 64), 6, 0.5, 1.0, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0
    assert 0.5 <= a.max() <= 1.0


def test_bumps_peak_hits_drawn_amplitude():
    a = gaussian_bumps((64, 64), 4, 0.7, 0.7, seed=9)
    assert a.max() == pytest.approx(0.7, abs=1e-12)


def test_resolution_target_shape():
    r = resolution_target((128, 128), 0.9)
    assert r.max() == pytest.approx(0.9, abs=1e-12)
    assert r.min() >= 0.0
    # star pattern must vary along a ring inside the rim
    yy, xx = np.mgrid[0:128, 0:128] - 63.5
    rad = np.hypot(yy, xx)
    ring = r[(rad > 40) & (rad < 44)]
    assert ring.max() > 0.8 * 0.9 and ring.min() < 0.1 * 0.9
