"""Property tests: the file and config parsers fail only with their own errors.

A mutated or truncated ``.puqt`` file must either read back as a finite,
non-empty array or raise FormatError / NonFiniteInput; any config text must
either parse or raise ConfigError. Example counts are bounded so the suite
stays fast; the database is off so no state is written next to the tests.
"""

import dataclasses
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseuq.config import _BLOCK_TYPES, ExperimentConfig, parse_config
from phaseuq.errors import ConfigError, FormatError, NonFiniteInput
from phaseuq.tensorfile import read_records, read_tensor, write_records, write_tensor

FUZZ = settings(max_examples=150, deadline=None, database=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
dtypes = st.sampled_from([np.float32, np.float64])
metas = st.text(max_size=12)


@st.composite
def mutations(draw, blob_len):
    """A list of edits: overwrite bytes at an offset, insert bytes, or truncate."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["overwrite", "insert", "truncate"]))
        at = draw(st.integers(0, blob_len))
        edits.append((kind, at, draw(st.binary(min_size=1, max_size=8))))
    return edits


def apply(blob: bytes, edits) -> bytes:
    for kind, at, data in edits:
        at = min(at, len(blob))
        if kind == "overwrite":
            blob = blob[:at] + data + blob[at + len(data) :]
        elif kind == "insert":
            blob = blob[:at] + data + blob[at:]
        else:
            blob = blob[:at]
    return blob


def check_array(array):
    assert isinstance(array, np.ndarray) and array.ndim >= 1 and array.size >= 1
    assert np.isfinite(array).all()


@FUZZ
@given(shape=shapes, dtype=dtypes, meta=metas, data=st.data())
def test_mutated_tensor_raises_only_format_errors(scratch, shape, dtype, meta, data):
    path = scratch / "single.puqt"
    write_tensor(path, np.arange(np.prod(shape), dtype=dtype).reshape(shape), meta)
    blob = path.read_bytes()
    path.write_bytes(apply(blob, data.draw(mutations(len(blob)))))
    try:
        array, text = read_tensor(path)
    except (FormatError, NonFiniteInput):
        return
    check_array(array)
    assert isinstance(text, str)


@FUZZ
@given(shapes=st.lists(shapes, min_size=2, max_size=3), meta=metas, data=st.data())
def test_mutated_records_raise_only_format_errors(scratch, shapes, meta, data):
    path = scratch / "multi.puqt"
    records = [(f"r{i}", np.full(s, 0.5 + i), meta) for i, s in enumerate(shapes)]
    write_records(path, records)
    blob = path.read_bytes()
    path.write_bytes(apply(blob, data.draw(mutations(len(blob)))))
    try:
        back = read_records(path)
    except (FormatError, NonFiniteInput):
        return
    for name, array, text in back:
        assert name and isinstance(text, str)
        check_array(array)


values = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-1", "nan", "-inf", "5e-324", "1e999", "9" * 5000, "explicit"]),
    st.text(alphabet=string.printable.replace("\n", "").replace("\r", ""), max_size=10),
)


@st.composite
def block_text(draw):
    """Well-formed blocks of known keys with arbitrary values."""
    out = []
    for name in draw(st.lists(st.sampled_from(sorted(_BLOCK_TYPES)), max_size=4, unique=True)):
        keys = [f.name for f in dataclasses.fields(_BLOCK_TYPES[name])]
        out.append(name + " {")
        for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
            out.append(f"  {key} {draw(values)}")
        out.append("}")
    return "\n".join(out) + "\n"


line = st.one_of(
    st.sampled_from(sorted(_BLOCK_TYPES)).map(lambda name: name + " {"),
    st.just("}"),
    st.tuples(st.text(max_size=8), values).map(lambda kv: f"  {kv[0]} {kv[1]}"),
    st.text(max_size=20),
)


def check_config_text(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


@FUZZ
@given(text=st.text(max_size=200))
def test_arbitrary_config_text_raises_only_config_error(text):
    check_config_text(text)


@FUZZ
@given(text=st.one_of(block_text(), st.lists(line, max_size=30).map("\n".join)))
@example(text="analysis {\n  delta_p 5e-324\n}\n")  # 1/delta_p overflowed to inf
def test_config_shaped_text_raises_only_config_error(text):
    check_config_text(text)
