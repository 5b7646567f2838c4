"""Hypothesis fuzzing of the input boundaries: PLY files and config dicts.

Whatever the bytes or values, loading must either succeed or raise a
PhmError subclass (ParseError for config documents), never a raw
IndexError, ValueError or OverflowError.
"""

import math
import warnings
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phm.cloud import PointCloud, load_ply
from phm.errors import ParseError, PhmError
from phm.metric import MetricConfig

from test_cloud import ASCII_3V, BINARY_3V

HEADER_TOKENS = [
    "ply", "format", "ascii", "binary_little_endian", "binary_big_endian", "1.0", "2.0",
    "element", "vertex", "face", "property", "list", "float", "double", "uchar", "int",
    "char", "x", "y", "z", "red", "green", "blue", "0", "1", "3", "-1", "-5", "1e3",
    "99999999999", "end_header", "comment", "",
]


def _split(body: bytes) -> tuple[list[list[str]], bytes]:
    end = body.index(b"end_header\n") + len(b"end_header\n")
    return [line.split(" ") for line in body[:end].decode().splitlines()], body[end:]


def _load(tmp_path_factory, data: bytes):
    p = tmp_path_factory.mktemp("fuzz") / "f.ply"
    p.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return load_ply(p)
        except PhmError:
            return None


@st.composite
def mutated_ply(draw):
    header, payload = _split(draw(st.sampled_from([ASCII_3V, BINARY_3V])))
    for _ in range(draw(st.integers(0, 3))):  # swap header tokens
        line = draw(st.integers(0, len(header) - 1))
        tok = draw(st.integers(0, len(header[line]) - 1))
        header[line][tok] = draw(st.sampled_from(HEADER_TOKENS) | st.text("az09 -.", max_size=4))
    payload = bytearray(payload)
    for _ in range(draw(st.integers(0, 3))):  # flip payload bytes
        if payload:
            payload[draw(st.integers(0, len(payload) - 1))] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):  # truncate
        payload = payload[:draw(st.integers(0, len(payload)))]
    return "\n".join(" ".join(t) for t in header).encode() + b"\n" + bytes(payload)


@settings(max_examples=300)
@given(mutated_ply())
@example(BINARY_3V.replace(b"property uchar blue\n", b"property uchar blue\nproperty uchar blue\n"))
def test_mutated_ply_loads_or_raises_phm_error(tmp_path_factory, data):
    cloud = _load(tmp_path_factory, data)
    assert cloud is None or isinstance(cloud, PointCloud)


def test_unmutated_bases_rejoin_and_load(tmp_path_factory):
    for body in (ASCII_3V, BINARY_3V):
        header, payload = _split(body)
        assert "\n".join(" ".join(t) for t in header).encode() + b"\n" + payload == body
        cloud = _load(tmp_path_factory, body)
        np.testing.assert_array_equal(cloud.positions, [[0, 0, 0], [1.5, 0, 0], [0, 2.5, 1.0]])
        np.testing.assert_array_equal(cloud.colors, [[255, 0, 0], [0, 255, 0], [0, 0, 255]])


CONFIG_KEYS = [f.name for f in fields(MetricConfig)]
CONFIG_VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.text(max_size=8) | st.sampled_from(["multiply", "average"]),
    st.none(),
    st.lists(st.integers(0, 3), max_size=3),
)


@settings(max_examples=300)
@example({"alpha": 10**400})
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), CONFIG_VALUES,
                       max_size=6))
def test_config_dict_builds_or_raises_parse_error(data):
    try:
        cfg = MetricConfig.from_dict(data)
    except ParseError:
        return
    assert set(data) <= set(CONFIG_KEYS)
    assert cfg.to_dict() == {**MetricConfig().to_dict(), **data}
