"""Hypothesis fuzzing of the input boundaries: PLY files, config dicts and text files.

Whatever the bytes or values, loading must either succeed or raise a
PhmError subclass (ParseError for config documents), never a raw
IndexError, ValueError, OverflowError, UnicodeDecodeError, RecursionError
or csv.Error. The text files are config JSON, batch manifests and
``phm eval`` predictions CSVs.
"""

import json
import math
import warnings
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phm.cli import _read_manifest
from phm.cloud import PointCloud, load_ply
from phm.errors import ParseError, PhmError
from phm.evaluation import EvalRecord, read_records_csv
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


# --- text files: config JSON, manifests, predictions CSVs ---------------------

CONFIG_BASE = json.dumps(
    {"alpha": 4.5, "k2": 10, "num_bandpass": 3, "inner_fusion": "multiply",
     "continuous_tail": True}).encode()
MANIFEST_BASE = (b'pair_id,ref_path,dist_path,num_bandpass\n'
                 b'p1,ref.ply,d1.ply,2\n"p,2",ref.ply,"d 2.ply",\n')
PREDICTIONS_BASE = b"sample_id,mos,prediction\ns0,1.5,0.25\ns1,3.0,0.75\n"
SPLICES = [b"\xff", b"\xc3", b"\x00", b'"', b",", b"\n", b"\r", b"[", b"{", b"]", b"}",
           b"1e999", b"-", b"nan", b"true", b"9" * 5000]
LONG_CELL = b"x" * 200_000  # beyond the csv module's field limit


@st.composite
def mutated_bytes(draw, base: bytes):
    """base with a few byte flips, deletions and splices, then maybe truncated."""
    data = bytearray(base)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["flip", "delete", "splice"]))
        if op == "splice":
            data[at:at] = draw(st.sampled_from(SPLICES) | st.binary(max_size=4))
        elif at < len(data):
            if op == "flip":
                data[at] ^= draw(st.integers(1, 255))
            else:
                del data[at]
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return bytes(data)


def _read(tmp_path_factory, data: bytes, reader):
    p = tmp_path_factory.mktemp("fuzz") / "f.txt"
    p.write_bytes(data)
    try:
        return reader(p)
    except PhmError:
        return None


def test_unmutated_text_bases_load(tmp_path_factory):
    cfg = _read(tmp_path_factory, CONFIG_BASE, MetricConfig.from_file)
    assert cfg.k2 == 10 and cfg.num_bandpass == 3
    rows = _read(tmp_path_factory, MANIFEST_BASE, _read_manifest)
    assert rows == [("p1", "ref.ply", "d1.ply", {"num_bandpass": "2"}),
                    ("p,2", "ref.ply", "d 2.ply", {})]
    records = _read(tmp_path_factory, PREDICTIONS_BASE, read_records_csv)
    assert records == [EvalRecord("s0", 1.5, 0.25), EvalRecord("s1", 3.0, 0.75)]


@settings(max_examples=200)
@given(mutated_bytes(CONFIG_BASE))
@example(CONFIG_BASE.replace(b"alpha", b"alph\xff"))
@example(b"[" * 100_000 + b"]" * 100_000)
def test_mutated_config_file_loads_or_raises_parse_error(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    p.write_bytes(data)
    try:
        assert isinstance(MetricConfig.from_file(p), MetricConfig)
    except ParseError:
        pass


@settings(max_examples=200)
@given(mutated_bytes(MANIFEST_BASE))
@example(MANIFEST_BASE.replace(b"p1", b"p\xff"))
@example(MANIFEST_BASE + LONG_CELL + b",ref.ply,d3.ply,\n")
def test_mutated_manifest_loads_or_raises_phm_error(tmp_path_factory, data):
    rows = _read(tmp_path_factory, data, _read_manifest)
    assert rows is None or all(len(row) == 4 for row in rows)


@settings(max_examples=200)
@given(mutated_bytes(PREDICTIONS_BASE))
@example(PREDICTIONS_BASE.replace(b"s0", b"s\xff"))
@example(PREDICTIONS_BASE + LONG_CELL + b",1,2\n")
def test_mutated_predictions_load_or_raise_phm_error(tmp_path_factory, data):
    records = _read(tmp_path_factory, data, read_records_csv)
    assert records is None or all(isinstance(r, EvalRecord) for r in records)
