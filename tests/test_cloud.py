import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phm.cloud import (
    PointCloud,
    SpatialIndex,
    farthest_point_sample,
    load_ply,
    rgb_to_luminance,
    save_ply,
)
from phm.errors import ColorMissing, DomainError, EmptyCloud, ParseError, TooManySeeds
from phm.metric import phm_score
from phm.synthetic import synthetic_cloud, with_luminance_noise

from conftest import random_cloud


# --- independent oracles -----------------------------------------------------

def knn_oracle(positions, query, k, exclude=None):
    """Exhaustive scan: sort all points by (distance, index), leaving out index ``exclude``."""
    q = np.asarray(query, dtype=np.float64)
    scored = sorted(
        (math.dist(p, q), i) for i, p in enumerate(np.asarray(positions, dtype=np.float64))
        if i != exclude
    )
    return [i for _, i in scored[:k]]


def fps_oracle(positions, num_seeds, start=0):
    """Greedy FPS recomputing every point-to-seed distance at each step."""
    pos = np.asarray(positions, dtype=np.float64)
    seeds = [start]
    while len(seeds) < num_seeds:
        best_idx, best_d2 = None, -1.0
        for i in range(len(pos)):
            d2 = min(float(((pos[i] - pos[s]) ** 2).sum()) for s in seeds)
            if d2 > best_d2:
                best_idx, best_d2 = i, d2
        seeds.append(best_idx)
    return seeds


# --- luminance ---------------------------------------------------------------

def test_luminance_black_is_zero():
    assert rgb_to_luminance((0, 0, 0)) == 0.0


def test_luminance_white_is_peak():
    assert rgb_to_luminance((255, 255, 255)) == pytest.approx(255.0, abs=1e-12)


def test_luminance_pure_red_hand_value():
    # 0.2126 * 255 by hand
    assert rgb_to_luminance((255, 0, 0)) == pytest.approx(54.213, abs=1e-9)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_luminance_stays_in_range(r, g, b):
    y = rgb_to_luminance((r, g, b))
    assert 0.0 <= y <= 255.0


# --- KNN ---------------------------------------------------------------------

def test_knn_collinear_ordering():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    idx = SpatialIndex(pts)
    got = idx.query((0, 0, 0), k=2, exclude=0)
    assert list(got) == [1, 2]


def test_knn_tie_breaks_to_lower_index():
    pts = np.array([[1, 0, 0], [-1, 0, 0], [5, 5, 5]], dtype=float)
    idx = SpatialIndex(pts)
    got = idx.query((0, 0, 0), k=2)
    assert list(got) == [0, 1]


def test_knn_matches_bruteforce_scan():
    cloud = random_cloud(100, seed=3)
    idx = SpatialIndex(cloud.positions)
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = rng.uniform(0, 10, size=3)
        assert list(idx.query(q, k=10)) == knn_oracle(cloud.positions, q, 10)


def test_knn_exclude_self_drops_one_coincident_point():
    pts = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=float)
    idx = SpatialIndex(pts)
    # only the excluded index is skipped; its duplicate stays, whichever is excluded
    assert list(idx.query((0, 0, 0), k=2, exclude=0)) == [1, 2]
    assert list(idx.query((0, 0, 0), k=2, exclude=1)) == [0, 2]
    assert idx.query_bulk(pts, 2, exclude_self=True).tolist() == [[1, 2], [0, 2], [0, 1]]


def test_knn_k_larger_than_cloud():
    pts = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
    idx = SpatialIndex(pts)
    assert list(idx.query((0, 0, 0), k=10)) == [0, 1]
    assert list(idx.query((0, 0, 0), k=10, exclude=0)) == [1]


@pytest.mark.parametrize("exclude", [-1, 3])
def test_knn_exclude_out_of_range_raises(exclude):
    # -1 must not pass as "no exclusion", nor read as the last point
    idx = SpatialIndex(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float))
    with pytest.raises(ValueError, match="exclude"):
        idx.query((0, 0, 0), k=2, exclude=exclude)


def test_bulk_query_matches_single_queries():
    cloud = random_cloud(80, seed=23)
    idx = SpatialIndex(cloud.positions)
    bulk = idx.query_bulk(cloud.positions, 7, exclude_self=True)
    for i in range(len(cloud)):
        assert list(bulk[i]) == knn_oracle(cloud.positions, cloud.positions[i], 7, exclude=i)


def test_bulk_query_on_grid_with_ties():
    # integer grid: massive distance ties exercise the deterministic ordering
    g = np.arange(4)
    pts = np.array([[x, y, z] for x in g for y in g for z in g], dtype=float)
    idx = SpatialIndex(pts)
    bulk = idx.query_bulk(pts, 6, exclude_self=True)
    for i in range(len(pts)):
        assert list(bulk[i]) == knn_oracle(pts, pts[i], 6, exclude=i)


@given(st.integers(2, 40), st.integers(1, 12), st.integers(0, 10_000))
def test_knn_exactness_property(n, k, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 5, size=(n, 3))
    # duplicate a few points to force exact ties
    if n >= 4:
        pts[1] = pts[0]
        pts[3] = pts[2]
    idx = SpatialIndex(pts)
    q = rng.uniform(0, 5, size=3)
    assert list(idx.query(q, k)) == knn_oracle(pts, q, k)
    assert list(idx.query(pts[0], k, exclude=0)) == knn_oracle(pts, pts[0], k, exclude=0)
    bulk = idx.query_bulk(pts, k, exclude_self=True)
    for i in range(n):
        assert list(bulk[i]) == knn_oracle(pts, pts[i], k, exclude=i)


def lattice_shell(radius):
    """Integer points within half a unit of a sphere: rows full of distance ties."""
    g = np.arange(-radius, radius + 1)
    pts = np.array([[x, y, z] for x in g for y in g for z in g], dtype=float)
    return pts[np.abs(np.linalg.norm(pts, axis=1) - radius) < 0.5]


def coincident_cloud(copies):
    # copies of one position: each copy's own index sits anywhere among the
    # zero-distance ties, beyond the first k + 2 candidates for most rows. At
    # k = 4 with exclude_self, 12 copies take two doublings of the candidate
    # count and 40 copies three.
    rng = np.random.default_rng(8)
    pts = np.vstack([np.repeat(rng.uniform(0, 5, size=(1, 3)), copies, axis=0),
                     rng.uniform(0, 5, size=(20, 3))])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("pts", [coincident_cloud(12), coincident_cloud(40), lattice_shell(4)],
                         ids=["12-copies", "40-copies", "lattice-shell"])
@pytest.mark.parametrize("exclude_self", [False, True])
def test_bulk_exclude_self_with_many_coincident_points(monkeypatch, pts, exclude_self):
    idx = SpatialIndex(pts)

    def no_per_row_query(*args, **kwargs):
        raise AssertionError("query_bulk fell back to one query per row")

    monkeypatch.setattr(SpatialIndex, "query", no_per_row_query)
    for k in (4, 20):
        bulk = idx.query_bulk(pts, k, exclude_self=exclude_self)
        for i in range(len(pts)):
            assert list(bulk[i]) == knn_oracle(pts, pts[i], k, exclude=i if exclude_self else None)
    with pytest.raises(ValueError):
        idx.query_bulk(pts[:5], 4, exclude_self=True)


def test_empty_index_raises():
    with pytest.raises(EmptyCloud):
        SpatialIndex(np.empty((0, 3)))


def test_knn_exact_at_500_points():
    cloud = random_cloud(500, seed=55)
    idx = SpatialIndex(cloud.positions)
    rng = np.random.default_rng(56)
    for k in (1, 7, 50, 499, 500):
        q = rng.uniform(0, 10, size=3)
        assert list(idx.query(q, k)) == knn_oracle(cloud.positions, q, k)
    bulk = idx.query_bulk(cloud.positions, 12, exclude_self=True)
    for i in range(25):
        assert list(bulk[i]) == knn_oracle(cloud.positions, cloud.positions[i], 12, exclude=i)


# --- farthest point sampling -------------------------------------------------

def test_fps_exhaustive_is_permutation():
    cloud = random_cloud(25, seed=9)
    seeds = farthest_point_sample(cloud, 25)
    assert sorted(seeds) == list(range(25))


def test_fps_square_picks_diagonal():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    col = np.zeros((4, 3), dtype=np.uint8)
    cloud = PointCloud.from_arrays(pts, col)
    seeds = farthest_point_sample(cloud, 2, start=0)
    assert list(seeds) == [0, 2]


def test_fps_matches_greedy_oracle():
    cloud = random_cloud(50, seed=31)
    got = farthest_point_sample(cloud, 5)
    assert list(got) == fps_oracle(cloud.positions, 5)


def test_fps_too_many_seeds():
    cloud = random_cloud(10, seed=1)
    with pytest.raises(TooManySeeds):
        farthest_point_sample(cloud, 11)


@given(st.integers(3, 30), st.integers(0, 9999))
def test_fps_coverage_radius_nonincreasing(n, seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud.from_arrays(
        rng.uniform(0, 4, size=(n, 3)), rng.integers(0, 256, (n, 3), dtype=np.uint8))
    seeds = farthest_point_sample(cloud, n)
    pos = cloud.positions
    prev = math.inf
    for upto in range(1, n + 1):
        chosen = pos[seeds[:upto]]
        d2 = ((pos[:, None, :] - chosen[None]) ** 2).sum(-1).min(axis=1)
        radius = float(d2.max())
        assert radius <= prev + 1e-12
        prev = radius


# --- PLY I/O -----------------------------------------------------------------

ASCII_3V = b"""ply
format ascii 1.0
comment three vertices
element vertex 3
property float x
property float y
property float z
property uchar red
property uchar green
property uchar blue
end_header
0.0 0.0 0.0 255 0 0
1.5 0.0 0.0 0 255 0
0.0 2.5 1.0 0 0 255
"""


def test_load_ascii_ply_echoes_contents(tmp_path):
    p = tmp_path / "tri.ply"
    p.write_bytes(ASCII_3V)
    cloud = load_ply(p)
    assert len(cloud) == 3
    np.testing.assert_array_equal(
        cloud.positions, [[0, 0, 0], [1.5, 0, 0], [0, 2.5, 1.0]])
    np.testing.assert_array_equal(
        cloud.colors, [[255, 0, 0], [0, 255, 0], [0, 0, 255]])
    assert cloud.luminance[0] == pytest.approx(0.2126 * 255)


def test_binary_matches_ascii_roundtrip(tmp_path):
    cloud = random_cloud(10_000, seed=2)
    pa, pb = tmp_path / "a.ply", tmp_path / "b.ply"
    save_ply(cloud, pa, binary=False)
    save_ply(cloud, pb, binary=True)
    ca, cb = load_ply(pa), load_ply(pb)
    np.testing.assert_array_equal(ca.positions, cb.positions)
    np.testing.assert_array_equal(ca.colors, cb.colors)
    np.testing.assert_array_equal(ca.luminance, cb.luminance)


@pytest.mark.parametrize("binary", [False, True])
def test_save_refuses_a_position_beyond_float32(tmp_path, binary):
    # 1e39 is a valid float64 position but inf as the float32 a PLY file
    # stores, which load_ply would then reject.
    # PointCloud refuses it, so no such cloud reaches save_ply.
    path = tmp_path / "big.ply"
    with pytest.raises(DomainError):
        cloud = PointCloud.from_arrays([[0.0, 0.0, 0.0], [1e39, 0.0, 0.0]], [[1, 2, 3], [4, 5, 6]])
        save_ply(cloud, path, binary=binary)
    assert not path.exists()


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("before", [b"format", b"end_header"])
def test_end_header_inside_a_comment_does_not_end_the_header(tmp_path, binary, before):
    plain, commented = tmp_path / "plain.ply", tmp_path / "commented.ply"
    save_ply(random_cloud(50, seed=4), plain, binary=binary)
    data = plain.read_bytes()
    at = data.index(b"\n" + before) + 1
    commented.write_bytes(data[:at] + b"comment end_header follows\n" + data[at:])
    want, got = load_ply(plain), load_ply(commented)
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.colors, want.colors)


def test_ply_without_colors_raises(tmp_path):
    p = tmp_path / "bare.ply"
    p.write_bytes(
        b"ply\nformat ascii 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
    with pytest.raises(ColorMissing):
        load_ply(p)


def test_ply_truncated_payload_raises(tmp_path):
    p = tmp_path / "short.ply"
    p.write_bytes(ASCII_3V.replace(b"element vertex 3", b"element vertex 9"))
    with pytest.raises(ParseError):
        load_ply(p)


VERTEX_HEADER = (
    b"property float x\nproperty float y\nproperty float z\n"
    b"property uchar red\nproperty uchar green\nproperty uchar blue\n")


def _binary_3v() -> bytes:
    """ASCII_3V's vertices as a binary_little_endian file."""
    header = ASCII_3V[:ASCII_3V.index(b"end_header\n") + len(b"end_header\n")]
    rec = np.zeros(3, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                             ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    rec["x"], rec["y"], rec["z"] = [0.0, 1.5, 0.0], [0.0, 0.0, 2.5], [0.0, 0.0, 1.0]
    rec["red"], rec["green"], rec["blue"] = [255, 0, 0], [0, 255, 0], [0, 0, 255]
    return header.replace(b"format ascii", b"format binary_little_endian") + rec.tobytes()


BINARY_3V = _binary_3v()


@pytest.mark.parametrize("body", [
    pytest.param(ASCII_3V.replace(b"1.5 0.0 0.0 0 255 0", b"1.5 0.0 0.0 0 255"), id="short-line"),
    pytest.param(ASCII_3V.replace(b"1.5 0.0 0.0 0 255 0", b"1.5 0.0 0.0 0 255 0 7"), id="extra-token"),
    pytest.param(ASCII_3V.replace(b"0 255 0\n", b"0 1.5 0\n"), id="color-1.5"),
    pytest.param(ASCII_3V.replace(b"0 255 0\n", b"0 256 0\n"), id="color-256"),
    pytest.param(ASCII_3V.replace(b"0 255 0\n", b"0 -1 0\n"), id="color-minus-1"),
    pytest.param(ASCII_3V.replace(b"1.5 0.0", b"1.5x 0.0"), id="bad-float"),
    pytest.param(ASCII_3V.replace(b"element vertex 3", b"element vertex 4"), id="truncated"),
    pytest.param(ASCII_3V.replace(b"1.5 0.0 0.0 0 255 0\n", b"\n1.5 0.0 0.0 0 255 0\n"),
                 id="blank-line-in-block"),
    pytest.param(b"ply\nformat ascii 1.0\nelement info 2\nproperty float value\n"
                 b"element vertex 2\n" + VERTEX_HEADER + b"end_header\n"
                 b"1.0\n2.0\n4 5 6 7 8 9\n4 5 6 7 8\n", id="element-before-vertex"),
    pytest.param(b"ply\nformat ascii 1.0\nelement vertex 2\n" + VERTEX_HEADER
                 + b"element info 1\nproperty float value\nend_header\n"
                 b"4 5 6 7 8 9\n1.0\n", id="element-after-vertex"),
    pytest.param(ASCII_3V.replace(b"property float z\n", b"property float z\nproperty\n"),
                 id="bare-property-ascii"),
    pytest.param(BINARY_3V.replace(b"property float z\n", b"property float z\nproperty\n"),
                 id="bare-property-binary"),
    pytest.param(ASCII_3V.replace(b"element vertex 3", b"element vertex -5"),
                 id="negative-vertex-count-ascii"),
    pytest.param(BINARY_3V.replace(b"element vertex 3", b"element vertex -5"),
                 id="negative-vertex-count-binary"),
    pytest.param(ASCII_3V.replace(b"element vertex 3", b"element info -1\nproperty float value\n"
                                  b"element vertex 3"), id="negative-count-before-vertex-ascii"),
    pytest.param(BINARY_3V.replace(b"element vertex 3", b"element info -1\nproperty float value\n"
                                   b"element vertex 3"), id="negative-count-before-vertex-binary"),
])
def test_malformed_ascii_payload_raises(tmp_path, body):
    p = tmp_path / "bad.ply"
    p.write_bytes(body)
    with pytest.raises(ParseError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_ply(p)


@pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf"])
def test_ascii_ply_non_finite_position_raises(tmp_path, token):
    p = tmp_path / "nonfinite.ply"
    p.write_bytes(ASCII_3V.replace(b"0.0 2.5 1.0", b"0.0 " + token + b" 1.0"))
    with pytest.raises(DomainError):
        load_ply(p)


def test_binary_ply_non_finite_position_raises(tmp_path):
    p = tmp_path / "nonfinite.ply"
    save_ply(random_cloud(5, seed=3), p, binary=True)
    data = bytearray(p.read_bytes())
    data[-15:-11] = np.float32(np.nan).tobytes()  # x of the last vertex
    p.write_bytes(bytes(data))
    with pytest.raises(DomainError):
        load_ply(p)


def test_ply_bad_header_raises(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_bytes(b"not a ply\n")
    with pytest.raises(ParseError):
        load_ply(p)


def test_ply_zero_vertices_raises(tmp_path):
    p = tmp_path / "zero.ply"
    p.write_bytes(
        b"ply\nformat ascii 1.0\nelement vertex 0\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")
    with pytest.raises(EmptyCloud):
        load_ply(p)


def test_ply_big_endian_rejected(tmp_path):
    p = tmp_path / "be.ply"
    p.write_bytes(ASCII_3V.replace(b"format ascii 1.0", b"format binary_big_endian 1.0"))
    with pytest.raises(ParseError):
        load_ply(p)


def test_ply_extra_properties_warn_and_load(tmp_path):
    body = (
        b"ply\nformat ascii 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property float nx\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"element face 0\nproperty list uchar int vertex_indices\n"
        b"end_header\n"
        b"0 0 0 0.5 10 20 30\n"
        b"1 1 1 0.5 40 50 60\n")
    p = tmp_path / "extra.ply"
    p.write_bytes(body)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        cloud = load_ply(p)
    assert len(cloud) == 2
    assert any("ignoring" in str(x.message) for x in w)
    np.testing.assert_array_equal(cloud.colors, [[10, 20, 30], [40, 50, 60]])


def test_ascii_ply_element_before_vertex(tmp_path):
    body = (
        b"ply\nformat ascii 1.0\n"
        b"element info 2\nproperty float value\n"
        b"element vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"end_header\n"
        b"1.0\n2.0\n"
        b"4 5 6 7 8 9\n")
    p = tmp_path / "pre.ply"
    p.write_bytes(body)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cloud = load_ply(p)
    np.testing.assert_array_equal(cloud.positions, [[4, 5, 6]])
    np.testing.assert_array_equal(cloud.colors, [[7, 8, 9]])


def test_binary_ply_element_before_vertex(tmp_path):
    header = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element info 2\nproperty float value\n"
        b"element vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"end_header\n")
    skip = np.array([1.0, 2.0], dtype="<f4").tobytes()
    dt = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                   ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    rec = np.zeros(1, dtype=dt)
    rec["x"], rec["y"], rec["z"] = 4.0, 5.0, 6.0
    rec["red"], rec["green"], rec["blue"] = 7, 8, 9
    p = tmp_path / "prebin.ply"
    p.write_bytes(header + skip + rec.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cloud = load_ply(p)
    np.testing.assert_array_equal(cloud.positions, [[4, 5, 6]])
    np.testing.assert_array_equal(cloud.colors, [[7, 8, 9]])


def test_list_element_before_vertex_rejected(tmp_path):
    body = (
        b"ply\nformat ascii 1.0\n"
        b"element face 1\nproperty list uchar int vertex_indices\n"
        b"element vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"end_header\n3 0 1 2\n0 0 0 1 2 3\n")
    p = tmp_path / "list.ply"
    p.write_bytes(body)
    with pytest.raises(ParseError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_ply(p)


def test_binary_list_element_before_vertex_rejected(tmp_path):
    body = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element face 1\nproperty list uchar int vertex_indices\n"
        b"element vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"end_header\n" + bytes(13) + bytes(15))
    p = tmp_path / "list.ply"
    p.write_bytes(body)
    with pytest.raises(ParseError, match="cannot skip list-typed element 'face'"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_ply(p)


def test_binary_ply_double_positions(tmp_path):
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        b"property double x\nproperty double y\nproperty double z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")
    dt = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                   ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    rec = np.zeros(2, dtype=dt)
    rec["x"] = [0.125, -3.75]
    rec["red"] = [7, 9]
    p = tmp_path / "dbl.ply"
    p.write_bytes(header + rec.tobytes())
    cloud = load_ply(p)
    np.testing.assert_array_equal(cloud.positions[:, 0], [0.125, -3.75])
    np.testing.assert_array_equal(cloud.colors[:, 0], [7, 9])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pointcloud_rejects_non_finite_positions(bad):
    pos = np.zeros((4, 3))
    pos[2, 1] = bad
    with pytest.raises(DomainError):
        PointCloud.from_arrays(pos, np.zeros((4, 3), dtype=np.uint8))


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("bad", [1e39, -1e39, 1e160, -1e300, np.nextafter(F32_MAX, math.inf)])
def test_from_arrays_refuses_a_position_beyond_float32(bad):
    # Squared distances of such coordinates overflow float64 (1e160) or lose
    # every digit (1e150), which KNN ranking and the graph weights need.
    pos = np.zeros((4, 3))
    pos[1, 2] = bad
    with pytest.raises(DomainError):
        PointCloud.from_arrays(pos, np.zeros((4, 3), dtype=np.uint8))


def test_positions_up_to_float32_range_score_as_at_any_scale():
    cloud = synthetic_cloud(300, seed=3)
    dist = with_luminance_noise(cloud, 20.0, seed=4)
    span = np.ptp(cloud.positions, axis=0).max()
    scores = []
    for scale in (1e30 / span, 3e38 / span):
        pair = [PointCloud.from_arrays(c.positions * scale, c.colors) for c in (cloud, dist)]
        report = phm_score(*pair)
        assert report.status == "ok" and math.isfinite(report.score)
        scores.append(report.score)
    assert scores[1] == pytest.approx(scores[0], rel=1e-9)
    edge = PointCloud.from_arrays([[F32_MAX, -F32_MAX, 0.0], [0.0, 0.0, 0.0]], np.zeros((2, 3)))
    assert edge.positions[0, 0] == F32_MAX


def test_pointcloud_rejects_empty():
    with pytest.raises(EmptyCloud):
        PointCloud.from_arrays(np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8))


def test_from_arrays_leaves_caller_arrays_writeable():
    pos = np.arange(12, dtype=np.float64).reshape(4, 3)
    col = np.full((4, 3), 7, dtype=np.uint8)
    cloud = PointCloud.from_arrays(pos, col)
    assert not np.shares_memory(cloud.positions, pos)
    assert not np.shares_memory(cloud.colors, col)
    pos[0, 0] = -1.0
    col[0, 0] = 9
    assert cloud.positions[0, 0] == 0.0 and cloud.colors[0, 0] == 7


def test_pointcloud_is_immutable(small_cloud):
    with pytest.raises(ValueError):
        small_cloud.positions[0, 0] = 99.0
