"""phm's bulk graph and WCM kernels against the per-side oracle, bit for bit.

Reports stay byte-identical, and identity pairs score exactly 1.0, only if
every cell's edges, weights, sigma^2, smoothness, WCMs and correlations are
the same bits as when each side is built on its own (``side_oracle``).
"""

import tracemalloc

import numpy as np
import pytest

import phm.appearance
import phm.patches
from phm.appearance import _pearson, prepare_pairs, prepare_sides, texture_degradation
from phm.cloud import PointCloud
from phm.patches import (GRAPH_GROUP_POINTS, _runs, build_patch_graph, chunk_graph,
                         partition_into_patch_pairs, reference_cells)
from phm.synthetic import synthetic_cloud, with_geometry_jitter, with_luminance_noise

from conftest import compared_rows, duplicated_lattice, split_cells
from side_oracle import DegeneratePatch, build_wcm, graph_smoothness
from side_oracle import _pearson as oracle_pearson
from side_oracle import build_patch_graph as oracle_graph


def assert_cells_match_oracle(sides, points, k2):
    """Each cell of a bulk ``CloudSides`` against the oracle on that cell's points."""
    for c, (start, n) in enumerate(zip(sides.starts, sides.sizes)):
        pos = points[start:start + n]
        lo, hi = sides.edge_starts[c], sides.edge_starts[c + 1]
        try:
            g, sigma2 = oracle_graph(pos, k2)
        except DegeneratePatch:
            assert not sides.valid[c] and sides.sigma2[c] == 0.0, c
            continue
        assert sides.valid[c], c
        assert np.array_equal(sides.edges_i[lo:hi] - start, g.edges_i), c
        assert np.array_equal(sides.edges_j[lo:hi] - start, g.edges_j), c
        assert np.array_equal(sides.weights[lo:hi], g.weights), c
        assert sides.sigma2[c] == sigma2, c
        want = [graph_smoothness(g, pos[:, axis]) / n for axis in range(3)]
        assert sides.smoothness[c].tolist() == want, c


def check_graphs(points, sizes, k2=10):
    # Cells graphed one per group, in groups of at most 64 points, and in the default groups.
    points = np.asarray(points, dtype=np.float64)
    for group_points in (1, 64, GRAPH_GROUP_POINTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phm.patches, "GRAPH_GROUP_POINTS", group_points)
            assert_cells_match_oracle(build_patch_graph(points, sizes, k2), points, k2)


SIDES_FIELDS = ("starts", "sizes", "edges_i", "edges_j", "weights", "edge_starts", "sigma2",
                "smoothness")


def assert_same_sides(got, want):
    for name in SIDES_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_random_cells_of_every_size_match_the_oracle():
    # Sizes around k2 = 10 (n <= k2 gives k = n - 1), single points and empty cells.
    rng = np.random.default_rng(0)
    sizes = [0, 1, 2, 3, 9, 10, 11, 12, 40, 1, 0, 157, 5]
    offsets = np.repeat(rng.uniform(-50, 50, (len(sizes), 3)), sizes, axis=0)
    check_graphs(offsets + rng.uniform(0, 4, (sum(sizes), 3)), sizes)
    check_graphs(rng.normal(size=(sum(sizes), 3)), sizes, k2=3)  # overlapping cells


def test_integer_lattice_full_of_ties_matches_the_oracle():
    grid = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), -1).reshape(-1, 3)
    sizes = [50, 50, 16, 100]
    check_graphs(grid[np.random.default_rng(1).permutation(216)], sizes, k2=6)
    check_graphs(grid, sizes, k2=10)


def test_duplicated_positions_and_a_coincident_cell_match_the_oracle():
    rng = np.random.default_rng(2)
    base = rng.uniform(0, 3, (30, 3))
    dup = np.vstack([base, base[:10], base[:3]])[rng.permutation(43)]
    coincident = np.full((7, 3), 2.5)
    points = np.vstack([dup, coincident, dup[:12], [[1.0, 1.0, 1.0]] * 2])
    sizes = [43, 7, 12, 2]
    sides = build_patch_graph(points, sizes, 10)
    assert sides.valid.tolist() == [True, False, True, False]  # sigma^2 = 0: no graph
    assert_cells_match_oracle(sides, points, 10)


@pytest.mark.parametrize("n, k2", [(12, 10), (11, 10), (64, 10), (27, 26)])
def test_single_cell_cloud_matches_the_oracle(n, k2):
    # One cell: the candidate count can reach every point of the array.
    grid = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), -1).reshape(-1, 3)
    check_graphs(grid[:n], [n], k2)
    check_graphs(np.random.default_rng(n).uniform(0, 1, (n, 3)), [n], k2)


def test_prepare_sides_matches_the_oracle():
    # A cell above 3,000 points is graphed whole, like any other.
    cloud = synthetic_cloud(3600, seed=3)
    sides = prepare_sides(cloud, np.arange(len(cloud)), np.array([3200, 400]), k2=10,
                          num_bandpass=3)
    assert sides.sizes.tolist() == [3200, 400]
    assert_cells_match_oracle(sides, cloud.positions, 10)


def test_a_chunk_of_sides_is_the_graph_of_its_points_alone():
    # The spectral and WCM chunks, and the lambda_max re-run, read their sides
    # through chunk_graph: it must give what the bulk pass gives on the chunk's
    # points and sizes alone, an empty and a one-point cell included.
    cloud = synthetic_cloud(6000, seed=11)
    _, order, sizes = reference_cells(cloud, 60)
    cells = split_cells(order, sizes)
    cells[20:20], cells[40:40] = [np.empty(0, np.intp)], [cells[7][:1]]
    points = cloud.positions[np.concatenate(cells)]
    sides = build_patch_graph(points, [len(c) for c in cells], 10)
    rng = np.random.default_rng(12)
    for _ in range(20):
        picked = rng.choice(len(cells), int(rng.integers(1, len(cells))), replace=False)
        picked = np.union1d(picked, [20, 40])
        chunk, where = chunk_graph(sides, picked)
        want = build_patch_graph(points[where], sides.sizes[picked], 10)
        assert chunk.bands is None
        assert_same_sides(chunk, want)


@pytest.mark.parametrize("group_points", [1, 7, 64])
def test_a_build_in_many_groups_is_the_build_in_one(group_points, monkeypatch):
    # Random cells with a cell above 64 points, empty and one-point cells where
    # groups of 64 end, then the duplicated lattice (ties and coincident
    # points) as cells of its own, the last one larger than a group and
    # followed by an empty cell.
    rng = np.random.default_rng(13)
    sizes = [63, 1, 0, 64, 1, 0, 0, 150, 0, 1, 40, 23, 1, 0]
    lattice = duplicated_lattice(14)
    points = np.vstack([rng.uniform(0, 4, (sum(sizes), 3)), lattice])
    sizes = np.array(sizes + [100, 0, 1, 120, len(lattice) - 221, 0])
    one = build_patch_graph(points, sizes, 10)
    monkeypatch.setattr(phm.patches, "GRAPH_GROUP_POINTS", group_points)
    if group_points == 64:
        assert _runs(sizes, 64)[:7] == [(0, 3), (3, 4), (4, 7), (7, 9), (9, 12), (12, 14),
                                        (14, 16)]
    assert len(_runs(sizes, group_points)) > 7
    assert_same_sides(build_patch_graph(points, sizes, 10), one)
    monkeypatch.setattr(phm.patches, "GRAPH_GROUP_POINTS", len(points))
    assert _runs(sizes, len(points)) == [(0, len(sizes))]
    assert_same_sides(build_patch_graph(points, sizes, 10), one)


def test_graph_pass_peak_memory():
    # 40,000 points in 512 cells, as in the large-fine clouds: at most 15 MB
    # traced. All cells in one group peaked at 27.8 MB, groups of 8,192 points
    # at 10.8 MB; the edges, weights and edge offsets returned take 5.9 MB.
    rng = np.random.default_rng(15)
    points = rng.uniform(0, 8, (40_000, 3))
    cell = np.floor(points).astype(np.intp) @ [64, 8, 1]
    points, sizes = points[np.argsort(cell, kind="stable")], np.bincount(cell, minlength=512)
    tracemalloc.start()
    try:
        build_patch_graph(points, sizes, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


def oracle_rows(prepared, num_bins):
    """Per-pair WCM correlations from the per-side oracle, None for pairs not compared."""
    rows = []
    for c in range(len(prepared[0].sizes)):
        if not (prepared[0].valid[c] and prepared[1].valid[c]):
            rows.append(None)
            continue
        (gx, px), (gy, py) = (chunk_graph(side, [c]) for side in prepared)
        bands = zip(prepared[0].bands[:, px], prepared[1].bands[:, py])
        rows.append([oracle_pearson(build_wcm(gx, bx, by, num_bins),
                                    build_wcm(gy, by, bx, num_bins)) for bx, by in bands])
    return rows


def pairs_of(ref, dist, cells):
    seed_index, order, sizes = reference_cells(ref, cells)
    return prepare_pairs(prepare_sides(ref, order, sizes, 10, 3), dist,
                         partition_into_patch_pairs(seed_index, dist), 10, 3)


def flat_patch_cloud(n, seed):
    """A textured cloud whose points with x below the middle share one colour."""
    cloud = synthetic_cloud(n, seed=seed)
    colors = cloud.colors.copy()
    colors[cloud.positions[:, 0] < np.median(cloud.positions[:, 0])] = (90, 120, 30)
    return PointCloud.from_arrays(cloud.positions, colors)


@pytest.mark.parametrize("num_bins", [2, 50, 1024])
def test_texture_matches_the_oracle(num_bins, monkeypatch):
    ref = flat_patch_cloud(1200, seed=4)
    jittered = with_geometry_jitter(ref, 0.3, seed=5)  # keeps the flat patch flat
    noisy = with_luminance_noise(ref, 30.0, seed=6)
    # Chunks of 3 cells at 50 bins, of one cell at 1,024 (its own default).
    monkeypatch.setattr(phm.appearance, "WCM_CHUNK_ENTRIES", 3 * 50 * 50)
    for dist in (jittered, noisy, ref):
        prepared = pairs_of(ref, dist, 12)
        rows, mean = compared_rows(texture_degradation, prepared, num_bins)
        want = oracle_rows(prepared, num_bins)
        assert rows == want
        assert mean == float(np.mean([v for row in want if row is not None for v in row]))
        if dist is jittered:  # the flat patch's band-pass pairs have hi == lo
            assert any(rows[c] and not any(np.any(side.bands[1:, chunk_graph(side, [c])[1]])
                                           for side in prepared) for c in range(12))
    assert mean == 1.0  # the identity pair


def test_texture_leaves_out_pairs_without_a_graph():
    ref = synthetic_cloud(600, seed=7)
    # A distorted cloud crowded into one corner starves most cells.
    pos = ref.positions[:60] * 0.2
    dist = PointCloud.from_arrays(pos, ref.colors[:60])
    prepared = pairs_of(ref, dist, 6)
    rows, _ = compared_rows(texture_degradation, prepared, 50)
    assert None in rows
    assert rows == oracle_rows(prepared, 50)


def test_pearson_rows_match_the_oracle():
    rng = np.random.default_rng(8)
    flat = np.full(16, 1 / 16)
    generic = rng.uniform(size=16)
    pairs = [
        (flat, flat.copy()),  # both constant and equal: 1
        (flat, np.full(16, 0.5)),  # both constant, unequal: 0
        (flat, generic),  # one constant: 0
        (generic, flat),
        (generic, generic.copy()),  # identity: exactly 1
        (generic, rng.uniform(size=16)),
        (generic, -generic),
    ]
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    got = _pearson(a, b)
    assert got.tolist() == [oracle_pearson(x, y) for x, y in pairs]
    assert got[:5].tolist() == [1.0, 0.0, 0.0, 0.0, 1.0]
    # Rows of a stacked (R, B, Nb * Nb) array, as texture uses them.
    assert np.array_equal(_pearson(a.reshape(7, 1, 16), b.reshape(7, 1, 16))[:, 0], got)
