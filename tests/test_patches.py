import math

import numpy as np
import pytest

from phm.cloud import PointCloud
from phm.patches import partition_into_patch_pairs, reference_cells

from conftest import random_cloud, split_cells
from dense_oracle import dense_spectrum, laplacian, one_side
from side_oracle import DegeneratePatch, side_graph
from side_oracle import build_patch_graph as oracle_graph


def cell_pairs(ref, dist, cells):
    """(ref_idx, dist_idx) point indices of each cell, the cell id as the list position."""
    seed_index, order, sizes = reference_cells(ref, cells)
    return list(zip(split_cells(order, sizes),
                    split_cells(*partition_into_patch_pairs(seed_index, dist))))


def make_graph(edges, n, weights=None):
    """Hand-assemble a one-side graph from an undirected edge list."""
    ei = np.array([e[0] for e in edges], dtype=np.intp)
    ej = np.array([e[1] for e in edges], dtype=np.intp)
    w = np.ones(len(edges)) if weights is None else np.asarray(weights, dtype=float)
    return one_side(n, ei, ej, w)


def edge_set_oracle(points, k2):
    """Brute-force union-symmetrized KNN edge set."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    k = min(k2, n - 1)
    edges = set()
    for i in range(n):
        d2 = ((pts - pts[i]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(n), d2))
        nbrs = [j for j in order if j != i][:k]
        for j in nbrs:
            edges.add((min(i, j), max(i, j)))
    return edges


# --- partition ---------------------------------------------------------------

def test_single_cell_holds_everything(small_cloud):
    pairs = cell_pairs(small_cloud, small_cloud, 1)
    assert len(pairs) == 1
    ref_idx, dist_idx = pairs[0]
    np.testing.assert_array_equal(ref_idx, np.arange(len(small_cloud)))
    np.testing.assert_array_equal(dist_idx, np.arange(len(small_cloud)))


def test_points_go_to_nearer_seed():
    pos = np.array([[0, 0, 0], [10, 0, 0], [1, 0, 0], [9, 0, 0]], dtype=float)
    cloud = PointCloud.from_arrays(pos, np.zeros((4, 3), dtype=np.uint8))
    pairs = cell_pairs(cloud, cloud, 2)
    # FPS from index 0 picks the far end (index 1) as the second seed
    cell_of = {}
    for cell, (ref_idx, _) in enumerate(pairs):
        for i in ref_idx:
            cell_of[int(i)] = cell
    assert cell_of[2] == cell_of[0]
    assert cell_of[3] == cell_of[1]


def test_partition_matches_bruteforce_assignment():
    ref = random_cloud(500, seed=41)
    dist = random_cloud(480, seed=42)
    pairs = cell_pairs(ref, dist, 5)
    from phm.cloud import farthest_point_sample
    seeds = ref.positions[farthest_point_sample(ref, 5)]

    def assign(points):
        out = []
        for p in points:
            d2 = ((seeds - p) ** 2).sum(axis=1)
            out.append(int(d2.argmin()))
        return out

    ref_cells = assign(ref.positions)
    dist_cells = assign(dist.positions)
    seen_ref, seen_dist = set(), set()
    for cell, (ref_idx, dist_idx) in enumerate(pairs):
        for i in ref_idx:
            assert ref_cells[int(i)] == cell
            seen_ref.add(int(i))
        for i in dist_idx:
            assert dist_cells[int(i)] == cell
            seen_dist.add(int(i))
    assert seen_ref == set(range(len(ref)))
    assert seen_dist == set(range(len(dist)))


# --- graph construction ------------------------------------------------------

def test_three_collinear_points_k1():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    g = side_graph(pts, k2=1)
    assert len(g.weights) == 2
    assert oracle_graph(pts, k2=1)[1] == pytest.approx(1.0)
    np.testing.assert_allclose(g.weights, math.exp(-1), rtol=1e-15)


def test_two_point_graph():
    pts = np.array([[0, 0, 0], [0, 3, 0]], dtype=float)
    g = side_graph(pts, k2=10)
    assert len(g.weights) == 1
    assert oracle_graph(pts, k2=10)[1] == pytest.approx(9.0)
    assert g.weights[0] == pytest.approx(math.exp(-1), rel=1e-15)


def test_graph_edges_match_bruteforce_union():
    pos = random_cloud(40, seed=77).positions
    # Coincident points: 10 positions twice, 3 of them three times, shuffled.
    dup = np.vstack([pos, pos[:10], pos[:3]])[np.random.default_rng(78).permutation(53)]
    for points in (pos, dup):
        g = side_graph(points, k2=10)
        got = set(zip(g.edges_i.tolist(), g.edges_j.tolist()))
        assert got == edge_set_oracle(points, 10)
        np.testing.assert_allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-10)
        assert np.all(g.weights > 0) and np.all(g.weights <= 1.0)


def test_degenerate_patches_raise():
    with pytest.raises(DegeneratePatch):
        side_graph(np.zeros((1, 3)), 10)
    with pytest.raises(DegeneratePatch):
        side_graph(np.zeros((5, 3)), 10)  # all coincident -> sigma2 == 0


def test_weight_formula_against_oracle():
    cloud = random_cloud(25, seed=13)
    g = side_graph(cloud.positions, k2=4)
    _, sigma2 = oracle_graph(cloud.positions, k2=4)
    d = cloud.positions[g.edges_i] - cloud.positions[g.edges_j]
    d2 = (d * d).sum(axis=1)
    assert sigma2 == pytest.approx(float(d2.mean()), rel=1e-15)
    np.testing.assert_allclose(g.weights, np.exp(-d2 / sigma2), rtol=1e-15)


# --- dense spectrum (the oracle) ---------------------------------------------

def test_two_node_spectrum_closed_form():
    g = make_graph([(0, 1)], 2, weights=[0.7])
    lam, vec, coef = dense_spectrum(g, np.array([1.0, 0.0]))
    np.testing.assert_allclose(lam, [0.0, 1.4], atol=1e-12)
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(np.abs(vec), [[s, s], [s, s]], atol=1e-12)
    np.testing.assert_array_equal(coef, vec.T @ np.array([1.0, 0.0]))


def test_path3_eigenvalues():
    # characteristic polynomial of the unit-weight 3-path Laplacian: 0, 1, 3
    g = make_graph([(0, 1), (1, 2)], 3)
    lam, _, _ = dense_spectrum(g, np.array([1.0, 0.0, 2.0]))
    np.testing.assert_allclose(lam, [0.0, 1.0, 3.0], atol=1e-12)


def test_connected_graph_has_constant_nullvector():
    cloud = random_cloud(30, seed=5)
    g = side_graph(cloud.positions, k2=5)
    lam, vec, _ = dense_spectrum(g, cloud.luminance)
    assert abs(lam[0]) <= 1e-8
    v0 = vec[:, 0] * np.sign(vec[0, 0])  # eigh fixes no sign
    if lam[1] > 1e-8:  # connected
        np.testing.assert_allclose(v0, np.full(30, 1 / math.sqrt(30)), atol=1e-8)


def test_spectrum_orthonormal_and_reconstructs():
    cloud = random_cloud(35, seed=6)
    g = side_graph(cloud.positions, k2=6)
    lam, v, _ = dense_spectrum(g, cloud.luminance)
    np.testing.assert_allclose(v.T @ v, np.eye(35), atol=1e-8)
    recon = v @ np.diag(lam) @ v.T
    np.testing.assert_allclose(recon, laplacian(g), atol=1e-6)
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.all(lam >= -1e-9)
