"""``ranked_knn`` against the kernel it replaced, bit for bit.

``lexsort_ranked_knn`` is that kernel: it gathers a (rows, kq, d) difference
array and ranks every row with a full ``np.lexsort``. The kernel under test
builds distances one coordinate at a time and sorts only the rows whose
candidates the tree did not already return in (squared distance, index)
order, so both must give the same indices on any input.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import phm.cloud
import phm.patches
from phm.cloud import KNN_BLOCK_ROWS, SpatialIndex, ranked_knn
from phm.patches import build_patch_graph

from conftest import duplicated_lattice


def lexsort_ranked_knn(tree, data, pts, k, own):
    """The all-rows-lexsort kernel: same contract as ``ranked_knn``."""
    m, n = len(pts), len(data)
    kr = min(k, n - 1) if own is not None else min(k, n)
    out = np.empty((m, kr), dtype=np.intp)
    if kr == 0:
        return out
    for first in range(0, m, 1 << 16):
        rows = np.arange(first, min(first + (1 << 16), m))
        kq = min(kr + (1 if own is None else 2), n)
        while len(rows):
            _, idx = tree.query(pts[rows], k=kq)
            idx = idx.reshape(len(rows), kq)
            diff = data[idx] - pts[rows, None, :]
            d2 = (diff * diff).sum(axis=-1)
            rim = d2.max(axis=1)
            if own is not None:
                d2[idx == own[rows, None]] = np.inf
            order = np.lexsort((idx, d2), axis=1)[:, :kr]
            out[rows] = np.take_along_axis(idx, order, axis=1)
            if kq == n:
                break
            rows = rows[np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0] >= rim]
            kq = min(kq * 2, n)
    return out


def assert_parity(data, pts, k, own):
    tree = cKDTree(data)
    got = ranked_knn(tree, data, pts, k, own)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, lexsort_ranked_knn(tree, data, pts, k, own))


@pytest.mark.parametrize("k", [1, 7, 20])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_clouds(k, seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 10, size=(3000, 3))
    assert_parity(data, data, k, np.arange(len(data)))
    assert_parity(data, rng.uniform(-1, 11, size=(500, 3)), k, None)


def test_duplicated_lattice_where_own_is_not_first():
    pts = duplicated_lattice(3)
    own = np.arange(len(pts))
    # the tree returns some duplicate ahead of the row's own index
    assert (cKDTree(pts).query(pts, k=1)[1] != own).any()
    for k in (1, 4, 6, 19, 26):
        assert_parity(pts, pts, k, own)
        assert_parity(pts, pts, k, None)


@pytest.mark.parametrize("k", [28, 29, 30, 45])
def test_k_at_least_n_minus_one_reaches_every_point(k):
    pts = np.random.default_rng(5).uniform(0, 3, size=(30, 3))
    pts[7] = pts[2]
    assert_parity(pts, pts, k, np.arange(30))
    assert_parity(pts, pts, k, None)


def test_rows_across_two_blocks():
    rng = np.random.default_rng(6)
    data = np.round(rng.uniform(0, 40, size=(70_000, 3)))  # duplicates and ties in every block
    assert_parity(data, data, 3, np.arange(len(data)))
    assert_parity(data[:2000], data, 2, None)


class ReversedTree:
    """A cKDTree whose query returns each row's candidates farthest first."""

    def __init__(self, data):
        self.tree = cKDTree(data)

    def query(self, pts, k, workers=1):
        dist, idx = self.tree.query(pts, k=k, workers=workers)
        return dist[:, ::-1], idx[:, ::-1]


@pytest.mark.parametrize("k", [1, 4, 19])
def test_rows_the_tree_returns_out_of_order(k):
    # every row takes the sorting path, ties and rim re-queries included
    pts = duplicated_lattice(7)
    for own in (np.arange(len(pts)), None):
        got = ranked_knn(ReversedTree(pts), pts, pts, k, own)
        np.testing.assert_array_equal(got, lexsort_ranked_knn(cKDTree(pts), pts, pts, k, own))


def test_lifted_cells_of_build_patch_graph(monkeypatch):
    calls = []

    def checked(tree, data, pts, k, own):
        got = ranked_knn(tree, data, pts, k, own)
        np.testing.assert_array_equal(got, lexsort_ranked_knn(tree, data, pts, k, own))
        calls.append((data.shape[1], k))
        return got

    monkeypatch.setattr(phm.patches, "ranked_knn", checked)
    rng = np.random.default_rng(9)
    sizes = np.concatenate([np.arange(12), rng.integers(0, 60, size=30)])  # k = 1 .. 10
    pos = rng.uniform(0, 5, size=(sizes.sum(), 3))
    build_patch_graph(pos, sizes, k2=10)
    lattice = duplicated_lattice(4)
    build_patch_graph(lattice, [100, 0, len(lattice) - 100], k2=10)
    assert {d for d, _ in calls} == {4} and {k for _, k in calls} == set(range(1, 11))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.booleans(), st.integers(0, 10_000))
def test_small_clouds_with_ties(n, k, exclude_self, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 3, size=(n, 3)).astype(float)  # few positions: ties and duplicates
    assert_parity(pts, pts, k, np.arange(n) if exclude_self else None)


def test_most_rows_skip_the_sort(monkeypatch):
    sorted_rows = []
    lexsort = np.lexsort

    def counting(keys, axis=-1):
        sorted_rows.append(len(keys[0]))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", counting)
    pts = np.random.default_rng(10).uniform(0, 10, size=(5000, 3))
    for k in (1, 10, 20):
        SpatialIndex(pts).query_bulk(pts, k, exclude_self=True)
    assert sum(sorted_rows) < 0.01 * 3 * len(pts)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bulk_query_peak_memory(workers, monkeypatch):
    # at most 10 MB of temporaries for 20,000 rows of k = 20: blocks of
    # KNN_BLOCK_ROWS rows peaked at 8.0 MB, one block of 65,536 rows at 18.2 MB,
    # and ranking every row on a (rows, kq, 3) difference array at 35 MB; a
    # pool of full blocks, one per thread, at 9.5 MB on 2 threads and 14.0 on 4
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", workers)
    pts = np.random.default_rng(11).uniform(0, 10, size=(20_000, 3))
    tracemalloc.start()
    try:
        SpatialIndex(pts).query_bulk(pts, 20, exclude_self=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("cloud", ["lattice", "three_blocks"])
def test_answers_do_not_depend_on_the_tree_workers(cloud, monkeypatch):
    if cloud == "lattice":
        pts = duplicated_lattice(8)
    else:  # three blocks of query rows, the last one partial; ties throughout
        pts = np.round(np.random.default_rng(12).uniform(0, 20, size=(10_000, 3)))
        assert 2 * KNN_BLOCK_ROWS < len(pts) < 3 * KNN_BLOCK_ROWS
    sizes = [len(pts) - 108, 0, 1, 7, 100]
    results = []
    for workers in (1, 2, 3):  # pooled blocks of 1,666-1,667 and 1,111-1,112 rows: 6 and 9
        monkeypatch.setattr(phm.cloud, "TREE_WORKERS", workers)
        index = SpatialIndex(pts)
        graph = build_patch_graph(pts, sizes, k2=10)
        results.append([index.query_bulk(pts, 20), index.query_bulk(pts, 20, exclude_self=True),
                         graph.edges_i, graph.edges_j, graph.weights, graph.sigma2,
                         graph.smoothness])
    for one, *others in zip(*results):
        for other in others:
            np.testing.assert_array_equal(one, other)


@pytest.mark.parametrize("cloud, rows", [
    pytest.param("lattice", None, id="lattice"), pytest.param("rounded", None, id="rounded"),
    *(("first", m) for m in (0, 1, 2, 3, KNN_BLOCK_ROWS - 1, KNN_BLOCK_ROWS, KNN_BLOCK_ROWS + 1)),
])
def test_rows_in_a_random_order(cloud, rows, monkeypatch):
    rng = np.random.default_rng(13)
    if cloud == "lattice":  # blocks of 64 // workers rows
        monkeypatch.setattr(phm.cloud, "KNN_BLOCK_ROWS", 64)
        pts, ks = duplicated_lattice(13), (1, 6, 19)
    elif cloud == "rounded":  # duplicates and ties in every block
        pts, ks = np.round(rng.uniform(0, 40, size=(70_000, 3))), (3,)
    else:  # the first rows of a cloud with ties: one block, an even split, a split with a rest
        pts, ks = np.round(rng.uniform(0, 16, size=(KNN_BLOCK_ROWS + 1, 3))), (4,)
    m = len(pts) if rows is None else rows
    tree, order = cKDTree(pts), rng.permutation(m)
    for k in ks:
        for own in (np.arange(m), None):
            want = lexsort_ranked_knn(tree, pts, pts[:m], k, own)
            for workers in (1, 2, 3, 4):
                monkeypatch.setattr(phm.cloud, "TREE_WORKERS", workers)
                np.testing.assert_array_equal(ranked_knn(tree, pts, pts[:m], k, own, order), want)


class RecordingTree:
    """A cKDTree that keeps the query points of each call at the first round's k."""

    def __init__(self, data, k):
        self.tree, self.k, self.queries, self.lock = cKDTree(data), k, [], threading.Lock()

    def query(self, pts, k, workers=1):
        if k == self.k:
            with self.lock:
                self.queries.append(pts)
        return self.tree.query(pts, k=k, workers=workers)


def test_rows_are_queried_in_the_order_given(monkeypatch):
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", 1)
    pts = np.random.default_rng(18).uniform(0, 10, size=(2 * KNN_BLOCK_ROWS + 5, 3))
    order, tree = np.random.default_rng(19).permutation(len(pts)), RecordingTree(pts, 5)
    ranked_knn(tree, pts, pts, 3, np.arange(len(pts)), order)
    assert [len(q) for q in tree.queries] == [2732, 2732, 2733]  # three even blocks
    np.testing.assert_array_equal(np.concatenate(tree.queries), pts[order])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 2301, KNN_BLOCK_ROWS - 1, KNN_BLOCK_ROWS + 1, 39_083])
def test_blocks_are_even_and_keep_knn_block_rows_in_flight(m, workers, monkeypatch):
    # A multiple of `workers` blocks, none of more than KNN_BLOCK_ROWS // workers
    # rows, whose sizes differ by at most one: no rest block of a few rows runs
    # on one thread after the others (39,083 rows once ended in one of 2,219).
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", workers)
    pts = np.round(np.random.default_rng(20).uniform(0, 40, size=(max(m, 100), 3)))
    own, tree = np.arange(m), RecordingTree(pts, 5)  # k = 3 and own: kq = 5
    got = ranked_knn(tree, pts, pts[:m], 3, own)
    sizes = [len(q) for q in tree.queries]
    blocks = workers * -(-m // (workers * (KNN_BLOCK_ROWS // workers)))
    assert sum(sizes) == m and len(sizes) == min(m, blocks)
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) * min(workers, len(sizes)) <= KNN_BLOCK_ROWS
    np.testing.assert_array_equal(got, lexsort_ranked_knn(tree.tree, pts, pts[:m], 3, own))


def test_query_bulk_writes_into_an_int32_out():
    pts = duplicated_lattice(8)
    index = SpatialIndex(pts)
    out = np.full((len(pts), 6), -1, dtype=np.int32)
    assert index.query_bulk(pts, 6, exclude_self=True, order=index.leaf_order, out=out) is out
    np.testing.assert_array_equal(out, index.query_bulk(pts, 6, exclude_self=True))
    with pytest.raises(ValueError, match="shape"):
        index.query_bulk(pts, 6, out=out[:, :5])


def test_leaf_order_permutes_the_indexed_points():
    pts = np.random.default_rng(14).uniform(0, 10, size=(5000, 3))
    index = SpatialIndex(pts)
    leaves = index.leaf_order
    np.testing.assert_array_equal(np.sort(leaves), np.arange(len(pts)))
    assert not leaves.flags.writeable
    np.testing.assert_array_equal(index.query_bulk(pts, 5, exclude_self=True, order=leaves),
                                  index.query_bulk(pts, 5, exclude_self=True))
    with pytest.raises(ValueError, match="order"):
        index.query_bulk(pts, 5, order=leaves[1:])


class FailingTree:
    """A cKDTree whose ``fail_at``-th query call, counted from 1 over all threads, raises."""

    def __init__(self, data, fail_at):
        self.tree, self.fail_at = cKDTree(data), fail_at
        self.calls, self.workers, self.lock = 0, set(), threading.Lock()

    def query(self, pts, k, workers=1):
        with self.lock:
            self.calls += 1
            self.workers.add(workers)
            if self.calls == self.fail_at:
                raise MemoryError("stub")
        return self.tree.query(pts, k=k, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fail_at", [1, 2, 5])
def test_an_error_in_any_block_reaches_the_caller(workers, fail_at, monkeypatch):
    monkeypatch.setattr(phm.cloud, "KNN_BLOCK_ROWS", 600)
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", workers)
    pts = np.random.default_rng(15).uniform(0, 10, size=(3000, 3))
    tree, threads = FailingTree(pts, fail_at), threading.active_count()
    with pytest.raises(MemoryError, match="stub"):
        ranked_knn(tree, pts, pts, 4, np.arange(len(pts)))
    assert tree.workers == {1} and threading.active_count() == threads


def test_no_thread_starts_at_one_worker_or_for_one_block(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(phm.cloud, "Thread", refused)
    pts = np.random.default_rng(16).uniform(0, 10, size=(3 * KNN_BLOCK_ROWS, 3))
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", 1)
    assert_parity(pts, pts, 4, np.arange(len(pts)))
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", 2)
    assert_parity(pts, pts[:1], 4, None)
    with pytest.raises(AssertionError, match="thread"):  # two rows are two blocks on two threads
        assert_parity(pts, pts[:2], 4, None)


def test_a_pool_wider_than_the_cpus_takes_every_block_once(monkeypatch):
    # Six threads switching every microsecond over 300 blocks of 10 rows: a
    # block taken twice counts its rows twice, a block skipped is left unset.
    monkeypatch.setattr(phm.cloud, "KNN_BLOCK_ROWS", 60)
    monkeypatch.setattr(phm.cloud, "TREE_WORKERS", 6)
    pts = np.round(np.random.default_rng(17).uniform(0, 15, size=(3000, 3)))
    own, tree = np.arange(len(pts)), RecordingTree(pts, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = ranked_knn(tree, pts, pts, 3, own)
    finally:
        sys.setswitchinterval(interval)
    assert sum(map(len, tree.queries)) == len(pts)
    np.testing.assert_array_equal(got, lexsort_ranked_knn(tree.tree, pts, pts, 3, own))
