"""Exact parity of FPS seeds and Voronoi cells against brute-force oracles.

The oracles are the straightforward O(N * cells) implementations: FPS that
recomputes ``((pos - q) ** 2).sum(-1)`` per seed, and a nearest-seed scan
that takes ``argmin`` over every seed. The library must reproduce them bit
for bit, including lowest-index tie breaking on exact distance ties.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from phm.cloud import PointCloud, farthest_point_sample
from phm.patches import partition_into_patch_pairs, reference_cells

from conftest import split_cells


def fps_loop_oracle(positions, num_seeds, start=0):
    """Greedy FPS keeping a running minimum of full-row squared distances."""
    pos = np.asarray(positions, dtype=np.float64)
    seeds = np.empty(num_seeds, dtype=np.intp)
    seeds[0] = start
    min_d2 = ((pos - pos[start]) ** 2).sum(axis=-1)
    for s in range(1, num_seeds):
        seeds[s] = int(np.argmax(min_d2))  # first maximum = lowest index
        np.minimum(min_d2, ((pos - pos[seeds[s]]) ** 2).sum(axis=-1), out=min_d2)
    return seeds


def nearest_seed_oracle(points, seed_positions, chunk=8192):
    """Cell id of the nearest seed per point; ties go to the lower seed id."""
    out = np.empty(len(points), dtype=np.intp)
    for lo in range(0, len(points), chunk):
        d = points[lo:lo + chunk, None, :] - seed_positions[None, :, :]
        out[lo:lo + chunk] = (d * d).sum(axis=-1).argmin(axis=1)  # first minimum
    return out


def cell_ids(sides, n):
    """Per-point cell id recovered from a partition side, checking disjointness."""
    out = np.full(n, -1, dtype=np.intp)
    for cell, idx in enumerate(sides):
        assert np.all(np.diff(idx) > 0)  # ascending, no repeats
        assert np.all(out[idx] == -1)
        out[idx] = cell
    assert np.all(out >= 0)
    return out


def cloud_of(pos):
    pos = np.asarray(pos, dtype=np.float64)
    return PointCloud.from_arrays(pos, np.zeros((len(pos), 3), dtype=np.uint8))


def check_parity(ref_pos, dist_pos, cells):
    ref, dist = cloud_of(ref_pos), cloud_of(dist_pos)
    seeds = farthest_point_sample(ref, cells)
    np.testing.assert_array_equal(seeds, fps_loop_oracle(ref.positions, cells))
    seed_index, *ref_cells = reference_cells(ref, cells)
    partitions = ref_cells, partition_into_patch_pairs(seed_index, dist)
    seed_pos = ref.positions[seeds]
    for (order, sizes), cloud in zip(partitions, (ref, dist)):
        assert len(sizes) == cells  # the cell id is the position in sizes
        sides = split_cells(order, sizes)
        want = nearest_seed_oracle(cloud.positions, seed_pos)
        np.testing.assert_array_equal(cell_ids(sides, len(cloud)), want)
        for cell, idx in enumerate(sides):
            np.testing.assert_array_equal(idx, np.nonzero(want == cell)[0])


@given(st.integers(2, 400), st.integers(2, 400), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_parity_random_clouds(n_ref, n_dist, cells, seed):
    rng = np.random.default_rng(seed)
    check_parity(rng.normal(size=(n_ref, 3)) * [3.0, 1.0, 0.01],
                 rng.uniform(-4, 4, size=(n_dist, 3)), min(cells, n_ref))


@given(st.integers(2, 7), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_parity_integer_lattice_ties(side, cells, seed):
    # Integer coordinates make squared distances exact, so equidistant seeds
    # tie exactly and only the lowest-index rule decides.
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    rng = np.random.default_rng(seed)
    dist = rng.integers(-1, side + 1, size=(rng.integers(1, 300), 3))
    check_parity(grid[rng.permutation(len(grid))], dist, min(cells, len(grid)))


@given(st.integers(1, 60), st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_parity_duplicate_points(n_unique, repeats, cells, seed):
    # More seeds than distinct positions: FPS must pick coincident seeds and
    # the assignment must still send every duplicate to the lowest seed id.
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 5, size=(n_unique, 3)).astype(float) * 0.5
    ref = np.repeat(base, repeats, axis=0)[rng.permutation(n_unique * repeats)]
    check_parity(ref, base[rng.integers(0, n_unique, size=50)], min(cells, len(ref)))


def test_parity_larger_cloud():
    rng = np.random.default_rng(7)
    ref = rng.uniform(0, 100, size=(20_000, 3))
    dist = ref + rng.normal(scale=0.5, size=ref.shape)
    check_parity(ref, dist, 250)
