"""Voronoi patch pairing, per-patch weighted graphs and their spectra.

The reference cloud is split by farthest-point-sampled seeds; both clouds
are partitioned by nearest seed so each cell yields a pair of reference and
distorted point-index arrays. Every patch gets a Gaussian-weighted KNN graph,
held as its edge list; the dense Laplacian exists only inside
``eigendecompose``, whose spectrum supports the wavelet analysis downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, SpatialIndex, farthest_point_sample
from .errors import DegeneratePatch, SpectralError

DEFAULT_PATCH_DIVISOR = 1000
DEFAULT_GRAPH_KNN = 10
# Dense eigendecomposition is O(n^3); larger patches are subsampled first.
PATCH_POINT_CAP = 3000


def partition_into_patch_pairs(
    ref: PointCloud,
    dist: PointCloud,
    num_cells: int | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split both clouds into Voronoi cells of FPS seeds drawn from ref.

    Returns one (ref_idx, dist_idx) pair of ascending point indices per cell,
    with the cell id as the list position. Defaults to max(1, N // 1000)
    cells. The partition is exhaustive and disjoint on both sides; cells may
    be empty on the distorted side.
    """
    n = len(ref)
    cells = num_cells if num_cells is not None else max(1, n // DEFAULT_PATCH_DIVISOR)
    seeds = farthest_point_sample(ref, cells, start=0)
    # query_bulk re-ranks by exact squared distance with ties to the lower
    # index, so a point on a cell boundary goes to the lower seed id.
    seed_index = SpatialIndex(ref.positions[seeds])
    sides = []
    for cloud in (ref, dist):
        cell_of = seed_index.query_bulk(cloud.positions, 1)[:, 0]
        members = np.argsort(cell_of, kind="stable")  # ascending point index per cell
        bounds = np.searchsorted(cell_of[members], np.arange(cells + 1))
        sides.append([members[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])])
    return list(zip(*sides))


@dataclass(frozen=True)
class PatchGraph:
    """Undirected Gaussian-weighted KNN graph as an edge list."""

    n: int
    edges_i: np.ndarray  # (E,) with edges_i < edges_j, E >= 1 once built
    edges_j: np.ndarray
    weights: np.ndarray  # (E,) in (0, 1]
    sigma2: float  # mean squared edge length


def build_patch_graph(points: np.ndarray, k2: int = DEFAULT_GRAPH_KNN) -> PatchGraph:
    """KNN graph (union-symmetrized) with weights exp(-||d||^2 / sigma^2).

    sigma^2 is the mean squared length over the undirected edge set, which
    holds no self-pairs, so a built graph has at least one edge. Raises
    DegeneratePatch for n < 2 or when every selected edge has zero length.
    """
    pos = np.asarray(points, dtype=np.float64)
    n = len(pos)
    if n < 2:
        raise DegeneratePatch(f"patch with {n} point(s) cannot form a graph")
    k = min(k2, n - 1)
    index = SpatialIndex(pos)
    nbrs = index.query_bulk(pos, k, exclude_self=True)
    src = np.repeat(np.arange(n, dtype=np.intp), k)
    dst = nbrs.ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    # A point with a lower-index duplicate can list itself as a neighbor.
    keep = lo != hi
    ei, ej = np.divmod(np.unique(lo[keep] * n + hi[keep]), n)  # (lo, hi) ascending
    d = pos[ei] - pos[ej]
    d2 = (d * d).sum(axis=1)
    sigma2 = float(d2.mean())
    if sigma2 == 0.0:
        raise DegeneratePatch("all selected neighbor pairs are coincident")
    return PatchGraph(n, ei, ej, np.exp(-d2 / sigma2), sigma2)


def laplacian(graph: PatchGraph) -> np.ndarray:
    """Dense (n, n) Laplacian D - W: symmetric, zero row sums."""
    adj = np.zeros((graph.n, graph.n))
    adj[graph.edges_i, graph.edges_j] = graph.weights
    adj[graph.edges_j, graph.edges_i] = graph.weights
    return np.diag(adj.sum(axis=1)) - adj


def eigendecompose(graph: PatchGraph) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the dense Laplacian, as ``eigh`` returns them.

    Eigenvalues ascend; column i of the orthonormal eigenvectors pairs with
    eigenvalue i. Column signs are LAPACK's: every consumer is sign-invariant.
    """
    try:
        return np.linalg.eigh(laplacian(graph))
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigendecomposition failed: {e}") from None


def cap_indices(idx: np.ndarray, cap: int = PATCH_POINT_CAP) -> tuple[np.ndarray, bool]:
    """Uniformly subsample an oversized patch's indices (deterministic stride selection)."""
    n = len(idx)
    if n <= cap:
        return idx, False
    return idx[(np.arange(cap) * n) // cap], True
