"""Voronoi patch pairing, per-patch weighted graphs and their spectra.

The reference cloud is split by farthest-point-sampled seeds; both clouds
are partitioned by nearest seed so each cell yields a reference/distorted
patch pair. Every patch gets a Gaussian-weighted KNN graph whose Laplacian
spectrum supports smoothness and wavelet analysis downstream.
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


@dataclass(frozen=True)
class SubCloud:
    """Materialized view of one patch: parent indices, positions, luminance."""

    indices: np.ndarray  # (n,) indices into the parent cloud
    positions: np.ndarray  # (n, 3)
    luminance: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PatchPair:
    cell_id: int
    ref_points: SubCloud
    dist_points: SubCloud


def _take(cloud: PointCloud, idx: np.ndarray) -> SubCloud:
    return SubCloud(idx, cloud.positions[idx], cloud.luminance[idx])


def partition_into_patch_pairs(
    ref: PointCloud,
    dist: PointCloud,
    num_cells: int | None = None,
) -> list[PatchPair]:
    """Split both clouds into Voronoi cells of FPS seeds drawn from ref.

    Defaults to max(1, N // 1000) cells. The partition is exhaustive and
    disjoint on both sides; cells may be empty on the distorted side.
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
        sides.append([_take(cloud, members[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])])
    return [PatchPair(cell, r, d) for cell, (r, d) in enumerate(zip(*sides))]


@dataclass(frozen=True)
class PatchGraph:
    """Undirected Gaussian-weighted KNN graph with its dense Laplacian."""

    n: int
    edges_i: np.ndarray  # (E,) with edges_i < edges_j
    edges_j: np.ndarray
    weights: np.ndarray  # (E,) in (0, 1]
    laplacian: np.ndarray  # (n, n) symmetric, zero row sums
    sigma2: float  # mean squared edge length

    @property
    def num_edges(self) -> int:
        return len(self.weights)


def build_patch_graph(points: np.ndarray, k2: int = DEFAULT_GRAPH_KNN) -> PatchGraph:
    """KNN graph (union-symmetrized) with weights exp(-||d||^2 / sigma^2).

    sigma^2 is the mean squared length over the undirected edge set. Raises
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
    und = np.unique(np.stack([lo, hi], axis=1), axis=0)
    ei, ej = und[:, 0], und[:, 1]
    d = pos[ei] - pos[ej]
    d2 = (d * d).sum(axis=1)
    sigma2 = float(d2.mean())
    if sigma2 == 0.0:
        raise DegeneratePatch("all selected neighbor pairs are coincident")
    w = np.exp(-d2 / sigma2)
    adj = np.zeros((n, n))
    adj[ei, ej] = w
    adj[ej, ei] = w
    lap = np.diag(adj.sum(axis=1)) - adj
    return PatchGraph(n, ei, ej, w, lap, sigma2)


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenpairs of a patch Laplacian (orthonormal columns)."""

    eigenvalues: np.ndarray  # (n,) nondecreasing, first ~0
    eigenvectors: np.ndarray  # (n, n), column i pairs with eigenvalues[i]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def eigendecompose(graph: PatchGraph) -> Spectrum:
    """Full symmetric eigendecomposition with a fixed sign convention.

    Each eigenvector is flipped so its largest-magnitude entry (first such
    entry on ties) is positive; downstream operators are sign-invariant but
    this keeps reports reproducible.
    """
    try:
        lam, vec = np.linalg.eigh(graph.laplacian)
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigendecomposition failed: {e}") from None
    anchor = np.abs(vec).argmax(axis=0)
    signs = np.sign(vec[anchor, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    return Spectrum(lam, vec * signs)


def cap_subcloud(sub: SubCloud, cap: int = PATCH_POINT_CAP) -> tuple[SubCloud, bool]:
    """Uniformly subsample oversized patches (deterministic stride selection)."""
    n = len(sub)
    if n <= cap:
        return sub, False
    sel = (np.arange(cap) * n) // cap
    return SubCloud(sub.indices[sel], sub.positions[sel], sub.luminance[sel]), True
