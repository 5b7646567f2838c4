"""Voronoi patch pairing, per-patch weighted graphs and their spectra.

The reference cloud is split by farthest-point-sampled seeds, once per
reference; each distorted cloud is then partitioned by nearest seed, so each
cell yields a pair of reference and distorted point-index arrays. Every
patch gets a Gaussian-weighted KNN graph, held as its edge list.
``eigendecompose`` gives the spectrum of one signal on that graph, exact for
small patches and from Lanczos iteration for larger ones, and the wavelet
analysis downstream filters through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix

from .cloud import PointCloud, SpatialIndex, farthest_point_sample
from .errors import DegeneratePatch, ShapeError, SpectralError

DEFAULT_GRAPH_KNN = 10
# Larger patches are subsampled first. The cap dates from the dense O(n^3)
# spectrum; it stays so that scores of cells above 3,000 points do not move.
PATCH_POINT_CAP = 3000
# Lanczos steps for a patch of more than KRYLOV_STEPS + 1 points; smaller
# patches get the exact dense spectrum, which is no larger than the Krylov one.
KRYLOV_STEPS = 200


@dataclass(frozen=True)
class ReferenceCells:
    """Voronoi cells of FPS seeds drawn from a reference cloud.

    ``members[c]`` holds the ascending reference point indices of cell c;
    ``seed_index`` assigns the points of any other cloud to the same cells.
    """

    seed_index: SpatialIndex
    members: list[np.ndarray]


def reference_cells(ref: PointCloud, num_cells: int) -> ReferenceCells:
    """Split the reference into the Voronoi cells of its FPS seeds.

    The partition is exhaustive and disjoint.
    """
    seeds = farthest_point_sample(ref, num_cells, start=0)
    seed_index = SpatialIndex(ref.positions[seeds])
    return ReferenceCells(seed_index, _cell_members(seed_index, ref))


def _cell_members(seed_index: SpatialIndex, cloud: PointCloud) -> list[np.ndarray]:
    # query_bulk re-ranks by exact squared distance with ties to the lower
    # index, so a point on a cell boundary goes to the lower seed id.
    cell_of = seed_index.query_bulk(cloud.positions, 1)[:, 0]
    members = np.argsort(cell_of, kind="stable")  # ascending point index per cell
    bounds = np.searchsorted(cell_of[members], np.arange(seed_index.n + 1))
    return [members[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def partition_into_patch_pairs(
    cells: ReferenceCells,
    dist: PointCloud,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair each reference cell with the distorted points nearest its seed.

    Returns one (ref_idx, dist_idx) pair of ascending point indices per cell,
    with the cell id as the list position. The distorted side is split
    exhaustively and disjointly too; its cells may be empty.
    """
    return list(zip(cells.members, _cell_members(cells.seed_index, dist)))


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
    ei, ej = np.divmod(np.unique(lo * n + hi), n)  # (lo, hi) ascending
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


def eigendecompose(
    graph: PatchGraph, signal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectrum of ``signal`` on the graph: (eigenvalues, vectors, coefficients).

    A spectral filter f applies as ``vectors @ (f(eigenvalues) * coefficients)``
    and eigenvalues[-1] is lambda_max. Up to KRYLOV_STEPS + 1 points this is
    the dense ``eigh`` (ascending eigenvalues, orthonormal eigenvector
    columns with LAPACK's signs) and coefficients = vectors.T @ signal.
    Larger patches use a Krylov basis instead; see ``_krylov_spectrum``.
    A constant signal gets the same exact pass-through on both paths:
    eigenvalues [0, lambda_max], vectors [1/sqrt(n), 0] and coefficients
    [mean * sqrt(n), 0], so its band-pass rows are exactly zero.
    """
    u = np.asarray(signal, dtype=np.float64)
    if u.shape != (graph.n,):
        raise ShapeError(f"signal length {u.shape} does not match n={graph.n}")
    try:
        if graph.n > KRYLOV_STEPS + 1:
            return _krylov_spectrum(graph, u)
        lam, vec = np.linalg.eigh(laplacian(graph))
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigendecomposition failed: {e}") from None
    if u.max() > u.min():
        return lam, vec, vec.T @ u
    return _assemble(u, lam[-1])


def _assemble(u: np.ndarray, top: float | None, ritz=None):
    """Spectrum of u: its mean on the constant null vector, then the Ritz part.

    ``ritz`` is None or Lanczos's (theta, basis, s, norm), giving eigenvalues
    theta, vectors basis.T @ s (written straight into the result) and
    coefficients norm * s[0]. Unless ``top`` is None, lambda_max = top comes
    last with a zero vector and coefficient: it sets the wavelet kernels' scales
    and adds nothing.
    """
    n = len(u)
    k = 0 if ritz is None else len(ritz[0])
    lam = np.zeros(1 + k + (top is not None))
    vec, coef = np.zeros((n, len(lam))), np.zeros(len(lam))
    vec[:, 0], coef[0] = 1.0 / np.sqrt(n), u.mean() * np.sqrt(n)
    if ritz is not None:
        theta, basis, s, norm = ritz
        lam[1:k + 1], coef[1:k + 1] = theta, norm * s[0]
        np.matmul(basis.T, s, out=vec[:, 1:k + 1])
    if top is not None:
        lam[-1] = top
    return lam, vec, coef


def _krylov_spectrum(graph: PatchGraph, u: np.ndarray):
    """Lanczos spectrum of u on the sparse Laplacian (Susnjara et al., 2015).

    u splits into its mean, which sits on the constant null vector with
    eigenvalue 0, and a centred part r. KRYLOV_STEPS steps from r / ||r||
    give the basis Q and the tridiagonal T = S diag(theta) S^T, so
    f(L) r ~ ||r|| Q S (f(theta) * S[0]): vectors Q S, coefficients ||r|| S[0].
    No reorthogonalisation (accurate for f(L) r, Musco et al., SODA 2018).
    Theta ascends, so its top Ritz value is lambda_max. When the iteration
    stops early (r spans an invariant subspace, or u is constant) the Ritz
    values need not reach lambda_max: a second run from a fixed generic start
    supplies it, appended with a zero vector and coefficient.
    """
    n = graph.n
    idx = np.arange(n)
    degree = np.bincount(graph.edges_i, graph.weights, n) + np.bincount(graph.edges_j, graph.weights, n)
    lap = csr_matrix(
        (np.concatenate([-graph.weights, -graph.weights, degree]),
         (np.concatenate([graph.edges_i, graph.edges_j, idx]),
          np.concatenate([graph.edges_j, graph.edges_i, idx]))),
        shape=(n, n))
    # ||L|| <= 2 max degree: a smaller residual means an invariant subspace.
    tol = 1e-10 * degree.max()
    r = u - u.mean()
    norm = float(np.linalg.norm(r)) if u.max() > u.min() else 0.0
    theta, ritz, top = np.zeros(1), None, None  # theta: the null vector's 0 until Lanczos runs
    if norm > 0.0:
        basis, alpha, beta = _lanczos(lap, r / norm, tol)
        theta, s = eigh_tridiagonal(alpha, beta)
        ritz = (theta, basis, s, norm)
    if len(theta) < KRYLOV_STEPS:
        start = np.random.default_rng(0).standard_normal(n)
        _, alpha, beta = _lanczos(lap, start / np.linalg.norm(start), tol)
        top = max(eigh_tridiagonal(alpha, beta, eigvals_only=True)[-1], theta[-1])
    return _assemble(u, top, ritz)


def _lanczos(lap, q: np.ndarray, tol: float):
    """Up to KRYLOV_STEPS Lanczos steps from unit q: (basis rows, alpha, beta)."""
    basis = np.empty((KRYLOV_STEPS, len(q)))
    alpha = np.empty(KRYLOV_STEPS)
    beta = np.empty(KRYLOV_STEPS - 1)
    prev, b = np.zeros_like(q), 0.0
    for j in range(KRYLOV_STEPS):
        basis[j] = q
        w = lap @ q - b * prev
        alpha[j] = q @ w
        if j + 1 == KRYLOV_STEPS:
            break
        w -= alpha[j] * q
        b = float(np.linalg.norm(w))
        if b <= tol:
            break
        beta[j] = b
        prev, q = q, w / b
    return basis[:j + 1], alpha[:j + 1], beta[:j]


def cap_indices(idx: np.ndarray, cap: int = PATCH_POINT_CAP) -> tuple[np.ndarray, bool]:
    """Uniformly subsample an oversized patch's indices (deterministic stride selection)."""
    n = len(idx)
    if n <= cap:
        return idx, False
    return idx[(np.arange(cap) * n) // cap], True
