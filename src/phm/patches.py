"""Voronoi patch pairing, per-patch weighted graphs and their spectra.

The reference cloud is split by farthest-point-sampled seeds, once per
reference; each distorted cloud is then partitioned by nearest seed, so each
cell yields a pair of reference and distorted point-index arrays. The
patches of one cloud get their Gaussian-weighted KNN graphs in one pass, as
one edge list. ``eigendecompose`` gives the Lanczos spectra of a signal on a
chunk of such graphs at once, and the wavelet analysis downstream filters
through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .cloud import PointCloud, SpatialIndex, farthest_point_sample, ranked_knn
from .errors import ShapeError, SpectralError

DEFAULT_GRAPH_KNN = 10
# Lanczos steps for a patch of more than LARGE_SIDE points, and for smaller ones.
LARGE_SIDE = 201
KRYLOV_STEPS = 120
SMALL_SIDE_STEPS = 40
# Most points in one chunk of ``eigendecompose``, whose basis is steps x points;
# chunks this small keep it and the Lanczos vectors in cache.
CHUNK_POINTS = 4096


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
    """Undirected Gaussian-weighted graph as an edge list."""

    n: int
    edges_i: np.ndarray  # (E,) with edges_i < edges_j
    edges_j: np.ndarray
    weights: np.ndarray  # (E,) in (0, 1]


@dataclass(frozen=True)
class CloudSides:
    """The patch sides of one cloud: its cells' points one after another.

    Cell c holds points starts[c]:starts[c] + sizes[c] and the edges
    edge_starts[c]:edge_starts[c + 1] of its KNN graph, ascending, with
    edges_i < edges_j indexing all the points. A cell without a graph (under
    2 points, or every selected edge of zero length) has sigma2 0 and is not
    ``valid``. ``smoothness`` holds a valid cell's x/y/z coordinate
    smoothness sum w d^2, each divided by its point count. ``prepare_sides``
    adds the (C + 1, N) SGWT sub-bands of the luminance, each cell's on its
    own spectrum (0 for a cell without a graph).
    """

    starts: np.ndarray  # (P,)
    sizes: np.ndarray  # (P,)
    edges_i: np.ndarray  # (E,)
    edges_j: np.ndarray
    weights: np.ndarray  # (E,) in (0, 1]
    edge_starts: np.ndarray  # (P + 1,)
    sigma2: np.ndarray  # (P,)
    smoothness: np.ndarray  # (P, 3)
    bands: np.ndarray | None = None  # (C + 1, N)

    @property
    def valid(self) -> np.ndarray:
        return self.sigma2 > 0


def build_patch_graph(points: np.ndarray, sizes, k2: int = DEFAULT_GRAPH_KNN) -> CloudSides:
    """Each cell's KNN graph (union-symmetrized) with weights exp(-||d||^2 / sigma^2).

    ``points`` holds the cells one after another and ``sizes`` their point
    counts. A point links to its min(k2, n - 1) nearest others in its cell
    of n, ranked as ``SpatialIndex.query_bulk`` ranks them; sigma^2 is the
    mean squared length over the cell's undirected edges. One tree over
    (x, y, z, cell * D), with D above twice any distance in the array,
    serves every cell: a row that sees another cell's point has seen its own
    whole cell first.
    """
    pos, sizes = np.asarray(points, dtype=np.float64), np.asarray(sizes, dtype=np.intp)
    total, starts = len(pos), np.cumsum(sizes) - sizes
    cell = np.repeat(np.arange(len(sizes)), sizes)
    # Clamped in Python first: a k2 beyond int64 would overflow in numpy.
    k_of = np.minimum(min(k2, int(sizes.max(initial=0))), sizes - 1)[cell]
    lifted = np.column_stack([pos, cell * (4.0 * np.ptp(pos, axis=0).max() + 1.0)])
    tree = cKDTree(lifted)
    keys = [np.empty(0, np.intp)]
    for k in np.unique(k_of[k_of > 0]):
        rows = np.flatnonzero(k_of == k)
        src, dst = np.repeat(rows, k), ranked_knn(tree, lifted, lifted[rows], k, rows).ravel()
        keys.append(np.minimum(src, dst) * total + np.maximum(src, dst))
    keys = np.sort(np.concatenate(keys))
    ei, ej = np.divmod(keys[np.diff(keys, prepend=-1) != 0], total)  # (lo, hi) ascending
    edge_starts = np.searchsorted(ei, np.append(starts, total))
    sq = np.ascontiguousarray(np.square(pos[ei] - pos[ej]).T)  # unit-stride rows for BLAS
    d2 = sq[0] + sq[1] + sq[2]
    sigma2, smoothness = np.zeros(len(sizes)), np.zeros((len(sizes), 3))
    for c in np.flatnonzero(np.diff(edge_starts)):
        sigma2[c] = d2[edge_starts[c]:edge_starts[c + 1]].mean()
    weights = np.exp(-d2 / np.repeat(np.where(sigma2 > 0, sigma2, 1.0), np.diff(edge_starts)))
    for c in np.flatnonzero(sigma2 > 0):
        lo, hi = edge_starts[c], edge_starts[c + 1]
        smoothness[c] = np.vecdot(sq[:, lo:hi], weights[lo:hi]) / sizes[c]
    return CloudSides(starts, sizes, ei, ej, weights, edge_starts, sigma2, smoothness)


def concat_ranges(starts, counts) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, joined in order."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def chunk_graph(sides: CloudSides, cells) -> tuple[PatchGraph, np.ndarray]:
    """(graph, points): the block-diagonal graph of ``cells`` and their points."""
    sizes, counts = sides.sizes[cells], np.diff(sides.edge_starts)[cells]
    edges = concat_ranges(sides.edge_starts[cells], counts)
    shift = np.repeat(np.cumsum(sizes) - sizes - sides.starts[cells], counts)
    graph = PatchGraph(int(sizes.sum()), sides.edges_i[edges] + shift,
                       sides.edges_j[edges] + shift, sides.weights[edges])
    return graph, concat_ranges(sides.starts[cells], sizes)


def spectral_chunks(sizes) -> list[list[int]]:
    """Group the cells of nonzero ``sizes`` into chunks for ``eigendecompose``.

    A chunk holds at most CHUNK_POINTS points, or one larger side alone, of
    one class: above LARGE_SIDE points, at most SMALL_SIDE_STEPS + 1 (a
    whole Krylov space), or in between. Sides go in by size, so the sides of
    a chunk of whole Krylov spaces stop after similar step counts.
    """
    chunks: list[list[int]] = []
    points, last = 0, None
    order = np.argsort(sizes, kind="stable")
    for i in order[sizes[order] > 0]:
        n = int(sizes[i])
        kind = (n > LARGE_SIDE, n <= SMALL_SIDE_STEPS + 1)
        if kind != last or points + n > CHUNK_POINTS:
            chunks.append([])
            points, last = 0, kind
        chunks[-1].append(int(i))
        points += n
    return chunks


@dataclass(frozen=True)
class Spectrum:
    """Lanczos spectra of a signal on the blocks of a block-diagonal graph.

    Block b holds sizes[b] points; its signal is means[b] plus a centred r.
    Lanczos from r / ||r|| gives steps[b] basis rows Q (0 past them) and
    T = S diag(theta) S^T, so f applies as f(0) means[b] + Q^T S (f(theta) *
    coefficients), coefficients = ||r|| S[0] (Susnjara et al., 2015); theta,
    S and coefficients are zero-padded past steps[b].
    """

    sizes: np.ndarray  # (B,)
    means: np.ndarray  # (B,)
    steps: np.ndarray  # (B,)
    basis: np.ndarray  # (k, N)
    theta: np.ndarray  # (B, k)
    ritz_vectors: np.ndarray  # (B, k, k)
    coefficients: np.ndarray  # (B, k)
    lambda_max: np.ndarray  # (B,)


def eigendecompose(graph: PatchGraph, signal: np.ndarray, sizes) -> Spectrum:
    """Lockstep Lanczos spectra of ``signal`` on a ``spectral_chunks`` chunk of sides.

    ``graph`` is their ``chunk_graph`` and ``sizes`` their point counts.
    They run together, one sparse matvec per step: KRYLOV_STEPS steps for sides
    above LARGE_SIDE points, else SMALL_SIDE_STEPS. There is no
    reorthogonalisation (accurate for f(L) r, Musco et al., SODA 2018) unless
    every side spans its whole Krylov space, whose spectrum is then exact. A
    side's arithmetic reads only its points.

    lambda_max is the top Ritz value of a side that ran every step or at least
    n - 1. Any other, a constant signal (no step) included, takes the larger of
    that and the top of a run from ``default_rng(0).standard_normal(n)``.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    u = np.asarray(signal, dtype=np.float64)
    if u.shape != (graph.n,) or sizes.sum() != graph.n:
        raise ShapeError(f"signal length {u.shape} or block sizes do not match n={graph.n}")
    steps = KRYLOV_STEPS if sizes.max() > LARGE_SIDE else SMALL_SIDE_STEPS
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    means = np.add.reduceat(u, starts) / sizes
    # An exactly constant signal has no centred part, whatever the roundoff of its mean.
    flat = (np.maximum.reduceat(u, starts) == np.minimum.reduceat(u, starts))[block]
    try:
        norm, basis, theta, vectors, count = _lanczos(
            graph, sizes, np.where(flat, 0.0, u - means[block]), steps, sizes.max() <= steps + 1)
        top = theta[np.arange(len(sizes)), np.maximum(count, 1) - 1]
        rerun = (count < steps) & (count < sizes - 1)
        if rerun.any():
            keep = rerun[block]
            renumber, edges = np.cumsum(keep) - 1, keep[graph.edges_i]
            sub = PatchGraph(int(keep.sum()), renumber[graph.edges_i[edges]],
                             renumber[graph.edges_j[edges]], graph.weights[edges])
            start = np.concatenate([np.random.default_rng(0).standard_normal(n)
                                    for n in sizes[rerun]])
            _, _, again, _, ran = _lanczos(sub, sizes[rerun], start, steps)
            top[rerun] = np.maximum(top[rerun], again[np.arange(len(ran)), ran - 1])
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigendecomposition failed: {e}") from None
    return Spectrum(sizes, means, count, basis, theta, vectors, norm[:, None] * vectors[:, 0, :],
                    top)


def _lanczos(graph: PatchGraph, sizes, start, steps: int, reorthogonalise=False):
    """Lockstep Lanczos on each block's Laplacian: (||start||, basis, theta, S, steps).

    A block stops when its residual falls to 1e-10 times its largest degree (an
    invariant subspace: ||L|| <= 2 max degree) or its steps reach its size; one
    whose start is 0 runs none. ``reorthogonalise`` takes w's mean and its
    parts along earlier vectors out of w (classical Gram-Schmidt).
    """
    n, starts = graph.n, np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    degree = np.bincount(graph.edges_i, graph.weights, n) + np.bincount(graph.edges_j, graph.weights, n)
    lap = csr_matrix((np.concatenate([-graph.weights, -graph.weights, degree]),
                      (np.concatenate([graph.edges_i, graph.edges_j, np.arange(n)]),
                       np.concatenate([graph.edges_j, graph.edges_i, np.arange(n)]))), shape=(n, n))
    tol = 1e-10 * np.maximum.reduceat(degree, starts)
    norm = np.sqrt(np.add.reduceat(start * start, starts))
    q = start / np.where(norm > 0, norm, np.inf)[block]
    running, count = norm > 0, np.zeros(len(sizes), dtype=np.intp)
    basis = np.empty((steps, n))
    alpha, beta = np.zeros((len(sizes), steps)), np.zeros((len(sizes), steps))
    prev, b = np.zeros(n), np.zeros(len(sizes))
    for j in range(steps):
        count += running
        basis[j] = q
        w = lap @ q - b[block] * prev
        alpha[:, j] = a = np.add.reduceat(q * w, starts)
        w -= a[block] * q
        if reorthogonalise:
            w -= (np.add.reduceat(w, starts) / sizes)[block]
            dots = np.add.reduceat(basis[:j + 1] * w, starts, axis=1)
            w -= (basis[:j + 1] * dots[:, block]).sum(axis=0)
        b = np.sqrt(np.add.reduceat(w * w, starts))
        running &= (b > tol) & (count < sizes) & (j + 1 < steps)
        if not running.any():
            break
        beta[:, j] = b = np.where(running, b, 0.0)
        # A stopped block's q becomes 0 (w / inf), and so does all it adds later.
        prev, q = q, w / np.where(running, b, np.inf)[block]
    theta, vectors = np.zeros((len(sizes), j + 1)), np.zeros((len(sizes), j + 1, j + 1))
    for i, c in enumerate(count):
        if c:
            theta[i, :c], vectors[i, :c, :c] = eigh_tridiagonal(alpha[i, :c], beta[i, :c - 1])
    return norm, basis[:j + 1], theta, vectors, count
