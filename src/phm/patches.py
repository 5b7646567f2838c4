"""Voronoi patch pairing, per-patch weighted graphs and their spectra.

The reference cloud is split by farthest-point-sampled seeds, once per
reference; each distorted cloud is then partitioned by nearest seed. A
cloud's cells are its points listed cell by cell and each cell's count. The
patches of one cloud get their Gaussian-weighted KNN graphs in groups of
whole cells, written into one edge list. ``eigendecompose`` gives the Lanczos
spectra of a signal on a chunk of such graphs at once, and the wavelet
analysis downstream filters through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .cloud import PointCloud, SpatialIndex, farthest_point_sample, ranked_knn
from .errors import ShapeError, SpectralError

# Lanczos steps for a patch of more than LARGE_SIDE points, and for smaller ones.
LARGE_SIDE = 201
KRYLOV_STEPS = 120
SMALL_SIDE_STEPS = 40
# Most points in one chunk of ``eigendecompose`` and in one group of whole cells
# that ``build_patch_graph`` graphs at once (a larger side is a block of its own).
# Chunks this small keep the steps x points basis and the Lanczos vectors in
# cache; groups this small bound the graph pass's temporaries: a group's edge
# keys, their sort and its lifted tree.
CHUNK_POINTS = 4096


def reference_cells(ref: PointCloud,
                    num_cells: int) -> tuple[SpatialIndex, np.ndarray, np.ndarray]:
    """Split the reference into the Voronoi cells of its FPS seeds.

    Returns (seed_index, order, sizes): ``order`` lists the reference points
    cell by cell, ascending within each cell, and ``sizes`` counts each
    cell's points; ``seed_index`` assigns the points of any other cloud to
    the same cells. The partition is exhaustive and disjoint.
    """
    seeds = farthest_point_sample(ref, num_cells)
    seed_index = SpatialIndex(ref.positions[seeds])
    return seed_index, *partition_into_patch_pairs(seed_index, ref)


def partition_into_patch_pairs(seed_index: SpatialIndex,
                               cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """(order, sizes): the points of ``cloud`` listed cell by cell, ascending within each
    cell, and each cell's count, a cell being the points nearest one seed of ``seed_index``.

    A point on a cell boundary goes to the lower seed id (``query_bulk`` ranks ties
    by index), and a cell may be empty.
    """
    cell_of = seed_index.query_bulk(cloud.positions, 1)[:, 0]
    return np.argsort(cell_of, kind="stable"), np.bincount(cell_of, minlength=seed_index.n)


@dataclass(frozen=True)
class CloudSides:
    """Patch sides, such as those of one cloud: their cells' points one after another.

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
    def n(self) -> int:
        return int(self.sizes.sum())

    @property
    def valid(self) -> np.ndarray:
        return self.sigma2 > 0


def build_patch_graph(points: np.ndarray, sizes, k2: int) -> CloudSides:
    """Each cell's KNN graph (union-symmetrized) with weights exp(-||d||^2 / sigma^2).

    ``points`` holds the cells one after another and ``sizes`` their point
    counts. A point links to its min(k2, n - 1) nearest others in its cell
    of n, ranked as ``SpatialIndex.query_bulk`` ranks them; sigma^2 is the
    mean squared length over the cell's undirected edges. The cells are
    graphed in groups of consecutive whole cells of at most CHUNK_POINTS
    points, or one larger cell, each group on its own, and a cell's record
    does not depend on the group it is in. Each group's edges are written in
    place into arrays sized for N min(k2, largest cell - 1) edges, which are
    then shrunk to the E written.
    """
    pos, sizes = np.asarray(points, dtype=np.float64), np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    # No cell has more edges than points times its links per point.
    capacity = len(pos) * min(k2, max(int(sizes.max(initial=0)) - 1, 0))
    ei, ej, weights = np.empty(capacity, np.intp), np.empty(capacity, np.intp), np.empty(capacity)
    counts = np.empty(len(sizes), np.intp)
    sigma2, smoothness = np.empty(len(sizes)), np.empty((len(sizes), 3))
    edges = 0
    for a, b in _runs(sizes, CHUNK_POINTS):
        first = starts[a]
        gi, gj, gw, counts[a:b], sigma2[a:b], smoothness[a:b] = _group_graph(
            pos[first:first + sizes[a:b].sum()], sizes[a:b], k2)
        end = edges + len(gi)
        np.add(gi, first, out=ei[edges:end])
        np.add(gj, first, out=ej[edges:end])
        weights[edges:end], edges = gw, end
    for field in (ei, ej, weights):
        field.resize(edges, refcheck=False)  # shrunk in place (realloc); no view of them exists
    return CloudSides(starts, sizes, ei, ej, weights, np.append(0, np.cumsum(counts)), sigma2,
                      smoothness)


def _runs(sizes: np.ndarray, limit: int, kinds: np.ndarray | None = None) -> list[tuple[int, int]]:
    """(first, end) of each run of consecutive ``sizes`` that sum to at most ``limit``, or
    of one larger size, and are all of one of ``kinds`` if given. A zero size joins the run
    before it, so a run holds points unless every size is 0; empty ``sizes`` are one empty run."""
    bounds, points = [0], 0
    kinds = [0] * len(sizes) if kinds is None else kinds.tolist()
    for i, n in enumerate(sizes.tolist()):
        if n and points and (points + n > limit or kinds[i] != kinds[i - 1]):
            bounds.append(i)
            points = 0
        points += n
    bounds.append(len(sizes))
    return list(zip(bounds[:-1], bounds[1:]))


def _group_graph(pos: np.ndarray, sizes: np.ndarray, k2: int):
    """``build_patch_graph`` of one group of cells, indexed within the group:
    (edges_i, edges_j, weights, edges per cell, sigma2, smoothness).

    One tree over (x, y, z, cell * D), with D above twice any distance in the
    group, serves every cell of it: a row that sees another cell's point has
    seen its own whole cell first.
    """
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
    counts = np.diff(edge_starts)
    sq = np.ascontiguousarray(np.square(pos[ei] - pos[ej]).T)  # unit-stride rows for BLAS
    d2 = sq[0] + sq[1] + sq[2]
    sigma2, smoothness = np.zeros(len(sizes)), np.zeros((len(sizes), 3))
    for c in np.flatnonzero(counts):
        sigma2[c] = d2[edge_starts[c]:edge_starts[c + 1]].mean()
    weights = np.exp(-d2 / np.repeat(np.where(sigma2 > 0, sigma2, 1.0), counts))
    for c in np.flatnonzero(sigma2 > 0):
        lo, hi = edge_starts[c], edge_starts[c + 1]
        smoothness[c] = np.vecdot(sq[:, lo:hi], weights[lo:hi]) / sizes[c]
    return ei, ej, weights, counts, sigma2, smoothness


def concat_ranges(starts, counts) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i] - 1, joined in order."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def chunk_graph(sides: CloudSides, cells) -> tuple[CloudSides, np.ndarray]:
    """(chunk, points): the ascending ``cells`` of ``sides`` renumbered from 0, without
    bands, and the positions of their points in ``sides``."""
    sizes, counts = sides.sizes[cells], np.diff(sides.edge_starts)[cells]
    starts = np.cumsum(sizes) - sizes
    edges = concat_ranges(sides.edge_starts[cells], counts)
    shift = np.repeat(starts - sides.starts[cells], counts)
    chunk = CloudSides(starts, sizes, sides.edges_i[edges] + shift, sides.edges_j[edges] + shift,
                       sides.weights[edges], np.append(0, np.cumsum(counts)),
                       sides.sigma2[cells], sides.smoothness[cells])
    return chunk, concat_ranges(sides.starts[cells], sizes)


def spectral_chunks(sizes) -> list[list[int]]:
    """Group the cells of nonzero ``sizes`` into chunks for ``eigendecompose``.

    A chunk holds at most CHUNK_POINTS points, or one larger side alone, of
    one class: above LARGE_SIDE points, at most SMALL_SIDE_STEPS + 1 (a
    whole Krylov space), or in between. Sides go in by size, so the sides of
    a chunk of whole Krylov spaces stop after similar step counts.
    """
    order = np.argsort(sizes, kind="stable")
    order = order[sizes[order] > 0]
    n = sizes[order]
    kinds = (n > SMALL_SIDE_STEPS + 1).astype(int) + (n > LARGE_SIDE)
    return [order[a:b].tolist() for a, b in _runs(n, CHUNK_POINTS, kinds) if b > a]


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


def eigendecompose(chunk: CloudSides, signal: np.ndarray) -> Spectrum:
    """Lockstep Lanczos spectra of ``signal`` on a ``spectral_chunks`` chunk of sides.

    ``chunk`` is their ``chunk_graph``. They run together, one sparse matvec
    per step: KRYLOV_STEPS steps for sides above LARGE_SIDE points, else
    SMALL_SIDE_STEPS. There is no reorthogonalisation (accurate for f(L) r,
    Musco et al., SODA 2018) unless every side spans its whole Krylov space,
    whose spectrum is then exact. A side's arithmetic reads only its points.

    lambda_max is the top Ritz value of a side that ran every step or at least
    n - 1. Any other, a constant signal (no step) included, takes the larger of
    that and the top of a run from ``default_rng(0).standard_normal(n)``.
    """
    sizes, starts = chunk.sizes, chunk.starts
    u = np.asarray(signal, dtype=np.float64)
    if u.shape != (chunk.n,):
        raise ShapeError(f"signal length {u.shape} does not match n={chunk.n}")
    steps = KRYLOV_STEPS if sizes.max() > LARGE_SIDE else SMALL_SIDE_STEPS
    block = np.repeat(np.arange(len(sizes)), sizes)
    means = np.add.reduceat(u, starts) / sizes
    # An exactly constant signal has no centred part, whatever the roundoff of its mean.
    flat = (np.maximum.reduceat(u, starts) == np.minimum.reduceat(u, starts))[block]
    try:
        norm, basis, theta, vectors, count = _lanczos(
            chunk, np.where(flat, 0.0, u - means[block]), steps, sizes.max() <= steps + 1)
        top = theta[np.arange(len(sizes)), np.maximum(count, 1) - 1]
        rerun = (count < steps) & (count < sizes - 1)
        if rerun.any():
            start = np.concatenate([np.random.default_rng(0).standard_normal(n)
                                    for n in sizes[rerun]])
            sub, _ = chunk_graph(chunk, np.flatnonzero(rerun))
            _, _, again, _, ran = _lanczos(sub, start, steps)
            top[rerun] = np.maximum(top[rerun], again[np.arange(len(ran)), ran - 1])
    except np.linalg.LinAlgError as e:
        raise SpectralError(f"eigendecomposition failed: {e}") from None
    return Spectrum(sizes, means, count, basis, theta, vectors, norm[:, None] * vectors[:, 0, :],
                    top)


def _lanczos(chunk: CloudSides, start, steps: int, reorthogonalise=False):
    """Lockstep Lanczos on each side's Laplacian: (||start||, basis, theta, S, steps).

    A side stops when its residual falls to 1e-10 times its largest degree (an
    invariant subspace: ||L|| <= 2 max degree) or its steps reach its size; one
    whose start is 0 runs none. ``reorthogonalise`` takes w's mean and its
    parts along earlier vectors out of w (classical Gram-Schmidt).
    """
    n, sizes, starts = chunk.n, chunk.sizes, chunk.starts
    ei, ej, weights = chunk.edges_i, chunk.edges_j, chunk.weights
    block = np.repeat(np.arange(len(sizes)), sizes)
    degree = np.bincount(ei, weights, n) + np.bincount(ej, weights, n)
    lap = csr_matrix((np.concatenate([-weights, -weights, degree]),
                      (np.concatenate([ei, ej, np.arange(n)]),
                       np.concatenate([ej, ei, np.arange(n)]))), shape=(n, n))
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
        # A stopped side's q becomes 0 (w / inf), and so does all it adds later.
        prev, q = q, w / np.where(running, b, np.inf)[block]
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise np.linalg.LinAlgError("non-finite Lanczos coefficients")
    stevd = get_lapack_funcs("stevd", dtype=np.float64)  # eigh_tridiagonal's, without its checks
    theta, vectors = np.zeros((len(sizes), j + 1)), np.zeros((len(sizes), j + 1, j + 1))
    for i, c in enumerate(count):
        if c > 1:
            theta[i, :c], vectors[i, :c, :c], info = stevd(alpha[i, :c], beta[i, :c - 1])
            if info:
                raise np.linalg.LinAlgError(f"stevd failed with info {info}")
        elif c:  # stevd refuses an empty off-diagonal
            theta[i, 0], vectors[i, 0, 0] = alpha[i, 0], 1.0
    return norm, basis[:j + 1], theta, vectors, count
