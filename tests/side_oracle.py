"""The per-side patch graph and WCM: the oracle of phm's bulk kernels.

phm builds the graphs, smoothness and WCMs of all the patch sides of a cloud
in a few array passes. Here are the same steps one side at a time, as phm
ran them before: ``build_patch_graph`` on a side's own ``SpatialIndex``
with ``np.unique`` edges, ``graph_smoothness`` as one edge sum, and
``build_wcm`` and ``_pearson`` on one band pair. The bulk kernels must give
the same bits.

``side_graph``, ``side_wcm`` and ``pearson`` run one side through phm's bulk
kernels instead, with the per-side call shape.
"""

import numpy as np

from phm.appearance import _pearson as bulk_pearson
from phm.appearance import build_wcm as bulk_wcm
from phm.appearance import quantize
from phm.cloud import SpatialIndex
from phm.errors import PhmError, ShapeError
from phm.patches import DEFAULT_GRAPH_KNN, PatchGraph
from phm.patches import build_patch_graph as bulk_graph


class DegeneratePatch(PhmError):
    """Patch cannot support a graph (fewer than 2 points, or zero variance)."""

    exit_code = 3


def build_patch_graph(points, k2=DEFAULT_GRAPH_KNN):
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
    nbrs = SpatialIndex(pos).query_bulk(pos, k, exclude_self=True)
    src = np.repeat(np.arange(n, dtype=np.intp), k)
    dst = nbrs.ravel()
    ei, ej = np.divmod(np.unique(np.minimum(src, dst) * n + np.maximum(src, dst)), n)
    d = pos[ei] - pos[ej]
    d2 = (d * d).sum(axis=1)
    sigma2 = float(d2.mean())
    if sigma2 == 0.0:
        raise DegeneratePatch("all selected neighbor pairs are coincident")
    return PatchGraph(n, ei, ej, np.exp(-d2 / sigma2), sigma2)


def graph_smoothness(graph, signal):
    """Quadratic-form smoothness f^T L f via the stabler edge-sum form."""
    f = np.asarray(signal, dtype=np.float64)
    if f.shape != (graph.n,):
        raise ShapeError(f"signal length {f.shape} does not match n={graph.n}")
    d = f[graph.edges_i] - f[graph.edges_j]
    return float(graph.weights @ (d * d))


def build_wcm(graph, band, partner_band, num_bins=50):
    """Normalized (Nb, Nb) WCM of ``band`` on ``graph``, quantized over both bands' range."""
    lo = min(band.min(), partner_band.min())
    hi = max(band.max(), partner_band.max())
    if hi > lo:
        bins = np.clip(((band - lo) / (hi - lo) * num_bins).astype(np.intp), 0, num_bins - 1)
    else:
        bins = np.zeros(graph.n, dtype=np.intp)
    m, n = bins[graph.edges_i], bins[graph.edges_j]
    size = num_bins * num_bins
    acc = np.bincount(m * num_bins + n, weights=graph.weights, minlength=size)
    off = m != n
    acc += np.bincount(n[off] * num_bins + m[off], weights=graph.weights[off], minlength=size)
    mat = acc.reshape(num_bins, num_bins)
    return mat / mat.sum()


def _pearson(a, b):
    """Pearson correlation of two flattened matrices with zero-variance guards."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    ac = a - a.mean()
    bc = b - b.mean()
    na = ac @ ac
    nb = bc @ bc
    if na == 0.0 and nb == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float((ac @ bc) / np.sqrt(na * nb))


def side_graph(points, k2=DEFAULT_GRAPH_KNN):
    """One side's graph from phm's bulk ``build_patch_graph``, as a PatchGraph.

    Raises DegeneratePatch where the bulk kernel marks the side invalid.
    """
    pos = np.asarray(points, dtype=np.float64)
    sides = bulk_graph(pos, [len(pos)], k2)
    if not sides.valid[0]:
        raise DegeneratePatch("side has no graph")
    return PatchGraph(len(pos), sides.edges_i, sides.edges_j, sides.weights, float(sides.sigma2[0]))


def side_wcm(graph, band, partner_band, num_bins=50):
    """(Nb, Nb) WCM of one side through phm's ``quantize`` and ``build_wcm``."""
    lo = min(band.min(), partner_band.min())
    hi = max(band.max(), partner_band.max())
    bins = quantize(np.asarray(band, dtype=np.float64), [lo], [hi - lo if hi > lo else 1.0],
                    [graph.n], num_bins)
    return bulk_wcm(graph, bins, [graph.n], num_bins).reshape(num_bins, num_bins)


def pearson(a, b):
    """phm's row-wise ``_pearson`` on two flattened matrices, as a float."""
    return float(bulk_pearson(np.ravel(a), np.ravel(b)))
