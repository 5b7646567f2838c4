"""Low-quality regime: appearance degradation from graph smoothness and SGWT.

``prepare_sides`` builds what each side of a patch pair contributes, on its
own graph and spectrum: per-axis coordinate smoothness and the
spectral graph wavelet sub-bands of luminance. Geometry degradation then
compares the smoothness of the two sides; texture degradation compares
weighted co-occurrence matrices of their sub-bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DegeneratePatch, NoValidPatches, ShapeError
from .patches import (PatchGraph, Spectrum, build_patch_graph, cap_indices, eigendecompose,
                      spectral_chunks, stack_graphs)

DEFAULT_STABILIZER = 1e-6
DEFAULT_NUM_BANDPASS = 3
DEFAULT_NUM_BINS = 50
# Scaling-function support relative to the spectrum: lambda_min = lambda_max / 20.
SCALE_SPAN = 20.0


def graph_smoothness(graph: PatchGraph, signal: np.ndarray) -> float:
    """Quadratic-form smoothness f^T L f via the stabler edge-sum form."""
    f = np.asarray(signal, dtype=np.float64)
    if f.shape != (graph.n,):
        raise ShapeError(f"signal length {f.shape} does not match n={graph.n}")
    d = f[graph.edges_i] - f[graph.edges_j]
    return float(graph.weights @ (d * d))


@dataclass(frozen=True)
class PreparedSide:
    """One side of a patch pair: everything its comparisons read.

    ``smoothness`` holds the x/y/z coordinate smoothness on the side's own
    graph, each divided by its point count; ``bands`` the (C + 1, n) SGWT
    sub-bands of its luminance on its own spectrum.
    """

    graph: PatchGraph
    capped: bool
    smoothness: tuple[float, float, float]
    bands: np.ndarray


def prepare_sides(
    cloud: PointCloud,
    cells: list[np.ndarray],
    k2: int,
    num_bandpass: int = DEFAULT_NUM_BANDPASS,
    continuous_tail: bool = True,
) -> list[PreparedSide | None]:
    """Cap, gather, graph and filter each cell of a cloud; None for a cell without a graph.

    Sides are filtered one ``spectral_chunks`` chunk at a time; a side's
    bands do not depend on its chunk.
    """
    built = []  # (idx, graph, capped, smoothness), or None
    for idx in cells:
        idx, capped = cap_indices(idx)
        positions = cloud.positions[idx]
        try:
            graph = build_patch_graph(positions, k2)
        except DegeneratePatch:
            built.append(None)
            continue
        smoothness = tuple(graph_smoothness(graph, positions[:, axis]) / graph.n for axis in range(3))
        built.append((idx, graph, capped, smoothness))
    sides: list[PreparedSide | None] = [None] * len(built)
    graphs = [None if side is None else side[1] for side in built]
    for chunk in spectral_chunks(graphs):
        luminance = np.concatenate([cloud.luminance[built[i][0]] for i in chunk])
        spectrum = eigendecompose(stack_graphs([graphs[i] for i in chunk]), luminance,
                                  [graphs[i].n for i in chunk])
        bands = sgwt_decompose(spectrum, num_bandpass, continuous_tail)
        for i, side_bands in zip(chunk, np.split(bands, np.cumsum(spectrum.sizes[:-1]), axis=1)):
            sides[i] = PreparedSide(*built[i][1:], side_bands)
    return sides


def prepare_pairs(
    ref_sides: list[PreparedSide | None],
    dist: PointCloud,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    k2: int,
    num_bandpass: int = DEFAULT_NUM_BANDPASS,
    continuous_tail: bool = True,
) -> list[tuple[PreparedSide | None, PreparedSide | None]]:
    """Pair each prepared reference side with its distorted side, prepared here.

    ``pairs`` comes from ``partition_into_patch_pairs`` over the cells that
    ``ref_sides`` was prepared from, with the same ``k2``, ``num_bandpass``
    and ``continuous_tail``.
    """
    dist_sides = prepare_sides(dist, [di for _, di in pairs], k2, num_bandpass, continuous_tail)
    return list(zip(ref_sides, dist_sides))


def _compare(prepared, similarity):
    """(per-pair rows, mean of all values): None rows for pairs with a degenerate side.

    Raises NoValidPatches when no pair has two sides.
    """
    rows = []
    values: list[float] = []
    for px, py in prepared:
        if px is None or py is None:
            rows.append(None)
            continue
        row = similarity(px, py)
        rows.append(row)
        values.extend(row)
    if not values:
        raise NoValidPatches("every patch pair was degenerate")
    return rows, float(np.mean(values))


def _smoothness_similarity(sx: float, sy: float, t: float) -> float:
    return (2.0 * sx * sy + t) / (sx * sx + sy * sy + t)


def geometry_degradation(
    prepared: list[tuple[PreparedSide | None, PreparedSide | None]],
    stabilizer: float = DEFAULT_STABILIZER,
) -> tuple[list[tuple[float, float, float] | None], float]:
    """Per-patch smoothness similarity over x/y/z and its global mean.

    Pairs with a degenerate side are excluded from the mean (None in the
    per-patch list). Raises NoValidPatches when nothing survives.
    """
    return _compare(prepared, lambda px, py: tuple(
        _smoothness_similarity(sx, sy, stabilizer)
        for sx, sy in zip(px.smoothness, py.smoothness)))


def band_pass(x: np.ndarray, continuous_tail: bool = True) -> np.ndarray:
    """Band-pass g: x^2 below 1, cubic on [1, 2], 4/x^2 above (1/x^2 without continuous_tail)."""
    arr = np.asarray(x, dtype=np.float64)
    tail_scale = 4.0 if continuous_tail else 1.0
    out = np.empty_like(arr)
    low = arr < 1.0
    high = arr > 2.0
    mid = ~(low | high)
    out[low] = arr[low] ** 2
    lm = arr[mid]
    out[mid] = ((lm - 6.0) * lm + 11.0) * lm - 5.0
    out[high] = tail_scale / (arr[high] ** 2)
    return out


# Max of g: the cubic at the root of 3 x^2 - 12 x + 11 inside [1, 2]. It is
# the low-pass kernel's height, so h(0) = max g.
GAMMA = float(band_pass(np.array([2.0 - 1.0 / math.sqrt(3.0)]))[0])


def sgwt_decompose(
    spectrum: Spectrum,
    num_bandpass: int = DEFAULT_NUM_BANDPASS,
    continuous_tail: bool = True,
) -> np.ndarray:
    """Filter a chunk's signal through PHM's wavelet kernels: a (C + 1, N) array.

    ``spectrum`` comes from ``eigendecompose``. Each block's kernels take its
    own lambda_max, and lambda_min = lambda_max / SCALE_SPAN: row 0 is the
    low-pass GAMMA * exp(-(lam / (0.6 lambda_min))^4), rows 1..C the
    band-pass g(t lam) at scales t log-equispaced from 2/lambda_max to
    2/lambda_min. Row c of block b is f_c(0) mean_b + sum_j basis[j]
    z[c, b, j], z = S (f_c(theta) * coefficients), summed elementwise in a
    fixed order, so a block's bands read only its own values.
    """
    lam, lambda_max = spectrum.theta, spectrum.lambda_max[:, None]
    lambda_min = lambda_max / SCALE_SPAN
    kernels = [GAMMA * np.exp(-((lam / (0.6 * lambda_min)) ** 4))] + [
        band_pass(t * lam, continuous_tail)
        for t in np.geomspace(2.0 / lambda_max, 2.0 / lambda_min, num_bandpass)]
    weighted = spectrum.coefficients * np.array(kernels)  # (C + 1, B, k)
    z = np.zeros((weighted.shape[2],) + weighted.shape[:2])  # (k, C + 1, B)
    for j in range(len(z)):
        z += spectrum.ritz_vectors[:, :, j].T[:, None, :] * weighted[:, :, j]
    out = np.zeros((num_bandpass + 1, spectrum.sizes.sum()))
    out[0] = GAMMA * np.repeat(spectrum.means, spectrum.sizes)  # the mean passes: g(0) = 0
    for q, zq in zip(spectrum.basis, z):
        out += q * np.repeat(zq, spectrum.sizes, axis=1)
    return out


def build_wcm(
    graph: PatchGraph,
    band: np.ndarray,
    partner_band: np.ndarray,
    num_bins: int = DEFAULT_NUM_BINS,
) -> np.ndarray:
    """Normalized (Nb, Nb) WCM of ``band`` on ``graph``, quantized over the shared range.

    The bin range covers the concatenation of band and partner_band so the
    two sides of a pair are histogrammed identically. Each undirected edge
    adds its weight at (m, n) and, when m != n, at (n, m); the matrix is
    then normalized to unit mass.
    """
    if num_bins < 2:
        raise ValueError("num_bins must be >= 2")
    band = np.asarray(band, dtype=np.float64)
    if band.shape != (graph.n,):
        raise ShapeError(f"band length {band.shape} does not match n={graph.n}")
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


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two flattened matrices with zero-variance guards.

    Both constant: 1 if equal, else 0. Exactly one constant: 0. Identical
    inputs yield exactly 1.0 (sqrt of a squared norm is exact).
    """
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


def texture_degradation(
    prepared: list[tuple[PreparedSide | None, PreparedSide | None]],
    num_bins: int = DEFAULT_NUM_BINS,
) -> tuple[list[list[float] | None], float]:
    """Per-(patch, band) WCM correlation of the sides' sub-bands and its mean.

    Each band pair shares one quantization range. Degenerate pairs
    contribute None rows and are left out of the mean.
    """
    return _compare(prepared, lambda px, py: [
        _pearson(build_wcm(px.graph, bx, by, num_bins), build_wcm(py.graph, by, bx, num_bins))
        for bx, by in zip(px.bands, py.bands)])


def fuse_appearance(d_l_o: float, d_l_i: float, mode: str = "multiply") -> float:
    """Combine geometry and texture degradation into D_L.

    multiply: sqrt(d_l_o * max(d_l_i, 0)) keeps the power at one; average
    is the arithmetic-mean variant. Negative texture correlation is
    clamped so the square root stays real.
    """
    if mode == "multiply":
        return math.sqrt(d_l_o * max(d_l_i, 0.0))
    if mode == "average":
        return (d_l_o + d_l_i) / 2.0
    raise ValueError(f"unknown fusion mode {mode!r}")
