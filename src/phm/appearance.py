"""Low-quality regime: appearance degradation from graph smoothness and SGWT.

``prepare_sides`` builds what each side of every patch pair of a cloud
contributes, on its own graph and spectrum: per-axis coordinate smoothness
and the spectral graph wavelet sub-bands of luminance. ``filter_sides`` is
its second half: the sub-bands of a luminance on graphs already built.
Geometry degradation compares the two sides' smoothness; texture
degradation compares weighted co-occurrence matrices of their sub-bands.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .cloud import PointCloud
from .patches import (CloudSides, Spectrum, build_patch_graph, chunk_graph, eigendecompose,
                      spectral_chunks)

# Most WCM entries one ``build_wcm`` call of ``texture_degradation`` holds: 13
# cells at 50 bins, small enough that a chunk's matrices stay in cache.
WCM_CHUNK_ENTRIES = 1 << 15
# Scaling-function support relative to the spectrum: lambda_min = lambda_max / 20.
SCALE_SPAN = 20.0


def prepare_sides(
    cloud: PointCloud,
    order: np.ndarray,
    sizes: np.ndarray,
    k2: int,
    num_bandpass: int,
) -> CloudSides:
    """Graph a cloud's cells, its points in ``order`` and ``sizes`` per cell, then filter them."""
    sides = build_patch_graph(cloud.positions[order], sizes, k2)
    return filter_sides(sides, cloud.luminance[order], num_bandpass)


def filter_sides(
    sides: CloudSides,
    luminance: np.ndarray,
    num_bandpass: int,
) -> CloudSides:
    """``sides`` with the SGWT sub-bands of ``luminance``, given in their point order.

    Sides are filtered one ``spectral_chunks`` chunk at a time; a side's
    bands do not depend on its chunk.
    """
    bands = np.zeros((num_bandpass + 1, len(luminance)))
    for cells in spectral_chunks(np.where(sides.valid, sides.sizes, 0)):
        chunk, points = chunk_graph(sides, cells)
        bands[:, points] = sgwt_decompose(eigendecompose(chunk, luminance[points]), num_bandpass)
    return replace(sides, bands=bands)


def prepare_pairs(
    ref_sides: CloudSides,
    dist: PointCloud,
    dist_cells: tuple[np.ndarray, np.ndarray],
    k2: int,
    num_bandpass: int,
) -> tuple[CloudSides, CloudSides]:
    """The prepared reference sides and the distorted sides, prepared here from the
    ``partition_into_patch_pairs`` cells ``dist_cells``, with the ``k2`` and ``num_bandpass``
    that ``ref_sides`` was prepared with."""
    return ref_sides, prepare_sides(dist, *dist_cells, k2, num_bandpass)


def _smoothness_similarity(sx: float, sy: float, t: float) -> float:
    return (2.0 * sx * sy + t) / (sx * sx + sy * sy + t)


def geometry_degradation(
    prepared: tuple[CloudSides, CloudSides],
    cells: np.ndarray,
    stabilizer: float,
) -> np.ndarray:
    """(cells, 3) x/y/z smoothness similarity of the two sides of each of ``cells``.

    ``cells`` are cells where both sides have a graph.
    """
    ref, dist = prepared
    return _smoothness_similarity(ref.smoothness[cells], dist.smoothness[cells], stabilizer)


def band_pass(x: np.ndarray) -> np.ndarray:
    """Band-pass g: x^2 below 1, cubic on [1, 2], 4/x^2 above; continuous at 1 and 2."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    low = arr < 1.0
    high = arr > 2.0
    mid = ~(low | high)
    out[low] = arr[low] ** 2
    lm = arr[mid]
    out[mid] = ((lm - 6.0) * lm + 11.0) * lm - 5.0
    out[high] = 4.0 / (arr[high] ** 2)
    return out


# Max of g: the cubic at the root of 3 x^2 - 12 x + 11 inside [1, 2]. It is
# the low-pass kernel's height, so h(0) = max g.
GAMMA = float(band_pass(np.array([2.0 - 1.0 / math.sqrt(3.0)]))[0])


def sgwt_decompose(
    spectrum: Spectrum,
    num_bandpass: int,
) -> np.ndarray:
    """Filter a chunk's signal through PHM's wavelet kernels: a (C + 1, N) array.

    ``spectrum`` comes from ``eigendecompose``. Each block's kernels take its
    own lambda_max, and lambda_min = lambda_max / SCALE_SPAN: row 0 is the
    low-pass GAMMA * exp(-(lam / (0.6 lambda_min))^4), rows 1..C the
    band-pass g(t lam) at scales t log-equispaced from 2/lambda_max to
    2/lambda_min. Block b of c = steps[b] basis rows Q gets f(0) mean_b +
    (f(theta) * coefficients) S^T Q, two products over its own c rows and
    columns only, so a block's bands read only its own values.
    """
    lam, lambda_max = spectrum.theta, spectrum.lambda_max[:, None]
    lambda_min = lambda_max / SCALE_SPAN
    kernels = [GAMMA * np.exp(-((lam / (0.6 * lambda_min)) ** 4))] + [
        band_pass(t * lam)
        for t in np.geomspace(2.0 / lambda_max, 2.0 / lambda_min, num_bandpass)]
    weighted = spectrum.coefficients * np.array(kernels)  # (C + 1, B, k)
    out = np.empty((num_bandpass + 1, spectrum.sizes.sum()))
    lo = 0
    for b, (n, c) in enumerate(zip(spectrum.sizes, spectrum.steps)):
        z = weighted[:, b, :c] @ spectrum.ritz_vectors[b, :c, :c].T
        out[:, lo:lo + n] = z @ spectrum.basis[:c, lo:lo + n]
        lo += n
    out[0] += GAMMA * np.repeat(spectrum.means, spectrum.sizes)  # the mean passes: g(0) = 0
    return out


def quantize(band: np.ndarray, lo, span, sizes, num_bins: int) -> np.ndarray:
    """Bins of ``band`` over blocks of ``sizes`` points, block b's [lo, lo + span] in num_bins."""
    scaled = (band - np.repeat(lo, sizes)) / np.repeat(span, sizes) * num_bins
    return np.clip(scaled.astype(np.intp), 0, num_bins - 1)


def build_wcm(chunk: CloudSides, bins: np.ndarray, num_bins: int) -> np.ndarray:
    """Normalized (B, Nb * Nb) WCMs of the B sides of ``chunk``.

    bins[i] is point i's bin. Each undirected edge adds its weight at (m, n)
    and, when m != n, at (n, m), in edge order; each matrix is then
    normalized to unit mass.
    """
    size, sides = num_bins * num_bins, len(chunk.sizes)
    slot = np.repeat(np.arange(sides) * size, chunk.sizes)[chunk.edges_i]
    m, n = bins[chunk.edges_i], bins[chunk.edges_j]
    acc = np.bincount(slot + m * num_bins + n, chunk.weights, sides * size)
    off = m != n
    acc += np.bincount((slot + n * num_bins + m)[off], chunk.weights[off], sides * size)
    acc = acc.reshape(sides, size)
    return acc / acc.sum(axis=1, keepdims=True)


def _pearson(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pearson correlation of matching rows (the last axis) with zero-variance guards.

    Both constant: 1 if equal, else 0. Exactly one constant: 0. Identical
    rows yield exactly 1.0 (sqrt of a squared norm is exact).
    """
    ac = a - a.mean(axis=-1, keepdims=True)
    bc = b - b.mean(axis=-1, keepdims=True)
    na, nb = np.vecdot(ac, ac), np.vecdot(bc, bc)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.vecdot(ac, bc) / np.sqrt(na * nb)
    return np.where((na == 0.0) | (nb == 0.0), (na == nb) & (a == b).all(axis=-1), r)


def texture_degradation(
    prepared: tuple[CloudSides, CloudSides],
    cells: np.ndarray,
    num_bins: int,
) -> np.ndarray:
    """(cells, C + 1) WCM correlations of the two sides' sub-bands, band by band.

    ``cells`` are cells where both sides have a graph. Each band pair shares
    one quantization range. The WCMs are built one band and at most
    WCM_CHUNK_ENTRIES entries per side at a time.
    """
    step = max(1, WCM_CHUNK_ENTRIES // (num_bins * num_bins))
    out = np.empty((len(cells), len(prepared[0].bands)))
    for a in range(0, len(cells), step):
        sides = []  # (chunk, bands) of each side of the chunk's cells
        for side in prepared:
            chunk, points = chunk_graph(side, cells[a:a + step])
            sides.append((chunk, side.bands[:, points]))
        lo = np.minimum(*(np.minimum.reduceat(b, g.starts, axis=1) for g, b in sides))
        hi = np.maximum(*(np.maximum.reduceat(b, g.starts, axis=1) for g, b in sides))
        span = np.where(hi > lo, hi - lo, 1.0)  # a flat band pair sits at lo: bin 0
        for c in range(len(out[0])):
            out[a:a + step, c] = _pearson(*(
                build_wcm(g, quantize(b[c], lo[c], span[c], g.sizes, num_bins), num_bins)
                for g, b in sides))
    return out


def fuse_appearance(d_l_o: float, d_l_i: float, mode: str) -> float:
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
