"""High-quality regime: symmetric luminance PSNR, AR texture complexity, D_H.

The visible-difference score compensates the symmetric luminance PSNR with
the texture complexity of the reference: complex textures mask distortion,
so the same PSNR reads as higher quality on a busier reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .cloud import PointCloud, SpatialIndex
from .errors import CloudTooSmall

PEAK = 255.0
# Normalizer assumes per-point MSE >= 1 and mean |residual| < 2^8.
RESIDUAL_SPAN_BITS = 8.0
# Rows of the AR design factored, and then taken for residuals, at a time.
AR_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class VisibleDifference:
    psnr_y: float | None  # dB; None when the perfect marker is set
    perfect: bool  # symmetric MSE fell below the unity floor
    raw_mse: float  # max of the two directed MSEs, for diagnostics
    complexity: float  # C(X) >= 0
    d_h: float  # in (0, 1]


def _directed_mse(src: PointCloud, dst: PointCloud, nn: np.ndarray) -> float:
    diff = src.luminance - dst.luminance[nn]
    return float(np.mean(diff * diff))


def symmetric_mse(ref: PointCloud, dist: PointCloud, ref_index: SpatialIndex,
                  same_points: bool) -> float:
    """max of the two directed mean squared luminance errors under exact NN matching.

    ``same_points`` says that dist holds ref's positions in ref's order. Then
    point i of each cloud is the other's match, coincident points included,
    so both directions read mean((ref.luminance - dist.luminance)^2) and
    nothing is queried.
    """
    if same_points:
        return _directed_mse(ref, dist, np.arange(len(ref)))
    # Each direction queries in its query cloud's leaf order, from the other tree.
    dist_index = SpatialIndex(dist.positions)
    to_dist = dist_index.query_bulk(ref.positions, 1, order=ref_index.leaf_order)[:, 0]
    to_ref = ref_index.query_bulk(dist.positions, 1, order=dist_index.leaf_order)[:, 0]
    return max(_directed_mse(ref, dist, to_dist), _directed_mse(dist, ref, to_ref))


def ar_texture_complexity(ref: PointCloud, ref_index: SpatialIndex, k1: int) -> float:
    """Texture complexity of one global AR model of luminance on the K1-NN neighborhood.

    Design matrix row i holds the luminances of the K1 nearest neighbors of
    point i (self excluded). Solved as a single minimum-norm least-squares
    problem; complexity is log2(1 + mean |residual|).

    The fit is a blockwise QR (TSQR; Demmel et al., SIAM J. Sci. Comput.,
    2012): AR_BLOCK_ROWS rows of [design | luminance] at a time go under the
    running (K1 + 1)-square R factor and are factored again, and theta solves
    the top K1 rows of R with the full design's singular-value cutoff, so a
    rank-deficient design (a constant colour) keeps its minimum-norm answer.
    The residuals follow block by block; only the neighbour lists are N x K1.
    """
    n = len(ref)
    if n <= k1:
        raise CloudTooSmall(f"AR of order {k1} needs more than {k1} points, got {n}")
    lum = ref.luminance
    near = np.empty((n, k1), dtype=np.int32 if n <= np.iinfo(np.int32).max else np.intp)
    ref_index.query_bulk(ref.positions, k1, exclude_self=True, order=ref_index.leaf_order,
                         out=near)
    geqrf = get_lapack_funcs("geqrf", dtype=np.float64)
    r = np.zeros((k1 + 1, k1 + 1))
    for first in range(0, n, AR_BLOCK_ROWS):
        rows = slice(first, min(first + AR_BLOCK_ROWS, n))
        stack = np.empty((k1 + 1 + rows.stop - first, k1 + 1), order="F")
        stack[:k1 + 1], stack[k1 + 1:, :k1], stack[k1 + 1:, k1] = r, lum[near[rows]], lum[rows]
        qr, _, _, info = geqrf(stack, overwrite_a=True)
        if info:
            raise np.linalg.LinAlgError(f"geqrf failed with info {info}")
        r = np.triu(qr[:k1 + 1])
    theta = np.linalg.lstsq(r[:k1, :k1], r[:k1, k1], rcond=np.finfo(np.float64).eps * n)[0]
    residuals = np.empty(n)
    for first in range(0, n, AR_BLOCK_ROWS):
        rows = slice(first, first + AR_BLOCK_ROWS)
        np.abs(lum[rows] - lum[near[rows]] @ theta, out=residuals[rows])
    return math.log2(1.0 + float(np.mean(residuals)))


def upsilon(alpha: float) -> float:
    """Normalizer mapping compensated PSNR into (0, 1]."""
    return 10.0 * math.log10(PEAK * PEAK) + alpha * RESIDUAL_SPAN_BITS


def reference_masking(ref: PointCloud, k1: int) -> tuple[SpatialIndex, float]:
    """The reference-only half of D_H: ref's exact NN index and its complexity C(ref).

    Both serve every distorted copy of ref; the AR fit runs over that index.
    """
    ref_index = SpatialIndex(ref.positions)
    return ref_index, ar_texture_complexity(ref, ref_index, k1)


def visible_difference(
    ref: PointCloud,
    dist: PointCloud,
    ref_index: SpatialIndex,
    complexity: float,
    alpha: float,
    same_points: bool,
) -> VisibleDifference:
    """Masking-compensated visible difference D_H in (0, 1].

    ``ref_index`` and ``complexity`` come from ``reference_masking(ref, k1)``;
    ``same_points`` is passed on to ``symmetric_mse``.
    d_h = (PSNR_Y + alpha * C(ref)) / upsilon, clamped to 1 when the raw
    value exceeds 1 or the symmetric MSE is below the unity floor.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    d = symmetric_mse(ref, dist, ref_index, same_points)
    perfect = d < 1.0
    if perfect:
        return VisibleDifference(None, True, d, complexity, 1.0)
    psnr = 10.0 * math.log10(PEAK * PEAK / d)
    d_h = min((psnr + alpha * complexity) / upsilon(alpha), 1.0)
    return VisibleDifference(psnr, False, d, complexity, d_h)
