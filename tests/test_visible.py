import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phm.cloud import PointCloud, SpatialIndex
from phm.errors import CloudTooSmall
from phm.synthetic import synthetic_cloud
from phm.visible import (
    ar_texture_complexity,
    reference_masking,
    symmetric_mse,
    upsilon,
    visible_difference,
)

from conftest import random_cloud


def cloud_with_luminance(positions, luma):
    """Grayscale cloud: equal RGB channels give luminance == channel value."""
    col = np.repeat(np.round(np.asarray(luma))[:, None], 3, axis=1).astype(np.uint8)
    return PointCloud.from_arrays(np.asarray(positions, dtype=float), col)


def mse_oracle(ref, dist):
    """Brute-force symmetric NN matching on luminance."""
    def directed(a, b):
        total = 0.0
        for i in range(len(a)):
            d2 = ((b.positions - a.positions[i]) ** 2).sum(axis=1)
            j = int(d2.argmin())
            total += (a.luminance[i] - b.luminance[j]) ** 2
        return total / len(a)
    return max(directed(ref, dist), directed(dist, ref))


def ar_complexity(cloud, k1):
    """AR fit over a fresh reference index, as reference_masking builds it."""
    return ar_texture_complexity(cloud, SpatialIndex(cloud.positions), k1)


def visible(ref, dist, k1=20):
    """D_H as phm_score computes it: the reference's masking, then the pair."""
    return visible_difference(ref, dist, *reference_masking(ref, k1), 4.5, False)


# --- symmetric PSNR ----------------------------------------------------------

def test_identical_clouds_are_perfect(small_cloud):
    vd = visible(small_cloud, small_cloud)
    assert vd.perfect and vd.psnr_y is None


def test_psnr_colocated_hand_case():
    pos = [[0, 0, 0], [5, 5, 5]]
    ref = cloud_with_luminance(pos, [100, 200])
    dist = cloud_with_luminance(pos, [105, 195])
    vd = visible(ref, dist, k1=1)
    assert not vd.perfect
    assert vd.psnr_y == pytest.approx(10 * math.log10(255**2 / 25), abs=1e-9)  # ~34.15 dB


def test_psnr_asymmetric_takes_worse_direction():
    # extra outlier point in dist makes the reverse direction worse
    ref = cloud_with_luminance([[0, 0, 0], [10, 0, 0]], [100, 100])
    dist = cloud_with_luminance([[0, 0, 0], [10, 0, 0], [5, 0, 0]], [105, 105, 115])
    d_fwd = 25.0  # both ref points match their co-located partner
    d_rev = (25.0 + 25.0 + 225.0) / 3.0
    assert mse_oracle(ref, dist) == pytest.approx(max(d_fwd, d_rev))
    vd = visible(ref, dist, k1=1)
    assert not vd.perfect
    assert vd.psnr_y == pytest.approx(10 * math.log10(255**2 / d_rev), abs=1e-9)


def test_symmetric_mse_matches_oracle():
    ref = random_cloud(40, seed=4)
    dist = random_cloud(35, seed=8)
    got = symmetric_mse(ref, dist, SpatialIndex(ref.positions), False)
    assert got == pytest.approx(mse_oracle(ref, dist), rel=1e-12)


# --- AR texture complexity ---------------------------------------------------

def test_constant_luminance_has_zero_complexity():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 10, size=(40, 3))
    cloud = cloud_with_luminance(pos, np.full(40, 77.0))
    c = ar_complexity(cloud, k1=5)
    assert c <= 1e-9


def test_complexity_formula_identity():
    # mean |residual| of 1 maps to log2(2) = 1
    assert math.log2(1 + 1.0) == 1.0


def test_ar_matches_normal_equations_oracle():
    # luminance = x coordinate on a noisy line; independent pinv solve
    rng = np.random.default_rng(12)
    x = np.sort(rng.uniform(0, 200, size=30))
    pos = np.stack([x, np.zeros(30), np.zeros(30)], axis=1)
    cloud = cloud_with_luminance(pos, np.clip(x, 0, 255))
    c = ar_complexity(cloud, k1=2)

    # oracle: explicit design matrix from brute-force neighbors + pseudo-inverse
    lum = cloud.luminance
    rows = []
    for i in range(30):
        d2 = ((pos - pos[i]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(30), d2))
        nbrs = [j for j in order if j != i][:2]
        rows.append(lum[nbrs])
    design = np.array(rows)
    theta = np.linalg.pinv(design) @ lum
    resid = lum - design @ theta
    assert c == pytest.approx(math.log2(1 + np.mean(np.abs(resid))), abs=1e-10)


def test_ar_excludes_own_index_among_duplicates():
    # 300 of 3,000 positions repeat an earlier point with their own colours
    # (shifted by up to +-40). Each row must drop exactly its own index, so
    # a duplicate's partner is a neighbor and its own luminance never is.
    base = synthetic_cloud(3000, seed=41)
    rng = np.random.default_rng(42)
    pos, col = base.positions.copy(), base.colors.astype(int)
    src = rng.choice(2700, size=300, replace=False)
    pos[2700:] = pos[src]
    col[2700:] = np.clip(col[src] + rng.integers(-40, 41, size=(300, 1)), 0, 255)
    cloud = PointCloud.from_arrays(pos, col.astype(np.uint8))
    c = ar_complexity(cloud, k1=20)

    # oracle: neighbors by (distance, index) with index i removed from row i
    n, lum = len(cloud), cloud.luminance
    nbrs = np.empty((n, 20), dtype=np.intp)
    for i in range(n):
        d2 = ((pos - pos[i]) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(n), d2))
        nbrs[i] = order[order != i][:20]
    design = lum[nbrs]
    theta, *_ = np.linalg.lstsq(design, lum, rcond=None)
    want = math.log2(1 + np.mean(np.abs(lum - design @ theta)))
    got = SpatialIndex(pos).query_bulk(pos, 20, exclude_self=True)
    np.testing.assert_array_equal(got, nbrs)
    assert c == pytest.approx(want, abs=1e-10)


def test_ar_requires_enough_points():
    cloud = random_cloud(10, seed=3)
    with pytest.raises(CloudTooSmall):
        ar_complexity(cloud, k1=10)


def test_textured_scores_higher_than_flat():
    rng = np.random.default_rng(7)
    pos = rng.uniform(0, 10, size=(120, 3))
    flat = cloud_with_luminance(pos, np.full(120, 128.0))
    busy = cloud_with_luminance(pos, rng.uniform(0, 255, size=120))
    c_flat = ar_complexity(flat, k1=10)
    c_busy = ar_complexity(busy, k1=10)
    assert c_busy > c_flat


@given(st.integers(0, 9999))
def test_complexity_nonnegative(seed):
    cloud = random_cloud(30, seed=seed)
    c = ar_complexity(cloud, k1=4)
    assert c >= 0.0


# --- visible difference ------------------------------------------------------

def test_identity_visible_difference_is_one(small_cloud):
    vd = visible(small_cloud, small_cloud)
    assert vd.perfect and vd.d_h == 1.0


def test_visible_difference_hand_arithmetic():
    # psnr 40, complexity 4, alpha 4.5 -> 58 / (48.1308 + 36)
    expected = (40.0 + 4.5 * 4.0) / upsilon(4.5)
    assert expected == pytest.approx(0.6894, abs=1e-4)


def test_visible_difference_clamps_above_one():
    # psnr 90 + alpha * 8 exceeds upsilon -> clamp
    assert (90.0 + 4.5 * 8.0) / upsilon(4.5) > 1.0


def test_visible_difference_pipeline_values(textured_cloud):
    rng = np.random.default_rng(21)
    col = np.clip(textured_cloud.colors.astype(int) + rng.integers(-60, 61, textured_cloud.colors.shape), 0, 255)
    dist = PointCloud.from_arrays(textured_cloud.positions.copy(), col.astype(np.uint8))
    vd = visible(textured_cloud, dist)
    assert not vd.perfect
    expected = (vd.psnr_y + 4.5 * vd.complexity) / upsilon(4.5)
    assert vd.d_h == pytest.approx(min(expected, 1.0), rel=1e-12)
    assert 0.0 < vd.d_h <= 1.0


def test_noise_monotonicity_of_psnr_and_dh(textured_cloud):
    from phm.synthetic import with_luminance_noise
    last_psnr, last_dh = math.inf, math.inf
    for sigma in (5.0, 10.0, 20.0, 40.0):
        dist = with_luminance_noise(textured_cloud, sigma, seed=2)
        vd = visible(textured_cloud, dist)
        psnr = vd.psnr_y if vd.psnr_y is not None else math.inf
        assert psnr <= last_psnr
        assert vd.d_h <= last_dh
        last_psnr, last_dh = psnr, vd.d_h
