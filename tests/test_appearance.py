import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phm.appearance import (
    GAMMA,
    band_pass,
    fuse_appearance,
    geometry_degradation,
    prepare_pairs,
    prepare_sides,
    texture_degradation,
)
from phm.cloud import PointCloud
from phm.errors import ShapeError
from phm.patches import eigendecompose, partition_into_patch_pairs, reference_cells

from conftest import compared_rows, random_cloud
from dense_oracle import dense_bands, dense_spectrum, lanczos_bands, laplacian
from side_oracle import graph_smoothness, pearson, side_graph, side_wcm
from test_patches import make_graph


def patch_pairs(ref, dist, cells, k2):
    """Prepared pairs as phm_score builds them: the reference sides, then dist."""
    rc = reference_cells(ref, cells)
    sides = prepare_sides(ref, rc.members, k2)
    return prepare_pairs(sides, dist, partition_into_patch_pairs(rc, dist), k2)


def random_connected_graph(seed, n_max=50):
    """Random geometric patch graph, resampled until connected."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(5, n_max + 1))
        pts = rng.uniform(0, 5, size=(n, 3))
        g = side_graph(pts, k2=int(rng.integers(2, 6)))
        lam = np.linalg.eigvalsh(laplacian(g))
        if lam[1] > 1e-8:
            return g


# --- smoothness --------------------------------------------------------------

def test_constant_signal_has_zero_smoothness():
    g = random_connected_graph(1)
    assert graph_smoothness(g, np.full(g.n, 4.2)) == 0.0


def test_smoothness_hand_edge_sum():
    w = math.exp(-1)
    g = make_graph([(0, 1), (1, 2)], 3, weights=[w, w])
    # w * ((0-1)^2 + (1-3)^2) = 5/e
    assert graph_smoothness(g, np.array([0.0, 1.0, 3.0])) == pytest.approx(5 * w, rel=1e-12)
    assert graph_smoothness(g, np.array([0.0, 1.0, 3.0])) == pytest.approx(1.8394, abs=1e-4)


def test_smoothness_triple_identity():
    rng = np.random.default_rng(123)
    for seed in range(20):
        g = random_connected_graph(seed)
        f = rng.normal(size=g.n)
        edge_sum = graph_smoothness(g, f)
        quad = float(f @ laplacian(g) @ f)
        lam, vec, fhat = dense_spectrum(g, f)
        spectral = float(lam @ (fhat * fhat))
        scale = max(abs(edge_sum), 1e-12)
        assert abs(edge_sum - quad) / scale <= 1e-8
        assert abs(edge_sum - spectral) / scale <= 1e-8


def test_smoothness_shape_check():
    g = random_connected_graph(2)
    with pytest.raises(ShapeError):
        graph_smoothness(g, np.zeros(g.n + 1))


def test_smoothness_translation_invariant():
    g = random_connected_graph(3)
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.n)
    assert graph_smoothness(g, f + 1000.0) == pytest.approx(graph_smoothness(g, f), rel=1e-9)


# --- geometry degradation ----------------------------------------------------

def test_identical_sides_give_unit_geometry_score():
    ref = random_cloud(300, seed=10)
    per_patch, d_l_o = compared_rows(geometry_degradation, patch_pairs(ref, ref, 3, k2=6))
    assert d_l_o == 1.0
    for fs in per_patch:
        assert fs == [1.0, 1.0, 1.0]


def test_similarity_closed_form():
    from phm.appearance import _smoothness_similarity
    t = 1e-6
    assert _smoothness_similarity(2.0, 1.0, t) == pytest.approx((4 + t) / (5 + t), rel=1e-12)
    assert _smoothness_similarity(2.0, 1.0, t) == pytest.approx(0.8000, abs=1e-4)
    assert _smoothness_similarity(0.0, 0.0, t) == 1.0  # stabilizer dominates


def test_degenerate_pairs_are_excluded():
    ref = random_cloud(200, seed=20)
    # distorted side only populates part of space -> some cells empty there
    rng = np.random.default_rng(5)
    from phm.cloud import PointCloud
    pos = rng.uniform(0, 1.5, size=(40, 3))  # clustered in one corner
    dist = PointCloud.from_arrays(pos, rng.integers(0, 256, (40, 3), dtype=np.uint8))
    pairs = partition_into_patch_pairs(reference_cells(ref, 6), dist)
    empties = [di for _, di in pairs if len(di) < 2]
    assert empties, "fixture should produce at least one starved cell"
    per_patch, d_l_o = compared_rows(geometry_degradation, patch_pairs(ref, dist, 6, k2=5))
    for (_, di), fs in zip(pairs, per_patch):
        if len(di) < 2:
            assert fs is None
    assert 0.0 < d_l_o <= 1.0


@given(st.floats(1e-9, 1e3), st.floats(1e-9, 1e3))
def test_similarity_range_property(sx, sy):
    from phm.appearance import _smoothness_similarity
    v = _smoothness_similarity(sx, sy, 1e-6)
    assert 0.0 < v <= 1.0
    if sx == sy:
        assert v == 1.0


def test_geometry_score_translation_invariant():
    # translating both clouds rigidly leaves edge differences unchanged
    from phm.cloud import PointCloud
    from phm.synthetic import synthetic_cloud, with_geometry_jitter
    ref = synthetic_cloud(400, seed=50)
    dist = with_geometry_jitter(ref, 0.3, seed=51)
    shift = np.array([123.0, -45.0, 8.0])
    ref_t = PointCloud.from_arrays(ref.positions + shift, ref.colors.copy())
    dist_t = PointCloud.from_arrays(dist.positions + shift, dist.colors.copy())
    _, base = compared_rows(geometry_degradation, patch_pairs(ref, dist, 2, 6))
    _, moved = compared_rows(geometry_degradation, patch_pairs(ref_t, dist_t, 2, 6))
    assert moved == pytest.approx(base, rel=1e-9)


# --- SGWT kernels ------------------------------------------------------------

def delta_bands(lam_lo, lam_max, num_bandpass=3):
    """Bands of a two-eigenvalue spectrum whose signal sits on eigenvalue lam_lo.

    Row c holds the kernel at lam_lo in column 0 and nothing in column 1.
    """
    return dense_bands((np.array([lam_lo, lam_max]), np.eye(2), np.array([1.0, 0.0])),
                       num_bandpass)


def scales(lam_max, num_bandpass=3):
    """Log-equispaced band-pass scales 2/lambda_max .. 2/lambda_min, lambda_min = lambda_max/20."""
    return np.geomspace(2.0 / lam_max, 40.0 / lam_max, num_bandpass)


def low_pass(lam, lam_max):
    return GAMMA * np.exp(-((np.asarray(lam) / (0.6 * lam_max / 20.0)) ** 4))


def test_filter_continuity_at_one_and_two():
    assert band_pass(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
    cubic_at_2 = ((2.0 - 6.0) * 2.0 + 11.0) * 2.0 - 5.0
    tail_at_2 = 4.0 / 4.0
    assert abs(cubic_at_2 - tail_at_2) <= 1e-12
    # sampled just around both knees
    for knee in (1.0, 2.0):
        left = band_pass(np.array([knee - 1e-12]))[0]
        right = band_pass(np.array([knee + 1e-12]))[0]
        assert abs(left - right) <= 1e-9


def test_plain_inverse_square_tail_is_discontinuous():
    assert band_pass(np.array([2.0]), continuous_tail=False)[0] == pytest.approx(1.0)
    assert band_pass(np.array([2.0 + 1e-9]), continuous_tail=False)[0] == pytest.approx(
        0.25, rel=1e-6)
    # sgwt_decompose passes the choice on: x = t * lambda above 2 reads 1/x^2, not 4/x^2
    spectrum = (np.array([0.0, 2.0]), np.eye(2), np.array([0.0, 1.0]))
    for tail, factor in ((True, 4.0), (False, 1.0)):
        sub = dense_bands(spectrum, 3, tail)
        x = scales(2.0)[1:] * 2.0
        np.testing.assert_allclose(sub[2:, 1], factor / x**2, rtol=1e-12)


def test_gamma_from_cubic_root():
    lam_star = 2.0 - 1.0 / math.sqrt(3.0)
    # root of the derivative 3 lam^2 - 12 lam + 11
    assert 3 * lam_star**2 - 12 * lam_star + 11 == pytest.approx(0.0, abs=1e-12)
    gamma = lam_star**3 - 6 * lam_star**2 + 11 * lam_star - 5
    assert GAMMA == pytest.approx(gamma, abs=1e-12)
    assert GAMMA == pytest.approx(1.3849, abs=1e-4)
    # it is the max of g over a dense grid
    grid = np.linspace(0, 10, 50001)
    assert band_pass(grid).max() <= GAMMA + 1e-9
    # and the low-pass height: h(0) = gamma exactly
    assert delta_bands(0.0, 2.0)[0, 0] == GAMMA


def test_scales_log_equispaced():
    # On a delta spectrum at 1e-3 every t * lam stays below 1, where g = x^2,
    # so band c reads (t_c * 1e-3)^2 and gives its scale back.
    got = np.sqrt(delta_bands(1e-3, 2.0)[1:, 0]) / 1e-3
    np.testing.assert_allclose(got, [1.0, math.sqrt(20.0), 20.0], rtol=1e-12)
    got5 = np.sqrt(delta_bands(1e-3, 7.3, num_bandpass=5)[1:, 0]) / 1e-3
    ratios = got5[1:] / got5[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert got5[0] == pytest.approx(2 / 7.3)
    assert got5[-1] == pytest.approx(40 / 7.3)
    # lambda_min = lambda_max / 20: the low-pass falls to gamma / e at 0.6 lambda_min
    assert delta_bands(0.06, 2.0)[0, 0] == pytest.approx(GAMMA / math.e, rel=1e-12)


# --- SGWT --------------------------------------------------------------------

def test_constant_signal_annihilated_by_bandpass():
    g = random_connected_graph(31)
    c = -7.5
    sub = lanczos_bands(g, np.full(g.n, c))
    np.testing.assert_allclose(sub[0], GAMMA * c, atol=1e-9)
    assert np.abs(sub[1:]).max() <= 1e-9


def test_two_node_closed_form():
    w = 0.6
    g = make_graph([(0, 1)], 2, weights=[w])
    a, b = 3.0, -1.0
    assert eigendecompose(g, np.array([a, b]), [2]).lambda_max[0] == pytest.approx(2 * w, rel=1e-12)
    sub = lanczos_bands(g, np.array([a, b]))
    for c, t in enumerate(scales(2 * w), start=1):
        gain = band_pass(np.array([t * 2 * w]))[0]
        expect = gain * (a - b) / 2 * np.array([1.0, -1.0])
        np.testing.assert_allclose(sub[c], expect, atol=1e-12)
    mean_term = low_pass(0.0, 2 * w) * (a + b) / 2
    high_term = low_pass(2 * w, 2 * w) * (a - b) / 2
    np.testing.assert_allclose(
        sub[0], [mean_term + high_term, mean_term - high_term], atol=1e-12)


def test_operator_form_equivalence():
    g = random_connected_graph(8)
    rng = np.random.default_rng(2)
    u = rng.normal(size=g.n)
    spectrum = dense_spectrum(g, u)
    lam, vec, _ = spectrum
    sub = dense_bands(spectrum)
    for c, t in enumerate(scales(lam[-1]), start=1):
        op = vec @ np.diag(band_pass(t * lam)) @ vec.T
        np.testing.assert_allclose(sub[c], op @ u, atol=1e-9)
    op0 = vec @ np.diag(low_pass(lam, lam[-1])) @ vec.T
    np.testing.assert_allclose(sub[0], op0 @ u, atol=1e-9)


@given(st.integers(0, 999))
def test_sgwt_linearity(seed):
    # A dense spectrum's lambda_max is the graph's, whatever the signal, so
    # all three signals are filtered by the same kernels.
    g = random_connected_graph(seed % 7)
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=g.n), rng.normal(size=g.n)
    a, b = rng.uniform(-3, 3, size=2)

    def bands(signal):
        return dense_bands(dense_spectrum(g, signal))

    left = bands(a * u + b * v)
    right = a * bands(u) + b * bands(v)
    np.testing.assert_allclose(left, right, atol=1e-9)


# --- WCM ---------------------------------------------------------------------

def test_wcm_hand_worked_path3():
    w = math.exp(-1)
    g = make_graph([(0, 1), (1, 2)], 3, weights=[w, w])
    band = np.array([0.0, 0.1, 1.0])  # bins (0, 0, 1) with 2 bins over [0, 1]
    wcm = side_wcm(g, band, band, num_bins=2)
    raw = np.array([[w, w], [w, 0.0]])
    np.testing.assert_array_equal(wcm, raw / raw.sum())
    np.testing.assert_allclose(wcm, [[1 / 3, 1 / 3], [1 / 3, 0]], rtol=1e-12)
    # bin edges over [0, 1] are 0, 0.5, 1: a value just below 0.5 stays in bin 0
    low = side_wcm(g, np.array([0.0, 0.499, 1.0]), band, num_bins=2)
    np.testing.assert_array_equal(low, wcm)
    high = side_wcm(g, np.array([0.0, 0.5, 1.0]), band, num_bins=2)
    np.testing.assert_allclose(high, [[0, 1 / 3], [1 / 3, 1 / 3]], rtol=1e-12)


def test_wcm_symmetry_and_mass():
    rng = np.random.default_rng(4)
    for seed in range(10):
        g = random_connected_graph(seed)
        band = rng.normal(size=g.n)
        partner = rng.normal(size=g.n)
        wcm = side_wcm(g, band, partner, num_bins=8)
        np.testing.assert_array_equal(wcm, wcm.T)
        assert abs(wcm.sum() - 1.0) <= 1e-12
        assert np.all(wcm >= 0)


def test_wcm_constant_band_degenerates_to_origin():
    g = random_connected_graph(6)
    band = np.full(g.n, 2.5)
    wcm = side_wcm(g, band, band, num_bins=4)
    assert wcm[0, 0] == 1.0
    assert wcm.sum() == 1.0


def test_wcm_range_covers_both_bands():
    g = make_graph([(0, 1)], 2, weights=[0.5])
    band = np.array([0.0, 1.0])
    partner = np.array([-1.0, 3.0])
    # bins over [-1, 3] are 1 wide: 0.0 falls in bin 1 and 1.0 in bin 2
    wcm = side_wcm(g, band, partner, num_bins=4)
    expect = np.zeros((4, 4))
    expect[1, 2] = expect[2, 1] = 0.5
    np.testing.assert_array_equal(wcm, expect)


# --- Pearson guards and texture degradation ----------------------------------

def test_pearson_identity_is_exactly_one():
    rng = np.random.default_rng(1)
    m = rng.uniform(size=(5, 5))
    assert pearson(m, m.copy()) == 1.0


def test_pearson_hand_values():
    # stated 2x2 matrices: true Pearson of the flattened 4-vectors is -1
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.5, 0.5])
    assert pearson(a, b) == pytest.approx(-1.0, rel=1e-12)
    # single-mass matrices in opposite corners give -1/3
    c = np.array([0.5, 0.0, 0.0, 0.0])
    d = np.array([0.0, 0.0, 0.0, 0.5])
    assert pearson(c, d) == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_pearson_zero_variance_guards():
    flat = np.full(4, 0.25)
    assert pearson(flat, flat.copy()) == 1.0
    assert pearson(flat, np.full(4, 0.5)) == 0.0
    assert pearson(flat, np.array([0.1, 0.2, 0.3, 0.4])) == 0.0


def test_identical_sides_give_unit_texture_score():
    ref = random_cloud(300, seed=33)
    per_patch, d_l_i = compared_rows(texture_degradation, patch_pairs(ref, ref, 3, k2=6))
    assert d_l_i == 1.0
    for row in per_patch:
        assert row == [1.0, 1.0, 1.0, 1.0]


def test_texture_score_drops_under_color_noise():
    from phm.synthetic import synthetic_cloud, with_luminance_noise
    ref = synthetic_cloud(500, seed=3)
    dist = with_luminance_noise(ref, 40.0, seed=4)
    _, d_l_i = compared_rows(texture_degradation, patch_pairs(ref, dist, 2, k2=8))
    assert d_l_i < 1.0


@pytest.mark.parametrize("n", [150, 600])  # both Lanczos step counts
def test_flat_patch_against_jitters_of_itself_scores_one(n):
    # A flat colour has no texture to lose: every band must read 1.0 on both
    # sides of the 201-point step-count cutoff, not correlations of roundoff noise.
    rng = np.random.default_rng(12)
    pos = rng.uniform(0, 5, size=(n, 3))
    colors = np.full((n, 3), 120)
    ref = PointCloud.from_arrays(pos, colors)
    whole = [(np.arange(n), np.arange(n))]
    sides = prepare_sides(ref, [np.arange(n)], k2=10)
    for _ in range(4):
        dist = PointCloud.from_arrays(pos + rng.uniform(-0.05, 0.05, size=(n, 3)), colors)
        per_patch, d_l_i = compared_rows(texture_degradation,
                                         prepare_pairs(sides, dist, whole, k2=10))
        assert per_patch == [[1.0, 1.0, 1.0, 1.0]]
        assert d_l_i == 1.0


def test_disconnected_patch_is_legal_downstream():
    # two far-apart clusters whose KNN union never bridges the gap
    rng = np.random.default_rng(44)
    pts = np.vstack([rng.uniform(0, 1, (12, 3)), rng.uniform(100, 101, (12, 3))])
    g = side_graph(pts, k2=3)
    u = rng.normal(size=24)
    assert dense_spectrum(g, u)[0][1] <= 1e-8  # disconnected: second eigenvalue ~0
    sub = lanczos_bands(g, u)
    assert sub.shape == (4, 24)
    wcm = side_wcm(g, sub[1], sub[1], num_bins=10)
    assert abs(wcm.sum() - 1.0) <= 1e-12
    assert graph_smoothness(g, pts[:, 0]) >= 0.0


# --- fusion ------------------------------------------------------------------

def test_fuse_identity():
    assert fuse_appearance(1.0, 1.0, "multiply") == 1.0
    assert fuse_appearance(1.0, 1.0, "average") == 1.0


def test_fuse_hand_values():
    assert fuse_appearance(0.81, 0.64, "multiply") == pytest.approx(0.72, rel=1e-12)
    assert fuse_appearance(0.8, -0.1, "multiply") == 0.0
    assert fuse_appearance(0.5, 0.3, "average") == pytest.approx(0.4, rel=1e-12)


def test_fuse_rejects_unknown_mode():
    with pytest.raises(ValueError):
        fuse_appearance(0.5, 0.5, "geometric")
