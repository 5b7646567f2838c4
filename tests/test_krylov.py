"""Lanczos spectra of patches above KRYLOV_STEPS + 1 points against a dense oracle.

The oracle is the exact spectrum: ``laplacian`` plus ``numpy.linalg.eigh``,
with coefficients eigenvectors^T u. ``sgwt_decompose`` scales each side's
kernels from that side's own lambda_max, as in ``prepare_side``.
"""

import numpy as np
import pytest

import phm.appearance
from phm.appearance import GAMMA, sgwt_decompose
from phm.errors import ShapeError
from phm.metric import phm_score
from phm.patches import KRYLOV_STEPS, build_patch_graph, eigendecompose, laplacian
from phm.synthetic import synthetic_cloud

from test_golden import CONFIG, golden_cases

# Measured worst band error, relative to the band's largest magnitude, was
# 1.2e-4 (3,000 points, top band); the lower bands are far tighter.
BAND_RTOL = 1e-3


def dense_spectrum(graph, signal):
    lam, vec = np.linalg.eigh(laplacian(graph))
    return lam, vec, vec.T @ signal


def assert_bands_close(got, want, rtol=BAND_RTOL):
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale), np.abs(got - want).max(axis=1) / scale.ravel()


@pytest.mark.parametrize("n", [300, 1100, 3000])
def test_random_patch_bands_match_dense(n):
    cloud = synthetic_cloud(n, seed=n)
    g = build_patch_graph(cloud.positions)
    assert g.n > KRYLOV_STEPS + 1
    got = eigendecompose(g, cloud.luminance)
    want = dense_spectrum(g, cloud.luminance)
    assert got[0][-1] == pytest.approx(want[0][-1], rel=1e-9)
    assert_bands_close(sgwt_decompose(got), sgwt_decompose(want))


def test_small_patch_keeps_the_exact_spectrum():
    cloud = synthetic_cloud(KRYLOV_STEPS + 1, seed=5)
    g = build_patch_graph(cloud.positions)
    lam, vec, coef = eigendecompose(g, cloud.luminance)
    want_lam, want_vec = np.linalg.eigh(laplacian(g))
    np.testing.assert_array_equal(lam, want_lam)
    np.testing.assert_array_equal(vec, want_vec)
    np.testing.assert_array_equal(coef, want_vec.T @ cloud.luminance)


def test_constant_luminance_above_cutoff():
    rng = np.random.default_rng(1)
    g = build_patch_graph(rng.uniform(0, 10, (500, 3)))
    spectrum = eigendecompose(g, np.full(500, 87.3))
    sub = sgwt_decompose(spectrum)
    np.testing.assert_allclose(sub[0], GAMMA * 87.3, rtol=1e-12)
    assert np.all(sub[1:] == 0.0)
    # lambda_max comes from a separate run, not from the (empty) signal part
    assert spectrum[0][-1] == pytest.approx(dense_spectrum(g, np.zeros(500))[0][-1], rel=1e-9)


def test_disconnected_clusters_with_constant_luminance():
    rng = np.random.default_rng(2)
    pts = np.vstack([rng.uniform(0, 10, (250, 3)), rng.uniform(1000, 1010, (250, 3))])
    g = build_patch_graph(pts)
    u = np.r_[np.full(250, 50.0), np.full(250, 200.0)]
    want = dense_spectrum(g, u)
    assert want[0][1] <= 1e-8  # two components
    got = eigendecompose(g, u)
    assert got[0][-1] == pytest.approx(want[0][-1], rel=1e-9)
    np.testing.assert_allclose(sgwt_decompose(got), sgwt_decompose(want), atol=1e-9)


def test_signal_length_is_checked():
    g = build_patch_graph(np.random.default_rng(3).uniform(0, 1, (20, 3)))
    with pytest.raises(ShapeError):
        eigendecompose(g, np.zeros(19))


def test_golden_pairs_stay_within_the_gate_of_the_dense_oracle(monkeypatch):
    krylov = {name: phm_score(ref, dist, CONFIG) for name, (ref, dist) in golden_cases().items()}
    monkeypatch.setattr(phm.appearance, "eigendecompose", dense_spectrum)
    for name, (ref, dist) in golden_cases().items():
        dense = phm_score(ref, dist, CONFIG)
        assert abs(krylov[name].score - dense.score) <= 5e-4, name
        assert abs(krylov[name].d_l_i - dense.d_l_i) <= 2e-3, name
