"""The lockstep Lanczos spectra of patch sides against the dense oracle.

The oracle (``dense_oracle``) is the exact spectrum: ``laplacian`` plus
``numpy.linalg.eigh``, with coefficients eigenvectors^T u, filtered through
the same wavelet kernels with the side's own lambda_max.
"""

from dataclasses import replace

import numpy as np
import pytest

import phm.patches
from phm.appearance import GAMMA, filter_sides, sgwt_decompose
from phm.errors import ShapeError, SpectralError
from phm.metric import MetricConfig, phm_score
from phm.patches import (KRYLOV_STEPS, LARGE_SIDE, SMALL_SIDE_STEPS, build_patch_graph,
                         eigendecompose, reference_cells, spectral_chunks)
from phm.synthetic import synthetic_cloud

from dense_oracle import (dense_bands, dense_spectrum, lanczos_bands, laplacian, stack_graphs,
                          use_dense_oracle)
from side_oracle import side_graph
from test_golden import CONFIG, golden_cases

# Measured worst band error, relative to the band's largest magnitude, was
# 2.5e-4 (3,200 points, top band); the lower bands are far tighter.
BAND_RTOL = 1e-3


def assert_bands_close(got, want, rtol=BAND_RTOL):
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale), np.abs(got - want).max(axis=1) / scale.ravel()


def side(n, seed):
    cloud = synthetic_cloud(n, seed=seed)
    return side_graph(cloud.positions, 10), cloud.luminance


@pytest.mark.parametrize("n", [LARGE_SIDE + 1, 300, 1100, 3200])
def test_random_patch_bands_match_dense(n):
    g, u = side(n, seed=n)
    assert g.n > LARGE_SIDE
    want = dense_spectrum(g, u)
    assert eigendecompose(g, u).lambda_max[0] == pytest.approx(want[0][-1], rel=1e-9)
    assert_bands_close(lanczos_bands(g, u, 3), dense_bands(want, 3))


@pytest.mark.parametrize("n", [2, 3, 7, 12, 20, 30])
def test_exhausted_krylov_space_matches_dense(n):
    # Sides of at most SMALL_SIDE_STEPS + 1 points span their whole Krylov
    # space with reorthogonalisation, so the spectrum is exact up to roundoff.
    for seed in range(5):
        g, u = side(n, seed=1000 * n + seed)
        np.testing.assert_allclose(lanczos_bands(g, u, 3),
                                   dense_bands(dense_spectrum(g, u), 3), rtol=0, atol=1e-9)


@pytest.mark.parametrize("sizes", [
    [2, 9, 30, SMALL_SIDE_STEPS + 1, 17],  # exhausted Krylov spaces
    [SMALL_SIDE_STEPS + 2, 90, 150, LARGE_SIDE, 60],  # SMALL_SIDE_STEPS steps
    [LARGE_SIDE + 1, 450, 260],  # KRYLOV_STEPS steps
])
def test_side_bands_do_not_depend_on_the_chunk(sizes):
    # Identity pairs score exactly 1.0 and reports are deterministic only if
    # a side's bands are the same bits whatever chunk it is filtered in. The
    # second side is flat, so its lambda_max comes from the second run.
    sides = [side(n, seed=7 * n) for n in sizes]
    sides[1] = (sides[1][0], np.full(sizes[1], 42.0))
    for order in (range(len(sides)), reversed(range(len(sides)))):
        order = list(order)
        graph = stack_graphs([sides[i][0] for i in order])
        signal = np.concatenate([sides[i][1] for i in order])
        bands = sgwt_decompose(eigendecompose(graph, signal), 3)
        lo = 0
        for i in order:
            alone = lanczos_bands(*sides[i], 3)
            np.testing.assert_array_equal(bands[:, lo:lo + sizes[i]], alone)
            lo += sizes[i]


def test_cloud_bands_do_not_depend_on_the_chunk_size(monkeypatch):
    # Cells of about 60 points, as patch_divisor=60 gives, then cells of about
    # 300 points (above LARGE_SIDE) and of about 25 (whole Krylov spaces): each
    # size class fills several chunks of CHUNK_POINTS.
    points, luminance, sizes = [], [], []
    for n, num_cells, seed in [(20_000, 20_000 // 60, 3), (12_000, 40, 4), (10_000, 400, 5)]:
        cloud = synthetic_cloud(n, seed=seed)
        _, order, cell_sizes = reference_cells(cloud, num_cells)
        points.append(cloud.positions[order])
        luminance.append(cloud.luminance[order])
        sizes += cell_sizes.tolist()
    sides = build_patch_graph(np.vstack(points), sizes, 10)
    sizes = np.where(sides.valid, sides.sizes, 0)

    def chunks_per_class():
        first = [int(sizes[chunk[0]]) for chunk in spectral_chunks(sizes)]
        return [sum(n <= SMALL_SIDE_STEPS + 1 for n in first),
                sum(SMALL_SIDE_STEPS + 1 < n <= LARGE_SIDE for n in first),
                sum(n > LARGE_SIDE for n in first)]

    assert min(chunks_per_class()) >= 3
    bands = filter_sides(sides, np.concatenate(luminance), 3).bands
    monkeypatch.setattr(phm.patches, "CHUNK_POINTS", int(sizes.sum()))
    assert chunks_per_class() == [1, 1, 1]
    again = filter_sides(sides, np.concatenate(luminance), 3).bands
    np.testing.assert_array_equal(bands, again)


def test_step_class_boundary_is_large_side():
    # The side classes split at LARGE_SIDE points, not at KRYLOV_STEPS + 1.
    sizes = np.array([LARGE_SIDE + 1, LARGE_SIDE, SMALL_SIDE_STEPS + 1])
    assert spectral_chunks(sizes) == [[2], [1], [0]]
    for n, steps in [(LARGE_SIDE, SMALL_SIDE_STEPS), (LARGE_SIDE + 1, KRYLOV_STEPS)]:
        g, u = side(n, seed=5 * n)
        spectrum = eigendecompose(g, u)
        assert spectrum.steps.tolist() == [steps]
        assert spectrum.basis.shape == (steps, n)


@pytest.mark.parametrize("n", [25, 150])
def test_constant_side_below_cutoff_passes_its_mean_exactly(n):
    g, _ = side(n, seed=n)
    sub = lanczos_bands(g, np.full(n, 87.25), 3)  # n * 87.25 sums exactly
    assert np.all(sub[0] == GAMMA * 87.25)
    assert np.all(sub[1:] == 0.0)


def test_constant_luminance_above_cutoff():
    rng = np.random.default_rng(1)
    g = side_graph(rng.uniform(0, 10, (500, 3)), 10)
    spectrum = eigendecompose(g, np.full(500, 87.3))
    sub = sgwt_decompose(spectrum, 3)
    np.testing.assert_allclose(sub[0], GAMMA * 87.3, rtol=1e-12)
    assert np.all(sub[1:] == 0.0)
    # lambda_max comes from a separate run, not from the (empty) signal part
    want = dense_spectrum(g, np.zeros(500))[0][-1]
    assert spectrum.lambda_max[0] == pytest.approx(want, rel=1e-9)


def test_disconnected_clusters_with_constant_luminance():
    rng = np.random.default_rng(2)
    pts = np.vstack([rng.uniform(0, 10, (250, 3)), rng.uniform(1000, 1010, (250, 3))])
    g = side_graph(pts, 10)
    u = np.r_[np.full(250, 50.0), np.full(250, 200.0)]
    want = dense_spectrum(g, u)
    assert np.linalg.eigvalsh(laplacian(g))[1] <= 1e-8  # two components
    assert eigendecompose(g, u).lambda_max[0] == pytest.approx(want[0][-1], rel=1e-9)
    np.testing.assert_allclose(lanczos_bands(g, u, 3), dense_bands(want, 3), atol=1e-9)


def test_signal_length_is_checked():
    g = side_graph(np.random.default_rng(3).uniform(0, 1, (20, 3)), 10)
    with pytest.raises(ShapeError):
        eigendecompose(g, np.zeros(19))


def test_non_finite_lanczos_coefficients_raise_spectral_error():
    g = side_graph(np.random.default_rng(3).uniform(0, 1, (20, 3)), 10)
    weights = g.weights.copy()
    weights[3] = np.nan
    with pytest.raises(SpectralError, match="non-finite"):
        eigendecompose(replace(g, weights=weights), np.arange(20.0))


def test_a_failed_tridiagonal_solve_raises_spectral_error(monkeypatch):
    def failing_stevd(d, e):
        return d, np.eye(len(d)), 1  # LAPACK's info > 0: no convergence
    monkeypatch.setattr(phm.patches, "get_lapack_funcs", lambda name, dtype: failing_stevd)
    g = side_graph(np.random.default_rng(3).uniform(0, 1, (20, 3)), 10)
    with pytest.raises(SpectralError, match="info 1"):
        eigendecompose(g, np.arange(20.0))


def assert_within_gate_of_dense_oracle(monkeypatch, config):
    krylov = {name: phm_score(ref, dist, config) for name, (ref, dist) in golden_cases().items()}
    use_dense_oracle(monkeypatch)
    for name, (ref, dist) in golden_cases().items():
        dense = phm_score(ref, dist, config)
        assert abs(krylov[name].score - dense.score) <= 5e-4, name
        assert abs(krylov[name].d_l_i - dense.d_l_i) <= 2e-3, name


def test_golden_pairs_stay_within_the_gate_of_the_dense_oracle(monkeypatch):
    assert_within_gate_of_dense_oracle(monkeypatch, CONFIG)


def test_golden_pairs_with_small_cells_stay_within_the_gate_of_the_dense_oracle(monkeypatch):
    # patch_divisor 60 gives cells of 16-127 points: every side runs
    # SMALL_SIDE_STEPS steps, some of them through an exhausted Krylov space.
    assert_within_gate_of_dense_oracle(monkeypatch, MetricConfig(patch_divisor=60))
