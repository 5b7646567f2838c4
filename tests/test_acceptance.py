"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
Everything here is synthetic and seeded; no external data is required.
"""

import csv
import functools
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from phm.appearance import GAMMA, band_pass
from phm.cli import main as cli_main
from phm.cloud import PointCloud, SpatialIndex, save_ply
from phm.evaluation import (
    EvalRecord,
    FitParams,
    correlation_suite,
    f_test_left,
    fit_logistic,
    logistic_map,
)
from phm.metric import combine_adaptive, phm_score
from phm.synthetic import (
    mean_nn_spacing,
    synthetic_cloud,
    with_geometry_jitter,
    with_luminance_noise,
)
from phm.visible import ar_texture_complexity, upsilon

from dense_oracle import dense_bands, dense_spectrum, lanczos_bands, laplacian
from side_oracle import graph_smoothness, side_graph, side_wcm
from test_patches import make_graph


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {desc}")
                raise
            print(f"\n[PASS] criterion {num}: {desc}")
        return wrapper
    return deco


def random_cloud(n, seed, extent=10.0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, extent, size=(n, 3))
    col = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud.from_arrays(pos, col)


def random_connected_graph(rng, n_max=50):
    while True:
        n = int(rng.integers(5, n_max + 1))
        pts = rng.uniform(0, 5, size=(n, 3))
        g = side_graph(pts, k2=int(rng.integers(2, 6)))
        if np.linalg.eigvalsh(laplacian(g))[1] > 1e-8:
            return g


@criterion(1, "identity score is exactly 1.0 on 10 random clouds; 50k case < 60 s")
def test_criterion_1_identity():
    rng = np.random.default_rng(2024)
    sizes = [int(math.exp(v)) for v in rng.uniform(math.log(2000), math.log(20000), 9)]
    sizes.append(50_000)
    for i, n in enumerate(sizes):
        cloud = random_cloud(n, seed=100 + i, extent=float(n) ** (1 / 3))
        t0 = time.perf_counter()
        report = phm_score(cloud, cloud)
        elapsed = time.perf_counter() - t0
        assert report.score == 1.0, f"identity score off at n={n}: {report.score!r}"
        if n == 50_000:
            assert elapsed < 60.0, f"50k identity took {elapsed:.1f}s"


@criterion(2, "scores strictly decrease with luminance noise and geometric jitter")
def test_criterion_2_noise_monotonicity():
    ref = synthetic_cloud(10_000, seed=7)
    scores = [phm_score(ref, with_luminance_noise(ref, s, seed=42)).score
              for s in (5.0, 10.0, 20.0, 40.0)]
    assert all(a > b for a, b in zip(scores, scores[1:])), f"luminance noise: {scores}"
    spacing = mean_nn_spacing(ref)
    scores_g = [phm_score(ref, with_geometry_jitter(ref, s, seed=43, spacing=spacing)).score
                for s in (0.1, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(scores_g, scores_g[1:])), f"jitter: {scores_g}"


@criterion(3, "edge-sum, quadratic-form and spectral-sum smoothness agree to 1e-8")
def test_criterion_3_triple_identity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = random_connected_graph(rng)
        f = rng.normal(size=g.n)
        edge_sum = graph_smoothness(g, f)
        quad_form = float(f @ laplacian(g) @ f)
        lam, vec, fhat = dense_spectrum(g, f)
        spectral = float(lam @ (fhat * fhat))
        scale = max(abs(edge_sum), abs(quad_form), abs(spectral), 1e-12)
        assert abs(edge_sum - quad_form) / scale <= 1e-8
        assert abs(edge_sum - spectral) / scale <= 1e-8


@criterion(4, "band-pass bands annihilate constants; scaling band is gamma*c; g continuous at 2")
def test_criterion_4_sgwt_constants():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = random_connected_graph(rng)
        c = float(rng.uniform(-100, 100))
        sub = lanczos_bands(g, np.full(g.n, c), 3)
        assert np.abs(sub[1:]).max() <= 1e-9
        assert np.abs(sub[0] - GAMMA * c).max() <= 1e-9
    cubic_at_2 = ((2.0 - 6.0) * 2.0 + 11.0) * 2.0 - 5.0
    assert abs(cubic_at_2 - 4.0 / 2.0 ** 2) <= 1e-12
    left, right = band_pass(np.array([2.0 - 1e-12, 2.0 + 1e-12]))
    assert abs(left - right) <= 1e-9


@criterion(5, "normalized WCMs are symmetric with unit mass; hand-worked case exact")
def test_criterion_5_wcm_conservation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_connected_graph(rng)
        band = rng.normal(size=g.n)
        partner = rng.normal(size=g.n)
        wcm = side_wcm(g, band, partner, num_bins=int(rng.integers(2, 60)))
        assert np.array_equal(wcm, wcm.T)
        assert abs(wcm.sum() - 1.0) <= 1e-12
    w = math.exp(-1)
    g = make_graph([(0, 1), (1, 2)], 3, weights=[w, w])
    wcm = side_wcm(g, np.array([0.0, 0.1, 1.0]), np.array([0.0, 0.1, 1.0]), num_bins=2)
    raw = np.array([[w, w], [w, 0.0]])
    assert np.array_equal(wcm, raw / raw.sum())


@criterion(6, "constant cloud has ~zero AR complexity; LS residual beats 100 random thetas")
def test_criterion_6_ar_sanity():
    rng = np.random.default_rng(6)
    pos = rng.uniform(0, 10, size=(200, 3))
    col = np.full((200, 3), 99, dtype=np.uint8)
    flat = PointCloud.from_arrays(pos, col)
    c = ar_texture_complexity(flat, SpatialIndex(flat.positions), k1=20)
    assert c <= 1e-9

    # The fit's complexity is that of the least-squares residual, which beats random thetas.
    cloud = random_cloud(200, seed=61)
    index = SpatialIndex(cloud.positions)
    nbrs = index.query_bulk(cloud.positions, 20, exclude_self=True)
    design = cloud.luminance[nbrs]
    residuals = cloud.luminance - design @ np.linalg.pinv(design) @ cloud.luminance
    c = ar_texture_complexity(cloud, index, k1=20)
    assert abs(c - math.log2(1 + np.mean(np.abs(residuals)))) <= 1e-10
    best = float(np.linalg.norm(residuals))
    for _ in range(100):
        alt = rng.normal(0, 1, size=20)
        assert best <= float(np.linalg.norm(cloud.luminance - design @ alt))


@criterion(7, "evaluation oracles: hand SROCC/PLCC exact, logistic fit < 1e-3, F-test matches CDF oracle")
def test_criterion_7_evaluation():
    identity = FitParams(0.0, 1.0, 0.0, 1.0, 0.0)

    def recs(p, m):
        return [EvalRecord(str(i), float(b), float(a)) for i, (a, b) in enumerate(zip(p, m))]

    plcc, srocc, _ = correlation_suite(recs([1, 2, 3], [10, 20, 30]), identity)
    assert abs(plcc - 1.0) <= 1e-12 and abs(srocc - 1.0) <= 1e-12
    _, srocc_rev, _ = correlation_suite(recs([3, 2, 1], [10, 20, 30]), identity)
    assert abs(srocc_rev + 1.0) <= 1e-12
    _, srocc_tie, _ = correlation_suite(recs([1, 2, 2, 3], [1, 2, 3, 4]), identity)
    assert abs(srocc_tie - 3.0 / math.sqrt(10.0)) <= 1e-12

    rng = np.random.default_rng(70)
    true = FitParams(2.0, 1.5, 0.3, 0.5, 0.1)
    x = rng.uniform(-2, 3, 50)
    y = logistic_map(x, true)
    fit = fit_logistic(recs(x, y))
    assert math.sqrt(float(np.mean((logistic_map(x, fit) - y) ** 2))) < 1e-3

    def f_cdf(xv, d1, d2):
        def pdf(t):
            return ((d1 / d2) ** (d1 / 2) * t ** (d1 / 2 - 1)
                    * (1 + d1 * t / d2) ** (-(d1 + d2) / 2) / beta_fn(d1 / 2, d2 / 2))
        return quad(pdf, 0, xv, limit=200)[0]

    a = rng.normal(0, 1e-3, 100)
    b = rng.normal(0, 1.0, 100)
    stat = float(np.var(a, ddof=1) / np.var(b, ddof=1))
    assert f_test_left(a, b) == 1 and f_cdf(stat, 99, 99) < 0.05
    assert f_test_left(np.array([0.0, 1.0]), np.array([0.0, 2.0])) == 0
    assert f_cdf(0.25, 1, 1) > 0.05


@criterion(8, "serial and parallel batch CSV byte-identical; repeated scores bitwise equal")
def test_criterion_8_determinism(tmp_path, capsys):
    ref = synthetic_cloud(1500, seed=80)
    dist = with_luminance_noise(ref, 15.0, seed=81)
    pr, pd = tmp_path / "r.ply", tmp_path / "d.ply"
    save_ply(ref, pr)
    save_ply(dist, pd, binary=True)
    manifest = tmp_path / "m.csv"
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_id", "ref_path", "dist_path"])
        w.writerows([["p1", pr, pd], ["p2", pr, pr], ["p3", pd, pd], ["p4", pd, pr]])
    o1, o8 = tmp_path / "o1.csv", tmp_path / "o8.csv"
    assert cli_main(["batch", "--manifest", str(manifest), "--jobs", "1", "--out", str(o1)]) == 0
    assert cli_main(["batch", "--manifest", str(manifest), "--jobs", "8", "--out", str(o8)]) == 0
    capsys.readouterr()
    assert o1.read_bytes() == o8.read_bytes()

    r1 = phm_score(ref, dist)
    r2 = phm_score(ref, dist)
    assert r1.score == r2.score and r1.d_h == r2.d_h and r1.d_l == r2.d_l
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["diagnostics"].pop("timing")
    d2["diagnostics"].pop("timing")
    assert d1 == d2


@criterion(9, "known-value spot checks: d_h 0.6894, omega 0.2249, scales (1, 4.4721, 20)")
def test_criterion_9_spot_checks():
    d_h = (40.0 + 4.5 * 4.0) / upsilon(4.5)
    assert abs(d_h - 0.6894) <= 1e-4
    omega, _ = combine_adaptive(0.6894, 0.5, mu=5.0)
    assert abs(omega - 0.2249) <= 1e-4
    # a delta spectrum at 1e-3, below every knee of g = x^2, reads scale t as sqrt(band) / 1e-3
    sub = dense_bands((np.array([1e-3, 2.0]), np.eye(2), np.array([1.0, 0.0])), num_bandpass=3)
    for got, want in zip(np.sqrt(sub[1:, 0]) / 1e-3, (1.0, 4.4721, 20.0)):
        assert abs(got - want) <= 1e-4
