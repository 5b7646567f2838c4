import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from phm.errors import CorrelationUndefined, FitError, TestUndefined
from phm.evaluation import (
    EvalRecord,
    FitParams,
    correlation_suite,
    f_test_left,
    fit_logistic,
    logistic_map,
)

IDENTITY = FitParams(0.0, 1.0, 0.0, 1.0, 0.0)


def records(preds, mos):
    return [EvalRecord(str(i), float(m), float(p)) for i, (p, m) in enumerate(zip(preds, mos))]


def f_cdf_oracle(x, d1, d2):
    """F CDF by numeric quadrature of the density (independent of scipy.stats.f)."""
    def pdf(t):
        num = (d1 / d2) ** (d1 / 2) * t ** (d1 / 2 - 1)
        return num * (1 + d1 * t / d2) ** (-(d1 + d2) / 2) / beta_fn(d1 / 2, d2 / 2)
    val, _ = quad(pdf, 0, x, limit=200)
    return val


# --- logistic map ------------------------------------------------------------

def test_logistic_center_of_sigmoid():
    p = FitParams(3.0, 2.0, 1.5, 0.25, -1.0)
    assert logistic_map(1.5, p) == pytest.approx(0.25 * 1.5 - 1.0, rel=1e-15)


def test_logistic_linear_reduction():
    p = FitParams(0.0, 1.0, 0.0, 1.0, 0.0)
    xs = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(logistic_map(xs, p), xs, rtol=1e-15)


def test_logistic_hand_substitution():
    p = FitParams(2.0, 1.0, 0.0, 0.5, 1.0)
    assert logistic_map(0.0, p) == pytest.approx(1.0, rel=1e-15)


def test_logistic_overflow_saturates():
    p = FitParams(1.0, 1.0, 0.0, 0.0, 0.0)
    assert logistic_map(1e6, p) == pytest.approx(0.5)
    assert logistic_map(-1e6, p) == pytest.approx(-0.5)
    assert np.isfinite(logistic_map(np.array([1e308, -1e308]), p)).all()


# --- fitting -----------------------------------------------------------------

def test_fit_recovers_selfgenerated_curve():
    rng = np.random.default_rng(7)
    true = FitParams(2.0, 1.5, 0.3, 0.5, 0.1)
    x = rng.uniform(-2, 3, 50)
    y = logistic_map(x, true)
    fit = fit_logistic(records(x, y))
    rmse = math.sqrt(float(np.mean((logistic_map(x, fit) - y) ** 2)))
    assert rmse < 1e-3


def test_fit_perfectly_linear_data():
    x = np.linspace(0, 10, 25)
    y = 2 * x + 1
    fit = fit_logistic(records(x, y))
    rmse = math.sqrt(float(np.mean((logistic_map(x, fit) - y) ** 2)))
    assert rmse < 1e-6


def test_fit_rejects_constant_predictions():
    with pytest.raises(FitError):
        fit_logistic(records([2.0] * 10, np.arange(10)))


def test_fit_rejects_too_few_records():
    with pytest.raises(FitError):
        fit_logistic(records([1, 2, 3], [1, 2, 3]))


def test_fit_rejects_non_finite_parameters():
    with np.errstate(all="ignore"), pytest.raises(FitError, match="finite"):
        fit_logistic(records([1, 2, 3, 4, 5], [1e308, -1e308, 3, 4, 5]))


# --- correlations ------------------------------------------------------------

def test_perfect_monotone_correlations():
    plcc, srocc, rmse = correlation_suite(records([1, 2, 3], [10, 20, 30]), IDENTITY)
    assert abs(srocc - 1.0) <= 1e-12
    assert abs(plcc - 1.0) <= 1e-12


def test_antitone_srocc():
    _, srocc, _ = correlation_suite(records([3, 2, 1], [10, 20, 30]), IDENTITY)
    assert abs(srocc + 1.0) <= 1e-12


def test_srocc_with_ties_average_ranks():
    # ranks (1, 2.5, 2.5, 4) vs (1, 2, 3, 4): hand Spearman = 3/sqrt(10)
    _, srocc, _ = correlation_suite(records([1, 2, 2, 3], [1, 2, 3, 4]), IDENTITY)
    assert abs(srocc - 3.0 / math.sqrt(10.0)) <= 1e-12


def test_rmse_of_identity_map():
    _, _, rmse = correlation_suite(records([1.0, 2.0], [2.0, 4.0]), IDENTITY)
    assert rmse == pytest.approx(math.sqrt((1 + 4) / 2), rel=1e-12)


def test_correlation_zero_variance_raises():
    with pytest.raises(CorrelationUndefined):
        correlation_suite(records([1, 1, 1], [1, 2, 3]), IDENTITY)
    with pytest.raises(CorrelationUndefined):
        correlation_suite(records([1, 2, 3], [5, 5, 5]), IDENTITY)


def test_correlation_non_finite_raises():
    # finite inputs whose squared residuals overflow
    with np.errstate(all="ignore"), pytest.raises(CorrelationUndefined, match="finite"):
        correlation_suite(records([1, 2, 3], [1e308, -1e308, 3]), IDENTITY)


@given(st.integers(0, 9999))
def test_srocc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    preds = rng.normal(size=12)
    mos = rng.normal(size=12)
    if np.ptp(preds) == 0 or np.ptp(mos) == 0:
        return
    _, s1, _ = correlation_suite(records(preds, mos), IDENTITY)
    _, s2, _ = correlation_suite(records(np.exp(preds) + 3 * preds, mos), IDENTITY)
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_plcc_after_logistic_fit_of_logistic_data():
    rng = np.random.default_rng(11)
    true = FitParams(1.5, 2.0, 0.0, 0.8, -0.2)
    x = rng.uniform(-3, 3, 60)
    recs = records(x, logistic_map(x, true))
    fit = fit_logistic(recs)
    plcc, _, _ = correlation_suite(recs, fit)
    assert plcc >= 0.999


# --- F-test ------------------------------------------------------------------

def test_identical_residuals_not_significant():
    r = np.arange(10.0)
    assert f_test_left(r, r.copy()) == 0


def test_tiny_vs_large_variance_significant():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1e-3, 100)
    b = rng.normal(0, 1.0, 100)
    assert f_test_left(a, b) == 1
    assert f_test_left(b, a) == 0
    # cross-check the decision against the quadrature oracle
    stat = np.var(a, ddof=1) / np.var(b, ddof=1)
    assert f_cdf_oracle(stat, 99, 99) < 0.05


def test_two_point_vectors_never_significant_at_moderate_ratio():
    a = np.array([0.0, 1.0])  # var 0.5
    b = np.array([0.0, 2.0])  # var 2.0
    assert f_test_left(a, b) == 0
    assert f_cdf_oracle(0.25, 1, 1) > 0.05


def test_f_decision_matches_cdf_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        na, nb = int(rng.integers(3, 40)), int(rng.integers(3, 40))
        a = rng.normal(0, rng.uniform(0.1, 2.0), na)
        b = rng.normal(0, rng.uniform(0.1, 2.0), nb)
        stat = np.var(a, ddof=1) / np.var(b, ddof=1)
        oracle_h = int(f_cdf_oracle(stat, na - 1, nb - 1) < 0.05)
        assert f_test_left(a, b) == oracle_h


def test_f_test_antisymmetry():
    rng = np.random.default_rng(9)
    a = rng.normal(0, 0.3, 50)
    b = rng.normal(0, 1.0, 50)
    if f_test_left(a, b) == 1:
        assert f_test_left(b, a) == 0


def test_f_test_zero_denominator():
    with pytest.raises(TestUndefined):
        f_test_left([1.0, 2.0], [3.0, 3.0])
    with pytest.raises(TestUndefined):
        f_test_left([1.0], [1.0, 2.0])
