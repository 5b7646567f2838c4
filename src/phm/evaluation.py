"""Benchmark evaluation: VQEG logistic mapping, PLCC/SROCC/RMSE, F-tests.

Objective scores are passed through a five-parameter logistic before
comparison with MOS; Spearman correlation is computed on the raw scores
(it is invariant under any monotone mapping).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit
from scipy.stats import f as f_distribution
from scipy.stats import pearsonr, spearmanr

from .errors import CorrelationUndefined, FitError, ParseError, TestUndefined


@dataclass(frozen=True)
class EvalRecord:
    sample_id: str
    mos: float
    prediction: float


@dataclass(frozen=True)
class FitParams:
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.beta3, self.beta4, self.beta5])

    def to_dict(self) -> dict:
        return {f"beta{i}": getattr(self, f"beta{i}") for i in range(1, 6)}


def logistic_map(x, params: FitParams):
    """psi(x) = b1 (1/2 - 1/(1 + exp(b2 (x - b3)))) + b4 x + b5.

    The sigmoid is evaluated through expit so exponent overflow saturates
    to the limit instead of raising.
    """
    x = np.asarray(x, dtype=np.float64)
    b1, b2, b3, b4, b5 = params.as_array()
    return b1 * (0.5 - expit(-b2 * (x - b3))) + b4 * x + b5


def _records_to_arrays(records) -> tuple[np.ndarray, np.ndarray]:
    mos = np.array([r.mos for r in records], dtype=np.float64)
    pred = np.array([r.prediction for r in records], dtype=np.float64)
    return mos, pred


def fit_logistic(records) -> FitParams:
    """Least-squares logistic fit via Nelder-Mead from a deterministic start.

    Start: b3 = median prediction, b1 = MOS range, b2 = 4 / prediction
    range, (b4, b5) = ordinary linear fit. Stops when the simplex diameter
    falls below 1e-8 or after 10^4 iterations.
    """
    if len(records) < 5:
        raise FitError(f"need at least 5 records to fit, got {len(records)}")
    mos, pred = _records_to_arrays(records)
    spread = pred.max() - pred.min()
    if spread == 0.0:
        raise FitError("predictions are all equal; logistic fit is degenerate")
    b4, b5 = np.polyfit(pred, mos, 1)
    x0 = np.array([mos.max() - mos.min(), 4.0 / spread, np.median(pred), b4, b5])

    def sse(beta):
        r = mos - logistic_map(pred, FitParams(*beta))
        return float(r @ r)

    res = minimize(
        sse, x0, method="Nelder-Mead",
        options=dict(xatol=1e-8, fatol=float("inf"), maxiter=10_000, maxfev=40_000),
    )
    if not (np.isfinite(res.x).all() and np.isfinite(res.fun)):
        raise FitError("logistic fit did not reach finite parameters and error")
    return FitParams(*(float(v) for v in res.x))


def correlation_suite(records, params: FitParams) -> tuple[float, float, float]:
    """(plcc, srocc, rmse) of mapped predictions against MOS.

    PLCC and RMSE compare psi(prediction) with MOS; SROCC uses the raw
    predictions with average ranks for ties.
    """
    if len(records) < 2:
        raise CorrelationUndefined("need at least 2 records")
    mos, pred = _records_to_arrays(records)
    mapped = logistic_map(pred, params)
    if np.ptp(mos) == 0.0 or np.ptp(mapped) == 0.0 or np.ptp(pred) == 0.0:
        raise CorrelationUndefined("zero variance on one side of the correlation")
    plcc = float(pearsonr(mapped, mos).statistic)
    srocc = float(spearmanr(pred, mos).statistic)
    rmse = float(np.sqrt(np.mean((mapped - mos) ** 2)))
    if not all(map(math.isfinite, (plcc, srocc, rmse))):
        raise CorrelationUndefined("correlation or RMSE is not finite")
    return plcc, srocc, rmse


def f_test_left(residuals_a, residuals_b, significance: float = 0.05) -> int:
    """Left-tailed F-test on residual variances; 1 means a beats b.

    F = var(a)/var(b) with unbiased variances; H = 1 iff F is below the
    left-tail critical value at (len(a)-1, len(b)-1) degrees of freedom.
    """
    a = np.asarray(residuals_a, dtype=np.float64)
    b = np.asarray(residuals_b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise TestUndefined("each residual vector needs at least 2 entries")
    var_b = float(np.var(b, ddof=1))
    if var_b == 0.0:
        raise TestUndefined("denominator residuals have zero variance")
    stat = float(np.var(a, ddof=1)) / var_b
    critical = float(f_distribution.ppf(significance, len(a) - 1, len(b) - 1))
    return int(stat < critical)


def read_records_csv(path) -> list[EvalRecord]:
    """Read evaluation records from a CSV with header sample_id, mos, prediction."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # -sig: Excel's BOM
            reader = csv.DictReader(fh)
            cols, table = reader.fieldnames or [], list(reader)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"predictions CSV is not a readable UTF-8 CSV: {e}") from None
    missing = [c for c in ("sample_id", "mos", "prediction") if c not in cols]
    if missing:
        raise ParseError(f"predictions CSV lacks columns {missing}")
    records = []
    for i, row in enumerate(table):
        try:
            mos = float(row["mos"])
            pred = float(row["prediction"])
        except (TypeError, ValueError):
            raise ParseError(f"unparseable numeric value on row {i}") from None
        if not (math.isfinite(mos) and math.isfinite(pred)):
            raise ParseError(f"non-finite value on row {i}")
        records.append(EvalRecord(row["sample_id"], mos, pred))
    return records
