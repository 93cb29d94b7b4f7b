"""Weighted least-squares estimation of the conformal rate alpha.

The Doppler model is exactly linear in alpha (residual y = alpha * r),
so the fit is closed form.  The residual is built by subtracting two
like-magnitude velocities before anything is multiplied by a range, which
keeps a rate of order 1e-18 1/s against ranges of 1e12-1e13 m well inside
double precision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import DegenerateDesign, ZeroSigma
from .tracking import TrackingTable


@dataclass(frozen=True)
class FitResult:
    """Estimated rate with uncertainty and zero-alpha test statistic."""

    alpha_hat: float
    alpha_stderr: float
    chi2: float
    dof: int
    z_score_alpha_zero: float
    n_used: int

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "alpha_stderr": self.alpha_stderr,
            "chi2": self.chi2,
            "dof": self.dof,
            "z_score_alpha_zero": self.z_score_alpha_zero,
            "n_used": self.n_used,
        }


class MetricDecision(enum.Enum):
    MINKOWSKI_CONSISTENT = "MinkowskiConsistent"
    CONFORMAL_DETECTED = "ConformalDetected"


def _weights(sigma_frac: np.ndarray, sigma_rate: float, c: float) -> np.ndarray:
    """Per-record weights 1/Var(y) with Var(y) = (c*sigma_frac)^2 + sigma_rate^2.

    A uniformly zero variance (noiseless input) falls back to unit
    weights, which leave alpha_hat unchanged; mixed zero/positive
    variances are rejected as ill-posed.
    """
    if np.any(sigma_frac < 0.0) or sigma_rate < 0.0:
        raise ZeroSigma("sigmas must be >= 0")
    var = (c * sigma_frac) ** 2 + sigma_rate**2
    if np.all(var == 0.0):
        return np.ones_like(var)
    if np.any(var == 0.0):
        raise ZeroSigma("sigma values mix zero and positive; weights are ill-posed")
    return 1.0 / var


def _wls_terms(table: TrackingTable, c: float, sigma_rate: float):
    """Per-record terms of the fit: ranges r, residual velocities
    y = c*frac - rate, weights w, and the summands w*r*y and w*r^2.

    Raises DegenerateDesign for n < 2 or all-equal ranges.
    """
    r = table.range_true
    n = r.size
    if n < 2:
        raise DegenerateDesign(f"need at least 2 records, got {n}")
    if np.all(r == r[0]):
        raise DegenerateDesign("all ranges are equal; alpha is not identifiable")
    w = _weights(table.sigma_frac, sigma_rate, c)
    y = c * table.doppler_frac_meas - table.range_rate_true
    wr = w * r
    return r, y, w, wr * y, wr * r


def fit_alpha(
    table: TrackingTable,
    c: float = SPEED_OF_LIGHT,
    sigma_rate: float = 0.0,
) -> FitResult:
    """Closed-form weighted least squares for y = alpha * r.

    Per record, y = c*doppler_frac_meas - range_rate_true and the weight
    is 1/(c*sigma_frac)^2; then

        alpha_hat = sum(w r y) / sum(w r^2),  stderr = sum(w r^2)^(-1/2),
        z = alpha_hat / stderr.

    sigma_rate, when nonzero, models independent noise on the rate used
    to form y and is folded into the weights.  Raises DegenerateDesign
    for n < 2 or all-equal ranges.
    """
    r, y, w, wry, wr2 = _wls_terms(table, c, float(sigma_rate))
    swr2 = float(np.sum(wr2))
    alpha_hat = float(np.sum(wry)) / swr2
    stderr = swr2**-0.5
    resid = y - alpha_hat * r
    chi2 = float(np.sum(w * resid * resid))
    return FitResult(
        alpha_hat=alpha_hat,
        alpha_stderr=stderr,
        chi2=chi2,
        dof=r.size - 1,
        z_score_alpha_zero=alpha_hat / stderr,
        n_used=r.size,
    )


def bootstrap_alpha(
    table: TrackingTable,
    n_resamples: int,
    seed: int,
    c: float = SPEED_OF_LIGHT,
) -> float:
    """Bootstrap standard error of alpha_hat.

    Resamples records with replacement and refits; the resample index
    stream for draw i comes from a counter-based generator keyed by
    (seed, i), so the result is reproducible and independent of
    evaluation order.  A resample whose ranges are all equal raises
    DegenerateDesign.
    """
    if n_resamples < 100:
        raise ValueError(f"n_resamples must be >= 100, got {n_resamples}")
    r, _, _, wry, wr2 = _wls_terms(table, c, 0.0)
    n = r.size
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        idx = rng.integers(0, n, size=n)
        r_i = r.take(idx)
        if r_i.min() == r_i.max():
            raise DegenerateDesign("all ranges are equal; alpha is not identifiable")
        estimates[i] = float(np.sum(wry.take(idx))) / float(np.sum(wr2.take(idx)))
    return float(np.std(estimates, ddof=1))


def decide_metric(fit: FitResult, z_threshold: float = 5.0) -> MetricDecision:
    """Conformal metric detected iff |z| strictly exceeds the threshold."""
    if abs(fit.z_score_alpha_zero) > z_threshold:
        return MetricDecision.CONFORMAL_DETECTED
    return MetricDecision.MINKOWSKI_CONSISTENT
