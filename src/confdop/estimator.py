"""Weighted least-squares estimation of the conformal rate alpha.

The Doppler model is exactly linear in alpha (residual y = alpha * r),
so the fit is closed form.  The residual is built by subtracting two
like-magnitude velocities before anything is multiplied by a range, which
keeps a rate of order 1e-18 1/s against ranges of 1e12-1e13 m well inside
double precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .conformal import _require_c
from .constants import SPEED_OF_LIGHT
from .errors import ConfdopError, DegenerateDesign, ZeroSigma
from .tracking import TrackingTable, _residual_velocity


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
        return asdict(self)


class MetricDecision(enum.Enum):
    MINKOWSKI_CONSISTENT = "MinkowskiConsistent"
    CONFORMAL_DETECTED = "ConformalDetected"


def _weights(sigma_frac: np.ndarray, c: float) -> np.ndarray:
    """Per-record weights 1/Var(y) with Var(y) = (c*sigma_frac)^2.

    A uniformly zero variance (noiseless input) falls back to unit
    weights, which leave alpha_hat unchanged; mixed zero/positive
    variances are rejected as ill-posed.
    """
    if np.any(sigma_frac < 0.0):
        raise ZeroSigma("sigmas must be >= 0")
    var = (c * sigma_frac) ** 2
    if np.all(var == 0.0):
        return np.ones_like(var)
    if np.any(var == 0.0):
        raise ZeroSigma("sigma values mix zero and positive; weights are ill-posed")
    return 1.0 / var


def _wls_terms(table: TrackingTable, c: float):
    """Per-record terms of the fit: ranges r, residual velocities
    y = c*frac - rate, weights w, and the summands w*r*y and w*r^2.

    Raises ConfdopError for a c that GroupParameter refuses, and
    DegenerateDesign for n < 2 or all-equal ranges.
    """
    _require_c(c)
    r = table.range_true
    n = r.size
    if n < 2:
        raise DegenerateDesign(f"need at least 2 records, got {n}")
    if np.all(r == r[0]):
        raise DegenerateDesign("all ranges are equal; alpha is not identifiable")
    w = _weights(table.sigma_frac, c)
    y = _residual_velocity(table, c)
    wr = w * r
    return r, y, w, wr * y, wr * r


def _alpha_hat(wry: np.ndarray, wr2: np.ndarray) -> tuple[float, float]:
    """alpha_hat = sum(w r y) / sum(w r^2), returned with sum(w r^2).

    Raises DegenerateDesign when sum(w r^2) overflows to inf or underflows
    to 0, where alpha_hat and its standard error are undefined.
    """
    swr2 = float(np.sum(wr2))
    if not 0.0 < swr2 < math.inf:
        cause = "overflows" if swr2 else "underflows to 0"
        raise DegenerateDesign(
            f"sum(w*r^2) {cause} ({swr2!r}); the standard error of alpha is undefined"
        )
    return float(np.sum(wry)) / swr2, swr2


# A sum that overflows (or inf - inf) is refused by _alpha_hat, or shows as
# a non-finite field that the CLI refuses; numpy need not warn about it too.
@np.errstate(over="ignore", invalid="ignore")
def fit_alpha(table: TrackingTable, c: float = SPEED_OF_LIGHT) -> FitResult:
    """Closed-form weighted least squares for y = alpha * r.

    Per record, y = c*doppler_frac_meas - range_rate_true and the weight
    is 1/(c*sigma_frac)^2; then

        alpha_hat = sum(w r y) / sum(w r^2),  stderr = sum(w r^2)^(-1/2),
        z = alpha_hat / stderr.

    Raises ConfdopError for a c that GroupParameter refuses (c must be
    positive with c*c a normal float), and DegenerateDesign for n < 2,
    all-equal ranges, or a sum(w r^2) that overflows to inf or underflows
    to 0, where the standard error is undefined.
    """
    r, y, w, wry, wr2 = _wls_terms(table, c)
    alpha_hat, swr2 = _alpha_hat(wry, wr2)
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


@np.errstate(over="ignore", invalid="ignore")
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
    evaluation order.  A resample whose ranges are all equal, or whose
    sum(w r^2) overflows or underflows, raises DegenerateDesign.  The
    seed is a Philox key, so it must lie in [0, 2**128); c is checked as
    fit_alpha checks it.
    """
    if n_resamples < 100:
        raise ConfdopError(f"n_resamples must be >= 100, got {n_resamples}")
    if not 0 <= seed < 2**128:
        raise ConfdopError(f"bootstrap seed must be in [0, 2**128), got {seed}")
    r, _, _, wry, wr2 = _wls_terms(table, c)
    n = r.size
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        idx = rng.integers(0, n, size=n)
        r_i = r.take(idx)
        if r_i.min() == r_i.max():
            raise DegenerateDesign("all ranges are equal; alpha is not identifiable")
        estimates[i] = _alpha_hat(wry.take(idx), wr2.take(idx))[0]
    return float(np.std(estimates, ddof=1))


def decide_metric(fit: FitResult, z_threshold: float = 5.0) -> MetricDecision:
    """Conformal metric detected iff |z| strictly exceeds the threshold,
    which must be finite and >= 0: no |z| exceeds NaN or inf."""
    if not 0.0 <= z_threshold < math.inf:
        raise ConfdopError(f"z_threshold must be finite and >= 0, got {z_threshold}")
    if abs(fit.z_score_alpha_zero) > z_threshold:
        return MetricDecision.CONFORMAL_DETECTED
    return MetricDecision.MINKOWSKI_CONSISTENT
