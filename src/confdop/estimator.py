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

from .conformal import _integer, _real, _require_c
from .constants import SPEED_OF_LIGHT
from .errors import ConfdopError, DegenerateDesign, ZeroSigma
from .conformal_array import _max_rows
from .tracking import TrackingTable, _require_finite_columns, _residual_velocity


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
    var = c * sigma_frac
    var *= var
    if np.all(var == 0.0):
        return np.ones_like(var)
    if np.any(var == 0.0):
        raise ZeroSigma("sigma values mix zero and positive; weights are ill-posed")
    return np.divide(1.0, var, out=var)


def _wls_terms(table: TrackingTable, c: float):
    """Per-record terms of the fit: ranges r, residual velocities
    y = c*frac - rate, weights w, and the summands as one (n, 2) array
    whose rows are (w*r*y, w*r^2), so that a resample gathers both at once.
    Each is a new array built in place, with the bits of the plain
    expressions.

    Raises TypeError or ConfdopError for a c that GroupParameter refuses,
    ConfdopError for a column the fit reads that is not finite (naming it
    and its first bad row), and DegenerateDesign for n < 2 or all-equal
    ranges.
    """
    c = _require_c(c)
    _require_finite_columns(
        table, ("range_true", "range_rate_true", "doppler_frac_meas", "sigma_frac")
    )
    r = table.range_true
    n = r.size
    if n < 2:
        raise DegenerateDesign(f"need at least 2 records, got {n}")
    if np.all(r == r[0]):
        raise DegenerateDesign("all ranges are equal; alpha is not identifiable")
    w = _weights(table.sigma_frac, c)
    y = _residual_velocity(table, c)
    terms = np.empty((n, 2))
    wr = np.multiply(w, r, out=terms[:, 1])
    np.multiply(wr, y, out=terms[:, 0])
    wr *= r
    return r, y, w, terms


def _alpha_hat(terms: np.ndarray) -> tuple[float, float]:
    """alpha_hat = sum(w r y) / sum(w r^2) over the rows (w*r*y, w*r^2) of
    terms, returned with sum(w r^2).  Each column is summed by
    np.add.reduce: numpy's pairwise sum, in the order np.sum takes on a
    contiguous copy of it, without np.sum's Python wrapper.

    Raises DegenerateDesign when sum(w r^2) overflows to inf or underflows
    to 0, where alpha_hat and its standard error are undefined.
    """
    swr2 = float(np.add.reduce(terms[:, 1]))
    if not 0.0 < swr2 < math.inf:
        cause = "overflows" if swr2 else "underflows to 0"
        raise DegenerateDesign(
            f"sum(w*r^2) {cause} ({swr2!r}); the standard error of alpha is undefined"
        )
    return float(np.add.reduce(terms[:, 0])) / swr2, swr2


# A sum that overflows (or inf - inf) is refused by _alpha_hat, or shows as
# a non-finite field that the CLI refuses; numpy need not warn about it too.
@np.errstate(over="ignore", invalid="ignore")
def fit_alpha(table: TrackingTable, c: float = SPEED_OF_LIGHT) -> FitResult:
    """Closed-form weighted least squares for y = alpha * r.

    Per record, y = c*doppler_frac_meas - range_rate_true and the weight
    is 1/(c*sigma_frac)^2; then

        alpha_hat = sum(w r y) / sum(w r^2),  stderr = sum(w r^2)^(-1/2),
        z = alpha_hat / stderr.

    c is a real number (see conformal._real).  Raises TypeError or
    ConfdopError for a c that GroupParameter refuses (c must be positive
    with c*c a normal float), and DegenerateDesign for n < 2,
    all-equal ranges, or a sum(w r^2) that overflows to inf or underflows
    to 0, where the standard error is undefined.
    """
    r, y, w, terms = _wls_terms(table, c)
    alpha_hat, swr2 = _alpha_hat(terms)
    stderr = swr2**-0.5
    # w*resid*resid with resid = y - alpha_hat*r, in the buffers of y and w
    y -= alpha_hat * r
    w *= y
    w *= y
    chi2 = float(np.add.reduce(w))
    return FitResult(
        alpha_hat=alpha_hat,
        alpha_stderr=stderr,
        chi2=chi2,
        dof=r.size - 1,
        z_score_alpha_zero=alpha_hat / stderr,
        n_used=r.size,
    )


# Most resamples whose float64 estimates numpy can size.
_MAX_RESAMPLES = _max_rows(1)

# Most records whose indices numpy draws with 32-bit Lemire products; from
# 2**32 + 1 records on, Generator.integers takes 64-bit words per index.
_MAX_RECORDS = 2**32


def _resample_indices(n: int, n_resamples: int, seed: int):
    """Yield the record indices of each bootstrap resample: draw i is the
    int64 array Generator(Philox(key=seed, counter=i << 64)).integers(0, n,
    size=n) returns, bit for bit, for 1 <= n <= 2**32.

    One bit generator serves every draw.  Before draw i its state is set
    to that fresh generator's: counter [0, i, 0, 0] and an empty buffer.
    The draw repeats numpy's buffered_bounded_lemire_uint32 in numpy
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    2019): the Philox words from random_raw are split into 32-bit halves
    u, low half first, as Philox hands them to integers; m = u * n is
    formed in uint64; a half whose low 32 bits of m are below
    (2**32 - n) % n is rejected; and the index is m >> 32 of each of the
    first n halves kept.  Rejections are not rare (about 1 resample in 60
    at n = 1e4, about 12 halves a resample at n = 3e5), so each rejected
    half is replaced by the next half of the same stream, as numpy does:
    the spare half of an odd n first, then the halves of more words.
    """
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    counter = state["state"]["counter"]
    n64 = np.uint64(n)
    threshold = (2**32 - n) % n

    def products(words):
        halves = bitgen.random_raw(words).astype("<u8", copy=False).view("<u4")
        return halves * n64

    for i in range(n_resamples):
        counter[:] = (0, i, 0, 0)
        bitgen.state = state
        m = products((n + 1) // 2)
        if threshold and m[:n].astype(np.uint32).min() < threshold:
            m = m[m.astype(np.uint32) >= threshold]
            while m.size < n:
                more = products((n - m.size + 1) // 2)
                m = np.concatenate((m, more[more.astype(np.uint32) >= threshold]))
        m = m[:n]
        m >>= 32
        yield m.view(np.int64)


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
    evaluation order.  The indices are those of
    Generator(Philox(key=seed, counter=i << 64)).integers(0, n, size=n),
    drawn by _resample_indices with Lemire's rejection rule on 32-bit
    halves, so the table may hold at most 2**32 records.  Each resample
    gathers its (w*r*y, w*r^2) rows in one take and sums each column in
    numpy's pairwise order, as fit_alpha sums the table's.  A resample
    whose ranges are all equal, or whose sum(w r^2) overflows or
    underflows, raises DegenerateDesign.  n_resamples and the seed are
    integers (see conformal._integer); n_resamples must lie in
    [100, _MAX_RESAMPLES], the seed, a Philox key, in [0, 2**128); c is
    checked as fit_alpha checks it.  These and the record count are
    checked before any term of the fit is computed.
    """
    n_resamples = _integer("n_resamples", n_resamples)
    if n_resamples < 100:
        raise ConfdopError(f"n_resamples must be >= 100, got {n_resamples}")
    if n_resamples > _MAX_RESAMPLES:
        raise ConfdopError(
            f"n_resamples must be <= {_MAX_RESAMPLES}, so that numpy can size "
            f"the float64 estimates, got {n_resamples}"
        )
    if len(table) > _MAX_RECORDS:
        raise ConfdopError(
            f"a bootstrap takes at most 2**32 records, the range of numpy's "
            f"32-bit index draw, got {len(table)}"
        )
    seed = _integer("seed", seed)
    if not 0 <= seed < 2**128:
        raise ConfdopError(f"bootstrap seed must be in [0, 2**128), got {seed}")
    r, _, _, terms = _wls_terms(table, c)
    estimates = np.empty(n_resamples)
    for i, idx in enumerate(_resample_indices(r.size, n_resamples, seed)):
        # a resample whose first two ranges differ holds two different
        # ranges, so only one whose first two are equal is gathered and tested
        if r[idx[0]] == r[idx[1]] and (r_i := r.take(idx)).min() == r_i.max():
            raise DegenerateDesign(
                f"resample {i} of {r.size} records has all ranges equal; "
                "alpha is not identifiable"
            )
        estimates[i] = _alpha_hat(terms.take(idx, axis=0))[0]
    return float(np.std(estimates, ddof=1))


def decide_metric(fit: FitResult, z_threshold: float = 5.0) -> MetricDecision:
    """Conformal metric detected iff |z| strictly exceeds the threshold, a
    real number (see conformal._real) that must be finite and >= 0: no |z|
    exceeds NaN or inf."""
    z_threshold = _real("z_threshold", z_threshold)
    if not 0.0 <= z_threshold < math.inf:
        raise ConfdopError(f"z_threshold must be finite and >= 0, got {z_threshold}")
    if abs(fit.z_score_alpha_zero) > z_threshold:
        return MetricDecision.CONFORMAL_DETECTED
    return MetricDecision.MINKOWSKI_CONSISTENT
