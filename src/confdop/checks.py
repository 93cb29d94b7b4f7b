"""Randomized property suites behind the `check` CLI command.

Each suite samples admissible inputs (parameter scaled so the flow never
approaches the singular surface), measures the worst violation of the
property it guards, and reports pass/fail against a tolerance.

The group and metric suites are one batched pass each through the array
kernels of `confdop.conformal_array`.  Every suite that samples draws its
whole Generator stream as one `rng.random` block, in the order a
per-case loop of `rng.uniform` calls would consume it;
`low + (high - low) * u` is what `Generator.uniform` computes.  So every
summary line equals that of the per-case loop.  The hill suite samples
nothing: at each of its 4 alphas it calls the scalar `transform_finite`
and `hill_transform` of `confdop.conformal` on each of its 16 grid
points, 64 calls of each a pass.  The oracle suite integrates the RK4
flow of all its cases with one `flow_oracle_array` call, which returns
the bits, or raises the error, of a loop of scalar `flow_oracle` calls.
Its row buffer, `_RK4_ROWS` values a case, is the widest array of any
suite, so it sets the case limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (
    Event,
    GroupParameter,
    _integer,
    _real,
    _require_finite,
    hill_transform,
    line_element_squared,
    transform_finite,
)
from .conformal_array import (
    _RK4_ROWS,
    _max_rows,
    conformal_factor_array,
    differential_map_array,
    flow_oracle_array,
    transform_finite_array,
)
from .errors import ConfdopError

SUITES = ("group", "oracle", "hill", "metric")

DEFAULT_TOLERANCES = {
    "group": 1e-12,
    "oracle": 1e-9,
    "hill": 1.9,  # minimum empirical convergence order, not an error bound
    "metric": 1e-12,
}

DEFAULT_CASES = {"group": 10_000, "oracle": 100, "metric": 10_000}

ORACLE_STEPS = 5000  # RK4 steps per oracle case
# Largest case count every suite's arrays can be sized for; the widest is
# the oracle's RK4 row buffer.
_MAX_CASES = _max_rows(_RK4_ROWS)
HILL_ALPHA0 = 1e-4  # largest alpha of the hill suite's halving sequence, 1/s


@dataclass
class SuiteResult:
    name: str
    cases: int
    metric_name: str
    observed: float
    tol: float
    passed: bool
    worst_case: str

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"suite={self.name} cases={self.cases} {self.metric_name}={self.observed:.3e} "
            f"tol={self.tol:g} {status} | worst case: {self.worst_case}"
        )


def _uniform(u, low: float, high: float):
    # Generator.uniform(low, high) from its underlying rng.random() draw
    return low + (high - low) * u


def _rng(seed: int) -> np.random.Generator:
    seed = _integer("seed", seed)
    if seed < 0:
        raise ConfdopError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _draws(rng, cases: int, per_case: int) -> np.ndarray:
    """The next cases*per_case draws, one row per draw slot of a case."""
    return rng.random(per_case * cases).reshape(-1, per_case).T


def _sample_events(u_r, u_x4):
    return _uniform(u_r, 0.05, 2.0), _uniform(u_x4, -2.0, 2.0)


def _scaled_beta(u, r, x4, budget: float):
    # keeps |beta*(|x4| + r)| <= budget so the whole flow stays admissible
    return _uniform(u, -1.0, 1.0) * budget / (r + abs(x4))


def _rel_err(a_r, a_x4, b_r, b_x4):
    scale = np.maximum(np.maximum(a_r + abs(a_x4), b_r + abs(b_x4)), 1e-30)
    return np.maximum(abs(a_r - b_r), abs(a_x4 - b_x4)) / scale


def _result(name, cases, metric_name, err, tol, describe) -> SuiteResult:
    """Suite outcome from the per-case errors, of at least one case.

    The worst case is the first largest error (np.argmax), the one a
    strict `>` scan from 0 keeps; no case is named when every error is 0.
    A NaN error is reported as the worst and fails the suite.
    """
    i = int(np.argmax(err))
    worst = float(err[i])
    worst_case = describe(i) if worst != 0.0 else ""
    return SuiteResult(name, cases, metric_name, worst, tol, worst <= tol, worst_case)


def run_group_suite(cases: int, tol: float, seed: int) -> SuiteResult:
    """Composition law: applying beta2 then beta1 equals applying beta1+beta2."""
    u_r, u_x4, u_b1, u_b2 = _draws(_rng(seed), cases, 4)
    r, x4 = _sample_events(u_r, u_x4)
    b1 = _scaled_beta(u_b1, r, x4, 0.15)
    b2 = _scaled_beta(u_b2, r, x4, 0.15)
    via_two = transform_finite_array(b1, *transform_finite_array(b2, r, x4))
    direct = transform_finite_array(b1 + b2, r, x4)
    err = _rel_err(*via_two, *direct)
    return _result(
        "group", cases, "max_rel_err", err, tol,
        lambda i: f"r={r[i]:.6g} x4={x4[i]:.6g} b1={b1[i]:.6g} b2={b2[i]:.6g}",
    )


def run_oracle_suite(cases: int, tol: float, seed: int) -> SuiteResult:
    """Closed form against RK4 integration of the generating flow."""
    u_r, u_x4, u_b = _draws(_rng(seed), cases, 3)
    r, x4 = _sample_events(u_r, u_x4)
    b = _scaled_beta(u_b, r, x4, 0.3)
    err = _rel_err(*transform_finite_array(b, r, x4), *flow_oracle_array(b, r, x4, ORACLE_STEPS))
    return _result(
        "oracle", cases, "max_rel_err", err, tol,
        lambda i: f"r={r[i]:.6g} x4={x4[i]:.6g} beta4={b[i]:.6g}",
    )


def hill_deviation(p: GroupParameter, grid) -> float:
    """Max relative mismatch between the first-order map and the finite one
    over the (r, t) points of the grid."""
    worst = 0.0
    for r, t in grid:
        x4 = p.c * t
        fin = transform_finite(p, Event(r, x4))
        hr, ht = hill_transform(p, r, t)
        worst = max(worst, max(abs(fin.r - hr), abs(fin.x4 - p.c * ht)) / (r + abs(x4)))
    return worst


def hill_grid() -> list[tuple[float, float]]:
    radii = (1e7, 1e8, 5e8, 1e9)
    times = (-30.0, -10.0, 10.0, 30.0)
    return [(r, t) for r in radii for t in times]


def run_hill_suite(min_order: float) -> SuiteResult:
    """Empirical convergence order of the first-order map under alpha halving."""
    grid = hill_grid()
    devs = [hill_deviation(GroupParameter.from_alpha(HILL_ALPHA0 / 2**k), grid) for k in range(4)]
    orders = [math.log2(devs[k] / devs[k + 1]) for k in range(3)]
    observed = min(orders)
    detail = "orders per halving: " + ", ".join(f"{o:.4f}" for o in orders)
    return SuiteResult("hill", len(grid), "min_order", observed, min_order, observed >= min_order, detail)


def run_metric_suite(cases: int, tol: float, seed: int) -> SuiteResult:
    """Line-element rescaling: ds'^2 = gamma^2 * ds^2, null mapping to null.

    Errors are measured against the displacement magnitude scale
    gamma^2*(dr^2 + dx4^2), since ds^2 itself can cancel to zero.  Every
    10th case takes the exact null displacement dx4 = -dr and so draws
    four numbers instead of five.
    """
    i = np.arange(cases)
    null = i % 10 == 0
    first = 5 * i - (i + 9) // 10  # index of each case's first draw
    u = _rng(seed).random(5 * cases - (cases + 9) // 10)
    r, x4 = _sample_events(u[first], u[first + 1])
    b = _scaled_beta(u[first + 2], r, x4, 0.3)
    dr = _uniform(u[first + 3], -1.0, 1.0)
    dx4 = -dr
    dx4[~null] = _uniform(u[first[~null] + 4], -1.0, 1.0)
    g = conformal_factor_array(b, r, x4)
    g2 = g * g
    drp, dx4p = differential_map_array(b, r, x4, dr, dx4)
    lhs = line_element_squared(drp, dx4p)
    rhs = g2 * line_element_squared(dr, dx4)
    scale = g2 * (dr * dr + dx4 * dx4)
    err = abs(lhs - rhs) / scale
    return _result(
        "metric", cases, "max_scaled_err", err, tol,
        lambda k: f"r={r[k]:.6g} x4={x4[k]:.6g} beta4={b[k]:.6g} dr={dr[k]:.6g} dx4={dx4[k]:.6g}",
    )


def run_suite(name: str, tol: float | None, seed: int, cases: int | None) -> SuiteResult:
    """Run the named suite.  tol is a real number (see conformal._real), and
    seed and cases are integers (see conformal._integer), which the hill
    suite does not read; None takes the suite's default tol or case count."""
    if name not in SUITES:
        raise ConfdopError(f"unknown suite {name!r}; choose from {SUITES}")
    tol = DEFAULT_TOLERANCES[name] if tol is None else _real("tol", tol)
    # a NaN tol FAILs every run and an infinite one PASSes every run
    _require_finite("tol", tol)
    if name == "hill":  # a fixed grid: seed and cases are not used
        return run_hill_suite(min_order=tol)
    cases = DEFAULT_CASES[name] if cases is None else _integer("cases", cases)
    if cases < 1:  # a check of no cases would pass without checking anything
        raise ConfdopError(f"cases must be >= 1, got {cases}")
    if cases > _MAX_CASES:
        raise ConfdopError(
            f"cases must be <= {_MAX_CASES}, so that numpy can size the "
            f"suite's float64 arrays, got {cases}"
        )
    if name == "group":
        return run_group_suite(cases, tol, seed)
    if name == "oracle":
        return run_oracle_suite(cases, tol, seed)
    return run_metric_suite(cases, tol, seed)
