"""Array kernels of the conformal maps, and the array RK4 oracle.

The conformal factor, the finite transformation and the differential map
come as `*_array` functions over broadcastable numpy arrays of (beta4, r,
x4).  They take their formula bodies from confdop.conformal, so each
element is bit-identical to the scalar call on the same floats, and they
run the first element that they refuse through the scalar call, so they
raise the error that a loop of scalar calls would.  The admissible
domain is 1 - beta4*(x4 + r) > 0 and 1 - beta4*(x4 - r) > 0: the two
null-coordinate factors whose product is 1/gamma.

The RK4 oracle likewise comes as flow_oracle_array, which returns the
bits, or raises the error, that a loop of flow_oracle calls would.  Both
keep the r slope of each RK4 stage as the half-slope x4*r and carry its
factor 2 on the step.  The array step is 25 numpy calls on contiguous
row blocks and tests no bound; flow_oracle alone decides divergence, for
the few elements whose running max nears the bound or whose final state
is not plainly fine.  Below _FLOW_ARRAY_MIN_ELEMENTS moving elements,
where a loop costs less, flow_oracle_array makes no pass and loops over
flow_oracle.

Everything here is a pure function of its arguments, which it never
writes; all operations are safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .conformal import (
    FLOW_DIVERGENCE_BOUND,
    Event,
    GroupParameter,
    _differential,
    _finite_map,
    _integer,
    conformal_factor,
    differential_map,
    flow_oracle,
    transform_finite,
)

# Moving elements from which flow_oracle_array makes an array pass; below
# it, its flow_oracle loop costs less.  At 5,000 steps a pass took
# 38-86 ms (mostly 38-50) at every count from 10 to 30, the loop 2.4-4.3 ms
# an element; three alternating sweeps, medians of 5, 7 and 9 runs per
# count, broke even at 22, 17 and 18 (2-core Xeon, Python 3.11.7, numpy
# 2.4.6).  Keep it above 10, the case count of the benchmark's set-up
# warm-up (`check --suite oracle --cases 10`), which takes the loop.
_FLOW_ARRAY_MIN_ELEMENTS = 22

# Float64 values per element of _rk4_array_steps's row buffer, the widest
# array any check suite makes per case.
_RK4_ROWS = 14


def _max_rows(width: int) -> int:
    """Largest row count whose (rows, width) float64 array numpy can size:
    at most np.iinfo(np.intp).max bytes.  Fewer rows may still not fit in
    memory."""
    return np.iinfo(np.intp).max // (width * np.dtype(np.float64).itemsize)


def _in_domain(b, r, x4, steps, regular, u_factor, v_factor):
    return regular & (u_factor > 0.0) & (v_factor > 0.0)


def _finite_map_array(b, r, x4):
    """_finite_map over float arrays; returns (gamma, r', x4', fine), with
    fine false wherever the scalar kernel refuses the input: a non-finite
    beta4 or x4, an r that is negative or not finite, or an event outside
    the domain.  numpy does not warn of what a refused element computes."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, r_out, x4_out, in_domain = _finite_map(b, r, x4, _in_domain)
    fine = in_domain & np.isfinite(b) & np.isfinite(x4) & (0.0 <= r) & (r < np.inf)
    return g, r_out, x4_out, fine


def _raise_first(fine, kernel, b, r, x4, *rest) -> None:
    """Unless `fine` is true throughout, run the scalar `kernel` on the first
    element of (beta4, r, x4, *rest) in C order where it is false.  `fine`
    is false only where the kernel refuses, so the kernel raises there, as
    a loop of scalar calls would."""
    bad = ~fine
    if bad.any():
        i = int(np.argmax(bad))
        b, r, x4, *rest = (np.broadcast_to(a, bad.shape).flat[i].item() for a in (b, r, x4, *rest))
        kernel(GroupParameter(b), Event(r, x4), *rest)


def conformal_factor_array(beta4, r, x4) -> np.ndarray:
    """conformal_factor over broadcastable arrays of beta4, r and x4.

    Raises the error that a loop of scalar calls over the broadcast
    elements in C order would: a refused element is run again through
    conformal_factor.
    """
    b, r, x4 = (np.asarray(v, dtype=float) for v in (beta4, r, x4))
    g, _, _, fine = _finite_map_array(b, r, x4)
    _raise_first(fine, conformal_factor, b, r, x4)
    return g


def transform_finite_array(beta4, r, x4) -> tuple[np.ndarray, np.ndarray]:
    """transform_finite over broadcastable arrays; returns (r', x4').

    Raises the error that a loop of transform_finite calls would, its
    refusal of an image coordinate that overflows included.
    """
    b, r, x4 = (np.asarray(v, dtype=float) for v in (beta4, r, x4))
    _, r_out, x4_out, fine = _finite_map_array(b, r, x4)
    fine = fine & (0.0 <= r_out) & (r_out < np.inf) & np.isfinite(x4_out)
    _raise_first(fine, transform_finite, b, r, x4)
    return np.asarray(r_out), np.asarray(x4_out)


def differential_map_array(beta4, r, x4, dr, dx4) -> tuple[np.ndarray, np.ndarray]:
    """differential_map over broadcastable arrays; returns (dr', dx4').

    Raises the error that a loop of differential_map calls would, its
    refusal of an image that is not finite included.
    """
    b, r, x4, dr, dx4 = (np.asarray(v, dtype=float) for v in (beta4, r, x4, dr, dx4))
    g, _, _, fine = _finite_map_array(b, r, x4)
    # an overflow here leaves an image non-finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        drp, dx4p = _differential(g, b, r, x4, dr, dx4)
    fine = fine & np.isfinite(dr) & np.isfinite(dx4) & np.isfinite(drp) & np.isfinite(dx4p)
    _raise_first(fine, differential_map, b, r, x4, dr, dx4)
    return drp, dx4p


def _rk4_array_steps(y0, h, steps: int):
    """Take `steps` RK4 steps of flow_oracle from the (2, n) state y0 of
    rows (r, x4), element i with step h[i]; returns the final state and
    the elementwise running max of (r^2, x4^2) over the states that the
    steps start from, final state excluded.  Nothing here tests a bound.

    A step is 25 numpy calls, each writing through its positional out
    argument to a buffer made here.  The r row of a slope is flow_oracle's
    half-slope x4*r, and the two (2, n) multipliers carry its factor 2:
    mid = (h, h/2) for stages 2 and 3, full = (2h, h) for stage 4 and the
    update.  s+s is exactly flow_oracle's 2.0*(k2 + k3).  Stage 4's
    y + full*k3 is fused with k2 + k3 into one call, on C-contiguous row
    blocks of one buffer, because a numpy call on a strided view of the
    same rows costs 2-3 times as much.  No buffer holds more than
    _RK4_ROWS values per element.
    """
    n = y0.shape[1]
    # row pairs y, k2 | t, k3 | z, s = k2 + k3 | k1
    rows = np.empty((_RK4_ROWS, n))
    y_r, y_x, k2_r, k2_x, _, _, k3_r, k3_x, z_r, z_x, _, _, k1_r, k1_x = rows
    y, k2, t, k3, z, s, k1 = (rows[i:i + 2] for i in (0, 2, 4, 6, 8, 10, 12))
    y_k2, t_k3, z_s = rows[0:4], rows[4:8], rows[8:12]
    k4, sq = np.empty((2, 2, n))
    (k4_r, k4_x), (sq_r, sq_x) = k4, sq
    peak = np.zeros((2, n))
    mid = np.stack((h, 0.5 * h))
    full = np.stack((2.0 * h, h))
    six = np.full((2, n), 6.0)
    y[...] = y0
    # local names spare each call a global and an attribute lookup
    add, multiply, maximum, divide = np.add, np.multiply, np.maximum, np.divide
    for _ in range(steps):
        # k1 at y, and the running max of y*y; maximum keeps out= because
        # numpy 2.4 deprecates its positional out
        multiply(y_x, y_r, k1_r)
        multiply(y, y, sq)
        add(sq_r, sq_x, k1_x)
        maximum(peak, sq, out=peak)
        # k2 at z = y + mid*k1
        multiply(mid, k1, t)
        add(y, t, z)
        multiply(z_x, z_r, k2_r)
        multiply(z, z, sq)
        add(sq_r, sq_x, k2_x)
        # k3 at z = y + mid*k2
        multiply(mid, k2, t)
        add(y, t, z)
        multiply(z_x, z_r, k3_r)
        multiply(z, z, sq)
        add(sq_r, sq_x, k3_x)
        # k4 at z = y + full*k3, fused with s = k2 + k3
        multiply(full, k3, t)
        add(y_k2, t_k3, z_s)
        multiply(z_x, z_r, k4_r)
        multiply(z, z, sq)
        add(sq_r, sq_x, k4_x)
        # y = y + full*(k1 + (s+s) + k4)/6
        add(s, s, s)
        add(k1, s, t)
        add(t, k4, t)
        multiply(full, t, t)
        divide(t, six, t)
        add(y, t, y)
    return y, peak


def flow_oracle_array(beta4, r, x4, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """flow_oracle for every element of broadcastable arrays at once;
    returns (r', x4').

    Returns the bits, or raises the error, that
    [flow_oracle(GroupParameter(b), Event(r, x4), steps) for ...] over the
    broadcast elements in C order would; a property test pins this.

    Fewer than _FLOW_ARRAY_MIN_ELEMENTS moving elements (beta4 != 0)
    make no array pass: each runs through flow_oracle, in index order,
    which costs less there.  From that count on, each element takes its
    own step h = beta4/steps and sees flow_oracle's operations in the
    same order, half-slopes included.  The state is one (2, n) array of rows (r, x4),
    and a step is 25 numpy calls into buffers made once per pass.  The
    pass tests no bound; it keeps the running max of r^2 and x4^2.  Every
    element that is not plainly fine runs again through flow_oracle, in
    index order, and flow_oracle decides whether it raises.  Not plainly
    fine: an input that Event or GroupParameter refuses, a step count
    below 1, a peak sqrt(max r^2) + sqrt(max x4^2) above half of
    FLOW_DIVERGENCE_BOUND, or a final state past the bound, not finite or
    with r < 0.  beta4 = 0 returns the input.  The caller's arrays are
    never written.  steps goes through flow_oracle's integer rule first,
    so a step count it refuses by type is refused here too.
    """
    steps = _integer("steps", steps)
    b, r_in, x_in = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (beta4, r, x4)))
    r_out, x_out = r_in.copy(), x_in.copy()
    # so far fine: no input that Event, GroupParameter or the step count refuses
    fine = np.ravel(np.isfinite(b) & np.isfinite(x_in) & (0.0 <= r_in) & (r_in < np.inf))
    fine &= steps >= 1
    moving = np.flatnonzero(fine & np.ravel(b != 0.0))
    if moving.size < _FLOW_ARRAY_MIN_ELEMENTS:
        fine[moving] = False
    else:
        y0 = np.stack((r_in.flat[moving], x_in.flat[moving]))
        h = b.flat[moving] / steps
        with np.errstate(over="ignore", invalid="ignore"):
            y, peak = _rk4_array_steps(y0, h, steps)
            # sqrt(max r^2) + sqrt(max x4^2) >= |r| + |x4| of every state but
            # the last; half the bound leaves room for the rounding of r*r
            fine[moving] = (
                (np.sqrt(peak).sum(axis=0) <= 0.5 * FLOW_DIVERGENCE_BOUND)
                & (abs(y[0]) + abs(y[1]) <= FLOW_DIVERGENCE_BOUND)
                & (y[0] >= 0.0)
            )
        r_out.flat[moving], x_out.flat[moving] = y
    for i in np.flatnonzero(~fine):
        flowed = flow_oracle(GroupParameter(b.flat[i].item()),
                             Event(r_in.flat[i].item(), x_in.flat[i].item()), steps)
        r_out.flat[i], x_out.flat[i] = flowed.r, flowed.x4
    return r_out, x_out
