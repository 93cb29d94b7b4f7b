"""Special conformal transformations of light-cone coordinates.

The one-parameter group acting on (r, x4 = ct) rescales both coordinates
by a position-dependent conformal factor:

    r  -> r'  = gamma * r
    x4 -> x4' = gamma * (x4 - beta4 * s2)

with s2 = x4^2 - r^2 and gamma = 1 / (1 - 2*beta4*x4 + beta4^2*s2).

This module provides the finite transformation and its inverse, the
differential (Jacobian) map and slope map, the conserved ratio s2/r, the
metric rescaling factor, the first-order (Hill) approximations in the
inverse-time parameter alpha = 2*c*beta4, and a fixed-step Runge-Kutta
integration of the generating vector field used as an independent
cross-check of the closed forms.

The conformal factor, the finite transformation and the differential map
also come as `*_array` functions over numpy arrays of (beta4, r, x4).
They share their formula body with the scalar functions, so each element
is bit-identical to the scalar call on the same floats.  The admissible
domain is 1 - beta4*(x4 + r) > 0 and 1 - beta4*(x4 - r) > 0: the two
null-coordinate factors whose product is 1/gamma.  The RK4 oracle
likewise comes as flow_oracle_array, which returns the bits, or raises
the error, that a loop of flow_oracle calls would.  Both keep the r slope
of each RK4 stage as the half-slope x4*r and carry its factor 2 on the
step.  The array step is 25 numpy calls on contiguous row blocks and
tests no bound; flow_oracle alone decides divergence, for the few
elements whose running max nears the bound or whose final state is not
plainly fine.  At 5,000 steps an array pass over 10 to 100 elements
takes about 0.04-0.09 s and one flow_oracle call 2.4-4.3 ms, so below
_FLOW_ARRAY_MIN_ELEMENTS moving elements flow_oracle_array makes no pass
and loops over flow_oracle.

Everything here is a pure function of immutable values; all operations
are safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import (
    ConfdopError,
    DomainCrossing,
    SingularTransform,
    SlopeSingular,
    StepDivergence,
    ZeroRadius,
)

# Relative tolerance below which the conformal-factor denominator is
# treated as singular; also the absolute one of the slope-map denominator.
EPS_SINGULAR = 1e-12

# flow_oracle gives up once |r| + |x4| exceeds this: the flow is then
# approaching the singular surface.
FLOW_DIVERGENCE_BOUND = 1e12

_INF = math.inf

_C2_MIN = sys.float_info.min

# Moving elements from which flow_oracle_array makes an array pass; below
# it, its flow_oracle loop costs less.  At 5,000 steps a pass took
# 38-86 ms (mostly 38-50) at every count from 10 to 30, the loop 2.4-4.3 ms
# an element; three alternating sweeps, medians of 5, 7 and 9 runs per
# count, broke even at 22, 17 and 18 (2-core Xeon, Python 3.11.7, numpy
# 2.4.6).  Keep it above 10, the case count of CI's and the benchmark's
# short oracle runs.
_FLOW_ARRAY_MIN_ELEMENTS = 22


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfdopError(f"{name} must be finite, got {value}")


def _require_c(c: float) -> None:
    # c*c divides the Hill and inbound-ray maps, so it must be a normal float
    if not (c > 0.0 and _C2_MIN <= c * c < _INF):
        _require_finite("c", c)
        if not c > 0.0:
            raise ConfdopError(f"c must be positive, got {c}")
        raise ConfdopError(f"c must square to a normal float, got {c} (c*c = {c * c})")


@dataclass(frozen=True)
class Event:
    """A point (r, x4) in an observer's light-cone coordinates.

    r is the radial distance (length, >= 0, finite) and x4 = c*t the time
    coordinate (length, signed, finite).
    """

    r: float
    x4: float

    def __post_init__(self):
        # one chained test on the hot path; the slow path names the field
        if not (0.0 <= self.r < _INF and -_INF < self.x4 < _INF):
            _require_finite("r", self.r)
            _require_finite("x4", self.x4)
            raise ConfdopError(f"r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class GroupParameter:
    """Selects a group element: beta4 in 1/length, c in length/time.

    beta4 is stored; the inverse-time form alpha = 2*c*beta4 is derived,
    so the pair always satisfies the relation exactly.  c must be positive
    with c*c a normal float (at least sys.float_info.min, below inf).
    """

    beta4: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        _require_c(self.c)
        _require_finite("beta4", self.beta4)

    @classmethod
    def from_alpha(cls, alpha: float, c: float = SPEED_OF_LIGHT) -> "GroupParameter":
        """Build from the inverse-time parameter, beta4 = alpha / (2c)."""
        _require_c(c)
        _require_finite("alpha", alpha)
        return cls(beta4=alpha / (2.0 * c), c=c)

    @property
    def alpha(self) -> float:
        """Inverse-time form of the parameter."""
        return 2.0 * self.c * self.beta4

    def negated(self) -> "GroupParameter":
        return GroupParameter(beta4=-self.beta4, c=self.c)


def interval_squared(e: Event) -> float:
    """Signed squared interval s2 = x4^2 - r^2 of an event."""
    return e.x4 * e.x4 - e.r * e.r


def line_element_squared(dr: float, dx4: float) -> float:
    """Squared line element |dr^2 - dx4^2| of a displacement."""
    return abs(dr * dr - dx4 * dx4)


def _finite_map(b, r, x4, refuse):
    """Formula body of the finite map, shared by the scalar and array kernels.

    Elementwise on floats or numpy arrays; returns (gamma, r', x4').
    `refuse` raises for events outside the domain, given the regularity
    test (false near the singular surface, and where the denominator
    overflowed to inf or NaN) and the two null-coordinate factors.  With
    finite inputs, a finite denominator leaves every term finite.
    """
    s2 = x4 * x4 - r * r
    linear = 2.0 * b * x4
    quadratic = b * b * s2
    denom = 1.0 - linear + quadratic
    size = abs(denom)
    regular = (size >= EPS_SINGULAR * (1.0 + abs(linear) + abs(quadratic))) & (size < _INF)
    refuse(b, r, x4, regular, 1.0 - b * (x4 + r), 1.0 - b * (x4 - r))
    g = 1.0 / denom
    return g, g * r, g * (x4 - b * s2)


def _finite_map_array(b, r, x4):
    # every overflow here leaves the denominator non-finite, which
    # _refuse_any refuses, or an image coordinate non-finite, which
    # transform_finite_array refuses; so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_map(b, r, x4, _refuse_any)


def _overflow(what, b, r, x4, terms) -> str | None:
    """The message naming the first non-finite (name, value) of `terms`, or None.

    The inputs are finite, so a non-finite term overflowed.
    """
    for name, term in terms:
        if not math.isfinite(term):
            return f"{what} overflows at (r={r}, x4={x4}) for beta4={b}: {name} = {term}"
    return None


def _refuse(b, r, x4, regular, u_factor, v_factor) -> None:
    if not regular:
        s2 = x4 * x4 - r * r
        raise SingularTransform(_overflow("conformal factor denominator", b, r, x4, (
            ("x4^2 - r^2", s2),
            ("2*beta4*x4", 2.0 * b * x4),
            ("beta4^2", b * b),
            ("beta4^2*s2", b * b * s2),
            ("1 - 2*beta4*x4 + beta4^2*s2", 1.0 - 2.0 * b * x4 + b * b * s2),
        )) or f"conformal factor singular at (r={r}, x4={x4}) for beta4={b}")
    if not (u_factor > 0.0 and v_factor > 0.0):
        raise DomainCrossing(
            f"event (r={r}, x4={x4}) lies beyond the singular surface of beta4={b}"
        )


def _first(bad, *arrays):
    """The Python values of `arrays`, broadcast to bad's shape, at its first true element."""
    i = int(np.argmax(bad))
    return (np.broadcast_to(a, bad.shape).flat[i].item() for a in arrays)


def _refuse_any(b, r, x4, regular, u_factor, v_factor) -> None:
    # raises as the scalar kernel would for the first element outside the domain
    bad = ~(regular & (u_factor > 0.0) & (v_factor > 0.0))
    if bad.any():
        _refuse(*_first(bad, b, r, x4, regular, u_factor, v_factor))


def _finite_arrays(**fields) -> list[np.ndarray]:
    """The named inputs as float arrays; refuses non-finite values and r < 0."""
    arrays = []
    for name, value in fields.items():
        a = np.asarray(value, dtype=float)
        if not np.isfinite(a).all():
            raise ConfdopError(f"{name} must be finite, got {a[~np.isfinite(a)].flat[0]}")
        if name == "r" and (a < 0.0).any():
            raise ConfdopError(f"r must be >= 0, got {a[a < 0.0][0]}")
        arrays.append(a)
    return arrays


def _differential_terms(b, r, x4):
    """r^2 + x4^2, A = 1 - 2*beta4*x4 + beta4^2*(r^2 + x4^2) and B = 2*beta4*r*(1 - beta4*x4)."""
    q = r * r + x4 * x4
    return q, 1.0 - 2.0 * b * x4 + b * b * q, 2.0 * b * r * (1.0 - b * x4)


def _differential(g, b, r, x4, dr, dx4):
    _, a_coeff, b_coeff = _differential_terms(b, r, x4)
    g2 = g * g
    return g2 * (a_coeff * dr + b_coeff * dx4), g2 * (b_coeff * dr + a_coeff * dx4)


def _refuse_image(what, b, r, x4, images) -> None:
    # the differential or slope image of an admissible event is not finite
    terms = zip(("r^2 + x4^2", "A", "B"), _differential_terms(b, r, x4))
    raise ConfdopError(_overflow(what, b, r, x4, (*terms, *images)))


def conformal_factor(p: GroupParameter, e: Event) -> float:
    """Conformal factor gamma = 1 / (1 - 2*beta4*x4 + beta4^2 * s2).

    gamma is positive everywhere on the admissible domain.  Raises
    SingularTransform when the denominator is within EPS_SINGULAR
    (relative to the magnitude of its terms) of zero, or overflows, with
    a message that names the term that overflowed, and DomainCrossing
    when the event lies beyond a singular surface, i.e. when
    1 - beta4*(x4 + r) or 1 - beta4*(x4 - r) is not positive.  Past both surfaces the
    denominator is positive again, but the flow from the identity
    diverges before it gets there.
    """
    return _finite_map(p.beta4, e.r, e.x4, _refuse)[0]


def conformal_factor_array(beta4, r, x4) -> np.ndarray:
    """conformal_factor over broadcastable arrays of beta4, r and x4.

    Raises as the scalar call would for the first element outside the
    domain, and ConfdopError for non-finite inputs or r < 0.
    """
    return _finite_map_array(*_finite_arrays(beta4=beta4, r=r, x4=x4))[0]


def transform_finite(p: GroupParameter, e: Event) -> Event:
    """Finite transformation (r, x4) -> (gamma*r, gamma*(x4 - beta4*s2))."""
    _, r, x4 = _finite_map(p.beta4, e.r, e.x4, _refuse)
    return Event(r, x4)


def transform_finite_array(beta4, r, x4) -> tuple[np.ndarray, np.ndarray]:
    """transform_finite over broadcastable arrays; returns (r', x4').

    Raises as conformal_factor_array does, and ConfdopError where an image
    coordinate overflows, as the Event that transform_finite builds would.
    """
    arrays = _finite_arrays(beta4=beta4, r=r, x4=x4)
    _, r_out, x4_out = _finite_map_array(*arrays)
    return tuple(_finite_arrays(r=r_out, x4=x4_out))


def transform_inverse_finite(p: GroupParameter, e_primed: Event) -> Event:
    """Inverse map: the finite transformation taken at -beta4."""
    return transform_finite(p.negated(), e_primed)


def differential_map(p: GroupParameter, e: Event, dr: float, dx4: float) -> tuple[float, float]:
    """Push a displacement (dr, dx4) at event e through the transformation:

    dr' = gamma^2 * (A dr + B dx4),  dx4' = gamma^2 * (B dr + A dx4),

    with A = 1 - 2*beta4*x4 + beta4^2*(r^2 + x4^2) and
    B = 2*beta4*r*(1 - beta4*x4).  Raises as conformal_factor does, and
    ConfdopError for a non-finite dr or dx4, or where r^2 + x4^2, A, B,
    dr' or dx4' overflows, naming the first of these that did.
    """
    _require_finite("dr", dr)
    _require_finite("dx4", dx4)
    b, r, x4 = p.beta4, e.r, e.x4
    drp, dx4p = _differential(_finite_map(b, r, x4, _refuse)[0], b, r, x4, dr, dx4)
    if not (abs(drp) < _INF and abs(dx4p) < _INF):
        _refuse_image(f"differential map of (dr={dr}, dx4={dx4})", b, r, x4,
                      (("dr'", drp), ("dx4'", dx4p)))
    return drp, dx4p


def differential_map_array(beta4, r, x4, dr, dx4) -> tuple[np.ndarray, np.ndarray]:
    """differential_map over broadcastable arrays; returns (dr', dx4').

    Raises as conformal_factor_array does, and as differential_map does
    for the first element whose image is not finite.
    """
    b, r, x4, dr, dx4 = _finite_arrays(beta4=beta4, r=r, x4=x4, dr=dr, dx4=dx4)
    g = _finite_map_array(b, r, x4)[0]
    # an overflow here leaves an image non-finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        drp, dx4p = _differential(g, b, r, x4, dr, dx4)
    bad = ~(np.isfinite(drp) & np.isfinite(dx4p))
    if bad.any():
        b, r, x4, dr, dx4 = _first(bad, b, r, x4, dr, dx4)
        differential_map(GroupParameter(b), Event(r, x4), dr, dx4)  # raises
    return drp, dx4p


def slope_transform(p: GroupParameter, e: Event, slope: float) -> float:
    """Moebius map of a coordinate slope dr/dx4:

    slope' = (A*slope + B) / (B*slope + A),

    with A and B as in differential_map.  Slopes +1 and -1 (light speed)
    are fixed points.  Raises as conformal_factor does for an event
    outside the domain, SlopeSingular when the denominator is within
    EPS_SINGULAR of zero, and ConfdopError for a non-finite slope, or
    where r^2 + x4^2, A, B, the denominator or slope' overflows, naming
    the first of these that did.
    """
    _require_finite("slope", slope)
    b, r, x4 = p.beta4, e.r, e.x4
    _finite_map(b, r, x4, _refuse)
    _, a_coeff, b_coeff = _differential_terms(b, r, x4)
    denom = b_coeff * slope + a_coeff
    if abs(denom) < EPS_SINGULAR:
        raise SlopeSingular(f"slope map singular: B*slope + A = {denom!r}")
    out = (a_coeff * slope + b_coeff) / denom
    if not (abs(out) < _INF and abs(denom) < _INF):
        _refuse_image(f"slope map of slope={slope}", b, r, x4,
                      (("B*slope + A", denom), ("slope'", out)))
    return out


def invariant_ratio(e: Event) -> float:
    """The conserved ratio s2/r = (x4^2 - r^2) / r; requires r > 0."""
    if e.r == 0.0:
        raise ZeroRadius("s2/r is undefined at r = 0")
    return interval_squared(e) / e.r


def interval_scale(p: GroupParameter, e: Event) -> float:
    """Factor gamma^2 by which squared line elements rescale at this event.

    The finite interval s2 itself rescales by a single factor of gamma;
    use conformal_factor for that.
    """
    g = conformal_factor(p, e)
    return g * g


def _hill_time_shift(a: float, r: float, t: float, c2: float) -> float:
    """First-order time shift alpha*(r^2/c^2 + t^2)/2 of the Hill and inbound-ray maps."""
    return a * (r * r / c2 + t * t) / 2.0


def hill_transform(p: GroupParameter, r: float, t: float) -> tuple[float, float]:
    """First-order map in alpha:

    r' = (1 + alpha*t) * r,  t' = t + alpha*(r^2/c^2 + t^2) / 2.

    Intended for |alpha*t| << 1; accepts all inputs.
    """
    a = p.alpha
    return (1.0 + a * t) * r, t + _hill_time_shift(a, r, t, p.c * p.c)


def hill_differentials(
    p: GroupParameter, r: float, t: float, dr: float, dt: float
) -> tuple[float, float]:
    """First-order map of displacements, the differential of hill_transform:

    dr' = dr*(1 + alpha*t) + alpha*r*dt,
    dt' = dt*(1 + alpha*t) + alpha*r*dr/c^2.
    """
    a = p.alpha
    return (
        dr * (1.0 + a * t) + a * r * dt,
        dt * (1.0 + a * t) + a * r * dr / (p.c * p.c),
    )


def hill_velocity(p: GroupParameter, r: float, v: float) -> float:
    """First-order velocity map v' = v + alpha*r*(1 - v^2/c^2).

    Light speed is preserved exactly: the correction vanishes at v = +-c.
    """
    return v + p.alpha * r * (1.0 - v * v / (p.c * p.c))


def flow_oracle(p: GroupParameter, e: Event, steps: int = 100_000) -> Event:
    """Integrate the generating vector field

        dr/dtau = 2*x4*r,  dx4/dtau = r^2 + x4^2

    from tau = 0 to tau = beta4 with classical fixed-step RK4, one Python
    float loop.  Serves as the independent cross-check for
    transform_finite (the closed form is the exponential of this generator).

    This loop is the oracle contract: flow_oracle_array applies the same
    IEEE operations in the same order to each element, so both give the
    same bits, and it leaves every refusal to this function.  Each stage
    keeps the half-slope x4*r of r, and the factor 2 rides on the step:
    r + h*p where RK4 reads r + (h/2)*(2*x4*r), r + (2h)*p for stage 4,
    and r + (2h)*(p1 + 2*(p2 + p3) + p4)/6 for the update.  Halving and
    doubling are exact, so this gives the bits of the 2.0*x4*r form as
    long as h/2, 2h, every half-slope, their sums and the doubles of
    these are normal floats or zero; only a subnormal step or a |x4*r|
    near the float maximum can differ.  half_h is 0.5*h, the grouping
    0.5*h*k already has.

    Raises StepDivergence once |r| + |x4| exceeds FLOW_DIVERGENCE_BOUND,
    which signals an approach to the singular surface, or is NaN, as it
    is after an overflow.
    """
    if steps < 1:
        raise ConfdopError(f"steps must be >= 1, got {steps}")
    if p.beta4 == 0.0:
        return Event(r=e.r, x4=e.x4)
    h = p.beta4 / steps
    half_h = 0.5 * h
    two_h = 2.0 * h
    r = e.r
    x = e.x4
    for _ in range(steps):
        p1 = x * r
        k1x = r * r + x * x
        r2 = r + h * p1
        x2 = x + half_h * k1x
        p2 = x2 * r2
        k2x = r2 * r2 + x2 * x2
        r3 = r + h * p2
        x3 = x + half_h * k2x
        p3 = x3 * r3
        k3x = r3 * r3 + x3 * x3
        r4 = r + two_h * p3
        x4 = x + h * k3x
        p4 = x4 * r4
        k4x = r4 * r4 + x4 * x4
        r = r + two_h * (p1 + 2.0 * (p2 + p3) + p4) / 6.0
        x = x + h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0
        if not abs(r) + abs(x) <= FLOW_DIVERGENCE_BOUND:
            raise StepDivergence(
                f"flow state exceeded bound {FLOW_DIVERGENCE_BOUND:g} (r={r:g}, x4={x:g})"
            )
    return Event(r=r, x4=x)


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
    same rows costs 2-3 times as much.  No buffer holds more than 14
    values per element, the width that the oracle suite's case limit is
    sized for.
    """
    n = y0.shape[1]
    # row pairs y, k2 | t, k3 | z, s = k2 + k3 | k1
    rows = np.empty((14, n))
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
    which at 5,000 steps costs 2.4-4.3 ms an element against 0.04-0.09 s
    a pass.  From that count on, each element takes its own step
    h = beta4/steps and sees flow_oracle's operations in the same order,
    half-slopes included.  The state is one (2, n) array of rows (r, x4),
    and a step is 25 numpy calls into buffers made once per pass.  The
    pass tests no bound; it keeps the running max of r^2 and x4^2.  Every
    element that is not plainly fine runs again through flow_oracle, in
    index order, and flow_oracle decides whether it raises.  Not plainly
    fine: an input that Event or GroupParameter refuses, a step count
    below 1, a peak sqrt(max r^2) + sqrt(max x4^2) above half of
    FLOW_DIVERGENCE_BOUND, or a final state past the bound, not finite or
    with r < 0.  beta4 = 0 returns the input.  The caller's arrays are
    never written.
    """
    b, r_in, x_in = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (beta4, r, x4)))
    r_out, x_out = r_in.copy(), x_in.copy()
    # so far fine: no input that Event, GroupParameter or the step count refuses
    fine = np.ravel(np.isfinite(b) & np.isfinite(x_in) & (0.0 <= r_in) & (r_in < _INF))
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
