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
likewise comes as flow_oracle_array, over one step body it shares with
flow_oracle.

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
    overflowed to NaN) and the two null-coordinate factors.
    """
    s2 = x4 * x4 - r * r
    linear = 2.0 * b * x4
    quadratic = b * b * s2
    denom = 1.0 - linear + quadratic
    regular = abs(denom) >= EPS_SINGULAR * (1.0 + abs(linear) + abs(quadratic))
    refuse(b, r, x4, regular, 1.0 - b * (x4 + r), 1.0 - b * (x4 - r))
    g = 1.0 / denom
    return g, g * r, g * (x4 - b * s2)


def _refuse(b, r, x4, regular, u_factor, v_factor) -> None:
    if not regular:
        raise SingularTransform(
            f"conformal factor singular at (r={r}, x4={x4}) for beta4={b}"
        )
    if not (u_factor > 0.0 and v_factor > 0.0):
        raise DomainCrossing(
            f"event (r={r}, x4={x4}) lies beyond the singular surface of beta4={b}"
        )


def _refuse_any(b, r, x4, regular, u_factor, v_factor) -> None:
    # raises as the scalar kernel would for the first element outside the domain
    bad = ~(regular & (u_factor > 0.0) & (v_factor > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        _refuse(*(np.broadcast_to(a, bad.shape).flat[i].item()
                  for a in (b, r, x4, regular, u_factor, v_factor)))


def _finite_arrays(**fields) -> list[np.ndarray]:
    """The named inputs as float arrays; refuses non-finite values and r < 0."""
    arrays = []
    for name, value in fields.items():
        a = np.asarray(value, dtype=float)
        if not np.isfinite(a).all():
            raise ConfdopError(f"{name} must be finite, got {a[~np.isfinite(a)].flat[0]}")
        if name == "r" and (a < 0.0).any():
            raise ConfdopError(f"r must be >= 0, got {a.min()}")
        arrays.append(a)
    return arrays


def _differential_terms(b, r, x4):
    """A = 1 - 2*beta4*x4 + beta4^2*(r^2 + x4^2) and B = 2*beta4*r*(1 - beta4*x4)."""
    return 1.0 - 2.0 * b * x4 + b * b * (r * r + x4 * x4), 2.0 * b * r * (1.0 - b * x4)


def _differential(b, r, x4, dr, dx4, refuse):
    g = _finite_map(b, r, x4, refuse)[0]
    a_coeff, b_coeff = _differential_terms(b, r, x4)
    g2 = g * g
    return g2 * (a_coeff * dr + b_coeff * dx4), g2 * (b_coeff * dr + a_coeff * dx4)


def conformal_factor(p: GroupParameter, e: Event) -> float:
    """Conformal factor gamma = 1 / (1 - 2*beta4*x4 + beta4^2 * s2).

    gamma is positive everywhere on the admissible domain.  Raises
    SingularTransform when the denominator is within EPS_SINGULAR
    (relative to the magnitude of its terms) of zero, and DomainCrossing
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
    return _finite_map(*_finite_arrays(beta4=beta4, r=r, x4=x4), _refuse_any)[0]


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
    _, r_out, x4_out = _finite_map(*arrays, _refuse_any)
    return tuple(_finite_arrays(r=r_out, x4=x4_out))


def transform_inverse_finite(p: GroupParameter, e_primed: Event) -> Event:
    """Inverse map: the finite transformation taken at -beta4."""
    return transform_finite(p.negated(), e_primed)


def differential_map(p: GroupParameter, e: Event, dr: float, dx4: float) -> tuple[float, float]:
    """Push a displacement (dr, dx4) at event e through the transformation:

    dr' = gamma^2 * (A dr + B dx4),  dx4' = gamma^2 * (B dr + A dx4),

    with A = 1 - 2*beta4*x4 + beta4^2*(r^2 + x4^2) and
    B = 2*beta4*r*(1 - beta4*x4).  Raises as conformal_factor does.
    """
    return _differential(p.beta4, e.r, e.x4, dr, dx4, _refuse)


def differential_map_array(beta4, r, x4, dr, dx4) -> tuple[np.ndarray, np.ndarray]:
    """differential_map over broadcastable arrays; returns (dr', dx4').

    Raises as conformal_factor_array does.
    """
    arrays = _finite_arrays(beta4=beta4, r=r, x4=x4, dr=dr, dx4=dx4)
    return _differential(*arrays, _refuse_any)


def slope_transform(p: GroupParameter, e: Event, slope: float) -> float:
    """Moebius map of a coordinate slope dr/dx4:

    slope' = (A*slope + B) / (B*slope + A),

    with A and B as in differential_map.  Slopes +1 and -1 (light speed)
    are fixed points.  Raises as conformal_factor does for an event
    outside the domain, and SlopeSingular when the denominator is within
    EPS_SINGULAR of zero.
    """
    _finite_map(p.beta4, e.r, e.x4, _refuse)
    a_coeff, b_coeff = _differential_terms(p.beta4, e.r, e.x4)
    denom = b_coeff * slope + a_coeff
    if abs(denom) < EPS_SINGULAR:
        raise SlopeSingular(f"slope map singular: B*slope + A = {denom!r}")
    return (a_coeff * slope + b_coeff) / denom


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


def hill_transform(p: GroupParameter, r: float, t: float) -> tuple[float, float]:
    """First-order map in alpha:

    r' = (1 + alpha*t) * r,  t' = t + alpha*(r^2/c^2 + t^2) / 2.

    Intended for |alpha*t| << 1; accepts all inputs.
    """
    a = p.alpha
    return (
        (1.0 + a * t) * r,
        t + a * (r * r / (p.c * p.c) + t * t) / 2.0,
    )


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


def _rk4_step(r, x, h, half_h):
    """One classical RK4 step of dr/dtau = 2*x4*r, dx4/dtau = r^2 + x4^2.

    Elementwise on floats or numpy arrays, shared by flow_oracle and
    flow_oracle_array; half_h is 0.5*h, the grouping 0.5*h*k already has.
    """
    k1r = 2.0 * x * r
    k1x = r * r + x * x
    r2 = r + half_h * k1r
    x2 = x + half_h * k1x
    k2r = 2.0 * x2 * r2
    k2x = r2 * r2 + x2 * x2
    r3 = r + half_h * k2r
    x3 = x + half_h * k2x
    k3r = 2.0 * x3 * r3
    k3x = r3 * r3 + x3 * x3
    r4 = r + h * k3r
    x4 = x + h * k3x
    k4r = 2.0 * x4 * r4
    k4x = r4 * r4 + x4 * x4
    return (
        r + h * (k1r + 2.0 * (k2r + k3r) + k4r) / 6.0,
        x + h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0,
    )


def _require_steps(steps: int) -> None:
    if steps < 1:
        raise ConfdopError(f"steps must be >= 1, got {steps}")


def _divergence(r: float, x: float) -> StepDivergence:
    return StepDivergence(
        f"flow state exceeded bound {FLOW_DIVERGENCE_BOUND:g} (r={r:g}, x4={x:g})"
    )


def flow_oracle(p: GroupParameter, e: Event, steps: int = 100_000) -> Event:
    """Integrate the generating vector field

        dr/dtau = 2*x4*r,  dx4/dtau = r^2 + x4^2

    from tau = 0 to tau = beta4 with classical fixed-step RK4, one Python
    float loop over the step body that flow_oracle_array shares.  Serves
    as the independent cross-check for transform_finite (the closed form
    is the exponential of this generator).

    Raises StepDivergence if |r| + |x4| exceeds FLOW_DIVERGENCE_BOUND,
    which signals an approach to the singular surface.
    """
    _require_steps(steps)
    if p.beta4 == 0.0:
        return Event(r=e.r, x4=e.x4)
    h = p.beta4 / steps
    half_h = 0.5 * h
    r = e.r
    x = e.x4
    for _ in range(steps):
        r, x = _rk4_step(r, x, h, half_h)
        if abs(r) + abs(x) > FLOW_DIVERGENCE_BOUND:
            raise _divergence(r, x)
    return Event(r=r, x4=x)


def flow_oracle_array(beta4, r, x4, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """flow_oracle for every element of broadcastable arrays at once;
    returns (r', x4').

    Each element takes its own step h = beta4/steps and is bit-identical
    to the scalar call on the same floats; beta4 = 0 returns the input.
    After each step, the lowest-index element past FLOW_DIVERGENCE_BOUND
    raises the StepDivergence the scalar call would.  Raises ConfdopError
    for non-finite inputs or r < 0.
    """
    _require_steps(steps)
    b, r_in, x_in = np.broadcast_arrays(*_finite_arrays(beta4=beta4, r=r, x4=x4))
    moving = b != 0.0
    h = b[moving] / steps
    half_h = 0.5 * h
    r, x = r_in[moving], x_in[moving]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            r, x = _rk4_step(r, x, h, half_h)
            over = abs(r) + abs(x) > FLOW_DIVERGENCE_BOUND
            if over.any():
                i = int(np.argmax(over))
                raise _divergence(float(r[i]), float(x[i]))
    r_out, x_out = r_in.copy(), x_in.copy()
    r_out[moving] = r
    x_out[moving] = x
    return r_out, x_out
