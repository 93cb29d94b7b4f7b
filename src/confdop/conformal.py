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

Every map here computes in Python floats.  The numpy kernels over arrays
of (beta4, r, x4) and the array RK4 oracle are in confdop.conformal_array;
they share the formula bodies _finite_map, _differential and
_differential_terms defined here, so each formula is written once.

Everything here is a pure function of immutable values; all operations
are safe to share between threads.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

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

# Names of the steps of the finite map's denominator and of each first-order
# map, in computing order; the first non-finite step names an overflow.
_DENOM_STEPS = ("x4^2 - r^2", "2*beta4*x4", "beta4^2", "beta4^2*s2", "1 - 2*beta4*x4 + beta4^2*s2")
_SHIFT_STEPS = ("r^2", "r^2/c^2", "t^2", "r^2/c^2 + t^2", "alpha*(r^2/c^2 + t^2)/2")
_HILL_STEPS = ("alpha", "alpha*t", "r'", *_SHIFT_STEPS, "t'")
_HILL_DIFFERENTIAL_STEPS = ("alpha", "alpha*t", "dr*(1 + alpha*t)", "alpha*r", "alpha*r*dt",
                            "dr'", "dt*(1 + alpha*t)", "alpha*r*dr/c^2", "dt'")
_HILL_VELOCITY_STEPS = ("alpha", "alpha*r", "v^2", "v^2/c^2", "alpha*r*(1 - v^2/c^2)", "v'")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfdopError(f"{name} must be finite, got {value}")


def _is_bool(value) -> bool:
    """Whether value is a bool, Python's or numpy's (a scalar or 0-d array,
    found by its dtype's kind, so that this module names no numpy)."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def _real(name: str, value) -> float:
    """value as a float: a float, an int, a numpy scalar or 0-d array, and an
    int past the float range as +-inf, so that it is refused as not finite.
    Raises TypeError naming `name` for text, which float() would parse; for
    a bool (see _is_bool), as SimConfig refuses one; and for anything else
    float() does not take, such as an array of more than one element."""
    if type(value) is float:
        return value
    if isinstance(value, (str, bytes, bytearray)) or _is_bool(value):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return _INF if value > 0 else -_INF
    except TypeError:
        raise TypeError(f"{name} must be a real number, got {value!r}") from None


def _integer(name: str, value) -> int:
    """value as an exact int: an int, a numpy integer or 0-d integer array
    (through operator.index, so np.uint64(2**64 - 1) stays exact), or a
    real number (see _real) whose value is integral, such as 50.0.  Raises
    TypeError naming `name` for a bool (see _is_bool), text, a fraction,
    nan, inf, an array of more than one element and anything else."""
    if type(value) is int:
        return value
    if not _is_bool(value):  # operator.index reads Python's bool as 0 or 1
        try:
            return operator.index(value)
        except TypeError:
            pass
        try:
            if (number := _real(name, value)).is_integer():  # false for nan and inf
                return int(number)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _store_floats(obj, *names) -> None:
    """Store each named field of the frozen dataclass obj as _real's float."""
    for name in names:
        object.__setattr__(obj, name, _real(name, getattr(obj, name)))


def _require_c(c) -> float:
    """c as _real's float, refused by name unless it is positive with c*c a
    normal float: c*c divides the Hill and inbound-ray maps."""
    c = _real("c", c)
    if not (c > 0.0 and _C2_MIN <= c * c < _INF):
        _require_finite("c", c)
        if not c > 0.0:
            raise ConfdopError(f"c must be positive, got {c}")
        raise ConfdopError(f"c must square to a normal float, got {c} (c*c = {c * c})")
    return c


@dataclass(frozen=True)
class Event:
    """A point (r, x4) in an observer's light-cone coordinates.

    r is the radial distance (length, >= 0, finite) and x4 = c*t the time
    coordinate (length, signed, finite).  Both are stored as floats (see
    _real for what is taken).
    """

    r: float
    x4: float

    def __post_init__(self):
        # one chained test on the hot path; the slow path converts and names the field
        if not (type(self.r) is type(self.x4) is float
                and 0.0 <= self.r < _INF and -_INF < self.x4 < _INF):
            _store_floats(self, "r", "x4")
            _require_finite("r", self.r)
            _require_finite("x4", self.x4)
            if not self.r >= 0.0:
                raise ConfdopError(f"r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class GroupParameter:
    """Selects a group element: beta4 in 1/length, c in length/time.

    beta4 is stored; the inverse-time form alpha = 2*c*beta4 is derived,
    so the pair always satisfies the relation exactly.  c must be positive
    with c*c a normal float (at least sys.float_info.min, below inf).  Both
    fields are stored as floats (see _real for what is taken).
    """

    beta4: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if type(self.beta4) is not float:
            _store_floats(self, "beta4")
        object.__setattr__(self, "c", _require_c(self.c))
        _require_finite("beta4", self.beta4)

    @classmethod
    def from_alpha(cls, alpha: float, c: float = SPEED_OF_LIGHT) -> "GroupParameter":
        """Build from the inverse-time parameter, beta4 = alpha / (2c)."""
        alpha, c = _real("alpha", alpha), _require_c(c)
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
    """Formula body of the finite map, shared with the conformal_array kernels.

    Elementwise on floats or numpy arrays; returns (gamma, r', x4', test).
    `refuse` is given the denominator's steps, named by _DENOM_STEPS, the
    regularity test (false near the singular surface, and where the
    denominator overflowed to inf or NaN) and the two null-coordinate
    factors.  The scalar one raises for an event outside the domain; the
    array one returns the elementwise domain test, the fourth value.  With
    finite inputs, a finite denominator leaves every term finite.
    """
    s2 = x4 * x4 - r * r
    linear = 2.0 * b * x4
    b2 = b * b
    quadratic = b2 * s2
    denom = 1.0 - linear + quadratic
    size = abs(denom)
    regular = (size >= EPS_SINGULAR * (1.0 + abs(linear) + abs(quadratic))) & (size < _INF)
    steps = (s2, linear, b2, quadratic, denom)
    test = refuse(b, r, x4, steps, regular, 1.0 - b * (x4 + r), 1.0 - b * (x4 - r))
    g = 1.0 / denom
    return g, g * r, g * (x4 - b * s2), test


def _overflow(what, at, terms) -> str | None:
    """The message naming the first non-finite (name, value) of `terms`, or None.

    The inputs are finite, so a non-finite term overflowed.
    """
    for name, term in terms:
        if not math.isfinite(term):
            return f"{what} overflows at {at}: {name} = {term}"
    return None


def _refuse(b, r, x4, steps, regular, u_factor, v_factor) -> None:
    if not regular:
        at = f"(r={r}, x4={x4}) for beta4={b}"
        overflow = _overflow("conformal factor denominator", at, zip(_DENOM_STEPS, steps))
        raise SingularTransform(overflow or f"conformal factor singular at {at}")
    if not (u_factor > 0.0 and v_factor > 0.0):
        raise DomainCrossing(
            f"event (r={r}, x4={x4}) lies beyond the singular surface of beta4={b}"
        )


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
    raise ConfdopError(_overflow(what, f"(r={r}, x4={x4}) for beta4={b}", (*terms, *images)))


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


def _transform_with_factor(p: GroupParameter, e: Event) -> tuple[float, Event]:
    """gamma and the image of transform_finite, from one evaluation of the
    finite map; raises as transform_finite does."""
    g, r, x4, _ = _finite_map(p.beta4, e.r, e.x4, _refuse)
    return g, Event(r, x4)


def transform_finite(p: GroupParameter, e: Event) -> Event:
    """Finite transformation (r, x4) -> (gamma*r, gamma*(x4 - beta4*s2)).

    Raises as conformal_factor does, and ConfdopError where an image
    coordinate overflows, as Event refuses it.
    """
    return _transform_with_factor(p, e)[1]


def transform_inverse_finite(p: GroupParameter, e_primed: Event) -> Event:
    """Inverse map: the finite transformation taken at -beta4."""
    return transform_finite(p.negated(), e_primed)


def differential_map(p: GroupParameter, e: Event, dr: float, dx4: float) -> tuple[float, float]:
    """Push a displacement (dr, dx4) at event e through the transformation:

    dr' = gamma^2 * (A dr + B dx4),  dx4' = gamma^2 * (B dr + A dx4),

    with A = 1 - 2*beta4*x4 + beta4^2*(r^2 + x4^2) and
    B = 2*beta4*r*(1 - beta4*x4).  dr and dx4 are real numbers (see _real),
    and the image is two floats.  Raises as conformal_factor does, and
    ConfdopError for a non-finite dr or dx4, or where r^2 + x4^2, A, B,
    dr' or dx4' overflows, naming the first of these that did.
    """
    dr, dx4 = _real("dr", dr), _real("dx4", dx4)
    _require_finite("dr", dr)
    _require_finite("dx4", dx4)
    b, r, x4 = p.beta4, e.r, e.x4
    drp, dx4p = _differential(_finite_map(b, r, x4, _refuse)[0], b, r, x4, dr, dx4)
    if not (abs(drp) < _INF and abs(dx4p) < _INF):
        _refuse_image(f"differential map of (dr={dr}, dx4={dx4})", b, r, x4,
                      (("dr'", drp), ("dx4'", dx4p)))
    return drp, dx4p


def slope_transform(p: GroupParameter, e: Event, slope: float) -> float:
    """Moebius map of a coordinate slope dr/dx4:

    slope' = (A*slope + B) / (B*slope + A),

    with A and B as in differential_map.  Slopes +1 and -1 (light speed)
    are fixed points.  slope is a real number (see _real), and slope' a
    float.  Raises as conformal_factor does for an event outside the
    domain, SlopeSingular when the denominator is within EPS_SINGULAR of
    zero, and ConfdopError for a non-finite slope, or where r^2 + x4^2, A,
    B, the denominator or slope' overflows, naming the first of these
    that did.
    """
    slope = _real("slope", slope)
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


def _image(what: str, p: GroupParameter | None, inputs, names, steps, *image) -> tuple:
    """The `steps` at the indices `image` of a map of the (name, value) `inputs`; if
    one is not finite, raises ConfdopError naming a non-finite input, else step.
    The message names p's alpha, unless p is None (the Hubble relations)."""
    values = tuple(steps[i] for i in image)
    if not all(map(math.isfinite, values)):
        for name, value in inputs:
            _require_finite(name, value)
        at = "(" + ", ".join(f"{name}={value}" for name, value in inputs) + ")"
        if p is not None:
            at += f" for alpha={p.alpha}"
        raise ConfdopError(_overflow(what, at, zip(names, steps)))
    return values


def _shift_steps(a, r, t, c2):
    """_SHIFT_STEPS, ending in the time shift of the Hill and inbound-ray maps."""
    r2, t2 = r * r, t * t
    r2c2 = r2 / c2
    q = r2c2 + t2
    return r2, r2c2, t2, q, a * q / 2.0


def _hill_steps(a, c2, r, t):
    at = a * t
    shift = _shift_steps(a, r, t, c2)
    return (a, at, (1.0 + at) * r, *shift, t + shift[-1])


def hill_transform(p: GroupParameter, r: float, t: float) -> tuple[float, float]:
    """First-order map in alpha:

    r' = (1 + alpha*t) * r,  t' = t + alpha*(r^2/c^2 + t^2) / 2.

    Intended for |alpha*t| << 1.  r and t are real numbers (see _real), and
    the image is two floats; an array of more than one element raises
    TypeError.  Raises ConfdopError for a non-finite r or t, and where r'
    or t' is not finite, naming the first value it computes that overflowed.
    """
    r, t = _real("r", r), _real("t", t)
    steps = _hill_steps(p.alpha, p.c * p.c, r, t)
    return _image("Hill map", p, (("r", r), ("t", t)), _HILL_STEPS, steps, 2, -1)


def _hill_differential_steps(a, c2, r, t, dr, dt):
    at, ar = a * t, a * r
    dr_scaled, ar_dt = dr * (1.0 + at), ar * dt
    dt_scaled, ar_dr_c2 = dt * (1.0 + at), ar * dr / c2
    return a, at, dr_scaled, ar, ar_dt, dr_scaled + ar_dt, dt_scaled, ar_dr_c2, dt_scaled + ar_dr_c2


def hill_differentials(
    p: GroupParameter, r: float, t: float, dr: float, dt: float
) -> tuple[float, float]:
    """First-order map of displacements, the differential of hill_transform:

    dr' = dr*(1 + alpha*t) + alpha*r*dt,
    dt' = dt*(1 + alpha*t) + alpha*r*dr/c^2.

    Takes real numbers and refuses an image that is not finite as
    hill_transform does.
    """
    r, t, dr, dt = _real("r", r), _real("t", t), _real("dr", dr), _real("dt", dt)
    inputs = (("r", r), ("t", t), ("dr", dr), ("dt", dt))
    steps = _hill_differential_steps(p.alpha, p.c * p.c, r, t, dr, dt)
    return _image("Hill differential map", p, inputs, _HILL_DIFFERENTIAL_STEPS, steps, 5, -1)


def _hill_velocity_steps(a, c2, r, v):
    v2 = v * v
    ar, v2c2 = a * r, v2 / c2
    correction = ar * (1.0 - v2c2)
    return a, ar, v2, v2c2, correction, v + correction


def hill_velocity(p: GroupParameter, r: float, v: float) -> float:
    """First-order velocity map v' = v + alpha*r*(1 - v^2/c^2).

    Light speed is preserved exactly: the correction vanishes at v = +-c.
    Takes real numbers and refuses an image that is not finite as
    hill_transform does.
    """
    r, v = _real("r", r), _real("v", v)
    steps = _hill_velocity_steps(p.alpha, p.c * p.c, r, v)
    return _image("Hill velocity map", p, (("r", r), ("v", v)), _HILL_VELOCITY_STEPS, steps, -1)[0]


def flow_oracle(p: GroupParameter, e: Event, steps: int = 100_000) -> Event:
    """Integrate the generating vector field

        dr/dtau = 2*x4*r,  dx4/dtau = r^2 + x4^2

    from tau = 0 to tau = beta4 with classical fixed-step RK4, one Python
    float loop.  Serves as the independent cross-check for
    transform_finite (the closed form is the exponential of this generator).

    This loop is the oracle contract: conformal_array.flow_oracle_array
    applies the same IEEE operations in the same order to each element,
    so both give the same bits, and it leaves every refusal to this
    function.  Each stage
    keeps the half-slope x4*r of r, and the factor 2 rides on the step:
    r + h*p where RK4 reads r + (h/2)*(2*x4*r), r + (2h)*p for stage 4,
    and r + (2h)*(p1 + 2*(p2 + p3) + p4)/6 for the update.  Halving and
    doubling are exact, so this gives the bits of the 2.0*x4*r form as
    long as h/2, 2h, every half-slope, their sums and the doubles of
    these are normal floats or zero; only a subnormal step or a |x4*r|
    near the float maximum can differ.  half_h is 0.5*h, the grouping
    0.5*h*k already has.

    steps is an integer (see _integer), at least 1.  Raises StepDivergence
    once |r| + |x4| exceeds FLOW_DIVERGENCE_BOUND, which signals an
    approach to the singular surface, or is NaN, as it is after an overflow.
    """
    steps = _integer("steps", steps)
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
