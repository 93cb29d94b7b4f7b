"""Null rays on the past light cone and the Doppler/Hubble relations.

Inbound electromagnetic waves travel at speed -c toward the observer at
the origin in both coordinate systems.  The conformal map stretches the
wavelength measured in the unprimed system relative to the primed one by
a factor that depends on emission epoch and range; at the origin the two
agree, which is why a received shift can be read either as pure source
velocity or as velocity plus an alpha*r kinematic term.
"""

from __future__ import annotations

import math

from .conformal import GroupParameter, _hill_time_shift, _overflow, _require_finite
from .errors import ConfdopError, NotPastCone


def _require_inbound(r_prime: float, t_prime: float) -> None:
    """The domain of both inbound-ray maps: finite r' >= 0 and t' < 0."""
    _require_finite("r_prime", r_prime)
    _require_finite("t_prime", t_prime)
    if t_prime >= 0.0:
        raise NotPastCone(f"inbound ray needs t' < 0, got {t_prime}")
    if r_prime < 0.0:
        raise ConfdopError(f"r_prime must be >= 0, got {r_prime}")


def inbound_ray_coords(p: GroupParameter, r_prime: float, t_prime: float) -> tuple[float, float]:
    """Unprimed coordinates of a point riding an inbound null ray.

    Solves the first-order implicit pair

        r = (1 + alpha*|t|) * r',   |t| = |t'| + alpha*(r^2/c^2 + t^2)/2

    by a fixed-point pass seeded at (r', t') plus one refinement, which
    is adequate at second order in alpha.  For alpha > 0 the outputs
    satisfy r >= r' and |t| >= |t'|.  A non-finite r' or t' is refused by
    name; an image that is not finite raises ConfdopError naming the
    first quantity of the two passes that overflowed.
    """
    _require_inbound(r_prime, t_prime)
    a = p.alpha
    c2 = p.c * p.c
    r = r_prime
    t = t_prime
    for _ in range(2):
        abs_t = -t_prime + _hill_time_shift(a, r, t, c2)
        t = -abs_t
        r = (1.0 + a * abs_t) * r_prime
    if not (math.isfinite(r) and math.isfinite(t)):
        _refuse_inbound_coords(a, c2, r_prime, t_prime)
    return r, t


def _refuse_inbound_coords(a: float, c2: float, r_prime: float, t_prime: float) -> None:
    # inbound_ray_coords' image of these finite floats is not finite
    terms = []
    r, t = r_prime, t_prime
    for n in (1, 2):
        r2c2 = r * r / c2
        shift = _hill_time_shift(a, r, t, c2)
        abs_t = -t_prime + shift
        terms += [(f"{name} (pass {n})", value) for name, value in (
            ("r^2", r * r),
            ("r^2/c^2", r2c2),
            ("t^2", t * t),
            ("r^2/c^2 + t^2", r2c2 + t * t),
            ("alpha*(r^2/c^2 + t^2)/2", shift),
            ("|t|", abs_t),
            ("alpha*|t|", a * abs_t),
            ("r", (1.0 + a * abs_t) * r_prime),
        )]
        t, r = -abs_t, (1.0 + a * abs_t) * r_prime
    at = f"(r'={r_prime}, t'={t_prime}) for alpha={a}"
    raise ConfdopError(_overflow("inbound-ray map", at, terms))


def inbound_ray_differentials(
    p: GroupParameter, r_prime: float, t_prime: float, dr_prime: float, dt_prime: float
) -> tuple[float, float]:
    """Map inbound-ray differentials from the primed to the unprimed system:

    dr = dr'*(1 - alpha*t') - alpha*r'*dt'
    dt = dt'*(1 - alpha*t)  - alpha*r'*dr'/c^2

    The dt relation carries the unprimed time t of the same point, here
    evaluated at first order from (r', t').  During inbound flight
    dr' < 0 and dt' > 0, and for small alpha the signs are preserved.
    A point that inbound_ray_coords refuses is refused with the same
    error, and a non-finite dr' or dt' by name; an image that is not
    finite raises ConfdopError naming the first quantity that overflowed.
    """
    _require_inbound(r_prime, t_prime)
    _require_finite("dr_prime", dr_prime)
    _require_finite("dt_prime", dt_prime)
    a = p.alpha
    c2 = p.c * p.c
    t = t_prime - _hill_time_shift(a, r_prime, t_prime, c2)
    dr = dr_prime * (1.0 - a * t_prime) - a * r_prime * dt_prime
    dt = dt_prime * (1.0 - a * t) - a * r_prime * dr_prime / c2
    if not (math.isfinite(dr) and math.isfinite(dt)):
        _refuse_inbound_differentials(a, c2, r_prime, t_prime, dr_prime, dt_prime)
    return dr, dt


def _refuse_inbound_differentials(a, c2, r_prime, t_prime, dr_prime, dt_prime) -> None:
    # inbound_ray_differentials' image of these finite floats is not finite
    r2c2 = r_prime * r_prime / c2
    shift = _hill_time_shift(a, r_prime, t_prime, c2)
    t = t_prime - shift
    at = f"(r'={r_prime}, t'={t_prime}, dr'={dr_prime}, dt'={dt_prime}) for alpha={a}"
    raise ConfdopError(_overflow("inbound-ray differential map", at, (
        ("alpha*t'", a * t_prime),
        ("dr'*(1 - alpha*t')", dr_prime * (1.0 - a * t_prime)),
        ("alpha*r'", a * r_prime),
        ("alpha*r'*dt'", a * r_prime * dt_prime),
        ("dr", dr_prime * (1.0 - a * t_prime) - a * r_prime * dt_prime),
        ("r'^2", r_prime * r_prime),
        ("r'^2/c^2", r2c2),
        ("t'^2", t_prime * t_prime),
        ("r'^2/c^2 + t'^2", r2c2 + t_prime * t_prime),
        ("alpha*(r'^2/c^2 + t'^2)/2", shift),
        ("t", t),
        ("alpha*t", a * t),
        ("dt'*(1 - alpha*t)", dt_prime * (1.0 - a * t)),
        ("alpha*r'*dr'/c^2", a * r_prime * dr_prime / c2),
        ("dt", dt_prime * (1.0 - a * t) - a * r_prime * dr_prime / c2),
    )))


def wavelength_map(
    p: GroupParameter, lambda_primed: float, r_prime: float, t_prime: float
) -> float:
    """Wavelength in the unprimed system of a wave sample at (r', t'):

    lambda = lambda' * (1 + alpha*(|t'| + r'/c))

    The factor is >= 1 for alpha > 0 on the past cone and tends to 1 as
    the sample approaches the origin, where both wavelengths agree with
    the measured one.  A non-finite input is refused by name.
    """
    _require_finite("lambda_primed", lambda_primed)
    _require_finite("r_prime", r_prime)
    _require_finite("t_prime", t_prime)
    if t_prime >= 0.0 and r_prime > 0.0:
        raise NotPastCone(
            f"wave sample must lie on the past cone, got (r'={r_prime}, t'={t_prime})"
        )
    return lambda_primed * (1.0 + p.alpha * (abs(t_prime) + r_prime / p.c))


def doppler_model_conformal(p: GroupParameter, r, v):
    """Velocity-equivalent Doppler shift c*dLambda/Lambda_ref = v + alpha*r.

    Terms of order alpha*v^2/c^2 are dropped; hill_velocity in the
    transform module keeps them for cross-checks.  At alpha = 0 this is
    the plain shift-equals-velocity relation.  Accepts scalars or numpy
    arrays for r and v.
    """
    return _shift_velocity(v, p.alpha, r)


def hubble_prediction(V: float, R: float, H0: float) -> float:
    """Velocity-equivalent shift V + H0*R of the distance-velocity relation.

    The same relation as doppler_model_conformal under
    (V, H0, R) <-> (v, alpha, r).
    """
    return _shift_velocity(V, H0, R)


def _shift_velocity(v, rate, r):
    """Velocity-equivalent shift v + rate*r: a velocity plus a rate times a range."""
    return v + rate * r


def hubble_alpha_correction(H0: float, alpha: float) -> float:
    """Rate left for dynamics once the kinematic part is removed: H0 - alpha."""
    return H0 - alpha
