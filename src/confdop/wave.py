"""Null rays on the past light cone and the Doppler/Hubble relations.

Inbound electromagnetic waves travel at speed -c toward the observer at
the origin in both coordinate systems.  The conformal map stretches the
wavelength measured in the unprimed system relative to the primed one by
a factor that depends on emission epoch and range; at the origin the two
agree, which is why a received shift can be read either as pure source
velocity or as velocity plus an alpha*r kinematic term.
"""

from __future__ import annotations

from .conformal import GroupParameter
from .errors import ConfdopError, NotPastCone


def inbound_ray_coords(p: GroupParameter, r_prime: float, t_prime: float) -> tuple[float, float]:
    """Unprimed coordinates of a point riding an inbound null ray.

    Solves the first-order implicit pair

        r = (1 + alpha*|t|) * r',   |t| = |t'| + alpha*(r^2/c^2 + t^2)/2

    by a fixed-point pass seeded at (r', t') plus one refinement, which
    is adequate at second order in alpha.  For alpha > 0 the outputs
    satisfy r >= r' and |t| >= |t'|.
    """
    if t_prime >= 0.0:
        raise NotPastCone(f"inbound ray needs t' < 0, got {t_prime}")
    if r_prime < 0.0:
        raise ConfdopError(f"r_prime must be >= 0, got {r_prime}")
    a = p.alpha
    c2 = p.c * p.c
    r = r_prime
    t = t_prime
    for _ in range(2):
        abs_t = -t_prime + a * (r * r / c2 + t * t) / 2.0
        t = -abs_t
        r = (1.0 + a * abs_t) * r_prime
    return r, t


def inbound_ray_differentials(
    p: GroupParameter, r_prime: float, t_prime: float, dr_prime: float, dt_prime: float
) -> tuple[float, float]:
    """Map inbound-ray differentials from the primed to the unprimed system:

    dr = dr'*(1 - alpha*t') - alpha*r'*dt'
    dt = dt'*(1 - alpha*t)  - alpha*r'*dr'/c^2

    The dt relation carries the unprimed time t of the same point, here
    evaluated at first order from (r', t').  During inbound flight
    dr' < 0 and dt' > 0, and for small alpha the signs are preserved.
    """
    a = p.alpha
    c2 = p.c * p.c
    t = t_prime - a * (r_prime * r_prime / c2 + t_prime * t_prime) / 2.0
    dr = dr_prime * (1.0 - a * t_prime) - a * r_prime * dt_prime
    dt = dt_prime * (1.0 - a * t) - a * r_prime * dr_prime / c2
    return dr, dt


def wavelength_map(
    p: GroupParameter, lambda_primed: float, r_prime: float, t_prime: float
) -> float:
    """Wavelength in the unprimed system of a wave sample at (r', t'):

    lambda = lambda' * (1 + alpha*(|t'| + r'/c))

    The factor is >= 1 for alpha > 0 on the past cone and tends to 1 as
    the sample approaches the origin, where both wavelengths agree with
    the measured one.
    """
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
