"""Null rays on the past light cone and the Doppler/Hubble relations.

Inbound electromagnetic waves travel at speed -c toward the observer at
the origin in both coordinate systems.  The conformal map stretches the
wavelength measured in the unprimed system relative to the primed one by
a factor that depends on emission epoch and range; at the origin the two
agree, which is why a received shift can be read either as pure source
velocity or as velocity plus an alpha*r kinematic term.  A sign
comparison sets an anomaly rate beside a Hubble-like rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conformal import GroupParameter, _SHIFT_STEPS, _image, _real, _require_finite, _shift_steps
from .errors import ConfdopError, NotPastCone

_COORDS_STEPS = tuple(f"{name} (pass {n})" for n in (1, 2)
                      for name in (*_SHIFT_STEPS, "|t|", "alpha*|t|", "r"))
_DIFFERENTIAL_STEPS = ("alpha*t'", "dr'*(1 - alpha*t')", "alpha*r'", "alpha*r'*dt'", "dr",
                       "r'^2", "r'^2/c^2", "t'^2", "r'^2/c^2 + t'^2", "alpha*(r'^2/c^2 + t'^2)/2",
                       "t", "alpha*t", "dt'*(1 - alpha*t)", "alpha*r'*dr'/c^2", "dt")
_WAVELENGTH_STEPS = ("alpha", "r'/c", "|t'| + r'/c", "alpha*(|t'| + r'/c)", "lambda")
_HUBBLE_STEPS = ("H0*R", "V + H0*R")


def _require_inbound(r_prime: float, t_prime: float) -> None:
    """The domain of both inbound-ray maps: finite r' >= 0 and t' < 0."""
    _require_finite("r_prime", r_prime)
    _require_finite("t_prime", t_prime)
    if t_prime >= 0.0:
        raise NotPastCone(f"inbound ray needs t' < 0, got {t_prime}")
    if r_prime < 0.0:
        raise ConfdopError(f"r_prime must be >= 0, got {r_prime}")


def _coords_steps(a, c2, r_prime, t_prime):
    """_COORDS_STEPS of inbound_ray_coords: two passes, each ending in |t| and r."""
    steps, r, t = (), r_prime, t_prime
    for _ in range(2):
        shift = _shift_steps(a, r, t, c2)
        abs_t = -t_prime + shift[-1]
        a_abs_t = a * abs_t
        r, t = (1.0 + a_abs_t) * r_prime, -abs_t
        steps += (*shift, abs_t, a_abs_t, r)
    return steps


def inbound_ray_coords(p: GroupParameter, r_prime: float, t_prime: float) -> tuple[float, float]:
    """Unprimed coordinates of a point riding an inbound null ray.

    Solves the first-order implicit pair

        r = (1 + alpha*|t|) * r',   |t| = |t'| + alpha*(r^2/c^2 + t^2)/2

    by a fixed-point pass seeded at (r', t') plus one refinement, which
    is adequate at second order in alpha.  For alpha > 0 the outputs
    satisfy r >= r' and |t| >= |t'|.  r' and t' are real numbers (see
    conformal._real), and the image is two floats.  A non-finite r' or t'
    is refused by name; an image that is not finite raises ConfdopError
    naming the first quantity of the two passes that overflowed.
    """
    r_prime, t_prime = _real("r_prime", r_prime), _real("t_prime", t_prime)
    _require_inbound(r_prime, t_prime)
    steps = _coords_steps(p.alpha, p.c * p.c, r_prime, t_prime)
    inputs = (("r'", r_prime), ("t'", t_prime))
    r, abs_t = _image("inbound-ray map", p, inputs, _COORDS_STEPS, steps, -1, -3)
    return r, -abs_t


def _differential_steps(a, c2, r_prime, t_prime, dr_prime, dt_prime):
    a_tp, a_rp = a * t_prime, a * r_prime
    dr_scaled, a_rp_dtp = dr_prime * (1.0 - a_tp), a_rp * dt_prime
    shift = _shift_steps(a, r_prime, t_prime, c2)
    t = t_prime - shift[-1]
    a_t = a * t
    dt_scaled, a_rp_drp_c2 = dt_prime * (1.0 - a_t), a_rp * dr_prime / c2
    return (a_tp, dr_scaled, a_rp, a_rp_dtp, dr_scaled - a_rp_dtp, *shift,
            t, a_t, dt_scaled, a_rp_drp_c2, dt_scaled - a_rp_drp_c2)


def inbound_ray_differentials(
    p: GroupParameter, r_prime: float, t_prime: float, dr_prime: float, dt_prime: float
) -> tuple[float, float]:
    """Map inbound-ray differentials from the primed to the unprimed system:

    dr = dr'*(1 - alpha*t') - alpha*r'*dt'
    dt = dt'*(1 - alpha*t)  - alpha*r'*dr'/c^2

    The dt relation carries the unprimed time t of the same point, here
    evaluated at first order from (r', t').  During inbound flight
    dr' < 0 and dt' > 0, and for small alpha the signs are preserved.
    The inputs are taken as inbound_ray_coords takes them.  A point that
    inbound_ray_coords refuses is refused with the same error, and a
    non-finite dr' or dt' by name; an image that is not finite raises
    ConfdopError naming the first quantity that overflowed.
    """
    r_prime, t_prime = _real("r_prime", r_prime), _real("t_prime", t_prime)
    dr_prime, dt_prime = _real("dr_prime", dr_prime), _real("dt_prime", dt_prime)
    _require_inbound(r_prime, t_prime)
    _require_finite("dr_prime", dr_prime)
    _require_finite("dt_prime", dt_prime)
    steps = _differential_steps(p.alpha, p.c * p.c, r_prime, t_prime, dr_prime, dt_prime)
    inputs = (("r'", r_prime), ("t'", t_prime), ("dr'", dr_prime), ("dt'", dt_prime))
    return _image("inbound-ray differential map", p, inputs, _DIFFERENTIAL_STEPS, steps, 4, -1)


def _wavelength_steps(a, c, lambda_primed, r_prime, t_prime):
    r_c = r_prime / c
    delay = abs(t_prime) + r_c
    stretch = a * delay
    return a, r_c, delay, stretch, lambda_primed * (1.0 + stretch)


def wavelength_map(
    p: GroupParameter, lambda_primed: float, r_prime: float, t_prime: float
) -> float:
    """Wavelength in the unprimed system of a wave sample at (r', t'):

    lambda = lambda' * (1 + alpha*(|t'| + r'/c))

    The factor is >= 1 for alpha > 0 on the past cone and tends to 1 as
    the sample approaches the origin, where both wavelengths agree with
    the measured one.  The inputs are real numbers (see conformal._real).
    A non-finite input is refused by name, and an image that is not
    finite as by inbound_ray_coords.
    """
    lambda_primed = _real("lambda_primed", lambda_primed)
    r_prime, t_prime = _real("r_prime", r_prime), _real("t_prime", t_prime)
    _require_finite("lambda_primed", lambda_primed)
    _require_finite("r_prime", r_prime)
    _require_finite("t_prime", t_prime)
    if t_prime >= 0.0 and r_prime > 0.0:
        raise NotPastCone(
            f"wave sample must lie on the past cone, got (r'={r_prime}, t'={t_prime})"
        )
    steps = _wavelength_steps(p.alpha, p.c, lambda_primed, r_prime, t_prime)
    inputs = (("lambda'", lambda_primed), ("r'", r_prime), ("t'", t_prime))
    return _image("wavelength map", p, inputs, _WAVELENGTH_STEPS, steps, -1)[0]


def doppler_model_conformal(p: GroupParameter, r, v):
    """Velocity-equivalent Doppler shift c*dLambda/Lambda_ref = v + alpha*r.

    Terms of order alpha*v^2/c^2 are dropped; hill_velocity in the
    transform module keeps them for cross-checks.  At alpha = 0 this is
    the plain shift-equals-velocity relation.  Accepts scalars or numpy
    arrays for r and v, so, unlike the scalar maps, it does not convert
    them with conformal._real.
    """
    return _shift_velocity(v, p.alpha, r)[-1]


def hubble_prediction(V: float, R: float, H0: float) -> float:
    """Velocity-equivalent shift V + H0*R of the distance-velocity relation.

    The same relation as doppler_model_conformal under
    (V, H0, R) <-> (v, alpha, r).  The inputs are real numbers (see
    conformal._real), and the result is a float.  A non-finite input is
    refused by name, and a result that is not finite names the first step
    that overflowed.
    """
    V, R, H0 = _real("V", V), _real("R", R), _real("H0", H0)
    inputs = (("V", V), ("R", R), ("H0", H0))
    return _image("Hubble relation", None, inputs, _HUBBLE_STEPS, _shift_velocity(V, H0, R), -1)[0]


def _shift_velocity(v, rate, r):
    """Steps of the velocity-equivalent shift v + rate*r: a velocity plus a rate times a range."""
    rate_r = rate * r
    return rate_r, v + rate_r


def hubble_alpha_correction(H0: float, alpha: float) -> float:
    """Rate left for dynamics once the kinematic part is removed: H0 - alpha.

    The inputs are real numbers (see conformal._real), and the result is a
    float.  Refuses a non-finite input by name, and a difference that
    overflows.
    """
    H0, alpha = _real("H0", H0), _real("alpha", alpha)
    inputs = (("H0", H0), ("alpha", alpha))
    return _image("Hubble rate correction", None, inputs, ("H0 - alpha",), (H0 - alpha,), 0)[0]


@dataclass(frozen=True)
class SignComparison:
    """Side-by-side comparison of an anomaly rate against a Hubble-like rate."""

    anomaly_rate: float
    hubble_rate: float
    magnitude_ratio: float
    opposite_sign: bool
    caveat: str


_TIME_COORDINATE_CAVEAT = (
    "two-way links mix emission-side and reception-side time coordinates; "
    "whether t or t' enters the shift bookkeeping can flip the sign of the "
    "inferred rate, and this comparison does not model that."
)


def sign_comparison_report(anomaly_rate: float, hubble_rate: float) -> SignComparison:
    """Compare magnitudes and signs of an anomaly rate and a Hubble-like rate.

    The rates are real numbers (see conformal._real), stored as floats.
    """
    anomaly_rate = _real("anomaly_rate", anomaly_rate)
    hubble_rate = _real("hubble_rate", hubble_rate)
    if anomaly_rate == 0.0:
        ratio = 0.0
    elif hubble_rate == 0.0:
        ratio = math.inf
    else:
        ratio = abs(anomaly_rate) / abs(hubble_rate)
    return SignComparison(
        anomaly_rate=anomaly_rate,
        hubble_rate=hubble_rate,
        magnitude_ratio=ratio,
        opposite_sign=(anomaly_rate * hubble_rate) < 0.0,
        caveat=_TIME_COORDINATE_CAVEAT,
    )
