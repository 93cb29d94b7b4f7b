"""Tests for null-ray propagation and the Doppler/Hubble relations."""

import math
import warnings

import numpy as np
import pytest

from confdop import (
    ConfdopError,
    GroupParameter,
    NotPastCone,
    doppler_model_conformal,
    hill_differentials,
    hill_transform,
    hubble_alpha_correction,
    hubble_prediction,
    inbound_ray_coords,
    inbound_ray_differentials,
    wavelength_map,
)
from confdop.constants import HUBBLE_RATE, PIONEER_ANOMALY_RATE, SPEED_OF_LIGHT

C = SPEED_OF_LIGHT

# (r', t') of the round trips through the Hill maps, which the inbound-ray
# maps invert to first order: each misses the identity by O(alpha^2)
ROUND_TRIP_POINTS = [(rp, tp) for rp in (1e7, 1e8, 1e9) for tp in (-30.0, -1.0)]


def orders_per_halving(residual):
    """log2 of the ratio of successive residuals over 4 halvings of alpha from 1e-3."""
    residuals = [residual(1e-3 / 2**k) for k in range(5)]
    return [float(np.log2(a / b)) for a, b in zip(residuals, residuals[1:])]


class TestInboundRayCoords:
    def test_identity_parameter(self):
        p = GroupParameter.from_alpha(0.0)
        assert inbound_ray_coords(p, 5e8, -3.0) == (5e8, -3.0)

    def test_outputs_dominate_primed_for_positive_alpha(self):
        p = GroupParameter.from_alpha(1e-3)
        rng = np.random.default_rng(1)
        for _ in range(100):
            rp = rng.uniform(1e6, 1e9)
            tp = -rng.uniform(0.1, 50.0)
            r, t = inbound_ray_coords(p, rp, tp)
            assert r >= rp
            assert abs(t) >= abs(tp)

    def test_fixed_point_residual_is_second_order(self):
        # the returned pair must satisfy the implicit relations to O(alpha^2)
        rp, tp = 4e8, -12.0
        for alpha in (1e-3, 5e-4):
            p = GroupParameter.from_alpha(alpha)
            r, t = inbound_ray_coords(p, rp, tp)
            res_t = -abs(t) - (tp - alpha * (r * r / (C * C) + t * t) / 2.0)
            res_r = r - (1.0 + alpha * abs(t)) * rp
            scale = abs(tp) + rp / C
            assert abs(res_t) < alpha**2 * scale * abs(tp) * 10
            assert abs(res_r) < alpha**2 * rp * scale * 10

    def test_round_trip_with_hill_is_second_order(self):
        # hill_transform inverts inbound_ray_coords to first order in alpha
        def residual(alpha, rp, tp):
            p = GroupParameter.from_alpha(alpha)
            r, t = inbound_ray_coords(p, rp, tp)
            rp_back, tp_back = hill_transform(p, r, t)
            return max(abs(rp_back - rp) / rp, abs(tp_back - tp) / abs(tp))

        for rp, tp in ROUND_TRIP_POINTS:
            orders = orders_per_halving(lambda alpha: residual(alpha, rp, tp))
            assert min(orders) >= 1.9, (rp, tp, orders)

    def test_rejects_future_time(self):
        with pytest.raises(NotPastCone):
            inbound_ray_coords(GroupParameter.from_alpha(1e-3), 1e8, 0.0)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError, match="r_prime must be >= 0"):
            inbound_ray_coords(GroupParameter.from_alpha(1e-3), -1.0, -1.0)

    @pytest.mark.parametrize(
        "beta4, rp, tp", [(0.0, 0.0, -1e160), (1e-200, 1.0, -1e200)], ids=["alpha_0", "alpha_6e-192"]
    )
    def test_overflowing_map_is_refused_naming_the_overflow(self, beta4, rp, tp):
        # t^2 overflows in the first pass: (nan, nan) and (inf, -inf) were returned
        p = GroupParameter(beta4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                inbound_ray_coords(p, rp, tp)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == (
            f"inbound-ray map overflows at (r'={rp}, t'={tp}) for alpha={p.alpha}: "
            "t^2 (pass 1) = inf"
        )

    def test_overflow_in_the_second_pass_is_named(self):
        # the first pass is finite; the second squares r = 1.8e301
        p = GroupParameter.from_alpha(6e-4)
        with pytest.raises(ConfdopError, match=r"overflows at .*: r\^2 \(pass 2\) = inf$") as exc:
            inbound_ray_coords(p, 1.0, -1e154)
        assert "singular" not in str(exc.value) and "must be finite" not in str(exc.value)

    def test_overflow_of_alpha_times_abs_t_is_named(self):
        # at r' = 0 the time shift alpha/2 is finite, but alpha*|t| is about alpha^2/2
        p = GroupParameter.from_alpha(1e155)
        with pytest.raises(ConfdopError, match=r"overflows at .*: alpha\*\|t\| \(pass 1\) = inf$"):
            inbound_ray_coords(p, 0.0, -1.0)

    @pytest.mark.parametrize("rp, tp, name", [
        (1.0, math.nan, "t_prime"), (1.0, -math.inf, "t_prime"), (math.nan, -1.0, "r_prime"),
        (math.inf, -1.0, "r_prime"),
    ])
    def test_non_finite_input_is_refused_by_name(self, rp, tp, name):
        # a nan t' passed the t' >= 0 test, and -inf was mapped
        with pytest.raises(ConfdopError, match=f"^{name} must be finite, got "):
            inbound_ray_coords(GroupParameter.from_alpha(1e-3), rp, tp)


class TestInboundRayDifferentials:
    def test_identity_parameter(self):
        p = GroupParameter.from_alpha(0.0)
        assert inbound_ray_differentials(p, 1e8, -5.0, -300.0, 1e-6) == (-300.0, 1e-6)

    def test_signs_preserved_for_small_alpha(self):
        p = GroupParameter.from_alpha(1e-6)
        rng = np.random.default_rng(2)
        for _ in range(100):
            rp = rng.uniform(1e6, 1e9)
            tp = -rng.uniform(1.0, 100.0)
            dt_p = rng.uniform(1e-9, 1e-6)
            dr_p = -C * dt_p  # inbound at light speed
            dr, dt = inbound_ray_differentials(p, rp, tp, dr_p, dt_p)
            assert dr < 0.0
            assert dt > 0.0

    @pytest.mark.parametrize(
        "beta4, rp, tp", [(0.0, 0.0, -1e160), (1e-200, 1.0, -1e200)], ids=["alpha_0", "alpha_6e-192"]
    )
    def test_overflowing_map_is_refused_naming_the_overflow(self, beta4, rp, tp):
        # t'^2 overflows: (1.0, nan) and (599584917.0, inf) were returned
        p = GroupParameter(beta4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                inbound_ray_differentials(p, rp, tp, 1.0, 1.0)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == (
            "inbound-ray differential map overflows at "
            f"(r'={rp}, t'={tp}, dr'=1.0, dt'=1.0) for alpha={p.alpha}: t'^2 = inf"
        )

    @pytest.mark.parametrize("index, name", enumerate(["r_prime", "t_prime", "dr_prime", "dt_prime"]))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_refused_by_name(self, index, name, bad):
        args = [1e8, -5.0, -300.0, 1e-6]
        args[index] = bad
        with pytest.raises(ConfdopError, match=f"^{name} must be finite, got {bad}$"):
            inbound_ray_differentials(GroupParameter.from_alpha(1e-3), *args)

    @pytest.mark.parametrize("rp, tp", [(-1.0, 5.0), (-1.0, -5.0), (1.0, 0.0), (1.0, 5.0)])
    def test_refuses_what_inbound_ray_coords_refuses(self, rp, tp):
        # (-1.0, 5.0) was mapped to (0.996, 0.9950125)
        p = GroupParameter.from_alpha(1e-3)
        with pytest.raises(ConfdopError) as coords:
            inbound_ray_coords(p, rp, tp)
        with pytest.raises(ConfdopError) as differentials:
            inbound_ray_differentials(p, rp, tp, 1.0, 1.0)
        assert type(differentials.value) is type(coords.value)
        assert str(differentials.value) == str(coords.value)

    def test_round_trip_with_hill_differentials_is_second_order(self):
        dt_p = 1e-6
        dr_p = -C * dt_p

        def residual(alpha, rp, tp):
            p = GroupParameter.from_alpha(alpha)
            r, t = inbound_ray_coords(p, rp, tp)
            dr, dt = inbound_ray_differentials(p, rp, tp, dr_p, dt_p)
            dr_back, dt_back = hill_differentials(p, r, t, dr, dt)
            return max(abs(dr_back - dr_p), C * abs(dt_back - dt_p)) / (abs(dr_p) + C * dt_p)

        for rp, tp in ROUND_TRIP_POINTS:
            orders = orders_per_halving(lambda alpha: residual(alpha, rp, tp))
            assert min(orders) >= 1.9, (rp, tp, orders)


class TestWavelengthMap:
    def test_identity_parameter(self):
        p = GroupParameter.from_alpha(0.0)
        assert wavelength_map(p, 0.13, 1e9, -10.0) == 0.13

    def test_origin_limit(self):
        p = GroupParameter.from_alpha(1e-3)
        lam = 0.13
        assert wavelength_map(p, lam, 0.0, -1e-12) == pytest.approx(lam, rel=1e-12)

    def test_stretch_factor_at_least_one_for_positive_alpha(self):
        p = GroupParameter.from_alpha(1e-3)
        assert wavelength_map(p, 1.0, 1e9, -10.0) >= 1.0

    def test_gap_shrinks_along_inbound_ray(self):
        # sample an inbound null ray r' = c*|t'| approaching the origin
        p = GroupParameter.from_alpha(1e-3)
        lam = 0.13
        t_primes = np.linspace(-10.0, -0.01, 40)
        gaps = [wavelength_map(p, lam, C * abs(tp), tp) - lam for tp in t_primes]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_rejects_future_sample(self):
        with pytest.raises(NotPastCone):
            wavelength_map(GroupParameter.from_alpha(1e-3), 0.13, 1e9, 0.0)

    @pytest.mark.parametrize("args, name", [
        ((0.13, 1.0, math.nan), "t_prime"), ((math.nan, 1.0, -1.0), "lambda_primed"),
        ((0.13, math.inf, -1.0), "r_prime"),
    ])
    def test_non_finite_input_is_refused_by_name(self, args, name):
        # a nan t' passed the past-cone test, and nan was returned
        with pytest.raises(ConfdopError, match=f"^{name} must be finite, got "):
            wavelength_map(GroupParameter(0.0), *args)

    def test_overflowing_image_is_refused_naming_the_overflow(self):
        # lambda' * 1001 overflows: inf was returned
        p = GroupParameter.from_alpha(1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                wavelength_map(p, 1e308, 1e9, -1e6)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == (
            "wavelength map overflows at (lambda'=1e+308, r'=1000000000.0, t'=-1000000.0) "
            f"for alpha={p.alpha}: lambda = inf"
        )

    def test_origin_sample_at_zero_time_allowed(self):
        # the observer's own event is on the cone, with no stretch
        p = GroupParameter.from_alpha(1e-3)
        assert wavelength_map(p, 0.13, 0.0, 0.0) == 0.13

    def test_wave_sample_invariant(self):
        # lambda = lambda' * (1 + alpha*|t'| + alpha*r'/c), summed term by term
        p = GroupParameter.from_alpha(1e-3)
        lam, rp, tp = 0.13, 1e9, -10.0
        expected = lam + lam * p.alpha * 10.0 + lam * p.alpha * rp / C
        assert wavelength_map(p, lam, rp, tp) == pytest.approx(expected, rel=1e-12)


class TestDopplerRelations:
    def test_alpha_zero_reduces_to_plain_relation(self):
        # the conformal model at alpha = 0 is bitwise the plain velocity
        p = GroupParameter.from_alpha(0.0)
        for v in (12000.0, -3.5e4, 7.25):
            assert doppler_model_conformal(p, 4.5e12, v) == v

    def test_zero_range(self):
        p = GroupParameter.from_alpha(2.19e-18)
        assert doppler_model_conformal(p, 0.0, 12000.0) == 12000.0

    def test_conformal_term_magnitude(self):
        p = GroupParameter.from_alpha(2.19e-18)
        out = doppler_model_conformal(p, 4.5e12, 12000.0)
        assert out - 12000.0 == pytest.approx(9.855e-6, rel=1e-9)

    def test_array_inputs_match_scalar_calls(self):
        p = GroupParameter.from_alpha(2.19e-18)
        r = np.linspace(3e12, 1.05e13, 7)
        v = np.linspace(-1.2e4, 1.2e4, 7)
        out = doppler_model_conformal(p, r, v)
        expected = [doppler_model_conformal(p, float(ri), float(vi)) for ri, vi in zip(r, v)]
        assert out.tolist() == expected


class TestHubbleRelations:
    def test_zero_distance(self):
        assert hubble_prediction(V=700.0, R=0.0, H0=HUBBLE_RATE) == 700.0

    def test_velocity_at_megaparsec_scale(self):
        out = hubble_prediction(V=0.0, R=1e24, H0=2.19e-18)
        assert out == pytest.approx(2.19e6, rel=1e-12)

    def test_isomorphic_to_conformal_model(self):
        # same arithmetic under (V, H0, R) <-> (v, alpha, r)
        p = GroupParameter.from_alpha(2.19e-18)
        v, r = 12000.0, 4.5e12
        assert hubble_prediction(V=v, R=r, H0=p.alpha) == doppler_model_conformal(p, r, v)

    def test_correction_identity(self):
        assert hubble_alpha_correction(HUBBLE_RATE, 0.0) == HUBBLE_RATE

    def test_correction_fully_kinematic_case(self):
        assert hubble_alpha_correction(HUBBLE_RATE, HUBBLE_RATE) == 0.0

    def test_correction_with_opposite_sign_anomaly(self):
        out = hubble_alpha_correction(HUBBLE_RATE, PIONEER_ANOMALY_RATE)
        assert out == 2.19e-18 - (-2.80e-18)
        assert out == pytest.approx(4.99e-18, rel=1e-12)

    @pytest.mark.parametrize("call, message", [
        # both returned inf
        (lambda: hubble_prediction(V=0.0, R=1e308, H0=10.0),
         "Hubble relation overflows at (V=0.0, R=1e+308, H0=10.0): H0*R = inf"),
        (lambda: hubble_prediction(V=1e308, R=1e308, H0=1.0),
         "Hubble relation overflows at (V=1e+308, R=1e+308, H0=1.0): V + H0*R = inf"),
        (lambda: hubble_alpha_correction(1e308, -1e308),
         "Hubble rate correction overflows at (H0=1e+308, alpha=-1e+308): H0 - alpha = inf"),
        (lambda: hubble_prediction(V=math.nan, R=1.0, H0=1.0), "V must be finite, got nan"),
        (lambda: hubble_prediction(V=0.0, R=math.inf, H0=0.0), "R must be finite, got inf"),
        (lambda: hubble_alpha_correction(1.0, -math.inf), "alpha must be finite, got -inf"),
    ], ids=["H0*R", "V + H0*R", "H0 - alpha", "V nan", "R inf", "alpha -inf"])
    def test_result_that_is_not_finite_is_refused_by_name(self, call, message):
        with pytest.raises(ConfdopError) as exc:
            call()
        assert str(exc.value) == message
