"""Tests for null-ray propagation and the Doppler/Hubble relations."""

import numpy as np
import pytest

from confdop import (
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
        rp, tp = 4e8, -12.0

        def residual(alpha):
            p = GroupParameter.from_alpha(alpha)
            r, t = inbound_ray_coords(p, rp, tp)
            rp_back, tp_back = hill_transform(p, r, t)
            return max(abs(rp_back - rp) / rp, abs(tp_back - tp) / abs(tp))

        r1, r2 = residual(1e-3), residual(5e-4)
        order = np.log2(r1 / r2)
        assert order >= 1.9

    def test_rejects_future_time(self):
        with pytest.raises(NotPastCone):
            inbound_ray_coords(GroupParameter.from_alpha(1e-3), 1e8, 0.0)

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError, match="r_prime must be >= 0"):
            inbound_ray_coords(GroupParameter.from_alpha(1e-3), -1.0, -1.0)


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

    def test_round_trip_with_hill_differentials_is_second_order(self):
        rp, tp = 4e8, -12.0
        dt_p = 1e-6
        dr_p = -C * dt_p

        def residual(alpha):
            p = GroupParameter.from_alpha(alpha)
            r, t = inbound_ray_coords(p, rp, tp)
            dr, dt = inbound_ray_differentials(p, rp, tp, dr_p, dt_p)
            dr_back, dt_back = hill_differentials(p, r, t, dr, dt)
            return max(abs(dr_back - dr_p), C * abs(dt_back - dt_p)) / (abs(dr_p) + C * dt_p)

        r1, r2 = residual(1e-3), residual(5e-4)
        assert np.log2(r1 / r2) >= 1.9


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
