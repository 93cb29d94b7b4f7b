"""Tests for the finite conformal transformation and its derived maps.

Independent oracles used here: RK4 integration of the generating flow
(flow_oracle), central finite differences of transform_finite for the
Jacobian coefficients, and parameter-halving (Richardson) experiments
for the first-order maps.
"""

import inspect
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import confdop
from confdop import (
    ConfdopError,
    ConfigInvalid,
    DomainCrossing,
    Event,
    FitResult,
    GroupParameter,
    MetricDecision,
    SimConfig,
    SingularTransform,
    SlopeSingular,
    StepDivergence,
    TrackingTable,
    ZeroRadius,
    anomaly_residuals,
    bootstrap_alpha,
    conformal_factor,
    decide_metric,
    differential_map,
    fit_alpha,
    flow_oracle,
    hill_differentials,
    hill_transform,
    hill_velocity,
    hubble_alpha_correction,
    hubble_prediction,
    inbound_ray_coords,
    inbound_ray_differentials,
    interval_scale,
    interval_squared,
    invariant_ratio,
    line_element_squared,
    sign_comparison_report,
    slope_transform,
    transform_finite,
    transform_inverse_finite,
    wavelength_map,
)
from confdop.checks import run_suite
from confdop.conformal_array import (
    conformal_factor_array,
    differential_map_array,
    flow_oracle_array,
    transform_finite_array,
)
from confdop.constants import SPEED_OF_LIGHT


def rel_err_events(a, b):
    scale = max(a.r + abs(a.x4), b.r + abs(b.x4), 1e-30)
    return max(abs(a.r - b.r), abs(a.x4 - b.x4)) / scale


def sample_admissible(rng, budget=0.15):
    r = rng.uniform(0.05, 2.0)
    x4 = rng.uniform(-2.0, 2.0)
    beta = rng.uniform(-1.0, 1.0) * budget / (r + abs(x4))
    return r, x4, beta


class TestEventAndParameter:
    def test_event_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Event(r=-0.1, x4=0.0)

    def test_alpha_is_derived_exactly(self):
        p = GroupParameter(beta4=0.37)
        assert p.alpha == 2.0 * p.c * p.beta4
        q = GroupParameter.from_alpha(2.19e-18)
        assert q.alpha == 2.0 * q.c * q.beta4
        assert q.alpha == pytest.approx(2.19e-18, rel=1e-15)

    def test_c_must_be_positive(self):
        with pytest.raises(ValueError):
            GroupParameter(beta4=0.0, c=0.0)

    @pytest.mark.parametrize(
        "c", [1e-300, math.nextafter(2.0**-511, 0.0), 2.0**512, 1e200], ids=repr
    )
    def test_c_squared_must_be_normal(self, c):
        # the Hill and inbound-ray maps divide by c*c
        message = re.escape(f"c must square to a normal float, got {c} (c*c = {c * c})")
        message = f"^{message}$"
        with pytest.raises(ValueError, match=message):
            GroupParameter(beta4=0.0, c=c)
        with pytest.raises(ValueError, match=message):
            GroupParameter.from_alpha(0.0, c=c)

    @pytest.mark.parametrize("c", [2.0**-511, 2.0**511], ids=repr)
    def test_c_at_normal_square_bounds_accepted(self, c):
        p = GroupParameter.from_alpha(1.0, c=c)
        assert p.c * p.c == c * c
        assert sys.float_info.min <= p.c * p.c < math.inf
        assert p.alpha == 1.0

    def test_from_alpha_checks_c_before_dividing(self):
        # alpha/(2c) overflows to inf here, so a later check would name beta4
        with pytest.raises(ValueError, match="^c must square to a normal float"):
            GroupParameter.from_alpha(1e300, c=1e-300)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, build",
        [
            ("r", lambda v: Event(r=v, x4=0.0)),
            ("x4", lambda v: Event(r=1.0, x4=v)),
            ("beta4", lambda v: GroupParameter(beta4=v)),
            ("c", lambda v: GroupParameter(beta4=0.1, c=v)),
            ("alpha", lambda v: GroupParameter.from_alpha(v)),
        ],
    )
    def test_non_finite_input_names_field(self, field, build, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
            build(bad)

    @pytest.mark.parametrize(
        "field, build",
        [
            ("r", lambda v: transform_finite(GroupParameter(0.0), Event(v, 0.0))),
            ("x4", lambda v: Event(r=1.0, x4=-v)),
            ("beta4", lambda v: GroupParameter(beta4=v)),
            ("c", lambda v: GroupParameter(beta4=1e-3, c=v)),
            ("alpha", lambda v: GroupParameter.from_alpha(v)),
        ],
    )
    def test_int_past_the_float_range_is_refused_as_not_finite(self, field, build):
        # each ended in OverflowError; c = 10**400 was accepted, as c*c
        # compared as an exact int, and then alpha raised OverflowError
        with pytest.raises(ConfdopError, match=f"^{field} must be finite, got -?inf$"):
            build(10**400)

    def test_fields_are_stored_as_floats(self):
        e = Event(np.int64(2), np.float64(-3.0))
        p = GroupParameter(np.float64(1e-3), c=299_792_458)
        q = GroupParameter.from_alpha(np.float32(0.5), c=np.array(2.0))
        assert [type(v) for v in (e.r, e.x4, p.beta4, p.c, q.beta4, q.c)] == [float] * 6
        assert (e, p, q) == (Event(2.0, -3.0), GroupParameter(1e-3), GroupParameter(0.125, c=2.0))

    @pytest.mark.parametrize(
        "field, build",
        [
            ("r", lambda: Event(r="1", x4=0.0)),
            ("x4", lambda: Event(r=1.0, x4=b"0")),
            ("beta4", lambda: GroupParameter(beta4="1e-3")),
            ("c", lambda: GroupParameter(beta4=0.0, c="3e8")),
            ("alpha", lambda: GroupParameter.from_alpha("1e-3")),
        ],
    )
    def test_text_is_refused_though_float_would_parse_it(self, field, build):
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got "):
            build()


class TestConformalFactor:
    def test_identity_parameter(self):
        assert conformal_factor(GroupParameter(0.0), Event(r=0.7, x4=-1.3)) == 1.0

    def test_origin_is_invariant(self):
        # the origin is a fixed point for every parameter value
        for b in (0.3, -2.0, 17.0):
            assert conformal_factor(GroupParameter(b), Event(r=0.0, x4=0.0)) == 1.0

    def test_gamma_matches_flow_radial_ratio(self):
        # r' = gamma * r, so gamma must equal the RK4 radial stretch
        p = GroupParameter(0.1)
        e = Event(r=0.5, x4=1.0)
        flowed = flow_oracle(p, e, steps=10_000)
        assert conformal_factor(p, e) == pytest.approx(flowed.r / e.r, rel=1e-9)

    def test_singular_surface_raises(self):
        # with r = 0 the denominator is (1 - beta*x4)^2, zero at x4 = 1/beta
        with pytest.raises(SingularTransform):
            conformal_factor(GroupParameter(1.0), Event(r=0.0, x4=1.0))

    def test_domain_crossing_raises(self):
        with pytest.raises(DomainCrossing):
            conformal_factor(GroupParameter(1.0), Event(r=1.0, x4=0.5))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_unevaluable_denominator_raises(self):
        # inside the domain, but beta4^2 overflows while s2 underflows to 0
        p, e = GroupParameter(3.977726403005618e275), Event(r=0.0, x4=2.2625990548770504e-276)
        with pytest.raises(SingularTransform):
            transform_finite(p, e)
        with pytest.raises(SingularTransform):
            transform_finite_array(p.beta4, e.r, e.x4)

    @pytest.mark.parametrize(
        "beta4, r, x4",
        [(0.0, 0.0, SPEED_OF_LIGHT * 1e160), (1e-160, 0.0, -1e300)],
        ids=["beta4_0", "beta4_1e-160"],
    )
    def test_overflowed_denominator_is_refused_naming_the_overflow(self, beta4, r, x4):
        # x4^2 overflows, so the denominator is NaN (beta4 = 0, where gamma is
        # 1) or inf (gamma = 0.0 was returned); every kernel, scalar or array,
        # refuses with one message and no numpy warning
        p, e = GroupParameter(beta4), Event(r=r, x4=x4)
        calls = [
            lambda: conformal_factor(p, e),
            lambda: transform_finite(p, e),
            lambda: differential_map(p, e, 1.0, 1.0),
            lambda: conformal_factor_array(beta4, r, x4),
            lambda: transform_finite_array([0.1, beta4], [0.5, r], [0.3, x4]),
            lambda: differential_map_array(beta4, r, x4, 1.0, 1.0),
        ]
        messages = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(SingularTransform) as exc:
                    call()
                messages.add(str(exc.value))
        assert messages == {
            f"conformal factor denominator overflows at (r={r}, x4={x4}) "
            f"for beta4={beta4}: x4^2 - r^2 = inf"
        }

    @pytest.mark.parametrize("r, x4", [(0.1, 3.0), (0.0, 3.0)])
    def test_beyond_both_singular_surfaces_raises(self, r, x4):
        # 1 - beta4*(x4 + r) and 1 - beta4*(x4 - r) are both negative here, so
        # their product 1/gamma is positive; the flow diverges before reaching it
        p, e = GroupParameter(1.0), Event(r=r, x4=x4)
        with pytest.raises(DomainCrossing):
            conformal_factor(p, e)
        with pytest.raises(DomainCrossing):
            transform_finite(p, e)
        with pytest.raises(StepDivergence):
            flow_oracle(p, e, steps=20_000)


class TestTransformFinite:
    def test_identity_parameter(self):
        e = Event(r=1.5, x4=-0.25)
        out = transform_finite(GroupParameter(0.0), e)
        assert (out.r, out.x4) == (e.r, e.x4)

    def test_origin_fixed(self):
        out = transform_finite(GroupParameter(0.8), Event(r=0.0, x4=0.0))
        assert (out.r, out.x4) == (0.0, 0.0)

    def test_matches_flow_oracle(self):
        # the stated comparison point, integrated with step 1e-5 in the parameter
        p = GroupParameter(0.05)
        e = Event(r=1.0, x4=2.0)
        oracle = flow_oracle(p, e, steps=5000)
        assert rel_err_events(transform_finite(p, e), oracle) < 1e-9

    def test_matches_flow_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r, x4, beta = sample_admissible(rng, budget=0.3)
            p = GroupParameter(beta)
            e = Event(r=r, x4=x4)
            assert rel_err_events(transform_finite(p, e), flow_oracle(p, e, steps=4000)) < 1e-9

    def test_group_law(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r, x4, _ = sample_admissible(rng)
            b1 = rng.uniform(-1, 1) * 0.15 / (r + abs(x4))
            b2 = rng.uniform(-1, 1) * 0.15 / (r + abs(x4))
            e = Event(r=r, x4=x4)
            via_two = transform_finite(GroupParameter(b1), transform_finite(GroupParameter(b2), e))
            direct = transform_finite(GroupParameter(b1 + b2), e)
            assert rel_err_events(via_two, direct) < 1e-12

    def test_interval_scales_by_gamma(self):
        # the finite interval maps as s2 -> gamma * s2
        rng = np.random.default_rng(13)
        for _ in range(200):
            r, x4, beta = sample_admissible(rng, budget=0.3)
            p = GroupParameter(beta)
            e = Event(r=r, x4=x4)
            g = conformal_factor(p, e)
            s2 = interval_squared(e)
            s2p = interval_squared(transform_finite(p, e))
            assert abs(s2p - g * s2) <= 1e-12 * max(abs(s2p), g * (r * r + x4 * x4))


class TestInverse:
    def test_identity_parameter(self):
        e = Event(r=0.3, x4=0.9)
        out = transform_inverse_finite(GroupParameter(0.0), e)
        assert (out.r, out.x4) == (e.r, e.x4)

    def test_round_trip(self):
        p = GroupParameter(0.05)
        e = Event(r=1.0, x4=2.0)
        back = transform_inverse_finite(p, transform_finite(p, e))
        assert rel_err_events(back, e) < 1e-12

    def test_origin_fixed(self):
        out = transform_inverse_finite(GroupParameter(2.5), Event(r=0.0, x4=0.0))
        assert (out.r, out.x4) == (0.0, 0.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            r, x4, beta = sample_admissible(rng)
            p = GroupParameter(beta)
            e = Event(r=r, x4=x4)
            assert rel_err_events(transform_inverse_finite(p, transform_finite(p, e)), e) < 1e-12


class TestDifferentialMap:
    def test_identity_parameter(self):
        assert differential_map(GroupParameter(0.0), Event(r=1.0, x4=0.5), 0.3, -0.7) == (0.3, -0.7)
        # gamma^2*A = 1 and gamma^2*B = 0 exactly
        e = Event(r=1.2, x4=-0.4)
        assert differential_map(GroupParameter(0.0), e, 1.0, 0.0) == (1.0, 0.0)
        assert differential_map(GroupParameter(0.0), e, 0.0, 1.0) == (0.0, 1.0)

    def test_b_vanishes_at_zero_radius(self):
        # B = 2*beta4*r*(1 - beta4*x4) is exactly 0, so a radial step moves no time
        for b in (0.1, -0.7, 1.2):
            assert differential_map(GroupParameter(b), Event(r=0.0, x4=0.8), 0.37, 0.0)[1] == 0.0

    def test_against_finite_difference_jacobian(self):
        # central differences of the finite map give the Jacobian columns,
        # the images of the unit displacements (1, 0) and (0, 1)
        p = GroupParameter(0.1)
        e = Event(r=0.5, x4=1.0)
        h = 1e-6
        col_r = differential_map(p, e, 1.0, 0.0)
        col_x4 = differential_map(p, e, 0.0, 1.0)

        def fin(r, x4):
            out = transform_finite(p, Event(r=r, x4=x4))
            return out.r, out.x4

        rp_plus, xp_plus = fin(e.r + h, e.x4)
        rp_minus, xp_minus = fin(e.r - h, e.x4)
        drp_dr = (rp_plus - rp_minus) / (2 * h)
        dxp_dr = (xp_plus - xp_minus) / (2 * h)
        rp_plus, xp_plus = fin(e.r, e.x4 + h)
        rp_minus, xp_minus = fin(e.r, e.x4 - h)
        drp_dx = (rp_plus - rp_minus) / (2 * h)
        dxp_dx = (xp_plus - xp_minus) / (2 * h)

        assert drp_dr == pytest.approx(col_r[0], rel=1e-7)
        assert dxp_dr == pytest.approx(col_r[1], rel=1e-7)
        assert drp_dx == pytest.approx(col_x4[0], rel=1e-7)
        assert dxp_dx == pytest.approx(col_x4[1], rel=1e-7)

    def test_null_stays_null_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            r, x4, beta = sample_admissible(rng, budget=0.3)
            dr = rng.uniform(-1, 1)
            drp, dx4p = differential_map(GroupParameter(beta), Event(r=r, x4=x4), dr, -dr)
            assert drp == -dx4p  # bitwise: a null displacement maps to a null one

    def test_matches_secant_of_finite_map(self):
        # (T(e + delta) - T(e)) agrees with the differential to O(delta^2)
        p = GroupParameter(0.1)
        e = Event(r=0.5, x4=1.0)
        delta = 1e-3
        drp, dx4p = differential_map(p, e, delta, 0.0)
        a = transform_finite(p, Event(r=e.r + delta, x4=e.x4))
        b = transform_finite(p, e)
        assert abs((a.r - b.r) - drp) < 10 * delta**2
        assert abs((a.x4 - b.x4) - dx4p) < 10 * delta**2

    @pytest.mark.parametrize(
        "dr, dx4", [(math.nan, 1.0), (math.inf, 0.0), (1.0, -math.inf)],
        ids=["dr_nan", "dr_inf", "dx4_minus_inf"],
    )
    def test_non_finite_displacement_is_refused_as_the_array_kernel_refuses_it(self, dr, dx4):
        with pytest.raises(ConfdopError, match="must be finite") as array:
            differential_map_array(0.1, 0.5, 0.3, dr, dx4)
        with pytest.raises(ConfdopError) as scalar:
            differential_map(GroupParameter(0.1), Event(r=0.5, x4=0.3), dr, dx4)
        assert str(scalar.value) == str(array.value)

    @pytest.mark.parametrize(
        "beta4, r, x4, dr, dx4, term",
        [
            (0.0, 1.2e154, 1.2e154, 1.0, 1.0, "r^2 + x4^2 = inf"),
            (1e-2, 1.0, 1.0, 1.75e308, 1.75e308, "dr' = inf"),
            (1e-2, 1.0, 1.0, 1.0, 1.78e308, "dx4' = inf"),
        ],
        ids=["r2_plus_x4_2", "dr_prime", "dx4_prime"],
    )
    def test_overflowed_image_is_refused_naming_the_overflow(self, beta4, r, x4, dr, dx4, term):
        # the event is admissible, and for beta4 = 0 the denominator's
        # x4^2 - r^2 cancels to 0, but a term of the image overflows; the
        # scalar and the array kernel refuse with one message and no warning
        calls = [
            lambda: differential_map(GroupParameter(beta4), Event(r=r, x4=x4), dr, dx4),
            lambda: differential_map_array([0.1, beta4], [0.5, r], [0.3, x4], [0.2, dr], [0.7, dx4]),
        ]
        messages = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ConfdopError) as exc:
                    call()
                assert type(exc.value) is ConfdopError
                messages.add(str(exc.value))
        assert messages == {
            f"differential map of (dr={dr}, dx4={dx4}) overflows at (r={r}, x4={x4}) "
            f"for beta4={beta4}: {term}"
        }


class TestSlopeTransform:
    def test_light_speed_fixed_points(self):
        p = GroupParameter(0.2)
        e = Event(r=0.5, x4=1.0)
        assert slope_transform(p, e, 1.0) == 1.0
        assert slope_transform(p, e, -1.0) == -1.0

    def test_identity_parameter(self):
        assert slope_transform(GroupParameter(0.0), Event(r=1.0, x4=0.0), 0.37) == 0.37

    def test_singular_slope_raises(self):
        b, r, x4 = 0.2, 0.5, 1.0
        a_coeff = 1.0 - 2.0 * b * x4 + b * b * (r * r + x4 * x4)
        b_coeff = 2.0 * b * r * (1.0 - b * x4)
        with pytest.raises(SlopeSingular):
            slope_transform(GroupParameter(b), Event(r=r, x4=x4), -a_coeff / b_coeff)

    @pytest.mark.parametrize(
        "r, x4",
        [(0.1, 3.0), (1.0, 0.5)],  # past both null surfaces; past the u surface only
    )
    def test_event_outside_domain_raises(self, r, x4):
        with pytest.raises(DomainCrossing):
            slope_transform(GroupParameter(1.0), Event(r=r, x4=x4), 0.3)

    @pytest.mark.parametrize("slope", [math.nan, -math.inf])
    def test_non_finite_slope_is_refused(self, slope):
        with pytest.raises(ConfdopError, match=f"^slope must be finite, got {slope}$"):
            slope_transform(GroupParameter(0.1), Event(r=0.5, x4=0.3), slope)

    @pytest.mark.parametrize(
        "beta4, r, x4, slope, term",
        [
            (0.0, 1.2e154, 1.2e154, 1.0, "r^2 + x4^2 = inf"),
            (0.4, 1.0, -1.0, 1e308, "slope' = inf"),
            (0.4, 1.0, -1.0, 1.7e308, "B*slope + A = inf"),
        ],
        ids=["r2_plus_x4_2", "slope_prime", "denominator"],
    )
    def test_overflow_is_refused_naming_it(self, beta4, r, x4, slope, term):
        with pytest.raises(ConfdopError) as exc:
            slope_transform(GroupParameter(beta4), Event(r=r, x4=x4), slope)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == (
            f"slope map of slope={slope} overflows at (r={r}, x4={x4}) for beta4={beta4}: {term}"
        )


class TestInvariantRatio:
    def test_on_light_cone(self):
        assert invariant_ratio(Event(r=1.5, x4=1.5)) == 0.0
        assert invariant_ratio(Event(r=2.0, x4=-2.0)) == 0.0

    def test_simple_value(self):
        assert invariant_ratio(Event(r=1.0, x4=2.0)) == 3.0

    def test_zero_radius_raises(self):
        with pytest.raises(ZeroRadius):
            invariant_ratio(Event(r=0.0, x4=1.0))

    def test_preserved_by_transform(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            r, x4, beta = sample_admissible(rng, budget=0.3)
            e = Event(r=r, x4=x4)
            inv = invariant_ratio(e)
            inv_p = invariant_ratio(transform_finite(GroupParameter(beta), e))
            scale = max(abs(inv), abs(inv_p), (x4 * x4 + r * r) / r)
            assert abs(inv_p - inv) <= 1e-12 * scale


class TestIntervalScale:
    def test_identity_parameter(self):
        assert interval_scale(GroupParameter(0.0), Event(r=0.4, x4=1.1)) == 1.0

    def test_line_element_rescaling(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            r, x4, beta = sample_admissible(rng, budget=0.3)
            p = GroupParameter(beta)
            e = Event(r=r, x4=x4)
            dr, dx4 = rng.uniform(-1, 1, size=2)
            g2 = interval_scale(p, e)
            drp, dx4p = differential_map(p, e, dr, dx4)
            lhs = line_element_squared(drp, dx4p)
            rhs = g2 * line_element_squared(dr, dx4)
            assert abs(lhs - rhs) <= 1e-12 * g2 * (dr * dr + dx4 * dx4)

    def test_reciprocity(self):
        # gamma at the image point with the negated parameter undoes the scale
        rng = np.random.default_rng(31)
        for _ in range(200):
            r, x4, beta = sample_admissible(rng, budget=0.3)
            p = GroupParameter(beta)
            e = Event(r=r, x4=x4)
            image = transform_finite(p, e)
            product = interval_scale(p.negated(), image) * interval_scale(p, e)
            assert product == pytest.approx(1.0, rel=1e-12)


class TestHill:
    def test_identity_parameter(self):
        p = GroupParameter.from_alpha(0.0)
        assert hill_transform(p, 2.0, -5.0) == (2.0, -5.0)
        assert hill_velocity(p, 2.0, 100.0) == 100.0

    def test_value_at_zero_time(self):
        c = SPEED_OF_LIGHT
        p = GroupParameter.from_alpha(1e-3)
        rp, tp = hill_transform(p, 1.0, 0.0)
        assert rp == 1.0
        assert tp == pytest.approx(p.alpha * (1.0 / (c * c)) / 2.0, rel=1e-15)

    def test_second_order_agreement_with_finite_map(self):
        # halving alpha must cut the worst mismatch by 4, within 10%
        c = SPEED_OF_LIGHT
        grid = [(r, t) for r in (1e7, 1e8, 1e9) for t in (-20.0, -5.0, 5.0, 20.0)]

        def deviation(alpha):
            worst = 0.0
            for r, t in grid:
                p = GroupParameter.from_alpha(alpha)
                fin = transform_finite(p, Event(r=r, x4=c * t))
                hr, ht = hill_transform(p, r, t)
                worst = max(worst, max(abs(fin.r - hr), abs(fin.x4 - c * ht)) / (r + abs(c * t)))
            return worst

        d1, d2 = deviation(1e-4), deviation(5e-5)
        assert d1 / d2 == pytest.approx(4.0, rel=0.10)

    def test_velocity_map_value(self):
        # v' = v + alpha*r*(1 - v^2/c^2), with the operations in this order
        c = SPEED_OF_LIGHT
        p = GroupParameter.from_alpha(1e-3)
        assert hill_velocity(p, 1e9, 1e4) == 1e4 + p.alpha * 1e9 * (1.0 - 1e4 * 1e4 / (c * c))

    def test_light_speed_preserved_by_velocity_map(self):
        c = SPEED_OF_LIGHT
        p = GroupParameter.from_alpha(1e-3)
        assert hill_velocity(p, 1e9, c) == c
        assert hill_velocity(p, 1e9, -c) == -c

    @pytest.mark.parametrize(
        "beta4, r, t", [(0.0, 0.0, 1e160), (1e-200, 1.0, 1e200)], ids=["alpha_0", "alpha_6e-192"]
    )
    def test_overflowing_map_is_refused_naming_the_overflow(self, beta4, r, t):
        # t^2 overflows: (0.0, nan) and (599584917.0, inf) were returned
        p = GroupParameter(beta4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                hill_transform(p, r, t)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == f"Hill map overflows at (r={r}, t={t}) for alpha={p.alpha}: t^2 = inf"

    def test_floats_in_python_floats_out(self):
        p = GroupParameter.from_alpha(1e-5)
        image = hill_transform(p, 1e8, 3.0)
        assert [type(v) for v in image] == [float, float]
        assert image == (100003000.0, 3.000045556325028)

    def test_float_subclass_is_mapped_as_its_float(self):
        # np.float64 arithmetic would warn of t^2 = inf; float arithmetic does not
        p = GroupParameter(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                hill_transform(p, np.float64(0.0), np.float64(1e160))
        assert str(exc.value) == "Hill map overflows at (r=0.0, t=1e+160) for alpha=0.0: t^2 = inf"

    def test_non_finite_input_is_refused(self):
        p = GroupParameter.from_alpha(1e-5)
        with pytest.raises(ConfdopError, match="^r must be finite, got nan$"):
            hill_transform(p, math.nan, 1.0)
        with pytest.raises(ConfdopError, match="^t must be finite, got inf$"):
            hill_transform(p, 1.0, math.inf)

    def test_array_of_two_elements_is_not_a_real_number(self):
        p = GroupParameter.from_alpha(1e-5)
        with pytest.raises(TypeError, match=r"^r must be a real number, got array\(\[1\., 2\.\]\)$"):
            hill_transform(p, np.array([1.0, 2.0]), 3.0)
        assert hill_transform(p, np.array(1e8), np.int64(3)) == (100003000.0, 3.000045556325028)

    @pytest.mark.parametrize("call, refusal", [
        (lambda p: hill_transform(p, 1e300, 1e200),
         "Hill map overflows at (r=1e+300, t=1e+200) for alpha=5.99584916e-192: r' = inf"),
        (lambda p: hill_differentials(p, 1e300, 1e200, 1e300, 1.0),
         "Hill differential map overflows at (r=1e+300, t=1e+200, dr=1e+300, dt=1.0) "
         "for alpha=5.99584916e-192: dr*(1 + alpha*t) = inf"),
    ], ids=["map", "differentials"])
    def test_numpy_scalar_parameter_refuses_without_a_warning(self, call, refusal):
        # beta4 was stored as np.float64, whose arithmetic warned before the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                call(GroupParameter(np.float64(1e-200)))
        assert str(exc.value) == refusal

    @pytest.mark.parametrize("beta4, args, refusal", [
        # (inf, inf) was returned
        (1e-200, (1e300, 1e200, 1e300, 1.0),
         "Hill differential map overflows at (r=1e+300, t=1e+200, dr=1e+300, dt=1.0) "
         "for alpha=5.99584916e-192: dr*(1 + alpha*t) = inf"),
        (0.0, (1.0, 1.0, math.inf, 1.0), "dr must be finite, got inf"),
    ], ids=["overflow", "dr_inf"])
    def test_differentials_that_are_not_finite_are_refused(self, beta4, args, refusal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                hill_differentials(GroupParameter(beta4), *args)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == refusal

    @pytest.mark.parametrize("beta4, r, v, refusal", [
        # -inf and nan were returned
        (1e-200, 1e300, 1e200,
         "Hill velocity map overflows at (r=1e+300, v=1e+200) for alpha=5.99584916e-192: v^2 = inf"),
        (0.0, 1.0, math.nan, "v must be finite, got nan"),
    ], ids=["overflow", "v_nan"])
    def test_velocity_that_is_not_finite_is_refused(self, beta4, r, v, refusal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfdopError) as exc:
                hill_velocity(GroupParameter(beta4), r, v)
        assert type(exc.value) is ConfdopError
        assert str(exc.value) == refusal


def outcome(call):
    """call()'s image as (type, bits) pairs, or its error's type and message,
    with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            image = call()
        except (ConfdopError, TypeError) as exc:
            return type(exc), str(exc)
    return [(type(v), float.hex(v)) for v in (image if isinstance(image, tuple) else (image,))]


def event_fields(r, x4):
    """Event's stored fields."""
    e = Event(r, x4)
    return e.r, e.x4


def parameter_fields(p):
    """A GroupParameter's stored fields and the alpha = 2*c*beta4 they give."""
    return p.beta4, p.c, p.alpha


def sign_comparison_rates(anomaly_rate, hubble_rate):
    """sign_comparison_report's three rates; its sign flag must be a bool."""
    report = sign_comparison_report(anomaly_rate, hubble_rate)
    assert type(report.opposite_sign) is bool
    return report.anomaly_rate, report.hubble_rate, report.magnitude_ratio


def fit_fields(table, c):
    """fit_alpha's float fields."""
    fit = fit_alpha(table, c)
    return fit.alpha_hat, fit.alpha_stderr, fit.chi2, fit.z_score_alpha_zero


def residual_rates(table, c):
    """anomaly_residuals' residual rates as floats."""
    return tuple(map(float, anomaly_residuals(table, c).residual_rate))


def detected(fit, z_threshold):
    """decide_metric's decision as 1.0 (conformal metric detected) or 0.0."""
    return float(decide_metric(fit, z_threshold) is MetricDecision.CONFORMAL_DETECTED)


def small_table(scale):
    """An 8-record table whose ranges are scale * (1, ..., 8)."""
    r = scale * np.arange(1.0, 9.0)
    rate = np.full(8, 1e4)
    frac = (rate + 2e-18 * r + np.linspace(-1e-3, 1e-3, 8)) / SPEED_OF_LIGHT
    return TrackingTable(epoch=np.arange(8.0), range_true=r, range_rate_true=rate,
                         range_meas=r, doppler_frac_meas=frac, sigma_frac=np.full(8, 1e-12))


FIT_TABLE = small_table(1e11)
OVERFLOW_TABLE = small_table(1e300)  # sum(w*r^2) overflows; the residual rates do not
FIT = FitResult(alpha_hat=2e-18, alpha_stderr=1e-18, chi2=7.0, dof=7, z_score_alpha_zero=2.0,
                n_used=8)
OVERFLOWED_FIT = FitResult(alpha_hat=math.inf, alpha_stderr=1e-300, chi2=math.inf, dof=7,
                           z_score_alpha_zero=math.inf, n_used=8)

_MAX = sys.float_info.max
# Every public entry point that takes a real number: its name, a call, the
# names of its real-number arguments (the call's last ones), one point it
# maps and one whose image overflows. Event's image is its fields, so its
# second point is the float range's edge; GroupParameter's alpha overflows
# to inf (the maps refuse it as their first step), and from_alpha's
# beta4 = alpha/(2c) overflows and is refused; the sign comparison's ratio
# is inf. The fit's and the bootstrap's sum(w*r^2) overflows and is refused
# at OVERFLOW_TABLE, where anomaly_residuals maps; decide_metric's second
# fit is one whose z overflowed to inf.
ENTRY_POINTS = [
    ("Event", event_fields, ("r", "x4"), (1.0, 2.0), (_MAX, -_MAX)),
    ("GroupParameter", lambda beta4, c: parameter_fields(GroupParameter(beta4, c)),
     ("beta4", "c"), (1e-3, 2.0), (1e300, 1e10)),
    ("from_alpha", lambda alpha, c: parameter_fields(GroupParameter.from_alpha(alpha, c)),
     ("alpha", "c"), (1e-3, 2.0), (1e308, 0.25)),
    ("hill_transform", hill_transform, ("r", "t"),
     (GroupParameter(1e-14), 1e8, 3.0), (GroupParameter(0.0), 0.0, 1e160)),
    ("hill_differentials", hill_differentials, ("r", "t", "dr", "dt"),
     (GroupParameter(1e-14), 1e8, 3.0, 1.0, 2.0), (GroupParameter(1e-200), 1e300, 1e200, 1e300, 1.0)),
    ("hill_velocity", hill_velocity, ("r", "v"),
     (GroupParameter(1e-14), 1e8, 1e4), (GroupParameter(1e-200), 1e300, 1e200)),
    ("inbound_ray_coords", inbound_ray_coords, ("r_prime", "t_prime"),
     (GroupParameter(1e-14), 1e8, -3.0), (GroupParameter(0.0), 0.0, -1e160)),
    ("inbound_ray_differentials", inbound_ray_differentials,
     ("r_prime", "t_prime", "dr_prime", "dt_prime"),
     (GroupParameter(1e-14), 1e8, -3.0, -1.0, 1.0), (GroupParameter(0.0), 0.0, -1e160, -1.0, 1.0)),
    ("wavelength_map", wavelength_map, ("lambda_primed", "r_prime", "t_prime"),
     (GroupParameter(1e-14), 0.2, 1e8, -3.0), (GroupParameter(1e-200), 1e300, 1e300, -1e300)),
    ("differential_map", differential_map, ("dr", "dx4"),
     (GroupParameter(1e-3), Event(1.0, 2.0), 1.0, 2.0),
     (GroupParameter(1e-3), Event(1.0, 2.0), _MAX, 1.0)),
    ("slope_transform", slope_transform, ("slope",),
     (GroupParameter(1e-3), Event(1.0, -2.0), 0.5), (GroupParameter(1e-3), Event(1.0, -2.0), _MAX)),
    ("hubble_prediction", hubble_prediction, ("V", "R", "H0"),
     (12200.0, 3e12, 2.3e-18), (0.0, 1e308, 10.0)),
    ("hubble_alpha_correction", hubble_alpha_correction, ("H0", "alpha"),
     (2.3e-18, 2.19e-18), (1e308, -1e308)),
    ("sign_comparison_rates", sign_comparison_rates, ("anomaly_rate", "hubble_rate"),
     (-2.9e-18, 2.3e-18), (1.0, 0.0)),
    ("fit_alpha", fit_fields, ("c",), (FIT_TABLE, SPEED_OF_LIGHT), (OVERFLOW_TABLE, SPEED_OF_LIGHT)),
    ("bootstrap_alpha", lambda table, c: bootstrap_alpha(table, 100, 0, c), ("c",),
     (FIT_TABLE, SPEED_OF_LIGHT), (OVERFLOW_TABLE, SPEED_OF_LIGHT)),
    ("anomaly_residuals", residual_rates, ("c",),
     (FIT_TABLE, SPEED_OF_LIGHT), (OVERFLOW_TABLE, SPEED_OF_LIGHT)),
    ("decide_metric", detected, ("z_threshold",), (FIT, 5.0), (OVERFLOWED_FIT, 5.0)),
]
FIRST_ORDER_MAPS = ("hill_differentials", "hill_velocity", "inbound_ray_coords",
                    "inbound_ray_differentials", "wavelength_map")


def each_point(first_order):
    """Parametrize over both points of the first-order maps' rows, or of the others'."""
    rows = [row for row in ENTRY_POINTS if (row[0] in FIRST_ORDER_MAPS) == first_order]
    return pytest.mark.parametrize(
        "call, names, args",
        [(call, names, args) for _, call, names, *points in rows for args in points],
        ids=[f"{name}-{kind}" for name, *_ in rows for kind in ("maps", "overflows")],
    )


def substitute(call, args, i, value):
    """outcome of call(*args) with its i-th argument replaced by value."""
    return outcome(lambda: call(*args[:i], value, *args[i + 1:]))


def assert_takes_real_numbers(call, names, args):
    # a numpy scalar or 0-d array gives the plain-float call's bits as floats,
    # or its refusal, without a numpy warning; whatever float() does not take,
    # and text, are a TypeError naming the argument; an int past the float
    # range is taken as inf, and refused by name where inf is (decide_metric
    # names its range in the refusal)
    expected = outcome(lambda: call(*args))
    for i, name in enumerate(names, len(args) - len(names)):
        for value in (np.float64(args[i]), np.array(args[i])):
            assert substitute(call, args, i, value) == expected, (name, value)
        for value in (np.array([args[i], args[i]]), str(args[i])):
            assert substitute(call, args, i, value) == (
                TypeError, f"{name} must be a real number, got {value!r}"), (name, value)
        past_range = substitute(call, args, i, 10**400)
        assert past_range == substitute(call, args, i, math.inf), name
        if call is not sign_comparison_rates:  # which takes inf
            finite = "finite and >= 0" if call is detected else "finite"
            assert past_range == (ConfdopError, f"{name} must be {finite}, got inf")


@each_point(first_order=True)
def test_first_order_maps_take_real_numbers(call, names, args):
    assert_takes_real_numbers(call, names, args)


@each_point(first_order=False)
def test_scalar_entry_points_take_real_numbers(call, names, args):
    assert_takes_real_numbers(call, names, args)


@pytest.mark.parametrize("call, names, points",
                         [(call, names, points) for _, call, names, *points in ENTRY_POINTS],
                         ids=[name for name, *_ in ENTRY_POINTS])
def test_bool_is_refused_by_name(call, names, points):
    # a bool (Python's or numpy's) is not a real number here, as SimConfig
    # refuses one; each was taken as 1.0 or 0.0
    for args in points:
        for i, name in enumerate(names, len(args) - len(names)):
            for value in (True, False, np.True_, np.array(False)):
                assert substitute(call, args, i, value) == (
                    TypeError, f"{name} must be a real number, got {value!r}"), (name, value)


@pytest.mark.parametrize("call, refusal", [
    (lambda: hill_differentials(GroupParameter(1e-200), np.float64(1e300), 1e200, 1e300, 1.0),
     (ConfdopError, "Hill differential map overflows at (r=1e+300, t=1e+200, dr=1e+300, dt=1.0) "
                    "for alpha=5.99584916e-192: dr*(1 + alpha*t) = inf")),
    (lambda: inbound_ray_coords(GroupParameter(0.0), np.float64(0.0), -1e160),
     (ConfdopError, "inbound-ray map overflows at (r'=0.0, t'=-1e+160) for alpha=0.0: "
                    "t^2 (pass 1) = inf")),
    (lambda: hill_velocity(GroupParameter(1e-3), np.array([1.0, 2.0]), 3.0),
     (TypeError, "r must be a real number, got array([1., 2.])")),
    (lambda: hubble_alpha_correction(np.float64(1e308), -1e308),
     (ConfdopError, "Hubble rate correction overflows at (H0=1e+308, alpha=-1e+308): "
                    "H0 - alpha = inf")),
    (lambda: hubble_prediction(np.float64(0.0), np.float64(1e308), 10.0),
     (ConfdopError, "Hubble relation overflows at (V=0.0, R=1e+308, H0=10.0): H0*R = inf")),
    (lambda: sign_comparison_report(np.array([1.0, 2.0]), 1.0),
     (TypeError, "anomaly_rate must be a real number, got array([1., 2.])")),
    (lambda: slope_transform(GroupParameter(1e-3), Event(1.0, 2.0), np.array([1.0, 2.0])),
     (TypeError, "slope must be a real number, got array([1., 2.])")),
], ids=["hill_differentials", "inbound_ray_coords", "hill_velocity", "hubble_alpha_correction",
        "hubble_prediction", "sign_comparison_report", "slope_transform"])
def test_numpy_argument_is_refused_by_name_without_a_warning(call, refusal):
    # numpy's scalar arithmetic warned before the refusal, or its conversion
    # error named no argument; the overflow messages are the plain-float
    # call's, written out
    assert outcome(call) == refusal


def config_repr(**field):
    """repr of a SimConfig with `field` set: the type and bits of every field."""
    return repr(SimConfig(r0=4.5e12, v_radial=12200.0, t_start=0.0, t_end=3e7,
                          **{"n_obs": 40, **field}))


# Every public integer parameter: the export that takes it (or its module's
# function, for the two not exported), its name, a call of one value whose
# result compares type and bits, and a value it takes.
INTEGER_PARAMETERS = [
    ("SimConfig", "n_obs", lambda n: config_repr(n_obs=n), 40),
    ("SimConfig", "seed", lambda seed: config_repr(seed=seed), 7),
    ("bootstrap_alpha", "n_resamples", lambda n: repr(bootstrap_alpha(FIT_TABLE, n, 0)), 100),
    ("bootstrap_alpha", "seed", lambda seed: repr(bootstrap_alpha(FIT_TABLE, 100, seed)), 3),
    ("flow_oracle", "steps",
     lambda steps: repr(flow_oracle(GroupParameter(0.05), Event(1.0, 2.0), steps)), 50),
    ("flow_oracle_array", "steps",
     lambda steps: [a.tobytes() for a in flow_oracle_array([0.05, -0.02], 1.0, 2.0, steps)], 50),
    ("run_suite", "seed", lambda seed: repr(run_suite("metric", None, seed, 10)), 3),
    ("run_suite", "cases", lambda cases: repr(run_suite("group", None, 0, cases)), 10),
]


@pytest.mark.parametrize("export, name, call, base", INTEGER_PARAMETERS,
                         ids=[f"{export}-{name}" for export, name, *_ in INTEGER_PARAMETERS])
def test_integer_parameter_takes_exact_integers_only(export, name, call, base):
    # a numpy integer, a 0-d integer array or an integral float gives the
    # int call's type and bits (np.int64 was refused by SimConfig, and 100.0
    # resamples ended in numpy's unnamed TypeError); a bool was read as 0 or
    # 1 (seed=True drew seed 1, steps=True took one step) and a fraction was
    # truncated or ran, so each of these is now a TypeError naming the
    # parameter, or for SimConfig the ConfigInvalid that names the field
    expected = call(base)
    for value in (np.int64(base), np.uint64(base), np.array(base), float(base)):
        assert call(value) == expected, value
    for value in (True, np.True_, str(base), 2.5, math.nan, np.array([base, base])):
        with pytest.raises((TypeError, ConfigInvalid)) as exc:
            call(value)
        if export == "SimConfig":  # whose pinned message calls a bool not a number
            kind = "a number" if isinstance(value, (bool, np.bool_)) else "an integer"
            refusal = ConfigInvalid, f"{name}: must be {kind}, got {value!r}"
        else:
            refusal = TypeError, f"{name} must be an integer, got {value!r}"
        assert (type(exc.value), str(exc.value)) == refusal


# Exports with no row in ENTRY_POINTS or INTEGER_PARAMETERS, by the reason.
EXEMPT_EXPORTS = {
    "takes only Event, GroupParameter, SimConfig, table, path or manifest objects": (
        "conformal_factor", "interval_scale", "interval_squared", "invariant_ratio",
        "transform_finite", "transform_inverse_finite", "simulate", "read_records_csv",
        "write_records_csv", "load_manifest", "verify_manifest", "write_manifest"),
    "takes arrays on purpose: its callers pass whole columns": (
        "doppler_model_conformal", "line_element_squared", "TrackingTable"),
    "records the values its caller checked (simulate passes SimConfig's seed and config)": (
        "build_manifest",),
    "a class of errors, results or records, built by the package": (
        "ConfdopError", "ConfigInvalid", "DegenerateDesign", "DomainCrossing", "MalformedCsv",
        "ManifestMismatch", "NotPastCone", "SingularTransform", "SlopeSingular",
        "StepDivergence", "ZeroRadius", "ZeroRange", "ZeroSigma", "FitResult",
        "MetricDecision", "RunManifest", "AnomalyResidual", "SignComparison"),
    "a constant": ("ASTRONOMICAL_UNIT", "HUBBLE_RATE", "PIONEER_ANOMALY_RATE", "SPEED_OF_LIGHT"),
}
# Rows of ENTRY_POINTS named for what they call, not for the export.
ROW_EXPORTS = {"from_alpha": "GroupParameter", "sign_comparison_rates": "sign_comparison_report"}


def test_every_export_has_a_contract_row_or_a_reason():
    # a new public function must join a table or say here why it takes no number
    exports = {name for name, value in vars(confdop).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    tested = {ROW_EXPORTS.get(name, name) for name, *_ in ENTRY_POINTS}
    tested |= {export for export, *_ in INTEGER_PARAMETERS}
    exempt = [name for names in EXEMPT_EXPORTS.values() for name in names]
    assert len(exempt) == len(set(exempt))
    assert sorted(exports - tested) == sorted(exempt)


def test_each_step_of_a_map_has_one_name():
    # the refusals zip names with steps, so a step without a name, or an
    # extra name, would name the wrong overflow or none
    from confdop import conformal, wave

    p = GroupParameter.from_alpha(1e-3)
    a, c2 = p.alpha, p.c * p.c
    pairs = [
        (conformal._DENOM_STEPS, conformal._finite_map(0.1, 1.0, 0.5, lambda *args: args[3])[3]),
        (conformal._HILL_STEPS, conformal._hill_steps(a, c2, 1e8, -12.0)),
        (conformal._HILL_DIFFERENTIAL_STEPS, conformal._hill_differential_steps(a, c2, 1e8, -12.0, 1.0, 1.0)),
        (conformal._HILL_VELOCITY_STEPS, conformal._hill_velocity_steps(a, c2, 1e8, 1e4)),
        (wave._COORDS_STEPS, wave._coords_steps(a, c2, 1e8, -12.0)),
        (wave._DIFFERENTIAL_STEPS, wave._differential_steps(a, c2, 1e8, -12.0, 1.0, 1.0)),
        (wave._WAVELENGTH_STEPS, wave._wavelength_steps(a, p.c, 0.13, 1e8, -12.0)),
    ]
    assert [len(names) for names, _ in pairs] == [len(steps) for _, steps in pairs]
    assert all(len(set(names)) == len(names) for names, _ in pairs)


class TestFlowOracle:
    def test_identity_parameter(self):
        e = Event(r=1.0, x4=2.0)
        out = flow_oracle(GroupParameter(0.0), e)
        assert (out.r, out.x4) == (e.r, e.x4)

    def test_origin_fixed(self):
        out = flow_oracle(GroupParameter(0.7), Event(r=0.0, x4=0.0), steps=100)
        assert (out.r, out.x4) == (0.0, 0.0)

    def test_divergence_detected(self):
        # the trajectory from (1, 2) hits the singular surface near tau = 1/3
        with pytest.raises(StepDivergence):
            flow_oracle(GroupParameter(0.4), Event(r=1.0, x4=2.0), steps=20_000)

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError):
            flow_oracle(GroupParameter(0.1), Event(r=1.0, x4=0.0), steps=0)

    def test_negative_parameter_flow(self):
        p = GroupParameter(-0.07)
        e = Event(r=0.8, x4=-1.1)
        assert rel_err_events(transform_finite(p, e), flow_oracle(p, e, steps=4000)) < 1e-9

    def test_default_step_count_agreement(self):
        # full default resolution on the reference point
        p = GroupParameter(0.05)
        e = Event(r=1.0, x4=2.0)
        assert rel_err_events(transform_finite(p, e), flow_oracle(p, e, steps=100_000)) < 1e-9


def test_interval_squared_reconstruction():
    e = Event(r=0.75, x4=-1.25)
    s2 = interval_squared(e)
    assert s2 == pytest.approx(e.x4**2 - e.r**2, rel=4e-16, abs=1e-300)


def test_hill_differentials_match_transform_differential():
    # the first-order displacement map agrees with the exact differential to O(alpha^2)
    from confdop import hill_differentials

    c = SPEED_OF_LIGHT
    r, t = 2e8, 7.0
    dr, dt = 150.0, 2e-6

    def mismatch(alpha):
        p = GroupParameter.from_alpha(alpha)
        drp, dx4p = differential_map(p, Event(r=r, x4=c * t), dr, c * dt)
        hdr, hdt = hill_differentials(p, r, t, dr, dt)
        return max(abs(drp - hdr), abs(dx4p - c * hdt)) / (abs(dr) + c * abs(dt))

    m1, m2 = mismatch(1e-4), mismatch(5e-5)
    assert m1 / m2 == pytest.approx(4.0, rel=0.15)


class TestArrayKernel:
    def test_broadcasts_parameters_against_events(self):
        b = np.array([[0.0], [0.05]])
        r_out, x4_out = transform_finite_array(b, [1.0, 0.5], [2.0, -1.0])
        assert r_out.shape == (2, 2)
        out = transform_finite(GroupParameter(0.05), Event(r=0.5, x4=-1.0))
        assert (r_out[1, 1], x4_out[1, 1]) == (out.r, out.x4)
        assert (r_out[0].tolist(), x4_out[0].tolist()) == ([1.0, 0.5], [2.0, -1.0])

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((0.1, 3.0, 1.0), DomainCrossing),  # past both singular surfaces
            ((1.0, 0.5, 1.0), DomainCrossing),  # past the u = x4 + r surface
            ((1.0, -0.5, -1.0), DomainCrossing),  # past the v = x4 - r surface
            ((0.0, 1.0, 1.0), SingularTransform),  # on one
        ],
    )
    @pytest.mark.parametrize("kernel", ["factor", "finite", "differential"])
    def test_one_element_outside_the_domain_refuses_the_batch(self, bad, error, kernel):
        rng = np.random.default_rng(37)
        cases = [sample_admissible(rng) for _ in range(9)]
        cases.insert(6, bad)  # (r, x4, beta4), as sample_admissible returns
        r, x4, b = (np.array(col) for col in zip(*cases))
        ones = np.ones_like(r)
        call = {
            "factor": lambda: conformal_factor_array(b, r, x4),
            "finite": lambda: transform_finite_array(b, r, x4),
            "differential": lambda: differential_map_array(b, r, x4, ones, ones),
        }[kernel]
        with pytest.raises(error, match=f"r={bad[0]}, x4={bad[1]}"):
            call()

    @pytest.mark.parametrize("field", ["beta4", "r", "x4"])
    def test_non_finite_element_names_field(self, field):
        columns = {"beta4": [0.1, 0.1], "r": [1.0, 1.0], "x4": [0.5, 0.5]}
        columns[field][1] = math.nan
        with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
            transform_finite_array(**columns)

    def test_negative_radius_refused(self):
        with pytest.raises(ValueError, match="r must be >= 0"):
            conformal_factor_array(0.1, [1.0, -0.5], 0.0)

    def test_negative_radius_names_the_first_as_a_scalar_loop_does(self):
        message = "^r must be >= 0, got -1.0$"
        with pytest.raises(ConfdopError, match=message):
            [conformal_factor(GroupParameter(0.1), Event(r=r, x4=0.0)) for r in (-1.0, -2.0)]
        with pytest.raises(ConfdopError, match=message):
            conformal_factor_array(0.1, [-1.0, -2.0], 0.0)
        with pytest.raises(ConfdopError, match=message):
            flow_oracle_array(0.1, [-1.0, -2.0], 0.0, 10)

    @pytest.mark.parametrize(
        "kernel, scalar, columns, message",
        [
            (conformal_factor_array, conformal_factor,
             ([0.1, math.nan], [-1.0, 1.0], [0.0, 0.0]), "r must be >= 0, got -1.0"),
            (transform_finite_array, transform_finite,
             ([0.1, math.nan], [-1.0, 1.0], [0.0, 0.0]), "r must be >= 0, got -1.0"),
            (differential_map_array, differential_map,
             ([0.0, 1.0], [1.2e154, 0.5], [1.2e154, 1.0], [1.0, 1.0], [1.0, 1.0]),
             "differential map of (dr=1.0, dx4=1.0) overflows at (r=1.2e+154, x4=1.2e+154) "
             "for beta4=0.0: r^2 + x4^2 = inf"),
            # r = 0 is admitted, so it must not be the element run through the scalar kernel
            (conformal_factor_array, conformal_factor,
             ([0.1, 0.1], [0.0, -1.0], [0.5, 0.0]), "r must be >= 0, got -1.0"),
            (transform_finite_array, transform_finite,
             ([0.1, 0.1], [0.0, -1.0], [0.5, 0.0]), "r must be >= 0, got -1.0"),
            (differential_map_array, differential_map,
             ([0.1, 0.1], [0.0, -1.0], [0.5, 0.0], [1.0, 1.0], [1.0, 1.0]),
             "r must be >= 0, got -1.0"),
        ],
        ids=["factor_input", "finite_input", "differential_overflow", "factor_after_zero_radius",
             "finite_after_zero_radius", "differential_after_zero_radius"],
    )
    def test_refusal_names_the_lowest_index_as_a_scalar_loop_does(
        self, kernel, scalar, columns, message
    ):
        # in the first three cases element 1 is refused too (beta4 = nan, or
        # past the singular surface), by a test the array kernels used to run first
        with pytest.raises(ConfdopError) as loop:
            for b, r, x4, *rest in zip(*columns):
                scalar(GroupParameter(b), Event(r=r, x4=x4), *rest)
        with pytest.raises(ConfdopError) as array:
            kernel(*columns)
        assert str(loop.value) == message
        assert (type(array.value), str(array.value)) == (type(loop.value), message)


# conformal.EPS_SINGULAR, written out so that a change to it fails the tests below
EDGE = 1e-12
# how far from the edge, relative, the band tests place an event: far beyond
# the few ulps of rounding in the kernel's denominator
NEAR = 0.01


def band_event(b, v, ratio):
    """The event at which the finite map's denominator D, relative to its
    terms (|D| / (1 + |linear| + |quadratic|)), is `ratio` for beta4 = b.

    D = (1 - b*(x4 + r)) * (1 - b*(x4 - r)).  One null factor is set to
    v and the other to the small s that gives the ratio: D = s*v, linear =
    2*b*x4 = 2 - s - v and quadratic = b^2*(x4^2 - r^2) = (1 - s)*(1 - v).
    The factor at b*(x4 + r) is the small one for b > 0, so that r >= 0.
    """
    s = ratio
    for _ in range(3):  # the terms move with s by about s, so each pass cuts the error by ~ratio
        s = ratio * (1.0 + abs(2.0 - s - v) + abs((1.0 - s) * (1.0 - v))) / v
    u, w = (s, v) if b > 0 else (v, s)
    return Event(r=(w - u) / (2.0 * b), x4=(2.0 - u - w) / (2.0 * b))


def exact_band_ratio(b, e):
    """|D| / (1 + |linear| + |quadratic|) of the float inputs, in rationals."""
    b, r, x4 = Fraction(b), Fraction(e.r), Fraction(e.x4)
    linear, quadratic = 2 * b * x4, b * b * (x4 * x4 - r * r)
    return abs(1 - linear + quadratic) / (1 + abs(linear) + abs(quadratic))


def exact_slope_coefficients(b, e):
    """The slope map's A and B of the float inputs, in rationals."""
    b, r, x4 = Fraction(b), Fraction(e.r), Fraction(e.x4)
    return 1 - 2 * b * x4 + b * b * (r * r + x4 * x4), 2 * b * r * (1 - b * x4)


def band_calls(b, e):
    """Each kernel that runs the finite map's regularity test, on (b, e)."""
    p = GroupParameter(b)
    return {
        "conformal_factor": lambda: conformal_factor(p, e),
        "transform_finite": lambda: transform_finite(p, e),
        "differential_map": lambda: differential_map(p, e, 1.0, 0.5),
        "conformal_factor_array": lambda: conformal_factor_array([b], [e.r], [e.x4]),
        "transform_finite_array": lambda: transform_finite_array([b], [e.r], [e.x4]),
        "differential_map_array": lambda: differential_map_array([b], [e.r], [e.x4], 1.0, 0.5),
        "slope_transform": lambda: slope_transform(p, e, 0.3),
    }


class TestSingularBandEdge:
    """The singular band's edge, EPS_SINGULAR, pinned from both sides: an
    event just outside the band is admitted, one just inside refused."""

    # (beta4, the larger null factor): null factors on both sides of 1 (so
    # x4 on both sides of 0, and s2 of either sign), a negative beta4, and
    # the scale of the Pioneer mission's group rate
    CASES = [(1.0, 0.5), (1.0, 1.0), (0.25, 3.0), (-2.0, 1.5), (3.6e-27, 0.7), (-1e-13, 2.0)]

    @pytest.mark.parametrize("b, v", CASES)
    def test_finite_map_admits_just_outside_the_band(self, b, v):
        e = band_event(b, v, EDGE * (1.0 + NEAR))
        assert EDGE * (1 + NEAR / 2) < exact_band_ratio(b, e) < EDGE * (1 + 2 * NEAR)
        for name, call in band_calls(b, e).items():
            out = call()
            if isinstance(out, Event):
                out = out.r, out.x4
            assert np.isfinite(np.asarray(out, dtype=float)).all(), name

    @pytest.mark.parametrize("b, v", CASES)
    def test_finite_map_refuses_just_inside_the_band(self, b, v):
        e = band_event(b, v, EDGE * (1.0 - NEAR))
        assert EDGE * (1 - 2 * NEAR) < exact_band_ratio(b, e) < EDGE * (1 - NEAR / 2)
        for name, call in band_calls(b, e).items():
            with pytest.raises(SingularTransform, match="conformal factor singular"):
                call()
                pytest.fail(f"{name} admitted the event")

    # regular events whose slope-map coefficients A and B are of order 1
    SLOPE_EVENTS = [(0.25, 1.0, 0.0), (1e-13, 3e12, 1e12), (-0.5, 0.5, -1.0)]

    @pytest.mark.parametrize("b, r, x4", SLOPE_EVENTS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_slope_map_edge(self, b, r, x4, sign):
        e = Event(r=r, x4=x4)
        a_coeff, b_coeff = exact_slope_coefficients(b, e)
        for side in (1.0 + NEAR, 1.0 - NEAR):
            slope = float(-(a_coeff + Fraction(sign * EDGE * side)) / b_coeff)
            # |B*slope + A| / EPS_SINGULAR, exactly, for the rounded slope
            size = abs(b_coeff * Fraction(slope) + a_coeff) / Fraction(EDGE)
            assert abs(size - Fraction(side)) < NEAR / 2
            if side > 1.0:
                assert math.isfinite(slope_transform(GroupParameter(b), e, slope))
            else:
                with pytest.raises(SlopeSingular):
                    slope_transform(GroupParameter(b), e, slope)
