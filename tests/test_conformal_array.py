"""Property tests: the array kernels of confdop.conformal_array agree with
the scalar kernels bit for bit, element by element, inside the domain, and
raise the error of a loop of scalar calls outside it; and the array RK4
oracle returns the bits, or raises the error, that a loop
of scalar flow_oracle calls does, inside the domain and outside it; and
the half-slope flow_oracle returns those of the full-slope loop it
replaced; and each first-order map, the Hill maps and the inbound-ray and
wavelength maps of confdop.wave, returns finite values or raises
ConfdopError over the whole double range.

Kept apart from test_conformal.py so that those tests do not depend on
hypothesis being installed.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import confdop.checks
import confdop.conformal_array
from confdop import (
    Event,
    GroupParameter,
    ConfdopError,
    StepDivergence,
    conformal_factor,
    differential_map,
    flow_oracle,
    hill_differentials,
    hill_transform,
    hill_velocity,
    inbound_ray_coords,
    inbound_ray_differentials,
    transform_finite,
    wavelength_map,
)
from confdop.checks import run_oracle_suite, run_suite
from confdop.constants import SPEED_OF_LIGHT
from confdop.conformal import FLOW_DIVERGENCE_BOUND
from confdop.conformal_array import (
    conformal_factor_array,
    differential_map_array,
    flow_oracle_array,
    transform_finite_array,
)

# moving elements from which flow_oracle_array makes an array pass
FLOW_ARRAY_MIN_ELEMENTS = confdop.conformal_array._FLOW_ARRAY_MIN_ELEMENTS


@pytest.fixture(scope="module", autouse=True)
def array_pass_at_every_count():
    """Every flow_oracle_array call in this module makes an array pass, so
    the properties compare it, not the flow_oracle loop, with the loop.
    Module-scoped, since hypothesis refuses function-scoped fixtures."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(confdop.conformal_array, "_FLOW_ARRAY_MIN_ELEMENTS", 1)
        yield


def admissible_batches():
    """Lists of (beta4, r, x4, dr, dx4) with |beta4| <= 0.9 and
    |beta4|*(r + |x4|) <= 0.9, which keeps both null-coordinate factors at
    or above 0.1 and every intermediate term far from overflow."""
    unit = st.floats(-1.0, 1.0)
    case = st.tuples(unit, st.floats(0.0, 1e3), st.floats(-1e3, 1e3), unit, unit).map(
        lambda c: (c[0] * 0.9 / max(c[1] + abs(c[2]), 1.0),) + c[1:]
    )
    return st.lists(case, min_size=1, max_size=20)


def same_bits(a, b):
    def bits(x):
        return np.array(x, dtype=float).view(np.int64).tolist()

    return bits(a) == bits(b)


@given(admissible_batches())
def test_elements_equal_scalar_calls_bit_for_bit(batch):
    b, r, x4, dr, dx4 = (np.array(col) for col in zip(*batch))
    scalar = []
    for bi, ri, xi, dri, dxi in batch:
        p, e = GroupParameter(bi), Event(r=ri, x4=xi)
        out = transform_finite(p, e)
        drp, dx4p = differential_map(p, e, dri, dxi)
        scalar.append((conformal_factor(p, e), out.r, out.x4, drp, dx4p))
    g, rp, x4p, drp, dx4p = zip(*scalar)
    assert same_bits(conformal_factor_array(b, r, x4), g)
    assert same_bits(np.ravel(transform_finite_array(b, r, x4)), rp + x4p)
    assert same_bits(np.ravel(differential_map_array(b, r, x4, dr, dx4)), drp + dx4p)


def test_transform_finite_array_returns_arrays_for_0d_input():
    out = transform_finite_array(0.1, 1.0, 2.0)
    assert [(type(a), a.shape) for a in out] == [(np.ndarray, ())] * 2
    e = transform_finite(GroupParameter(0.1), Event(r=1.0, x4=2.0))
    assert same_bits(np.ravel(out), [e.r, e.x4])


def signed_magnitudes():
    """Floats from subnormal to 1e300 in magnitude, of either sign, and 0.0."""
    exponent = st.one_of(st.integers(-2, 1), st.integers(-310, 300))
    magnitude = st.builds(lambda m, k: m * 10.0**k, st.floats(0.0, 10.0), exponent)
    return st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())


def refusable_batches():
    """Lists of (beta4, r, x4, dr, dx4) that mix admissible cases with ones
    that a scalar kernel refuses: a non-finite or negative input, an event
    on or past a singular surface, or a term that overflows."""
    edge = st.sampled_from((0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 1.2e154, 1e300))
    value = st.one_of(edge, st.floats(-3.0, 3.0), signed_magnitudes())
    wild = st.tuples(value, value, value, value, value)
    return st.lists(st.one_of(admissible_batches().map(lambda b: b[0]), wild),
                    min_size=1, max_size=8)


def scalar_kernel_loop(kernel, batch):
    """The outputs of kernel(GroupParameter(b), Event(r, x4), *rest) over
    the batch, as the array kernel's outputs ravel."""
    outs = [kernel(GroupParameter(b), Event(r=r, x4=x4), *rest) for b, r, x4, *rest in batch]
    if outs and isinstance(outs[0], Event):
        outs = [(e.r, e.x4) for e in outs]
    return np.array(outs, dtype=float).T


@given(refusable_batches())
def test_array_kernels_return_or_raise_as_a_scalar_loop_does(batch):
    # pytest turns a numpy RuntimeWarning into an error, so none is emitted
    b, r, x4, dr, dx4 = (np.array(col) for col in zip(*batch))
    pairs = [
        (lambda: conformal_factor_array(b, r, x4), conformal_factor, 3),
        (lambda: transform_finite_array(b, r, x4), transform_finite, 3),
        (lambda: differential_map_array(b, r, x4, dr, dx4), differential_map, 5),
    ]
    for array_call, kernel, width in pairs:
        cases = [case[:width] for case in batch]
        expected = returned_or_raised(lambda: np.ravel(scalar_kernel_loop(kernel, cases)))
        assert returned_or_raised(lambda: np.ravel(array_call())) == expected


def signed_doubles():
    """Signed log-uniform magnitudes over the whole double range, from the
    smallest subnormal to the largest double, and 0.0."""
    magnitude = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023))
    return st.builds(lambda m, negative: -m if negative else m,
                     st.one_of(st.just(0.0), magnitude), st.booleans())


def group_parameters():
    """beta4 from signed_doubles, and c light speed or any c whose square is a normal float."""
    c = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-510, 510))
    return st.builds(GroupParameter, signed_doubles(), st.one_of(st.just(SPEED_OF_LIGHT), c))


def assert_finite_or_refused(call):
    """call() returns only finite floats or raises ConfdopError, and nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except ConfdopError:
            return
    assert np.isfinite(out).all(), out


@given(group_parameters(), signed_doubles(), signed_doubles())
def test_hill_transform_is_finite_or_refused(p, r, t):
    # np.float64 arguments are mapped as their floats, with no numpy warning
    calls = [lambda: hill_transform(p, r, t), lambda: hill_transform(p, np.float64(r), np.float64(t))]
    for call in calls:
        assert_finite_or_refused(call)
    assert returned_or_raised(calls[0]) == returned_or_raised(calls[1])


@given(group_parameters(), *[signed_doubles()] * 4)
def test_hill_differentials_are_finite_or_refused(p, r, t, dr, dt):
    assert_finite_or_refused(lambda: hill_differentials(p, r, t, dr, dt))


@given(group_parameters(), signed_doubles(), signed_doubles())
def test_hill_velocity_is_finite_or_refused(p, r, v):
    assert_finite_or_refused(lambda: hill_velocity(p, r, v))


# The inbound-ray and wavelength maps take a sample on the past cone, so
# each is called at the drawn (r', t') and at (|r'|, -|t'|)

@given(group_parameters(), signed_doubles(), signed_doubles())
def test_inbound_ray_coords_are_finite_or_refused(p, rp, tp):
    for args in ((rp, tp), (abs(rp), -abs(tp))):
        assert_finite_or_refused(lambda: inbound_ray_coords(p, *args))


@given(group_parameters(), *[signed_doubles()] * 4)
def test_inbound_ray_differentials_are_finite_or_refused(p, rp, tp, drp, dtp):
    for args in ((rp, tp), (abs(rp), -abs(tp))):
        assert_finite_or_refused(lambda: inbound_ray_differentials(p, *args, drp, dtp))


@given(group_parameters(), *[signed_doubles()] * 3)
def test_wavelength_map_is_finite_or_refused(p, lam, rp, tp):
    for args in ((rp, tp), (abs(rp), -abs(tp))):
        assert_finite_or_refused(lambda: wavelength_map(p, lam, *args))


def oracle_batches():
    """Lists of (beta4, r, x4), each case either scaled as in
    admissible_batches or unscaled, with beta4 = 0 and r = 0 drawn on
    purpose.  Unscaled cases reach magnitudes from subnormal to 1e200, so
    a batch may diverge, overflow to NaN or, in a few coarse steps near
    unit scale, step r below 0.  Up to 10 distinct cases are repeated to a
    count on either side of the one from which flow_oracle_array makes an
    array pass by default; drawing every case would cost far more."""
    beta = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    radius = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    admissible = st.tuples(beta, radius, st.floats(-1e3, 1e3)).map(
        lambda c: (c[0] * 0.9 / max(c[1] + abs(c[2]), 1.0),) + c[1:]
    )
    exponent = st.one_of(st.integers(-2, 1), st.integers(-310, 200))
    magnitude = st.builds(lambda m, k: m * 10.0**k, st.floats(0.0, 10.0), exponent)
    signed = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    unscaled = st.one_of(
        st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0), st.floats(-3.0, 3.0)),
        st.tuples(st.one_of(st.just(0.0), signed), st.one_of(st.just(0.0), magnitude), signed),
    )
    case = st.one_of(admissible, unscaled)
    n = FLOW_ARRAY_MIN_ELEMENTS
    count = st.one_of(st.integers(1, n - 1), st.integers(n, 2 * n))
    return st.tuples(st.lists(case, min_size=1, max_size=10), count).map(
        lambda d: [d[0][i % len(d[0])] for i in range(d[1])]
    )


def returned_or_raised(call):
    """('bits', the int64 bits of the result) or (the exception's type, its message)."""
    try:
        out = call()
    except ConfdopError as exc:
        return type(exc), str(exc)
    return "bits", np.array(out, dtype=float).view(np.int64).tolist()


def scalar_loop(b, r, x4, steps):
    flows = [flow_oracle(GroupParameter(bi), Event(r=ri, x4=xi), steps=steps)
             for bi, ri, xi in zip(b, r, x4)]
    return [e.r for e in flows] + [e.x4 for e in flows]


@given(oracle_batches(), st.one_of(st.integers(1, 3), st.integers(1, 40)))
def test_flow_oracle_array_equals_scalar_calls_bit_for_bit(batch, steps):
    b, r, x4 = (np.array(col) for col in zip(*batch))
    expected = returned_or_raised(lambda: scalar_loop(*zip(*batch), steps))
    assert returned_or_raised(lambda: np.ravel(flow_oracle_array(b, r, x4, steps))) == expected


def stays_normal(v):
    """True where v is zero or a normal float, the range in which halving
    and doubling v are exact."""
    return v == 0.0 or sys.float_info.min <= abs(v) <= sys.float_info.max


def full_slope_flow_oracle(p, e, steps, scaled=None):
    """flow_oracle as written before it took half-slopes: every stage's r
    slope is 2.0*x4*r, stepped by h/2, h and h.  The reference that the
    half-slope loop must equal bit for bit wherever the values it halves
    or doubles are normal floats or zero.  If a list is given as scaled,
    the loop appends each of those values to it: h/2, 2h, every
    half-slope, the half of their sums and of their update sum."""
    if p.beta4 == 0.0:
        return Event(r=e.r, x4=e.x4)
    h = p.beta4 / steps
    half_h = 0.5 * h
    if scaled is not None:
        scaled += [half_h, 2.0 * h]
    r = e.r
    x = e.x4
    for _ in range(steps):
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
        sum_r = k1r + 2.0 * (k2r + k3r) + k4r
        if scaled is not None:
            scaled += [0.5 * k for k in (k1r, k2r, k3r, k4r, k2r + k3r, sum_r)]
        r = r + h * sum_r / 6.0
        x = x + h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0
        if not abs(r) + abs(x) <= FLOW_DIVERGENCE_BOUND:
            raise StepDivergence(
                f"flow state exceeded bound {FLOW_DIVERGENCE_BOUND:g} (r={r:g}, x4={x:g})"
            )
    return Event(r=r, x4=x)


@given(
    st.one_of(
        # (beta4, r, x4) as the oracle suite draws them, and unit-scale
        # cases that may diverge or step r below 0
        st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 2.0), st.floats(-2.0, 2.0)).map(
            lambda c: (c[0] * 0.3 / (c[1] + abs(c[2])), c[1], c[2])
        ),
        st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0), st.floats(-3.0, 3.0)),
    ),
    st.one_of(st.integers(1, 40), st.just(confdop.checks.ORACLE_STEPS)),
)
def test_half_slope_flow_oracle_equals_the_full_slope_loop(case, steps):
    # the bits may differ only where a value that the half-slope loop
    # halves or doubles leaves the normal range, as for a subnormal r
    p, e = GroupParameter(case[0]), Event(r=case[1], x4=case[2])
    scaled = []

    def flowed(oracle, **kw):
        def call():
            out = oracle(p, e, steps, **kw)
            return out.r, out.x4

        return returned_or_raised(call)

    half = flowed(flow_oracle)
    full = flowed(full_slope_flow_oracle, scaled=scaled)
    assert half == full or not all(map(stays_normal, scaled))


def test_half_slope_flow_oracle_may_differ_only_off_the_normal_range():
    # r subnormal: x4*r rounds on the subnormal grid, so its double is not
    # 2.0*x4*r; x4 never sees r (r*r underflows to 0) and keeps its bits
    p, e = GroupParameter(-0.14159819227548942), Event(r=2.2250738585e-313, x4=-2.348363157853549)
    scaled = []
    half = flow_oracle(p, e, confdop.checks.ORACLE_STEPS)
    full = full_slope_flow_oracle(p, e, confdop.checks.ORACLE_STEPS, scaled)
    assert not all(map(stays_normal, scaled))
    assert half.r != full.r and abs(half.r - full.r) < 1e-320
    assert half.x4 == full.x4


def test_oracle_warns_of_nothing():
    # pytest makes only RuntimeWarning an error; numpy 2.4 warns of a
    # positional out of np.maximum with a DeprecationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_suite("oracle", None, 0, None).passed
        flow_oracle(GroupParameter(0.1), Event(r=0.5, x4=1.0), steps=100)


def test_flow_oracle_array_equals_scalar_calls_at_the_suites_step_count():
    # five cases drawn as the oracle suite draws them, over all ORACLE_STEPS
    rng = confdop.checks._rng(3)
    u_r, u_x4, u_b = confdop.checks._draws(rng, 5, 3)
    r, x4 = confdop.checks._sample_events(u_r, u_x4)
    b = confdop.checks._scaled_beta(u_b, r, x4, 0.3)
    steps = confdop.checks.ORACLE_STEPS
    flows = [flow_oracle(GroupParameter(bi), Event(r=ri, x4=xi), steps=steps)
             for bi, ri, xi in zip(b.tolist(), r.tolist(), x4.tolist())]
    expected = [e.r for e in flows] + [e.x4 for e in flows]
    assert same_bits(np.ravel(flow_oracle_array(b, r, x4, steps)), expected)


def test_flow_oracle_array_with_no_moving_element_returns_the_input_bits():
    r, x4 = np.array([0.0, 1.5, 2.0]), np.array([-0.0, 0.0, -3.0])
    out = flow_oracle_array([0.0, -0.0, 0.0], r, x4, 5000)
    assert same_bits(np.ravel(out), np.concatenate((r, x4)))
    assert same_bits(np.ravel(flow_oracle_array(0.0, 0.0, -0.0, 1)), [0.0, -0.0])


@pytest.mark.parametrize("beta4", [[0.1, -0.2, 0.05], [0.0, 0.0, -0.0], [0.1, 0.0, -0.2]])
def test_flow_oracle_array_never_writes_the_callers_arrays(beta4):
    arrays = [np.array(beta4), np.array([0.5, 1.0, 0.0]), np.array([0.3, -0.7, 1.1])]
    before = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False  # a write through out= would raise
    out = flow_oracle_array(*arrays, 50)
    assert all(same_bits(a, a0) for a, a0 in zip(arrays, before))
    assert not any(np.shares_memory(o, a) for o in out for a in arrays)


def test_flow_oracle_array_divergence_raises_without_warning():
    # the trajectory from (1, 2) hits the singular surface near tau = 1/3 of 0.4
    steps = 2000
    with pytest.raises(StepDivergence) as scalar:
        flow_oracle(GroupParameter(0.4), Event(r=1.0, x4=2.0), steps=steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepDivergence) as array:
            flow_oracle_array([0.1, 0.4], [0.5, 1.0], [0.3, 2.0], steps)
    assert str(array.value) == str(scalar.value)


def test_flow_oracle_array_raises_for_the_lowest_failing_index():
    steps = 2000
    # beta4 = 0.8 doubles the step, so case 1 crosses the bound in fewer
    # steps than case 0; case 0 is reported all the same, as a loop of
    # scalar calls reports it
    with pytest.raises(StepDivergence) as scalar:
        flow_oracle(GroupParameter(0.4), Event(r=1.0, x4=2.0), steps=steps)
    with pytest.raises(StepDivergence) as array:
        flow_oracle_array([0.4, 0.8], 1.0, 2.0, steps)
    assert str(array.value) == str(scalar.value)
    # both cases cross at step 1667, with different states; case 0 is reported
    with pytest.raises(StepDivergence) as scalar:
        flow_oracle(GroupParameter(0.4), Event(r=1.0, x4=2.000001), steps=steps)
    with pytest.raises(StepDivergence) as array:
        flow_oracle_array(0.4, 1.0, [2.000001, 2.0], steps)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize(
    "beta4, r, x4, steps",
    [(1e-30, 1.0, 2e12, 10), (2e-12, 1.0, 4e11, 1)],
    ids=["starts_past_the_bound", "crosses_only_at_the_last_step"],
)
def test_flow_oracle_array_raises_at_the_first_and_at_the_last_step(beta4, r, x4, steps):
    # the first case raises at step 1; the second starts under half the
    # bound, so only the test of the final state sees it cross
    with pytest.raises(StepDivergence) as scalar:
        flow_oracle(GroupParameter(beta4), Event(r=r, x4=x4), steps=steps)
    with pytest.raises(StepDivergence) as array:
        flow_oracle_array([0.1, beta4], [0.5, r], [0.3, x4], steps)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize(
    "beta4, r, x4",
    [([0.0, 0.4], [-1.0, 1.0], [0.0, 2.0]), ([0.4, 0.0], [1.0, 1.0], [2.0, np.inf])],
    ids=["refused_input_first", "divergence_first"],
)
def test_flow_oracle_array_raises_for_the_lowest_index_whatever_the_cause(beta4, r, x4):
    # an input Event refuses counts where beta4 = 0 too, though nothing moves
    with pytest.raises(ConfdopError) as scalar:
        scalar_loop(beta4, r, x4, 2000)
    with pytest.raises(ConfdopError) as array:
        flow_oracle_array(beta4, r, x4, 2000)
    assert (type(array.value), str(array.value)) == (type(scalar.value), str(scalar.value))


@pytest.mark.parametrize(
    "beta4, r, x4",
    [(1.0, 0.0, 1e200), (1e-310, 0.0, 1e160)],
    ids=["overflows", "overflows_from_a_subnormal_step"],
)
def test_flow_oracle_array_raises_for_a_nan_state(beta4, r, x4):
    # x4*x4 overflows and 2*x4*r = inf*0, so one step leaves a NaN state,
    # which fails the bound test
    with pytest.raises(StepDivergence, match=r"\(r=nan, x4=nan\)") as scalar:
        flow_oracle(GroupParameter(beta4), Event(r=r, x4=x4), steps=1)
    with pytest.raises(StepDivergence) as array:
        flow_oracle_array(beta4, r, x4, 1)
    assert str(array.value) == str(scalar.value)


def test_flow_oracle_array_refuses_a_step_to_negative_r():
    # one coarse step from (1, -1) with beta4 = 2 overshoots r = 0, a
    # final state that Event refuses
    with pytest.raises(ConfdopError) as scalar:
        flow_oracle(GroupParameter(2.0), Event(r=1.0, x4=-1.0), steps=1)
    with pytest.raises(ConfdopError) as array:
        flow_oracle_array([0.1, 2.0], [0.5, 1.0], [0.3, -1.0], 1)
    assert str(array.value) == str(scalar.value) == "r must be >= 0, got -8.333333333333334"
    assert type(array.value) is type(scalar.value) is ConfdopError


@pytest.fixture
def step_passes(monkeypatch):
    """Every array pass flow_oracle_array makes, as ("array", elements),
    and every element it runs again, as ("scalar", beta4, r, x4), in order."""
    passes = []
    run, scalar = confdop.conformal_array._rk4_array_steps, confdop.conformal_array.flow_oracle

    def array_spy(y0, h, steps):
        passes.append(("array", y0.shape[1]))
        return run(y0, h, steps)

    def scalar_spy(p, e, steps):
        passes.append(("scalar", p.beta4, e.r, e.x4))
        return scalar(p, e, steps)

    monkeypatch.setattr(confdop.conformal_array, "_rk4_array_steps", array_spy)
    monkeypatch.setattr(confdop.conformal_array, "flow_oracle", scalar_spy)
    return passes


def test_flow_oracle_array_past_half_the_bound_reruns_only_that_element(step_passes):
    # from x4 = 4e11 the flow passes half of FLOW_DIVERGENCE_BOUND, ending
    # near 6.7e11, and never crosses it
    b, r, x4 = [0.1, 1e-12], [0.5, 1.0], [0.3, 4e11]
    assert same_bits(np.ravel(flow_oracle_array(b, r, x4, 100)), scalar_loop(b, r, x4, 100))
    assert step_passes == [("array", 2), ("scalar", 1e-12, 1.0, 4e11)]


@pytest.mark.parametrize("offset", [-1, 0], ids=["one_below", "at"])
def test_flow_oracle_array_loops_below_its_threshold_and_passes_from_it(
        monkeypatch, step_passes, offset):
    # the default threshold, in place of the module fixture's 1
    monkeypatch.setattr(confdop.conformal_array, "_FLOW_ARRAY_MIN_ELEMENTS", FLOW_ARRAY_MIN_ELEMENTS)
    n = FLOW_ARRAY_MIN_ELEMENTS + offset
    rng = confdop.checks._rng(5)
    u_r, u_x4, u_b = confdop.checks._draws(rng, n, 3)
    r, x4 = confdop.checks._sample_events(u_r, u_x4)
    b = confdop.checks._scaled_beta(u_b, r, x4, 0.3)
    out = flow_oracle_array(b, r, x4, 50)
    expected = scalar_loop(b.tolist(), r.tolist(), x4.tolist(), 50)
    assert same_bits(np.ravel(out), expected)
    if offset < 0:
        assert step_passes == [("scalar", *case) for case in zip(b, r, x4)]
    else:
        assert step_passes == [("array", n)]


def test_default_oracle_suite_makes_one_unchecked_pass(step_passes):
    assert run_oracle_suite(confdop.checks.DEFAULT_CASES["oracle"], 1e-9, 0).passed
    assert step_passes == [("array", confdop.checks.DEFAULT_CASES["oracle"])]


def test_flow_oracle_array_refuses_bad_inputs():
    with pytest.raises(ValueError, match="steps must be >= 1"):
        flow_oracle_array([0.1], [1.0], [0.0], 0)
    with pytest.raises(ValueError, match="r must be >= 0"):
        flow_oracle_array([0.1], [-1.0], [0.0], 10)
    with pytest.raises(ValueError, match="beta4 must be finite"):
        flow_oracle_array([np.nan], [1.0], [0.0], 10)


def test_default_oracle_suite_runs_no_scalar_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar kernel called")

    monkeypatch.setattr(confdop.conformal_array, "flow_oracle", refuse)
    assert run_oracle_suite(confdop.checks.DEFAULT_CASES["oracle"], 1e-9, 0).passed
