"""Tests for the weighted least-squares rate estimator.

Statistical expectations (coverage, bootstrap agreement, detection
behaviour) were frozen from a 100-seed Monte Carlo study run against the
simulator before these tests were written.
"""

import dataclasses
import re

import numpy as np
import pytest

from confdop import (
    ConfdopError,
    DegenerateDesign,
    MetricDecision,
    SimConfig,
    TrackingTable,
    ZeroSigma,
    bootstrap_alpha,
    decide_metric,
    fit_alpha,
    simulate,
)
from confdop.constants import ASTRONOMICAL_UNIT, SPEED_OF_LIGHT
from confdop.estimator import _resample_indices

C = SPEED_OF_LIGHT


def pioneer_like_cfg(seed, n_obs=2000, alpha_true=2.19e-18, sigma_frac=1e-12):
    # outbound coast spanning 20 to 70 au
    v = 12200.0
    return SimConfig(
        r0=20.0 * ASTRONOMICAL_UNIT,
        v_radial=v,
        t_start=0.0,
        t_end=50.0 * ASTRONOMICAL_UNIT / v,
        n_obs=n_obs,
        alpha_true=alpha_true,
        sigma_frac=sigma_frac,
        sigma_range=0.0,
        seed=seed,
    )


def exact_recovery_cfg(alpha_true):
    # the radial rate is tiny (and a dyadic multiple of c) so that the
    # cancellation in y = c*frac - rate stays far below 1e-12 relative
    return SimConfig(
        r0=4.5e12,
        v_radial=C * 2**-40,
        t_start=0.0,
        t_end=1e12,
        n_obs=200,
        alpha_true=alpha_true,
        sigma_frac=0.0,
        sigma_range=0.0,
        seed=1,
    )


def make_table(r, rate, frac, sigma):
    return TrackingTable(
        epoch=np.arange(len(r), dtype=float),
        range_true=r,
        range_rate_true=rate,
        range_meas=r,
        doppler_frac_meas=frac,
        sigma_frac=sigma,
    )


def head(table, n):
    """The first n rows of a table."""
    return TrackingTable(*(getattr(table, f.name)[:n] for f in dataclasses.fields(table)))


def reference_fit(table, c=C):
    """alpha_hat, stderr and chi2 by a per-record loop over the same formulas."""
    swr2 = swry = 0.0
    terms = []
    for i in range(len(table)):
        r = float(table.range_true[i])
        y = c * float(table.doppler_frac_meas[i]) - float(table.range_rate_true[i])
        var = (c * float(table.sigma_frac[i])) ** 2
        terms.append((r, y, 1.0 / var))
        swr2 += r * r / var
        swry += r * y / var
    alpha_hat = swry / swr2
    chi2 = sum(w * (y - alpha_hat * r) ** 2 for r, y, w in terms)
    return alpha_hat, swr2**-0.5, chi2


@np.errstate(over="ignore", invalid="ignore")
def expression_fit(table, c=C):
    """alpha_hat, stderr and chi2 by the plain array expressions, each step
    a new array; the fit builds the same terms in place, with these bits."""
    r = table.range_true
    w = 1.0 / (c * table.sigma_frac) ** 2
    y = c * table.doppler_frac_meas - table.range_rate_true
    wr = w * r
    swr2 = float(np.sum(wr * r))
    alpha_hat = float(np.sum(wr * y)) / swr2
    resid = y - alpha_hat * r
    return alpha_hat, swr2**-0.5, float(np.sum(w * resid * resid))


def edge_values_table(kernel_edges):
    """The CSV kernel's finite edge values as Doppler data and range rates,
    at ranges and sigmas where sum(w r^2) is finite: subnormals, +-0.0,
    +-1e+-250, powers of ten and their neighbours.  c * 1.8e308 overflows
    y, so the two largest magnitudes are left out."""
    x = np.array([v for v in kernel_edges if abs(v) < 1e300])
    r = np.linspace(1e12, 1e13, x.size)
    sigma = np.geomspace(1e-14, 1e-10, x.size)
    return make_table(r, x, np.roll(x, 1), sigma)


class TestFitAlpha:
    def test_noiseless_zero_alpha_is_exact(self):
        # dyadic rate: (v/c)*c round-trips exactly, so every residual is 0.0
        cfg = SimConfig(
            r0=4.5e12,
            v_radial=C * 2**-13,
            t_start=0.0,
            t_end=1e8,
            n_obs=50,
            alpha_true=0.0,
            sigma_frac=0.0,
            sigma_range=0.0,
            seed=1,
        )
        fit = fit_alpha(simulate(cfg))
        assert fit.alpha_hat == 0.0
        assert fit.z_score_alpha_zero == 0.0
        assert fit.n_used == 50
        assert fit.dof == 49

    def test_noiseless_recovery_at_hubble_rate(self):
        cfg = exact_recovery_cfg(2.19e-18)
        fit = fit_alpha(simulate(cfg))
        assert fit.alpha_hat == pytest.approx(2.19e-18, rel=1e-12)

    def test_coverage_over_seeds(self):
        # quick slice of the frozen 100-seed study (full run in acceptance)
        hits = 0
        for seed in range(10):
            cfg = pioneer_like_cfg(seed)
            fit = fit_alpha(simulate(cfg))
            if abs(fit.alpha_hat - cfg.alpha_true) < 3.0 * fit.alpha_stderr:
                hits += 1
        assert hits >= 9

    def test_stderr_positive_and_dof(self):
        fit = fit_alpha(simulate(pioneer_like_cfg(0)))
        assert fit.alpha_stderr > 0.0
        assert fit.dof == fit.n_used - 1

    def test_scale_equivariance(self):
        # multiplying every sigma by a power of two scales stderr exactly
        # and leaves alpha_hat bit-identical
        table = simulate(pioneer_like_cfg(4))
        k = 4.0
        scaled = dataclasses.replace(table, sigma_frac=k * table.sigma_frac)
        fit = fit_alpha(table)
        fit_k = fit_alpha(scaled)
        assert fit_k.alpha_hat == fit.alpha_hat
        assert fit_k.alpha_stderr == k * fit.alpha_stderr

    def test_chi2_scale(self):
        fit = fit_alpha(simulate(pioneer_like_cfg(8, n_obs=5000)))
        assert fit.chi2 / fit.dof == pytest.approx(1.0, rel=0.1)

    def test_agrees_with_per_record_loop(self):
        # the loop sums in another order, so agreement is to a few ulp
        table = simulate(pioneer_like_cfg(2, n_obs=500))
        fit = fit_alpha(table)
        alpha_hat, stderr, chi2 = reference_fit(table)
        assert fit.alpha_hat == pytest.approx(alpha_hat, rel=1e-12)
        assert fit.alpha_stderr == pytest.approx(stderr, rel=1e-12)
        assert fit.chi2 == pytest.approx(chi2, rel=1e-9)

    # on this simulated table chi2 summed as w*(resid*resid) differs in its last bit
    @pytest.mark.parametrize("make", [
        lambda edges: simulate(pioneer_like_cfg(4, n_obs=5000)),
        edge_values_table,
    ], ids=["simulated", "edge-values"])
    def test_in_place_terms_keep_the_expressions_bits(self, make, kernel_edges):
        table = make(kernel_edges)
        fit = fit_alpha(table)
        got = np.array([fit.alpha_hat, fit.alpha_stderr, fit.chi2])
        want = np.array(expression_fit(table))
        assert np.isfinite(got[:2]).all()
        assert got.tobytes() == want.tobytes()

    def test_too_few_records(self):
        table = head(simulate(pioneer_like_cfg(0)), 1)
        with pytest.raises(DegenerateDesign):
            fit_alpha(table)

    def test_equal_ranges_rejected(self):
        cfg = SimConfig(
            r0=4.5e12, v_radial=0.0, t_start=0.0, t_end=100.0, n_obs=10,
            alpha_true=0.0, sigma_frac=0.0, sigma_range=0.0, seed=0,
        )
        with pytest.raises(DegenerateDesign):
            fit_alpha(simulate(cfg))

    @pytest.mark.parametrize(
        "r0, cause", [(1e200, "overflows"), (1e-200, "underflows to 0")]
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_out_of_range_sum_wr2_rejected(self, r0, cause):
        # stderr = sum(w r^2)^(-1/2) would be 0 or inf, and alpha_hat/stderr undefined
        match = f"sum\\(w\\*r\\^2\\) {cause}"
        r = np.array([r0, 2 * r0])
        table = make_table(r, np.zeros(2), np.array([1e-12, 2e-12]), np.full(2, 1e-12))
        with pytest.raises(DegenerateDesign, match=match):
            fit_alpha(table)
        # each bootstrap resample runs the same check
        r = r0 * np.arange(1.0, 11.0)
        table = make_table(r, np.zeros(10), 1e-12 * np.arange(1.0, 11.0), np.full(10, 1e-12))
        with pytest.raises(DegenerateDesign, match=match):
            bootstrap_alpha(table, 100, seed=0)

    def test_mixed_zero_sigma_rejected(self):
        r = np.linspace(1e12, 2e12, 10)
        rate = np.zeros(10)
        frac = 1e-18 * r / C
        sigma = np.full(10, 1e-12)
        sigma[3] = 0.0
        with pytest.raises(ZeroSigma):
            fit_alpha(make_table(r, rate, frac, sigma))

    def test_negative_sigma_rejected(self):
        r = np.linspace(1e12, 2e12, 10)
        with pytest.raises(ZeroSigma):
            fit_alpha(make_table(r, np.zeros(10), np.zeros(10), np.full(10, -1.0)))

    @pytest.mark.parametrize("c, message", [
        (1e-300, "c must square to a normal float"),
        (1e155, "c must square to a normal float"),
        (-1.0, "c must be positive"),
        (float("inf"), "c must be finite"),
    ])
    def test_c_checked_as_group_parameter_checks_it(self, c, message):
        # with c = 1e-300, (c*sigma_frac)**2 underflowed to the unit-weight fallback
        table = simulate(pioneer_like_cfg(0, n_obs=100))
        with pytest.raises(ValueError, match=f"^{message}"):
            fit_alpha(table, c=c)


def refit_each_resample(table, n_resamples, seed):
    """The resample-and-refit loop of the row-based version, as the
    reference: a fresh generator per resample, and fit_alpha on each."""
    estimates = []
    for i in range(n_resamples):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        idx = rng.integers(0, len(table), size=len(table))
        fields = dataclasses.fields(table)
        resample = TrackingTable(*(getattr(table, f.name)[idx] for f in fields))
        estimates.append(fit_alpha(resample).alpha_hat)
    return float(np.std(estimates, ddof=1))


def lemire_rejections(n, i, seed):
    """How many 32-bit halves integers(0, n, size=n) of a fresh
    Generator(Philox(key=seed, counter=i << 64)) rejects: those whose low
    32 bits of u*n lie below (2**32 - n) % n, up to the n-th half kept.
    The halves are split from the raw words by mask and shift."""
    words = np.random.Philox(key=seed, counter=i << 64).random_raw(n // 2 + 64)
    halves = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()
    rejected = (halves * n) & 0xFFFFFFFF < (2**32 - n) % n
    kept = np.cumsum(~rejected)
    assert kept[-1] >= n
    return int(np.count_nonzero(rejected[: np.searchsorted(kept, n) + 1]))


class TestBootstrap:
    def test_noiseless_data_gives_zero_spread(self):
        table = simulate(exact_recovery_cfg(2.19e-18))
        assert bootstrap_alpha(table, 200, seed=7) < 1e-30

    def test_matches_analytic_for_gaussian_noise(self):
        table = simulate(pioneer_like_cfg(5))
        fit = fit_alpha(table)
        boot = bootstrap_alpha(table, 300, seed=42)
        assert boot == pytest.approx(fit.alpha_stderr, rel=0.20)

    def test_deterministic_given_seed(self):
        table = simulate(pioneer_like_cfg(6, n_obs=500))
        assert bootstrap_alpha(table, 150, seed=11) == bootstrap_alpha(table, 150, seed=11)

    def test_equals_refit_of_each_resample(self):
        table = simulate(pioneer_like_cfg(6, n_obs=300))
        assert bootstrap_alpha(table, 120, seed=11) == refit_each_resample(table, 120, seed=11)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
    def test_equals_refit_of_each_resample_at_wide_seeds(self, seed):
        # an odd record count: each resample draws an odd number of 32-bit halves
        table = simulate(pioneer_like_cfg(6, n_obs=301))
        assert bootstrap_alpha(table, 100, seed=seed) == refit_each_resample(table, 100, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
    @pytest.mark.parametrize("n", [7, 300, 301])
    def test_reused_generator_draws_the_fresh_generators_indices(self, seed, n):
        # a spare 32-bit half or buffered word carried into the next draw would show at odd n
        for i, idx in enumerate(_resample_indices(n, 40, seed)):
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
            assert np.array_equal(idx, fresh.integers(0, n, size=n)), i

    @pytest.mark.parametrize("n, n_resamples, seed, taken", [
        # a few of 200 resamples reject a half
        (10_000, 200, 0, lambda rejections: 0 < np.count_nonzero(rejections) < 200),
        # every resample rejects 10 halves or more
        (300_000, 4, 5, lambda rejections: min(rejections) >= 10),
        # odd n: one rejection takes the spare half, two draw one word more
        (59_851, 20, 3, lambda rejections: {0, 1, 2} <= set(rejections)),
    ])
    def test_rejected_halves_are_redrawn_as_numpy_redraws_them(self, n, n_resamples, seed, taken):
        rejections = []
        for i, idx in enumerate(_resample_indices(n, n_resamples, seed)):
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
            assert np.array_equal(idx, fresh.integers(0, n, size=n)), i
            rejections.append(lemire_rejections(n, i, seed))
        assert taken(rejections), rejections

    def test_rejects_more_records_than_the_32_bit_draw_serves(self):
        # zero-stride columns: tables of 2**32 and 2**32 + 1 rows that allocate
        # nothing; c = -1 is refused before any term of the fit is computed
        def table(n):
            return TrackingTable(*[np.broadcast_to(1.0, n)] * 6)

        with pytest.raises(
            ConfdopError,
            match=r"^a bootstrap takes at most 2\*\*32 records, .* got 4294967297$",
        ):
            bootstrap_alpha(table(2**32 + 1), 100, seed=0, c=-1.0)
        with pytest.raises(ConfdopError, match="^c must be positive"):
            bootstrap_alpha(table(2**32), 100, seed=0, c=-1.0)

    def test_resample_of_one_repeated_range_rejected(self):
        # with 2 records, some of the first 100 resamples repeat one row
        table = head(simulate(pioneer_like_cfg(0)), 2)
        with pytest.raises(DegenerateDesign):
            bootstrap_alpha(table, 100, seed=0)

    def test_underflowing_resample_sum_rejected(self):
        # sum(w*r^2) of every resample underflows to 0
        r = np.array([1e-200, 2e-200, 3e-200])
        table = make_table(r, np.zeros(3), np.zeros(3), np.full(3, 1e-12))
        with pytest.raises(DegenerateDesign, match="sum\\(w\\*r\\^2\\) underflows to 0"):
            bootstrap_alpha(table, 100, seed=0)

    def test_rejects_too_few_resamples(self):
        table = simulate(pioneer_like_cfg(0, n_obs=100))
        with pytest.raises(ValueError):
            bootstrap_alpha(table, 99, seed=0)

    def test_rejects_resamples_numpy_cannot_size(self):
        limit = np.iinfo(np.intp).max // 8
        # a one-record table: the count is refused before the fit's own checks
        table = make_table(np.ones(1), np.zeros(1), np.zeros(1), np.ones(1))
        for n in (limit + 1, 2**62):
            with pytest.raises(ConfdopError, match=f"^n_resamples must be <= {limit}, .* got {n}$"):
                bootstrap_alpha(table, n, seed=0)

    def test_seed_range_is_the_philox_key_range(self):
        table = simulate(pioneer_like_cfg(0, n_obs=100))
        assert bootstrap_alpha(table, 100, seed=2**128 - 1) > 0.0
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match=f"bootstrap seed must be in \\[0, 2\\*\\*128\\), got {seed}"):
                bootstrap_alpha(table, 100, seed=seed)

    @pytest.mark.parametrize("c", [1e-300, -1.0])
    def test_bad_c_rejected(self, c):
        table = simulate(pioneer_like_cfg(0, n_obs=100))
        with pytest.raises(ValueError, match="^c must"):
            bootstrap_alpha(table, 100, seed=0, c=c)


class TestNonFiniteColumns:
    @pytest.mark.parametrize(
        "column", ["range_true", "range_rate_true", "doppler_frac_meas", "sigma_frac"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_fit_and_bootstrap_name_column_and_row(self, column, value):
        # one nan Doppler value used to give alpha_hat = nan, and a nan range
        # the misleading "sum(w*r^2) overflows (nan)"
        r = np.linspace(1e12, 2e12, 5)
        cols = dict(range_true=r, range_rate_true=np.zeros(5),
                    doppler_frac_meas=1e-18 * r / C, sigma_frac=np.full(5, 1e-12))
        cols[column] = cols[column].copy()
        cols[column][3] = value
        table = make_table(*cols.values())
        message = "^" + re.escape(f"{column}: row 3 is not finite ({value})")
        with pytest.raises(ConfdopError, match=message):
            fit_alpha(table)
        with pytest.raises(ConfdopError, match=message):
            bootstrap_alpha(table, 100, seed=0)

    def test_columns_the_fit_does_not_read_may_be_non_finite(self):
        # TrackingTable accepts any float; only the fit's own columns are checked
        table = simulate(pioneer_like_cfg(1, n_obs=100))
        cols = {f.name: getattr(table, f.name) for f in dataclasses.fields(table)}
        cols["epoch"] = np.full(100, np.nan)
        cols["range_meas"] = np.full(100, np.inf)
        assert fit_alpha(TrackingTable(**cols)) == fit_alpha(table)


class TestEqualRangeResample:
    """Policy: a resample whose ranges are all equal ends the bootstrap with
    DegenerateDesign naming it; it is not redrawn, and there is no knob."""

    def test_first_degenerate_resample_is_named(self):
        r = np.array([1e12, 2e12, 3e12])
        table = make_table(r, np.zeros(3), 1e-18 * r / C, np.full(3, 1e-12))
        draws = _resample_indices(3, 100, seed=1)
        first = next(i for i, idx in enumerate(draws) if idx.min() == idx.max())
        assert first == 29  # resamples 0-28 can be fitted; 29 is refused, not redrawn
        with pytest.raises(
            DegenerateDesign,
            match="^resample 29 of 3 records has all ranges equal; alpha is not identifiable$",
        ):
            bootstrap_alpha(table, 100, seed=1)

    @staticmethod
    def repeated_ranges_table():
        """Ten records at two ranges, five each, with noisy Doppler data."""
        r = np.repeat([1e12, 2e12], 5)
        noise = np.random.default_rng(0).normal(0.0, 1e-12, 10)
        return make_table(r, np.zeros(10), 1e-18 * r / C + noise, np.full(10, 1e-12))

    def test_resample_with_equal_first_ranges_is_refitted(self):
        # about half of these resamples start with two equal ranges from two
        # different rows, and none of the first 100 has all ranges equal
        table = self.repeated_ranges_table()
        r = table.range_true
        draws = list(_resample_indices(10, 100, seed=0))
        assert sum(r[idx[0]] == r[idx[1]] and idx[0] != idx[1] for idx in draws) > 20
        assert all(np.ptp(r[idx]) > 0.0 for idx in draws)
        assert bootstrap_alpha(table, 100, seed=0) == refit_each_resample(table, 100, 0)

    def test_degenerate_resample_of_repeated_ranges_is_named(self):
        table = self.repeated_ranges_table()
        r = table.range_true
        draws = _resample_indices(10, 100, seed=3)
        first, idx = next((i, idx) for i, idx in enumerate(draws) if np.ptp(r[idx]) == 0.0)
        assert first == 96 and idx[0] != idx[1]  # equal ranges, not one repeated row
        with pytest.raises(
            DegenerateDesign,
            match="^resample 96 of 10 records has all ranges equal; alpha is not identifiable$",
        ):
            bootstrap_alpha(table, 100, seed=3)


class TestDecideMetric:
    def test_zero_z(self):
        fit = fit_alpha(simulate(exact_recovery_cfg(0.0)))
        assert decide_metric(fit) is MetricDecision.MINKOWSKI_CONSISTENT

    def test_threshold_crossing(self):
        # alpha ~ 5x the Hubble rate yields z around 10 at this noise level
        fit = fit_alpha(simulate(pioneer_like_cfg(3, alpha_true=1e-17)))
        assert abs(fit.z_score_alpha_zero) > 5.0
        assert decide_metric(fit, z_threshold=5.0) is MetricDecision.CONFORMAL_DETECTED

    def test_threshold_is_strict(self):
        from confdop.estimator import FitResult

        fit = FitResult(
            alpha_hat=5e-19, alpha_stderr=1e-19, chi2=0.0, dof=9,
            z_score_alpha_zero=5.0, n_used=10,
        )
        assert decide_metric(fit, z_threshold=5.0) is MetricDecision.MINKOWSKI_CONSISTENT
        assert decide_metric(fit, z_threshold=4.999) is MetricDecision.CONFORMAL_DETECTED

    def test_zero_threshold_accepted(self):
        fit = fit_alpha(simulate(exact_recovery_cfg(0.0)))
        assert decide_metric(fit, z_threshold=0.0) is MetricDecision.MINKOWSKI_CONSISTENT

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0, -0.5e-300])
    def test_bad_threshold_rejected(self, threshold):
        fit = fit_alpha(simulate(exact_recovery_cfg(0.0)))
        with pytest.raises(ValueError, match="z_threshold must be finite and >= 0"):
            decide_metric(fit, z_threshold=threshold)


def test_fit_result_json_keys():
    fit = fit_alpha(simulate(pioneer_like_cfg(0, n_obs=100)))
    doc = fit.to_dict()
    assert set(doc) == {
        "alpha_hat", "alpha_stderr", "chi2", "dof", "z_score_alpha_zero", "n_used",
    }
