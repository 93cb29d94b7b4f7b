"""Tests for the weighted least-squares rate estimator.

Statistical expectations (coverage, bootstrap agreement, detection
behaviour) were frozen from a 100-seed Monte Carlo study run against the
simulator before these tests were written.
"""

import dataclasses

import numpy as np
import pytest

from confdop import (
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
        # the resample-and-refit loop of the row-based version, as the reference
        table = simulate(pioneer_like_cfg(6, n_obs=300))
        estimates = []
        for i in range(120):
            rng = np.random.Generator(np.random.Philox(key=11, counter=i << 64))
            idx = rng.integers(0, len(table), size=len(table))
            fields = dataclasses.fields(table)
            resample = TrackingTable(*(getattr(table, f.name)[idx] for f in fields))
            estimates.append(fit_alpha(resample).alpha_hat)
        assert bootstrap_alpha(table, 120, seed=11) == float(np.std(estimates, ddof=1))

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


def test_fit_result_json_keys():
    fit = fit_alpha(simulate(pioneer_like_cfg(0, n_obs=100)))
    doc = fit.to_dict()
    assert set(doc) == {
        "alpha_hat", "alpha_stderr", "chi2", "dof", "z_score_alpha_zero", "n_used",
    }
