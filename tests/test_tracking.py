"""Tests for the tracking simulator: trajectory, table, noise, CSV."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from confdop import (
    ConfigInvalid,
    DegenerateDesign,
    MalformedCsv,
    SimConfig,
    TrackingTable,
    ZeroRange,
    anomaly_residuals,
    bootstrap_alpha,
    fit_alpha,
    read_records_csv,
    sign_comparison_report,
    simulate,
    write_records_csv,
)
from confdop.constants import SPEED_OF_LIGHT
from confdop.tracking import CSV_HEADER

C = SPEED_OF_LIGHT

# v_radial chosen as a dyadic multiple of c so that the frac -> velocity
# round trip (v/c)*c is exact in binary floating point.
DYADIC_RATE = C * 2**-13


def noiseless_cfg(**overrides):
    base = dict(
        r0=4.5e12,
        v_radial=DYADIC_RATE,
        t_start=0.0,
        t_end=1e8,
        n_obs=50,
        alpha_true=0.0,
        sigma_frac=0.0,
        sigma_range=0.0,
        seed=1,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_json_dict_round_trip(self):
        cfg = noiseless_cfg()
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "bad, key",
        [
            (dict(r0=0.0), "r0"),
            (dict(t_end=-1.0), "t_end"),
            (dict(n_obs=1), "n_obs"),
            (dict(sigma_frac=-1e-12), "sigma_frac"),
            (dict(sigma_range=-1.0), "sigma_range"),
            (dict(seed=-5), "seed"),
            (dict(c=0.0), "c"),
            (dict(sigma_frac=math.nan), "sigma_frac"),
            (dict(v_radial=math.inf), "v_radial"),
            (dict(r0=math.nan), "r0"),
            (dict(t_start=-math.inf), "t_start"),
            (dict(alpha_true=math.nan), "alpha_true"),
            (dict(sigma_range=math.inf), "sigma_range"),
            (dict(c=math.inf), "c"),
            (dict(t_start=-1e308, t_end=1e308), "t_end"),
            # the coast crosses r = 0 before t_end
            (dict(r0=1e6, v_radial=-1e4, t_end=1e6), "v_radial"),
            # the coast ends exactly at r = 0
            (dict(r0=1e6, v_radial=-1e4, t_end=100.0), "v_radial"),
            (dict(r0=1e300, v_radial=1e300, t_end=1e10), "v_radial"),
        ],
    )
    def test_invalid_configs_name_the_key(self, bad, key):
        with pytest.raises(ConfigInvalid, match=key):
            noiseless_cfg(**bad)

    def test_unknown_key_rejected(self):
        d = noiseless_cfg().to_dict()
        d["warp_factor"] = 9.0
        with pytest.raises(ConfigInvalid, match="warp_factor"):
            SimConfig.from_dict(d)

    def test_missing_key_rejected(self):
        d = noiseless_cfg().to_dict()
        del d["r0"]
        with pytest.raises(ConfigInvalid, match="r0"):
            SimConfig.from_dict(d)

    def test_nan_from_json_rejected(self):
        d = noiseless_cfg().to_dict()
        d["sigma_frac"] = float("nan")
        with pytest.raises(ConfigInvalid, match="sigma_frac"):
            SimConfig.from_dict(d)

    def test_inbound_coast_that_stays_positive_accepted(self):
        cfg = noiseless_cfg(r0=1e6, v_radial=-1e4, t_end=99.0)
        assert np.all(simulate(cfg).range_true > 0.0)

    def test_integral_float_n_obs_accepted(self):
        d = noiseless_cfg().to_dict()
        d["n_obs"] = 50.0
        assert SimConfig.from_dict(d).n_obs == 50


class TestSimulate:
    def test_noiseless_alpha_zero_doppler_equals_rate_exactly(self):
        table = simulate(noiseless_cfg())
        assert len(table) == 50
        assert np.all(table.doppler_frac_meas * C == table.range_rate_true)

    def test_ranges_match_make_trajectory(self):
        cfg = noiseless_cfg(v_radial=12200.0)
        table = simulate(cfg)
        # the linear coast, written out per epoch
        for epoch, r, rate in zip(table.epoch, table.range_true, table.range_rate_true):
            expected = cfg.r0 + cfg.v_radial * (float(epoch) - cfg.t_start)
            assert (r, rate) == (expected, cfg.v_radial)

    def test_endpoints(self):
        cfg = noiseless_cfg(v_radial=12200.0, t_start=5.0)
        table = simulate(cfg)
        assert (table.epoch[0], table.epoch[-1]) == (cfg.t_start, cfg.t_end)
        assert table.range_true[0] == cfg.r0
        assert table.range_true[-1] == cfg.r0 + cfg.v_radial * (cfg.t_end - cfg.t_start)

    def test_noiseless_residual_velocity_magnitude(self):
        # alpha*r at 4.5e12 m for the Hubble-valued rate
        cfg = noiseless_cfg(alpha_true=2.19e-18, v_radial=0.0, t_end=100.0)
        # v_radial = 0 keeps the range fixed at r0, isolating the alpha term
        table = simulate(cfg)
        res = anomaly_residuals(table, c=C)
        assert res.residual_velocity == pytest.approx(np.full(len(table), 9.855e-6), rel=1e-9)

    def test_same_seed_bit_identical(self, tmp_path):
        cfg = noiseless_cfg(sigma_frac=1e-12, sigma_range=5.0, seed=123)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(simulate(cfg), a)
        write_records_csv(simulate(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self):
        cfg1 = noiseless_cfg(sigma_frac=1e-12, seed=1)
        cfg2 = noiseless_cfg(sigma_frac=1e-12, seed=2)
        f1 = simulate(cfg1).doppler_frac_meas
        f2 = simulate(cfg2).doppler_frac_meas
        assert not np.array_equal(f1, f2)

    def test_noise_std_matches_sigma(self):
        cfg = noiseless_cfg(sigma_frac=1e-12, n_obs=10_000, seed=3)
        table = simulate(cfg)
        resid = table.doppler_frac_meas - table.range_rate_true / C
        assert np.std(resid) == pytest.approx(1e-12, rel=0.05)

    def test_range_strictly_increasing(self):
        ranges = simulate(noiseless_cfg()).range_true
        assert np.all(ranges[:-1] < ranges[1:])

    def test_record_sigma_mirrors_config(self):
        cfg = noiseless_cfg(sigma_frac=1e-12)
        assert np.all(simulate(cfg).sigma_frac == 1e-12)


class TestTable:
    def test_columns_are_float64_and_read_only(self):
        table = simulate(noiseless_cfg())
        for name in (f.name for f in dataclasses.fields(TrackingTable)):
            col = getattr(table, name)
            assert col.dtype == np.float64 and col.shape == (50,)
            with pytest.raises(ValueError):
                col[0] = 1.0

    def test_caller_arrays_stay_writable(self):
        epoch = np.zeros(3)
        table = TrackingTable(epoch, epoch, epoch, epoch, epoch, epoch)
        assert epoch.flags.writeable and not table.epoch.flags.writeable

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="sigma_frac"):
            TrackingTable(*([np.zeros(3)] * 5), np.zeros(2))

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            TrackingTable(np.zeros((3, 1)), *([np.zeros(3)] * 5))


class TestAnomalyResiduals:
    def test_noiseless_alpha_zero_residuals_vanish(self):
        res = anomaly_residuals(simulate(noiseless_cfg()), c=C)
        assert np.all(res.residual_velocity == 0.0)
        assert np.all(res.residual_rate == 0.0)

    def test_noiseless_residual_rate_equals_alpha_exactly(self):
        # powers of two for c and r0 make every arithmetic step exact,
        # so the linear-model identity residual_rate == alpha_true is bitwise
        cfg = SimConfig(
            r0=2.0**42,
            v_radial=0.0,
            t_start=0.0,
            t_end=64.0,
            n_obs=9,
            alpha_true=2.19e-18,
            sigma_frac=0.0,
            sigma_range=0.0,
            seed=0,
            c=2.0**28,
        )
        res = anomaly_residuals(simulate(cfg), c=cfg.c)
        assert np.all(res.residual_rate == cfg.alpha_true)

    def test_realistic_residual_rate_close_to_alpha(self):
        cfg = noiseless_cfg(alpha_true=-2.80e-18, v_radial=12200.0, t_end=1e7)
        res = anomaly_residuals(simulate(cfg), c=C)
        rates = res.residual_rate
        assert np.mean(np.abs(rates + 2.80e-18)) < 1e-22  # float floor only

    def test_zero_range_rejected(self):
        table = TrackingTable(
            epoch=[0.0],
            range_true=[0.0],
            range_rate_true=[0.0],
            range_meas=[0.0],
            doppler_frac_meas=[0.0],
            sigma_frac=[0.0],
        )
        with pytest.raises(ZeroRange):
            anomaly_residuals(table, c=C)

    def test_zero_range_names_its_epoch(self):
        table = TrackingTable(
            epoch=[5.0, 6.0],
            range_true=[1.0, 0.0],
            range_rate_true=[0.0, 0.0],
            range_meas=[1.0, 0.0],
            doppler_frac_meas=[0.0, 0.0],
            sigma_frac=[0.0, 0.0],
        )
        with pytest.raises(ZeroRange, match="epoch 6.0"):
            anomaly_residuals(table, c=C)

    def test_equals_per_record_loop(self):
        # the per-record formula of the row-based version, as the reference
        cfg = noiseless_cfg(alpha_true=-2.80e-18, v_radial=12200.0, sigma_frac=1e-12)
        table = simulate(cfg)
        res = anomaly_residuals(table, c=C)
        for i in range(len(table)):
            resid_v = C * float(table.doppler_frac_meas[i]) - float(table.range_rate_true[i])
            assert res.epoch[i] == table.epoch[i]
            assert res.residual_velocity[i] == resid_v
            assert res.residual_rate[i] == resid_v / float(table.range_true[i])


class TestSignComparison:
    def test_observed_anomaly_vs_hubble(self):
        rep = sign_comparison_report(-2.80e-18, 2.19e-18)
        assert rep.opposite_sign is True
        assert rep.magnitude_ratio == pytest.approx(1.28, abs=0.01)
        assert "t'" in rep.caveat

    def test_same_value_not_opposite(self):
        rep = sign_comparison_report(3e-18, 3e-18)
        assert rep.opposite_sign is False
        assert rep.magnitude_ratio == 1.0

    def test_zero_anomaly(self):
        rep = sign_comparison_report(0.0, 3e-18)
        assert rep.opposite_sign is False
        assert rep.magnitude_ratio == 0.0

    def test_zero_hubble_rate(self):
        assert sign_comparison_report(1e-18, 0.0).magnitude_ratio == math.inf


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        table = simulate(noiseless_cfg(sigma_frac=1e-12, sigma_range=3.0, seed=9))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        assert_tables_bitwise_equal(read_records_csv(path), table)

    def test_round_trip_of_signed_extreme_values(self, tmp_path):
        values = np.array([-0.0, 5e-324, -1.7976931348623157e308, 0.1, -2.80e-18, 1e22])
        table = TrackingTable(*([values] * 6))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        assert_tables_bitwise_equal(read_records_csv(path), table)

    def test_format_equals_per_value_format(self, tmp_path):
        # the per-value f-string of the row-based writer, as the reference
        table = simulate(noiseless_cfg(sigma_frac=1e-12, sigma_range=3.0, n_obs=5000, seed=9))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        cols = [getattr(table, f.name).tolist() for f in dataclasses.fields(TrackingTable)]
        lines = [CSV_HEADER] + [",".join(f"{v:.17e}" for v in row) for row in zip(*cols)]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_header_written(self, tmp_path):
        path = tmp_path / "run.csv"
        write_records_csv(simulate(noiseless_cfg()), path)
        assert path.read_text().splitlines()[0] == CSV_HEADER

    def test_doppler_column_has_17_significant_digits(self, tmp_path):
        path = tmp_path / "run.csv"
        write_records_csv(simulate(noiseless_cfg(sigma_frac=1e-12)), path)
        line = path.read_text().splitlines()[1]
        doppler_text = line.split(",")[4]
        mantissa = doppler_text.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 17

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,range\n1,2\n")
        with pytest.raises(MalformedCsv, match="line 1"):
            read_records_csv(path)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3,4,5,6\n1,2,3\n")
        with pytest.raises(MalformedCsv, match="line 3"):
            read_records_csv(path)

    def test_non_numeric_field_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3,4,banana,6\n")
        with pytest.raises(MalformedCsv, match="line 2"):
            read_records_csv(path)

    def test_too_many_fields_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3,4,5,6\n1,2,3,4,5,6,7\n")
        with pytest.raises(MalformedCsv, match="line 3: expected 6 fields, got 7"):
            read_records_csv(path)

    def test_every_line_short_reports_first(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3,4,5\n1,2,3,4,5\n")
        with pytest.raises(MalformedCsv, match="line 2: expected 6 fields, got 5"):
            read_records_csv(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_value_reports_line_and_column(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + f"\n1,2,3,4,5,6\n\n1,2,3,{value},5,6\n")
        with pytest.raises(MalformedCsv, match="line 4: range_meas_m must be finite"):
            read_records_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(CSV_HEADER + "\n\n1,2,3,4,5,6\n   \n\n2,3,3,4,5,6\n\n")
        table = read_records_csv(path)
        assert table.epoch.tolist() == [1.0, 2.0]
        assert table.range_true.tolist() == [2.0, 3.0]

    def test_crlf_line_ends(self, tmp_path):
        table = simulate(noiseless_cfg(sigma_frac=1e-12, seed=4))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_tables_bitwise_equal(read_records_csv(crlf), table)

    def test_header_only_gives_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        table = read_records_csv(path)
        assert len(table) == 0
        with pytest.raises(DegenerateDesign):
            fit_alpha(table)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedCsv, match="line 1"):
            read_records_csv(path)

    def test_values_loadtxt_refuses_are_read_as_float_reads_them(self, tmp_path):
        # whitespace-only lines and digit separators are valid for float()
        path = tmp_path / "odd.csv"
        path.write_text(CSV_HEADER + "\n1_0, 2 ,3,4,5,6\n \t \n")
        assert read_records_csv(path).epoch.tolist() == [10.0]


# The README reference mission at two seeds.  Digests and bit patterns were
# recorded with the row-based simulator, CSV writer and reader, fit and
# bootstrap that the columnar table replaced.
REFERENCE_MISSION = dict(
    r0=2.99195741e12,
    v_radial=12200.0,
    t_start=0.0,
    t_end=6.13106e8,
    n_obs=10_000,
    alpha_true=2.19e-18,
    sigma_frac=1e-12,
)
FIXED_POINTS = {
    42: (
        "98a23b76a9465beec17e8d56e8c301b612d84c4ca5540aa78894cba053b6c94f",
        "0x1.e8658ecb1e491p-60",
        "0x1.d47c87d97134ap-62",
    ),
    7: (
        "0e2cf92e09862186f5ed104d5538751f87d4b3c084fb296616f0e531e9aec624",
        "0x1.7fc2f2fdf6f7dp-59",
        "0x1.fb5095e2f644ap-62",
    ),
}


@pytest.mark.parametrize("seed", sorted(FIXED_POINTS))
def test_reference_mission_fixed_points(tmp_path, seed):
    csv_sha256, alpha_hat, alpha_stderr_boot = FIXED_POINTS[seed]
    path = tmp_path / "run.csv"
    write_records_csv(simulate(SimConfig(**REFERENCE_MISSION, seed=seed)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256
    table = read_records_csv(path)
    assert fit_alpha(table).alpha_hat.hex() == alpha_hat
    assert bootstrap_alpha(table, 200, seed=seed).hex() == alpha_stderr_boot


def assert_tables_bitwise_equal(a, b):
    assert len(a) == len(b)
    for f in dataclasses.fields(TrackingTable):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), f.name
