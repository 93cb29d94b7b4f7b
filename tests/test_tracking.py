"""Tests for the tracking simulator: trajectory, table, noise, CSV."""

import dataclasses
import hashlib
import json
import math
import os
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdop import (
    ConfdopError,
    ConfigInvalid,
    DegenerateDesign,
    MalformedCsv,
    SimConfig,
    build_manifest,
    TrackingTable,
    ZeroRange,
    anomaly_residuals,
    bootstrap_alpha,
    fit_alpha,
    read_records_csv,
    sign_comparison_report,
    simulate,
    write_manifest,
    write_records_csv,
)
from confdop import tracking
from confdop.constants import SPEED_OF_LIGHT
from confdop.tracking import (
    _COLUMNS,
    _CSV_CHUNK_ROWS,
    _E17_POW_MAX,
    _E17_POW_MIN,
    _E17_ROW,
    _E17_WIDTH,
    CSV_HEADER,
    _e17_cells,
    _e17_kernel,
    _e17_matrix,
    _e17_parse,
    _e17_tables,
    _read_columns,
    _scan_rows,
)

C = SPEED_OF_LIGHT

# v_radial chosen as a dyadic multiple of c so that the frac -> velocity
# round trip (v/c)*c is exact in binary floating point.
DYADIC_RATE = C * 2**-13
# Largest n_obs whose (n_obs, 2) float64 noise draws numpy can size.
MAX_N_OBS = np.iinfo(np.intp).max // 16


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

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(SimConfig)])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_refused_naming_the_field(self, key, value):
        # SimConfig(seed=True) used to run as seed 1 and record "seed": true
        with pytest.raises(ConfigInvalid, match=f"^{key}: must be a number, got {value}$"):
            noiseless_cfg(**{key: value})

    def test_integral_float_n_obs_accepted(self):
        d = noiseless_cfg().to_dict()
        d["n_obs"] = 50.0
        assert SimConfig.from_dict(d).n_obs == 50


class TestConfigBuiltDirectly:
    """SimConfig applies every field rule itself, so a config built in code
    is refused as one read from JSON is."""

    @pytest.mark.parametrize("key, value, message", [
        # r0="1e12" and v_radial=None used to end in a TypeError traceback
        ("r0", "1e12", "must be a number, got '1e12'"),
        ("v_radial", None, "must be a number, got None"),
        # and r0=10**400 in an OverflowError traceback
        ("r0", 10**400, "must be finite, got inf"),
        ("t_start", -(10**400), "must be finite, got -inf"),
        ("n_obs", "50", "must be an integer, got '50'"),
        ("seed", 1.5, "must be an integer, got 1.5"),
        # c = 1e-300 used to pass c > 0, for simulate to refuse later
        ("c", 1e-300, "c must square to a normal float, got 1e-300"),
        ("c", 1e155, "c must square to a normal float, got 1e+155"),
        ("c", -1.0, "c must be positive, got -1.0"),
        # numpy cannot size the (n_obs, 2) float64 draws: 1e300 used to end in a
        # ValueError traceback in simulate, and 2**63 in an IndexError
        ("n_obs", 1e300, f"must be <= {MAX_N_OBS}, so that numpy can size the "),
        ("n_obs", 2**63, f"must be <= {MAX_N_OBS}, so that numpy can size the "),
        ("n_obs", MAX_N_OBS + 1, f"must be <= {MAX_N_OBS}, so that numpy can size the "),
        # and 10**400 in an OverflowError traceback from the message itself
        ("n_obs", 10**400, f"must be <= {MAX_N_OBS}, so that numpy can size the "),
    ], ids=["r0-str", "v_radial-None", "r0-huge-int", "t_start-huge-int", "n_obs-str",
            "seed-fraction", "c-1e-300", "c-1e155", "c-negative", "n_obs-1e300",
            "n_obs-2**63", "n_obs-first-unsizable", "n_obs-past-float-range"])
    def test_bad_value_names_the_key(self, key, value, message):
        with pytest.raises(ConfigInvalid, match=f"^{key}: {re.escape(message)}"):
            noiseless_cfg(**{key: value})

    def test_largest_sizable_n_obs_accepted(self):
        # only the config is built: nothing of that size is allocated
        assert noiseless_cfg(n_obs=MAX_N_OBS).n_obs == MAX_N_OBS

    def test_integral_float_n_obs_accepted_as_int(self):
        cfg = noiseless_cfg(n_obs=50.0)
        assert cfg.n_obs == 50 and type(cfg.n_obs) is int

    def test_numpy_numbers_are_stored_as_plain_values(self, tmp_path):
        # np.float32, np.int64 and 0-d arrays were refused, as were integer
        # fields above 2**63 - 1 given as np.uint64, although Event and every
        # map take numpy scalars
        plain = dict(r0=4.5e12, v_radial=12200.0, t_end=1e8, n_obs=40, sigma_frac=0.5,
                     seed=2**64 - 1)
        numpy_made = dict(r0=np.array(4.5e12), v_radial=np.float32(12200.0),
                          t_end=np.int64(100_000_000), n_obs=np.int64(40),
                          sigma_frac=np.array(np.float32(0.5)), seed=np.uint64(2**64 - 1))
        configs = noiseless_cfg(**plain), noiseless_cfg(**numpy_made)
        assert [repr(cfg) for cfg in configs] == [repr(configs[0])] * 2
        texts = []
        for i, cfg in enumerate(configs):
            manifest = build_manifest("simulate", "0", tracking.RNG_ALGORITHM, cfg.seed,
                                      cfg.to_dict(), [], tmp_path)
            write_manifest(manifest, tmp_path / f"{i}.json")
            texts.append((tmp_path / f"{i}.json").read_bytes())
        assert texts[0] == texts[1]

    def test_int_fields_become_floats_as_from_dict_makes_them(self):
        # the manifest records the config, so both paths must give the same JSON
        ints = dict(r0=4_500_000_000_000, t_start=0, t_end=100_000_000, sigma_frac=0)
        direct = noiseless_cfg(**ints)
        via_dict = SimConfig.from_dict({**noiseless_cfg().to_dict(), **ints})
        assert type(direct.r0) is float
        assert json.dumps(direct.to_dict()) == json.dumps(via_dict.to_dict())


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
        # nor 0-D: np.ascontiguousarray would make 0.0 a (1,) column like the others
        with pytest.raises(ValueError, match=r"^epoch: must be a 1-D column, got shape \(\)$"):
            TrackingTable(0.0, *([np.zeros(1)] * 5))


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


@pytest.mark.parametrize("c", [math.nan, 0.0, -1.0, 1e-300])
def test_anomaly_residuals_checks_c_as_fit_does(c):
    # c = nan used to give residuals that were all nan
    table = simulate(noiseless_cfg())
    with pytest.raises(ConfdopError, match="^c must"):
        anomaly_residuals(table, c=c)


@pytest.mark.parametrize("column", ["range_true", "range_rate_true", "doppler_frac_meas"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_anomaly_residuals_checks_columns_as_fit_does(column, value):
    # a nan Doppler value used to give a nan residual rate
    table = simulate(noiseless_cfg(n_obs=5))
    cols = {f.name: getattr(table, f.name).copy() for f in dataclasses.fields(table)}
    cols[column][3] = value
    table = TrackingTable(**cols)
    with pytest.raises(ConfdopError) as fit_error:
        fit_alpha(table)
    with pytest.raises(ConfdopError) as excinfo:
        anomaly_residuals(table)
    assert str(excinfo.value) == str(fit_error.value) == f"{column}: row 3 is not finite ({value})"


def test_anomaly_residuals_ignores_columns_it_does_not_read():
    table = simulate(noiseless_cfg(n_obs=5))
    cols = {f.name: getattr(table, f.name) for f in dataclasses.fields(table)}
    cols["range_meas"] = np.full(5, np.inf)
    cols["sigma_frac"] = np.full(5, np.nan)
    res = anomaly_residuals(TrackingTable(**cols))
    assert np.array_equal(res.residual_rate, anomaly_residuals(table).residual_rate)


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


EDGE_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308, 1e22)


@st.composite
def csv_column(draw, n, rng, earlier):
    """A float64 column of n rows: constant (at an edge value such as nan,
    or at any float), a mix of -0.0 and 0.0, constant but for one row, all
    distinct, or derived from a column of the list `earlier`: a bit-for-bit
    copy, a copy with one row changed, or a copy with the sign of one zero
    flipped.  Before it is copied, the source may get a nan in one row,
    and for a flipped zero it gets a 0.0 or -0.0 there."""
    kinds = ["edge", "constant", "signed_zeros", "one_differs", "distinct"]
    if earlier and n:
        kinds += ["copy", "copy_one_differs", "copy_zero_flipped"]
    kind = draw(st.sampled_from(kinds))
    if kind == "edge":
        return np.full(n, draw(st.sampled_from(EDGE_VALUES)))
    if kind == "constant":
        return np.full(n, draw(st.floats()))
    if kind == "signed_zeros":
        return np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "one_differs" and n:
        col = np.full(n, draw(st.floats()))
        col[draw(st.integers(0, n - 1))] = draw(st.floats())
        return col
    if kind.startswith("copy"):
        source = draw(st.sampled_from(earlier))
        k = draw(st.integers(0, n - 1))
        if kind == "copy" and draw(st.booleans()):
            source[k] = math.nan
        if kind == "copy_zero_flipped":
            source[k] = draw(st.sampled_from((0.0, -0.0)))
        col = source.copy()
        if kind == "copy_one_differs":
            col[k] = draw(st.floats())
        if kind == "copy_zero_flipped":
            col[k] = -col[k]
        return col
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        table = simulate(noiseless_cfg(sigma_frac=1e-12, sigma_range=3.0, seed=9))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        assert_tables_bitwise_equal(read_records_csv(path), table)

    def test_read_columns_are_contiguous(self, tmp_path):
        # the reader's layout: the bootstrap gathers from these columns
        path = tmp_path / "run.csv"
        write_records_csv(simulate(noiseless_cfg()), path)
        with_blank = tmp_path / "blank.csv"
        with_blank.write_text(path.read_text() + " \n")  # read by the float() scan
        for p in (path, with_blank):
            table = read_records_csv(p)
            assert all(getattr(table, f.name).flags.c_contiguous
                       for f in dataclasses.fields(TrackingTable))

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

    def test_rewrite_over_a_longer_or_shorter_file_is_a_fresh_write(self, tmp_path):
        # the file is written over in place, then cut at the written length
        tables = {n: simulate(noiseless_cfg(sigma_frac=1e-12, n_obs=n, seed=n))
                  for n in (200, 10_000)}
        fresh = {}
        for n, table in tables.items():
            write_records_csv(table, tmp_path / "fresh.csv")
            fresh[n] = (tmp_path / "fresh.csv").read_bytes()
        assert len(fresh[200]) < len(fresh[10_000])
        for first, second in [(10_000, 200), (200, 10_000)]:
            path = tmp_path / f"{first}-then-{second}.csv"
            write_records_csv(tables[first], path)
            write_records_csv(tables[second], path)
            assert path.read_bytes() == fresh[second]

    def test_chunks_whose_cells_use_different_widths(self, tmp_path):
        # each varying slot is sized per chunk: byte 0 for a negative cell,
        # byte 24 for a 3-digit exponent; Python's cells sit at chunk starts
        k = _CSV_CHUNK_ROWS
        n = 3 * k + 17
        rng = np.random.default_rng(26)
        positive = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-99, 100, n)
        epoch = np.linspace(1.0, 9e8, n)
        epoch[[0, k, 2 * k]] = [0.0, -0.0, 5e-324]  # Python's %.17e cells
        ranges = positive.copy()  # chunk 0 all positive with 2-digit exponents
        ranges[k + 5] = -ranges[k + 5]  # chunk 1: one negative cell
        ranges[2 * k + 9] = 1.2345e-150  # chunk 2: one 3-digit exponent
        mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        cols = [epoch, ranges, np.full(n, 12200.0), ranges.copy(), mixed, -positive]
        assert [(c[:k] < 0).any() for c in (epoch, ranges)] == [False, False]
        path = tmp_path / "run.csv"
        write_records_csv(TrackingTable(*cols), path)
        lines = [CSV_HEADER.encode()] + [b",".join(row) for row in zip(*map(percent_e17, cols))]
        assert path.read_bytes() == b"\n".join(lines) + b"\n"
        assert_tables_bitwise_equal(read_records_csv(path), TrackingTable(*cols))

    @pytest.mark.parametrize(
        "n", [0, 1, 2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1]
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=8)
    @given(data=st.data())
    def test_bytes_equal_formatting_every_value(self, tmp_path_factory, n, data):
        # the writer before constant columns were baked into the row template
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = []
        for _ in dataclasses.fields(TrackingTable):
            cols.append(data.draw(csv_column(n, rng, cols)))
        path = tmp_path_factory.mktemp("csv") / "run.csv"
        write_records_csv(TrackingTable(*cols), path)
        rows = np.column_stack(cols).ravel().tolist()
        expected = CSV_HEADER + "\n" + (("%.17e," * 5 + "%.17e\n") * n) % tuple(rows)
        assert path.read_bytes() == expected.encode()

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


def percent_e17(x):
    """The reference: Python's %.17e text of each value of x, as bytes."""
    return [("%.17e" % v).encode() for v in np.asarray(x, dtype=np.float64).tolist()]


def kernel_e17(x):
    """The writer's cells for the values of x, NUL padding dropped."""
    return [cell.tobytes().replace(b"\0", b"") for cell in _e17_cells(np.asarray(x, np.float64))]


def tie_values(k, rng):
    """Floats x in [10**k, 10**(k+1)) whose count x * 10**(17-k) is an odd
    multiple of 1/2, each with that count's floor: q / 2**(18-k) for odd q."""
    scale = 2 ** (18 - k)
    low = 10**k * scale if k >= 0 else -(-scale // 10**-k)
    high = 10 ** (k + 1) * scale if k >= 0 else 10 * scale // 10**-k
    qs = {q for q in range(low, min(low + 40, high)) if q % 2}
    qs |= {int(q) | 1 for q in rng.integers(low, high, size=40)}
    ties = [q / scale for q in sorted(qs) if q / scale < 10 ** (k + 1)]
    counts = [Fraction(x) * Fraction(10) ** (17 - k) for x in ties]
    assert all(c.denominator == 2 for c in counts)
    return ties, [math.floor(c) for c in counts]


def first_in_window(a, m, lo, hi):
    """The smallest x >= 0 with lo <= a*x % m <= hi, for 0 <= lo <= hi < m,
    or None, by a Euclid-like recursion on (a, m)."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    if 2 * a > m:  # reflect, so that the modulus at least halves each level
        return first_in_window(m - a, m, m - hi, m - lo)
    x = -(-lo // a)
    if a * x <= hi:
        return x
    # a*x wraps past m first: a*x - m*y in [lo, hi] needs -m*y % a in [lo % a, hi % a]
    y = first_in_window(-m % a, a, lo % a, hi % a)
    return None if y is None else -(-(lo + m * y) // a)


def near_tie_doubles(k, widths):
    """Doubles x in [10**k, 10**(k+1)) whose count x * 10**(17-k) lies within
    w of an odd multiple of 1/2: per binary exponent e and width w, the least
    mantissa M, x = M * 2**e, with (a*M) % b in a window around b/2, where
    a/b = 2**e * 10**(17-k)."""
    low, high = Fraction(10) ** k, Fraction(10) ** (k + 1)
    found = []
    for e in range(math.floor(math.log2(low)) - 53, math.floor(math.log2(high)) - 51):
        a, b = 2 ** max(e, 0) * 10 ** max(17 - k, 0), 2 ** max(-e, 0) * 10 ** max(k - 17, 0)
        first = max(2**52, math.ceil(low / Fraction(2) ** e))
        stop = min(2**53, math.ceil(high / Fraction(2) ** e))
        for w in widths:
            lo = (b // 2 - math.floor(b * w) - a * first) % b
            hi = lo + 2 * math.floor(b * w) + b % 2
            m = 0 if lo == 0 or hi >= b else first_in_window(a, b, lo, hi)
            if m is not None and first + m < stop:
                found.append(math.ldexp(first + m, e))
    return found


class TestE17Kernel:
    """_e17_cells writes exactly the bytes of "%.17e" % x for every float64."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20_261_019).integers(0, 2**64, size=200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        assert kernel_e17(x) == percent_e17(x)

    def test_edge_values(self, kernel_edges):
        assert kernel_e17(kernel_edges) == percent_e17(kernel_edges)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(st.lists(st.floats(), max_size=64))
    def test_drawn_floats(self, values):
        assert kernel_e17(values) == percent_e17(values)

    def test_carry_to_the_next_power_of_ten(self):
        # the double 1e153 lies below 10**153 by less than half a unit of the
        # 18th digit, so its count rounds up to 10**18
        assert Fraction(1e153) < 10**153
        assert kernel_e17([1e153, -1e153]) == [b"1.00000000000000000e+153", b"-1.00000000000000000e+153"]
        assert _e17_kernel(np.array([1e153]))[1].size == 0  # decided by the kernel

    def test_exact_ties_round_half_to_even_in_numpy(self):
        # 0 <= 17-k <= 22: the scaling is exact, so the kernel decides the tie
        rng = np.random.default_rng(5)
        ties, floors = [], []
        for k in range(-5, 14):
            x, f = tie_values(k, rng)
            ties += x
            floors += f
        assert len(ties) > 1000
        assert {f % 2 for f in floors} == {0, 1}  # ties that round down and ties that round up
        x = np.array(ties + [-t for t in ties])
        assert kernel_e17(x) == percent_e17(x)
        assert _e17_kernel(x)[1].size == 0

    def test_inexact_ties_go_to_python(self):
        # 17-k > 22: 10**(17-k) is not a float64, so a tie is left undecided
        rng = np.random.default_rng(6)
        ties = [x for k in range(-8, -5) for x in tie_values(k, rng)[0]]
        assert ties
        assert kernel_e17(ties) == percent_e17(ties)
        assert _e17_kernel(np.array(ties))[1].size == len(ties)

    def test_hard_cases_of_a_modular_search(self, tmp_path):
        # the doubles nearest a tie of the 18th digit, found as Paxson finds
        # hard cases ("A Program for Testing IEEE Decimal-Binary Conversion",
        # 1991) and as Ryu's proof bounds them (Adams, "Ryu: Fast
        # Float-to-String Conversion", PLDI 2018): a least multiplier whose
        # remainder modulo a power of 2 and 10 falls near half of it
        widths = [Fraction(1, 10**n) for n in (9, 12, 15, 17)] + [0]
        scalings = (-240, -100, -23, -8, -7, -6, 8, 18, 19, 21, 40, 150, 249)
        found = {(x, k) for k in scalings for x in near_tie_doubles(k, widths)}
        distance = {x: abs(Fraction(x) * Fraction(10) ** (17 - k) % 1 - Fraction(1, 2))
                    for x, k in found}
        inexact = {x for x, k in found if not 0 <= 17 - k <= 22}  # 10**(17-k) is not a float64
        assert max(distance.values()) < Fraction(1, 10**9)
        assert sum(0 < distance[x] < Fraction(1, 10**15) for x in inexact) >= 30
        assert sum(distance[x] == 0 for x in inexact) >= 10  # exact ties, at k = -8 to -6
        x = np.array(sorted(distance) + [-v for v in sorted(distance)])
        assert kernel_e17(x) == percent_e17(x)
        table = TrackingTable(*[np.roll(x, j) for j in range(len(_COLUMNS))])
        path = tmp_path / "hard.csv"
        write_records_csv(table, path)
        assert_tables_bitwise_equal(read_records_csv(path), table)

    def test_power_table_is_the_correctly_rounded_double_double(self):
        hi, lo, *_ = _e17_tables()
        for m, h, low in zip(range(_E17_POW_MIN, _E17_POW_MAX + 1), hi.tolist(), lo.tolist()):
            exact = Fraction(10) ** m
            assert (h, low) == (float(exact), float(exact - Fraction(h))), m

    def test_writer_interleaves_python_cells(self, tmp_path, kernel_edges):
        x = np.array(kernel_edges)
        cols = [np.roll(x, j) for j in range(len(_COLUMNS))]
        path = tmp_path / "edge.csv"
        write_records_csv(TrackingTable(*cols), path)
        lines = [CSV_HEADER.encode()] + [b",".join(row) for row in zip(*map(percent_e17, cols))]
        assert path.read_bytes() == b"\n".join(lines) + b"\n"

    def test_python_cells_take_the_kernel_layout(self):
        # a sign byte, then the text from byte 1, as the kernel writes a cell;
        # the bytes past the text's 25 are the exponent word's padding
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.nan, math.inf, -math.inf]
        assert _e17_kernel(np.array(values))[1].tolist() == list(range(len(values)))
        cells = _e17_cells(np.array(values))
        assert cells.shape == (len(values), _E17_ROW)
        for cell, text in zip(cells, percent_e17(values)):
            signed = text if text.startswith(b"-") else b"\0" + text
            assert cell[:_E17_WIDTH].tobytes() == signed.ljust(_E17_WIDTH, b"\0"), text
            assert not cell[_E17_WIDTH:].any(), text

    @pytest.mark.parametrize("seed", range(4))
    def test_reference_table_cells_leave_the_sign_and_last_bytes_unused(self, seed):
        # so the writer's slots hold no NUL, and its NUL drop only scans
        table = simulate(SimConfig(**REFERENCE_MISSION, seed=seed))
        for name in _COLUMNS:
            col = getattr(table, name)
            if (col == col[0]).all():  # a constant column is baked into the row
                continue
            cells = _e17_cells(col)
            assert not cells[:, 0].any() and not cells[:, _E17_WIDTH - 1].any(), name

    @pytest.mark.parametrize("seed", sorted(FIXED_POINTS))
    def test_reference_table_chunks_are_written_from_their_row_matrix(self, monkeypatch, seed):
        # a silent return to the copying NUL drop fails here, not only in the benchmark
        written = []
        monkeypatch.setattr(tracking, "_write_over", lambda path, chunks: written.extend(chunks))
        write_records_csv(simulate(SimConfig(**REFERENCE_MISSION, seed=seed)), None)
        header, *chunks = written
        assert header == CSV_HEADER.encode() + b"\n"
        assert len(chunks) == -(-REFERENCE_MISSION["n_obs"] // _CSV_CHUNK_ROWS)
        assert all(type(chunk) is np.ndarray and chunk.dtype == np.uint8 for chunk in chunks)

    def test_chunks_with_padded_cells_are_per_value_text(self, tmp_path, monkeypatch):
        # one chunk each with a nan, a -inf, a negative cell and a 3-digit
        # exponent among positive 2-digit-exponent cells, so that column's
        # slot holds NULs in every chunk
        k = _CSV_CHUNK_ROWS
        rng = np.random.default_rng(28)
        cols = [rng.uniform(1.0, 10.0, 4 * k) * 10.0 ** rng.integers(-99, 100, 4 * k)
                for _ in _COLUMNS]
        odd = cols[4]
        odd[[5, k + 6, 2 * k + 7, 3 * k + 8]] = math.nan, -math.inf, -odd[2 * k + 7], 1e-150
        table = TrackingTable(*cols)
        path = tmp_path / "padded.csv"
        write_records_csv(table, path)
        lines = [CSV_HEADER.encode()] + [b",".join(row) for row in zip(*map(percent_e17, cols))]
        assert path.read_bytes() == b"\n".join(lines) + b"\n"
        written = []
        monkeypatch.setattr(tracking, "_write_over", lambda path, chunks: written.extend(chunks))
        write_records_csv(table, None)
        assert [type(chunk) for chunk in written] == [bytes] * 5  # the NUL drop, every chunk

    @pytest.mark.parametrize("seed", sorted(FIXED_POINTS))
    def test_only_the_zero_epoch_falls_back_on_a_reference_table(self, seed):
        # a silent return to Python's formatter fails here, not only in the benchmark
        table = simulate(SimConfig(**REFERENCE_MISSION, seed=seed))
        undecided = {name: _e17_kernel(getattr(table, name))[1].tolist() for name in _COLUMNS}
        assert table.epoch[0] == 0.0
        assert undecided == {name: [0] if name == "epoch" else [] for name in _COLUMNS}


def e17_text(value: Fraction) -> str:
    """The 18 significant digits of a rational in the writer's cell layout,
    rounded half to even."""
    with localcontext() as ctx:
        ctx.prec = 18
        d = Decimal(value.numerator) / Decimal(value.denominator)
    mantissa, exponent = f"{d:.17e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"


def binary_ties():
    """Writer-layout cells that are exact midpoints between two doubles:
    every midpoint 2**k - 2**(k-54) just below a power of two that has 18
    digits, and midpoints above random doubles in [2**51, 2**60)."""
    rng = np.random.default_rng(11)
    mids = [Fraction(2**k) - Fraction(2) ** (k - 54) for k in range(52, 60)]
    for k in range(51, 60):
        for x in (2.0**k * (1 + rng.random(40))).tolist():
            mids.append((Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2)
    cells = [e17_text(m) for m in mids]
    return [c for c, m in zip(cells, mids) if Fraction(Decimal(c)) == m]


def is_binary_tie(cell: str) -> bool:
    """Whether a cell's value is the midpoint between two doubles."""
    value, x = Fraction(Decimal(cell)), float(cell)
    return any(value == (Fraction(x) + Fraction(math.nextafter(x, side))) / 2
               for side in (-math.inf, math.inf) if math.isfinite(math.nextafter(x, side)))


def near_ties():
    """The 18-digit roundings of midpoints above random doubles across the
    whole exponent range: within half a unit of the 18th digit of a tie."""
    rng = np.random.default_rng(12)
    x = rng.random(3000) * 10.0 ** rng.integers(-320, 308, size=3000)
    return [e17_text((Fraction(v) + Fraction(math.nextafter(v, math.inf))) / 2) for v in x.tolist()]


HAND_MADE_CELLS = (
    ["4.50359962737049575e+15", "9.00719925474099150e+15", "1.80143985094819830e+16",
     "9.00719925474099300e+15", "9.00719925474099301e+15", "9.00719925474099299e+15"]
    # 10**(e-17) at both ends of the power table, then one past each
    + ["1.00000000000000000e-223", "9.87654321098765432e-223", "9.99999999999999999e+297",
       "-1.23456789012345678e+297", "9.99999999999999999e-224", "1.00000000000000000e+298"]
    # subnormal and smallest normal results, signed zeros, 3-digit exponents
    + ["4.94065645841246544e-324", "2.47032822920623272e-324", "-1.00000000000000000e-310",
       "2.22507385850720088e-308", "-2.22507385850720138e-308", "-0.00000000000000000e+00",
       "0.00000000000000000e+00", "0.00000000000000000e-250", "-0.00000000000000000e+999",
       "1.00000000000000000e+100", "-3.14159265358979324e-100", "1.79769313486231570e+308",
       "0.12345678901234567e+05"]
)


def read_cells(path, cells):
    """Write the cells as rows of six (zero-padded) under the header, then
    parse the body with the fast path alone: (values, undecided indices)."""
    cells = list(cells) + ["0.00000000000000000e+00"] * (-len(cells) % 6)
    rows = [",".join(cells[i : i + 6]) for i in range(0, len(cells), 6)]
    body = "".join(row + "\n" for row in rows).encode()
    path.write_bytes(CSV_HEADER.encode() + b"\n" + body)
    values, undecided, *_ = _e17_parse(np.frombuffer(body, np.uint8))
    return cells, values, undecided.tolist()


def outcome(read, path):
    """A read's table bits, or the message it refused the file with."""
    try:
        table = read(path)
    except MalformedCsv as exc:
        return "not UTF-8" if "not UTF-8" in str(exc) else str(exc)
    return [getattr(table, name).view(np.int64).tolist() for name in _COLUMNS]


def scan_only(path):
    """The reader without its fast path: _scan_rows on every file."""
    try:
        return TrackingTable(*np.ascontiguousarray(_scan_rows(path).T))
    except UnicodeDecodeError:
        raise MalformedCsv("not UTF-8") from None


def row_matrix_read(monkeypatch, path):
    """read_records_csv(path) with the separator scan switched off, and per
    chunk the row-matrix path's (rows, cells parsed, cells left undecided)."""
    chunks = []

    def matrix(a):
        parsed = _e17_matrix(a)
        chunks.append(parsed and (parsed[3], parsed[0].size, parsed[1].size))
        return parsed

    monkeypatch.setattr(tracking, "_e17_matrix", matrix)
    monkeypatch.setattr(tracking, "_e17_parse", None)
    return read_records_csv(path), chunks


class TestE17Reader:
    """read_records_csv reads every cell of the writer's layout as float()
    reads its text, and reads any other file as _scan_rows reads it."""

    def test_random_bit_patterns_read_back(self, tmp_path, kernel_edges):
        bits = np.random.default_rng(20_261_020).integers(0, 2**64, size=200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        x = np.concatenate([x[np.isfinite(x)], [v for v in kernel_edges if math.isfinite(v)]])
        assert x.size > 200_000
        table = TrackingTable(*np.concatenate([x, np.zeros(-x.size % 6)]).reshape(6, -1))
        path = tmp_path / "bits.csv"
        write_records_csv(table, path)
        columns = _read_columns(path)
        assert columns is not None  # every row in the fast path, none through _scan_rows
        assert_tables_bitwise_equal(TrackingTable(*columns), table)
        assert_tables_bitwise_equal(read_records_csv(path), table)

    def test_hand_made_cells_read_as_float_reads_them(self, tmp_path):
        ties, near = binary_ties(), near_ties()
        assert len(ties) > 300
        path = tmp_path / "cells.csv"
        cells, values, undecided = read_cells(path, HAND_MADE_CELLS + ties + near)
        expected = np.array([float(c) for c in cells])
        read = np.concatenate([getattr(read_records_csv(path), name) for name in _COLUMNS])
        by_row = expected.reshape(-1, 6).T.ravel()
        assert read.view(np.int64).tolist() == by_row.view(np.int64).tolist()
        decided = sorted(set(range(len(cells))) - set(undecided))
        assert values[decided].view(np.int64).tolist() == expected[decided].view(np.int64).tolist()
        # float() takes the exact ties and the cells outside the power table, and no others
        exact_ties = {c for c in cells if is_binary_tie(c)}
        outside = {c for c in cells if not -223 <= int(c.split("e")[1]) <= 297}
        assert set(ties) <= exact_ties
        assert {cells[i] for i in undecided} == exact_ties | outside
        assert {"9.99999999999999999e-224", "1.00000000000000000e+298"} <= outside
        assert not {"1.00000000000000000e-223", "9.99999999999999999e+297"} & outside

    def test_overflowing_cell_is_refused_by_line_and_column(self, tmp_path):
        path = tmp_path / "big.csv"
        one = "1.00000000000000000e+00"
        read_cells(path, [one] * 6 + ["1.79769313486231581e+308"] + [one] * 5)  # past the largest double
        with pytest.raises(MalformedCsv, match="^line 3: epoch_s must be finite, got inf$"):
            read_records_csv(path)

    @pytest.mark.parametrize("seed", sorted(FIXED_POINTS))
    def test_no_cell_of_a_reference_table_goes_to_float(self, tmp_path, monkeypatch, seed):
        # a silent return to float() fails here, not only in the benchmark
        table = simulate(SimConfig(**REFERENCE_MISSION, seed=seed))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        body = np.frombuffer(path.read_bytes(), np.uint8)[len(CSV_HEADER) + 1 :]
        values, undecided, *_ = _e17_parse(body)
        assert values.size == len(_COLUMNS) * REFERENCE_MISSION["n_obs"]
        assert undecided.size == 0
        monkeypatch.setattr(tracking, "_scan_rows", None)  # read without the slow path
        assert_tables_bitwise_equal(read_records_csv(path), table)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_edited_files_read_as_the_float_scan_reads_them(self, tmp_path_factory, data):
        text = bytearray(EDIT_BASE)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text) - 1))
            byte = data.draw(st.sampled_from(b"0159.eE+-,\n\r x\0\xff"))
            edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            if edit == "replace":
                text[at] = byte
            elif edit == "insert":
                text.insert(at, byte)
            else:
                del text[at]
        path = tmp_path_factory.mktemp("edit") / "run.csv"
        path.write_bytes(bytes(text))
        assert outcome(read_records_csv, path) == outcome(scan_only, path)

    @pytest.mark.parametrize("seed, sigma_range, distinct", [(7, 0.0, 3), (42, 0.0, 3), (7, 2.0, 4)])
    def test_reference_chunks_parse_each_distinct_column_once(self, tmp_path, monkeypatch, seed,
                                                              sigma_range, distinct):
        # range_rate_true and sigma_frac are constant, one cell each, and
        # range_meas repeats range_true's cells where sigma_range is 0
        table = simulate(SimConfig(**REFERENCE_MISSION, sigma_range=sigma_range, seed=seed))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        read, chunks = row_matrix_read(monkeypatch, path)
        assert_tables_bitwise_equal(read, table)
        assert len(chunks) > 1 and sum(rows for rows, *_ in chunks) == len(table)
        assert chunks == [(rows, distinct * rows + 2, 0) for rows, *_ in chunks]

    def test_undecided_constant_and_repeated_cells_read_back(self, tmp_path, monkeypatch):
        # e-300 is outside the power table: the constant column's one parsed
        # cell and every cell of the column range_meas repeats go to float()
        n = 3000
        rng = np.random.default_rng(29)
        tiny = rng.uniform(1.0, 9.0, n) * 1e-300
        table = TrackingTable(np.linspace(1.0, 2.0, n), tiny, np.full(n, 1e-300), tiny,
                              rng.uniform(1.0, 9.0, n) * 1e-8, np.full(n, -2.5))
        path = tmp_path / "tiny.csv"
        write_records_csv(table, path)
        read, chunks = row_matrix_read(monkeypatch, path)
        assert_tables_bitwise_equal(read, table)
        assert len(chunks) > 1 and sum(rows for rows, *_ in chunks) == n
        assert chunks == [(rows, 3 * rows + 2, rows + 1) for rows, *_ in chunks]

    def test_a_negated_column_is_parsed_as_its_own(self, tmp_path, monkeypatch):
        # -range_true's words equal range_true's; only the sign tells them apart
        table = simulate(SimConfig(**REFERENCE_MISSION, seed=7))
        table = dataclasses.replace(table, range_meas=-table.range_true)
        path = tmp_path / "negated.csv"
        write_records_csv(table, path)
        read, chunks = row_matrix_read(monkeypatch, path)
        assert_tables_bitwise_equal(read, table)
        assert chunks == [(rows, 4 * rows + 2, 0) for rows, *_ in chunks]

    @pytest.mark.parametrize("column, constant", [("range_rate_mps", 1), ("range_meas_m", 2)])
    @pytest.mark.parametrize("digit", [True, False])
    def test_one_byte_edit_in_row_700(self, tmp_path, monkeypatch, column, constant, digit):
        # a constant column, and a column that repeats range_m: the edited
        # cell is parsed as a distinct column of its chunk, or refused
        path = tmp_path / "run.csv"
        write_records_csv(simulate(SimConfig(**REFERENCE_MISSION, seed=7)), path)
        lines = path.read_bytes().split(b"\n")
        cells = lines[701].split(b",")  # row 700; lines[0] is the header
        j = CSV_HEADER.split(",").index(column)
        cell = bytearray(cells[j])
        cell[10] = ord("0") + (cell[10] - ord("0") + 1) % 10 if digit else ord("x")
        cells[j] = bytes(cell)
        lines[701] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        expected = outcome(scan_only, path)
        if digit:
            read, chunks = row_matrix_read(monkeypatch, path)
            assert outcome(lambda _: read, path) == expected
            rows = chunks[0][0]
            assert rows > 700 and chunks[0] == (rows, 4 * rows + constant, 0)
            assert all(parsed == 3 * k + 2 for k, parsed, _ in chunks[1:])
        else:
            assert isinstance(expected, str) and expected.startswith("line 702: ")
            assert outcome(read_records_csv, path) == expected

    def test_rows_of_other_widths_fall_back_to_the_separator_scan(self, tmp_path, monkeypatch):
        # rows of 145, 144 and 146 bytes: the chunk's length is a multiple of
        # its first row's width, but the second row's separators are not at
        # the first row's offsets
        one, minus = "1.00000000000000000e+00", "-2.00000000000000000e+00"
        rows = [[minus] + [one] * 5, [one] * 6, [minus, minus] + [one] * 4]
        body = "".join(",".join(row) + "\n" for row in rows).encode()
        assert [len(",".join(row)) + 1 for row in rows] == [145, 144, 146]
        path = tmp_path / "widths.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\n" + body)
        matrices, scans = [], []
        monkeypatch.setattr(tracking, "_e17_matrix", lambda a: matrices.append(_e17_matrix(a)))
        monkeypatch.setattr(tracking, "_e17_parse", lambda a: scans.append(a.size) or _e17_parse(a))
        assert outcome(read_records_csv, path) == outcome(scan_only, path)
        assert matrices == [None] and scans == [len(body)]

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_edited_uniform_files_read_as_the_float_scan_reads_them(self, tmp_path_factory, data):
        # each edit keeps every row's width, so the row-matrix path checks it
        text = bytearray(UNIFORM_BASE)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(len(CSV_HEADER) + 1, len(text) - 1))
            text[at] = data.draw(st.sampled_from(b"0159.eE+-,\n\r x\0\xff"))
        path = tmp_path_factory.mktemp("edit") / "run.csv"
        path.write_bytes(bytes(text))
        assert outcome(read_records_csv, path) == outcome(scan_only, path)

    @pytest.mark.parametrize("reported", ["nothing", "the header", "half the file"])
    def test_a_file_longer_than_its_size_is_read_by_the_scan(self, tmp_path, monkeypatch, reported):
        # os.fstat under-reports the size, as for a file that grew after it
        # was sized: the columns are too short for the rows read, so the
        # file goes to _scan_rows (on the first chunk, or, at half the file,
        # on the second)
        table = simulate(SimConfig(**{**REFERENCE_MISSION, "n_obs": 2500}, seed=7))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        size = {"nothing": 0, "the header": len(CSV_HEADER) + 1,
                "half the file": path.stat().st_size // 2}[reported]
        stat = os.fstat

        def fstat(fd):
            real = stat(fd)
            return os.stat_result((*real[:6], size, *real[7:]))  # st_size is field 6

        monkeypatch.setattr(os, "fstat", fstat)
        scans = []
        monkeypatch.setattr(tracking, "_scan_rows", lambda p: scans.append(p) or _scan_rows(p))
        assert_tables_bitwise_equal(read_records_csv(path), table)
        assert scans == [path]

    def test_read_peak_is_the_table_and_one_chunk(self, tmp_path):
        # the (n, 6) rows and their transposed copy were twice the table
        n = 100_000
        table = simulate(SimConfig(**{**REFERENCE_MISSION, "n_obs": n}, seed=3))
        path = tmp_path / "run.csv"
        write_records_csv(table, path)
        tracemalloc.start()
        try:
            read = read_records_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_tables_bitwise_equal(read, table)
        assert peak < len(_COLUMNS) * 8 * n + 3_000_000


EDIT_BASE = (
    CSV_HEADER + "\n"
    "0.00000000000000000e+00,2.99195741000000000e+12,1.22000000000000000e+04,"
    "-2.99195741000000000e+12,4.06946451818412447e-08,1.00000000000000000e-12\n"
    "6.13106000000000000e+08,2.99943731320000000e+12,1.22000000000000000e+04,"
    "2.99943731320000000e+12,-4.06946495741316203e-08,1.00000000000000000e-120\n"
).encode()
# Rows of one width: a constant negative column, range_meas_m repeating
# range_m, and a constant sigma_frac outside the power table.
UNIFORM_BASE = (
    CSV_HEADER + "\n"
    "0.00000000000000000e+00,2.99195741000000000e+12,-1.22000000000000000e+04,"
    "2.99195741000000000e+12,4.06946451818412447e-08,1.00000000000000000e-300\n"
    "6.13106000000000000e+08,2.99943731320000000e+12,-1.22000000000000000e+04,"
    "2.99943731320000000e+12,4.06946495741316203e-08,1.00000000000000000e-300\n"
    "1.22621200000000000e+09,3.00691721640000000e+12,-1.22000000000000000e+04,"
    "3.00691721640000000e+12,4.06946539664220000e-08,1.00000000000000000e-300\n"
).encode()
