"""Every refusal of input is a ConfdopError, and a ConfdopError is a
ValueError, so callers that catch ValueError keep working."""

import math

import numpy as np
import pytest

from confdop import (
    ConfdopError,
    ConfigInvalid,
    Event,
    GroupParameter,
    MalformedCsv,
    SimConfig,
    TrackingTable,
    bootstrap_alpha,
    decide_metric,
    fit_alpha,
    flow_oracle,
    hill_differentials,
    hill_velocity,
    hubble_alpha_correction,
    hubble_prediction,
    inbound_ray_coords,
    read_records_csv,
    simulate,
    wavelength_map,
)
from confdop.checks import run_suite
from confdop.conformal import flow_oracle_array, transform_finite_array
from confdop.tracking import CSV_HEADER

NAN = math.nan


def table(n=4):
    r = np.linspace(1e12, 2e12, n)
    return TrackingTable(r, r, np.zeros(n), r, np.zeros(n), np.full(n, 1e-12))


REFUSALS = {
    "event field not finite": lambda: Event(r=NAN, x4=0.0),
    "event r < 0": lambda: Event(r=-1.0, x4=0.0),
    "c not positive": lambda: GroupParameter(0.0, c=-1.0),
    "c*c not normal": lambda: GroupParameter(0.0, c=1e-300),
    "array field not finite": lambda: transform_finite_array(NAN, 1.0, 0.0),
    "array r < 0": lambda: transform_finite_array(0.0, -1.0, 0.0),
    "scalar steps < 1": lambda: flow_oracle(GroupParameter(0.1), Event(1.0, 0.0), steps=0),
    "array steps < 1": lambda: flow_oracle_array(0.1, 1.0, 0.0, 0),
    "inbound r' < 0": lambda: inbound_ray_coords(GroupParameter(0.0), -1.0, -1.0),
    "Hill differentials overflow": lambda: hill_differentials(
        GroupParameter(1e-200), 1e300, 1e200, 1e300, 1.0),
    "Hill velocity overflow": lambda: hill_velocity(GroupParameter(1e-200), 1e300, 1e200),
    "Hill velocity v not finite": lambda: hill_velocity(GroupParameter(0.0), 1.0, NAN),
    "wavelength overflow": lambda: wavelength_map(GroupParameter.from_alpha(1e-3), 1e308, 1e9, -1e6),
    "Hubble relation overflow": lambda: hubble_prediction(V=0.0, R=1e308, H0=10.0),
    "Hubble correction overflow": lambda: hubble_alpha_correction(1e308, -1e308),
    "too few resamples": lambda: bootstrap_alpha(table(), 99, 0),
    "bootstrap seed < 0": lambda: bootstrap_alpha(table(), 100, -1),
    "z_threshold not finite": lambda: decide_metric(fit_alpha(table()), NAN),
    "table column not 1-D": lambda: TrackingTable(np.zeros((3, 1)), *([np.zeros(3)] * 5)),
    "table columns differ in length": lambda: TrackingTable(*([np.zeros(3)] * 5), np.zeros(2)),
    "unknown suite": lambda: run_suite("nope", None, 0, 1),
    "tol not finite": lambda: run_suite("hill", math.inf, 0, None),
    "check seed < 0": lambda: run_suite("metric", None, -1, 1),
}


def test_confdop_error_is_a_value_error():
    assert issubclass(ConfdopError, ValueError)


@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_refusal_is_a_confdop_error(refusal):
    with pytest.raises(ConfdopError):
        REFUSALS[refusal]()


def test_csv_that_is_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n1,2,3,4,5,6\n\xe9,2,3,4,5,6\n")
    with pytest.raises(MalformedCsv, match="not UTF-8 text"):
        read_records_csv(path)


@pytest.mark.parametrize("key, value", [("alpha_true", 1e300), ("sigma_frac", 1.7976931348623157e308)])
def test_simulated_column_that_overflows_is_refused(key, value):
    cfg = SimConfig(r0=4.5e12, v_radial=12200.0, t_start=0.0, t_end=1e8, n_obs=8,
                    **{key: value})
    with pytest.raises(ConfigInvalid, match="^doppler_frac_meas: simulated column is not finite"):
        simulate(cfg)
