"""End-to-end tests of the command-line interface (in-process, except for
one run of `python -m confdop.cli`)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import confdop
from confdop import (
    Event,
    GroupParameter,
    bootstrap_alpha,
    cli,
    conformal,
    conformal_factor,
    flow_oracle,
    hill_transform,
    interval_squared,
    invariant_ratio,
    read_records_csv,
    transform_finite,
    verify_manifest,
)
from confdop.checks import SUITES
from confdop.cli import main
from confdop.constants import SPEED_OF_LIGHT
from confdop.errors import ManifestMismatch

C = SPEED_OF_LIGHT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **overrides):
    cfg = dict(
        r0=4.5e12,
        v_radial=C * 2**-13,
        t_start=0.0,
        t_end=1e8,
        n_obs=40,
        alpha_true=0.0,
        sigma_frac=0.0,
        sigma_range=0.0,
        seed=1,
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# stdout of `transform --alpha 1e-5 --r 1e8 --t 3 --hill` as hill_transform's
# numpy path writes it; its float path must write the same bytes
TRANSFORM_HILL_OUT = """\
{
  "beta4": 1.6678204759907605e-14,
  "alpha": 1e-05,
  "c": 299792458.0,
  "r": 100000000.0,
  "x4": 899377374.0,
  "t": 3.0,
  "r_prime": 100003000.06777954,
  "x4_prime": 899391031.652526,
  "t_prime": 3.0000455570250737,
  "gamma": 1.0000300006777953,
  "s2": 7.988796608631359e+17,
  "s2_over_r": 7988796608.631359,
  "hill": {
    "r_prime": 100003000.0,
    "t_prime": 3.000045556325028,
    "x4_prime": 899391031.4426576
  }
}
"""


def library_transform_text(p: GroupParameter, e: Event, hill: bool) -> str:
    """`transform` stdout for p and e as the library's public maps build it."""
    c = p.c
    out = transform_finite(p, e)
    doc = {
        "beta4": p.beta4, "alpha": p.alpha, "c": c, "r": e.r, "x4": e.x4, "t": e.x4 / c,
        "r_prime": out.r, "x4_prime": out.x4, "t_prime": out.x4 / c,
        "gamma": conformal_factor(p, e), "s2": interval_squared(e),
        "s2_over_r": invariant_ratio(e) if e.r > 0.0 else None,
    }
    if hill:
        hr, ht = hill_transform(p, e.r, e.x4 / c)
        doc["hill"] = {"r_prime": hr, "t_prime": ht, "x4_prime": c * ht}
    return json.dumps(doc, indent=2) + "\n"


class TestTransform:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "transform", "--alpha", "0", "--r", "1", "--t", "-10")
        doc = json.loads(out)
        assert code == 0
        assert doc["r_prime"] == 1.0
        assert doc["t_prime"] == -10.0
        assert doc["gamma"] == 1.0

    def test_matches_flow_oracle(self, capsys):
        code, out, _ = run(capsys, "transform", "--beta4", "0.05", "--r", "1", "--x4", "2")
        doc = json.loads(out)
        oracle = flow_oracle(GroupParameter(0.05), Event(r=1.0, x4=2.0), steps=5000)
        assert code == 0
        assert doc["r_prime"] == pytest.approx(oracle.r, rel=1e-9)
        assert doc["x4_prime"] == pytest.approx(oracle.x4, rel=1e-9)
        assert doc["s2"] == pytest.approx(3.0, rel=1e-15)
        assert doc["s2_over_r"] == pytest.approx(3.0, rel=1e-15)

    def test_origin_unchanged(self, capsys):
        code, out, _ = run(capsys, "transform", "--beta4", "2.5", "--r", "0", "--x4", "0")
        doc = json.loads(out)
        assert code == 0
        assert (doc["r_prime"], doc["x4_prime"]) == (0.0, 0.0)
        assert doc["s2_over_r"] is None

    def test_hill_block(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--alpha", "1e-4", "--r", "1e8", "--t", "5", "--hill"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["hill"]["r_prime"] == pytest.approx(doc["r_prime"], rel=1e-6)
        assert doc["hill"]["t_prime"] == pytest.approx(doc["t_prime"], rel=1e-6)

    def test_hill_on_floats_needs_no_numpy(self, capsys):
        # conformal names no numpy (tests/test_syntax.py); these are its bytes
        code, out, err = run(capsys, "transform", "--alpha", "1e-5", "--r", "1e8", "--t", "3",
                             "--hill")
        assert (code, err) == (0, "")
        assert out == TRANSFORM_HILL_OUT

    @pytest.mark.parametrize("hill", [False, True], ids=["plain", "hill"])
    @pytest.mark.parametrize("time", [("--x4", "-5"), ("--t", "3"), ("--t", "-2.5")],
                             ids=["x4", "t", "negative_t"])
    @pytest.mark.parametrize("r", ["0", "1e8"])
    @pytest.mark.parametrize("param", [("--beta4", "1e-13"), ("--alpha", "-1e-5")],
                             ids=["beta4", "alpha"])
    def test_stdout_is_the_library_document(self, capsys, param, r, time, hill):
        (name, value), (time_flag, time_value) = param, time
        make = GroupParameter if name == "--beta4" else GroupParameter.from_alpha
        p = make(float(value))
        x4 = float(time_value) if time_flag == "--x4" else C * float(time_value)
        argv = [name, value, "--r", r, time_flag, time_value, *(["--hill"] if hill else [])]
        code, out, err = run(capsys, "transform", *argv)
        assert (code, err) == (0, "")
        assert out == library_transform_text(p, Event(float(r), x4), hill)

    def test_evaluates_the_finite_map_once(self, capsys):
        spy = mock.patch.object(conformal, "_finite_map", wraps=conformal._finite_map)
        with spy as finite_map:
            code, out, _ = run(capsys, "transform", "--alpha", "1e-5", "--r", "1e8", "--t", "3",
                               "--hill")
        assert (code, out) == (0, TRANSFORM_HILL_OUT)
        assert finite_map.call_count == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_t_names_t(self, capsys, value):
        code, out, err = run(capsys, "transform", "--alpha", "0", "--r", "1", f"--t={value}")
        assert (code, out, err) == (1, "", f"error: t must be finite, got {float(value)}\n")

    def test_non_finite_r_is_named_before_t(self, capsys):
        code, out, err = run(capsys, "transform", "--alpha", "0", "--r", "nan", "--t", "nan")
        assert (code, out, err) == (1, "", "error: r must be finite, got nan\n")

    @pytest.mark.parametrize("t", ["1e300", "-1e300"])
    def test_overflowing_c_times_t_names_the_overflow(self, capsys, t):
        code, out, err = run(capsys, "transform", "--alpha", "0", "--r", "1", f"--t={t}")
        assert (code, out) == (1, "")
        assert err == (
            f"error: x4 overflows at (t={float(t)}, c={C}): c*t = {C * float(t)}\n"
        )
        assert "must be finite" not in err

    def test_singular_input_exits_one(self, capsys):
        code, _, err = run(capsys, "transform", "--beta4", "1", "--r", "0", "--x4", "1")
        assert code == 1
        assert "singular" in err.lower()

    def test_crossing_input_exits_one(self, capsys):
        code, _, err = run(capsys, "transform", "--beta4", "1", "--r", "1", "--x4", "0.5")
        assert code == 1
        assert "singular surface" in err

    def test_past_both_singular_surfaces_exits_one(self, capsys):
        code, out, err = run(capsys, "transform", "--beta4", "1", "--r", "0.1", "--x4", "3")
        assert (code, out) == (1, "")
        assert "singular surface" in err

    @pytest.mark.parametrize(
        "flag, field",
        [("--r", "r"), ("--x4", "x4"), ("--beta4", "beta4"), ("--alpha", "alpha"), ("--c", "c")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_names_field(self, capsys, flag, field, value):
        argv = {"--r": "1", "--x4": "0.5", "--beta4": "0.1"}
        if flag == "--alpha":
            del argv["--beta4"]
        argv[flag] = value
        # the --flag=value form lets argparse take "-inf" as a value
        code, out, err = run(capsys, "transform", *[f"{k}={v}" for k, v in argv.items()])
        assert (code, out) == (1, "")
        assert err == f"error: {field} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize(
        "c, message",
        [
            ("nan", "c must be finite, got nan"),
            ("0", "c must be positive, got 0.0"),
            ("1e-300", "c must square to a normal float, got 1e-300 (c*c = 0.0)"),
        ],
    )
    def test_bad_c_with_alpha_names_c(self, capsys, c, message):
        code, out, err = run(capsys, "transform", "--alpha", "1", "--c", c, "--r", "1", "--x4", "0")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_hill_with_underflowing_c_squared_exits_one(self, capsys):
        # hill_transform divides by c*c, which is 0.0 for c = 1e-300
        code, out, err = run(
            capsys, "transform", "--beta4", "0", "--r", "1", "--x4", "1", "--hill", "--c", "1e-300"
        )
        assert (code, out) == (1, "")
        assert err == "error: c must square to a normal float, got 1e-300 (c*c = 0.0)\n"

    def test_hill_with_overflowing_c_squared_exits_one(self, capsys):
        code, out, err = run(
            capsys, "transform", "--beta4", "0", "--r", "1", "--x4", "1", "--hill", "--c", "1e155"
        )
        assert (code, out) == (1, "")
        assert err == "error: c must square to a normal float, got 1e+155 (c*c = inf)\n"

    def test_non_finite_output_field_exits_one(self, capsys):
        # s2/r = 1e308 / 1e-10 overflows although every input is finite
        code, out, err = run(capsys, "transform", "--beta4", "0", "--r", "1e-10", "--x4", "1e154")
        assert (code, out) == (1, "")
        assert err.startswith("error: s2_over_r is not finite (inf)")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha", "0", "--r", "0", "--t", "1e160", "--hill"],
            ["--beta4", "1e-160", "--r", "0", "--x4", "-1e300"],
        ],
        ids=["beta4_0", "beta4_1e-160"],
    )
    def test_overflowing_denominator_exits_one_naming_the_overflow(self, capsys, argv):
        # every input is finite, but x4^2 overflows in the conformal factor
        code, out, err = run(capsys, "transform", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: conformal factor denominator overflows at (r=0.0, ")
        assert err.endswith(": x4^2 - r^2 = inf\n") and err.count("\n") == 1
        assert "singular" not in err and "must be finite" not in err

    def test_conflicting_parameters_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--beta4", "1", "--alpha", "1", "--r", "1", "--x4", "0"])
        assert exc.value.code == 2


class TestCheck:
    @pytest.mark.parametrize("suite", ["group", "oracle", "metric"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, "check", "--suite", suite, "--cases", "300", "--seed", "0")
        assert code == 0
        assert "PASS" in out

    def test_hill_suite_reports_order(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "hill")
        assert code == 0
        assert "PASS" in out
        assert "orders per halving" in out

    def test_hill_suite_ignores_seed_and_cases(self, capsys):
        # its grid is fixed; the help text and README say so
        default = run(capsys, "check", "--suite", "hill")
        assert run(capsys, "check", "--suite", "hill", "--cases", "-5", "--seed", "9") == default
        assert "cases=16 " in default[1]

    @pytest.mark.parametrize("suite", ["group", "oracle", "metric"])
    @pytest.mark.parametrize("cases", ["0", "-5", str(2**62)])
    def test_no_cases_is_refused(self, capsys, suite, cases):
        # 2**62 cases used to end in a ValueError traceback from numpy
        code, out, err = run(capsys, "check", "--suite", suite, "--cases", cases)
        if int(cases) < 1:
            message = f"cases must be >= 1, got {cases}"
        else:
            limit = np.iinfo(np.intp).max // (14 * 8)
            message = (f"cases must be <= {limit}, so that numpy can size the "
                       f"suite's float64 arrays, got {cases}")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_group_suite_full_defaults(self, capsys):
        # 1e4 cases at tol 1e-12
        code, out, _ = run(capsys, "check", "--suite", "group", "--seed", "0")
        assert code == 0
        assert "cases=10000" in out and "PASS" in out

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "group", "--cases", "200", "--tol", "1e-22"
        )
        assert code == 1
        assert "FAIL" in out
        assert "worst case" in out

    @pytest.mark.parametrize("suite", ["group", "hill"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_refused(self, capsys, suite, tol):
        # a NaN tol used to FAIL every run and an infinite one PASS every run
        code, out, err = run(capsys, "check", "--suite", suite, "--tol", tol, "--cases", "3")
        assert (code, out, err) == (1, "", f"error: tol must be finite, got {float(tol)}\n")

    def test_negative_seed_is_named(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "group", "--seed", "-1", "--cases", "3")
        assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")


class TestSimulate:
    def test_deterministic_and_manifest_verifies(self, capsys, tmp_path):
        cfg = write_config(tmp_path, sigma_frac=1e-12, sigma_range=2.0, seed=77)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out1))[0] == 0
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = verify_manifest(tmp_path / "a.csv.manifest.json")
        assert manifest.command == "simulate"
        assert manifest.seed == 77
        assert manifest.config["sigma_frac"] == 1e-12

    def test_tampered_output_fails_verification(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.csv"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        out.write_bytes(out.read_bytes() + b"tampered\n")
        with pytest.raises(ManifestMismatch):
            verify_manifest(tmp_path / "run.csv.manifest.json")

    def test_noiseless_doppler_column_equals_rate_column(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.csv"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        for line in out.read_text().splitlines()[1:]:
            f = line.split(",")
            assert float(f[4]) * C == float(f[2])

    def test_invalid_config_names_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, n_obs=1)
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "n_obs" in err

    @pytest.mark.parametrize("key", ["sigma_frac", "v_radial"])
    def test_non_finite_config_value_exits_one(self, capsys, tmp_path, key):
        cfg = write_config(tmp_path, **{key: float("nan")})
        assert "NaN" in cfg.read_text()
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert key in err
        assert not out.exists()

    def test_non_integer_env_seed_is_named(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "x.csv"
        monkeypatch.setenv("CONFDOP_SEED", "abc")
        code, stdout, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: CONFDOP_SEED must be an integer, got 'abc'\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, cause", [
        (b'{"r0": 1', "not valid UTF-8 JSON (Expecting ',' delimiter"),
        (b'{"r0": \xff}', "not valid UTF-8 JSON ('utf-8' codec can't decode byte 0xff"),
        (b"[1]", "must hold a JSON object, got [1]"),
        (b"null", "must hold a JSON object, got null"),
    ])
    def test_unreadable_config_names_file(self, capsys, tmp_path, text, cause):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: {cfg}: {cause}")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, column", [
        ("alpha_true", 1e300, "doppler_frac_meas"),
        ("sigma_range", 1e308, "range_meas"),
    ])
    def test_overflowing_column_is_refused(self, capsys, tmp_path, key, value, column):
        # the CSV used to be written with inf in the column, and a RuntimeWarning
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert err == f"error: {column}: simulated column is not finite for this config\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "sigma_frac"])
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, key):
        # true used to run as seed 1 or sigma_frac 1.0
        cfg = write_config(tmp_path, **{key: True})
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (code, err) == (1, f"error: {key}: must be a number, got True\n")
        assert not out.exists()

    @pytest.mark.parametrize("n_obs", [1e300, 2**63, np.iinfo(np.intp).max // 16 + 1],
                             ids=["1e300", "2**63", "first-unsizable"])
    def test_n_obs_numpy_cannot_size_is_refused(self, capsys, tmp_path, n_obs):
        # 1e300 used to end in a ValueError traceback, and 2**63 in an IndexError
        cfg = write_config(tmp_path, n_obs=n_obs)
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == (
            f"error: n_obs: must be <= {np.iinfo(np.intp).max // 16}, so that numpy can "
            f"size the (n_obs, 2) float64 noise draws, got {n_obs:.6g}\n"
        )
        assert not out.exists()

    def test_integer_past_float_range_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(write_config(tmp_path).read_text().replace("4500000000000.0", "9" * 400))
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert (code, err) == (1, "error: r0: must be finite, got inf\n")

    def test_manifest_refuses_non_finite_config(self, tmp_path):
        manifest = confdop.RunManifest(
            command="simulate", tool_version=confdop.__version__, rng_algorithm="none",
            seed=0, config={"r0": float("nan")}, config_digest="", outputs=[],
        )
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="JSON"):
            confdop.write_manifest(manifest, path)
        assert not path.exists()

    def test_seed_precedence_flag_over_env_over_config(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, sigma_frac=1e-12, seed=1)

        def run_sim(name, *extra):
            out = tmp_path / name
            assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out), *extra)[0] == 0
            return out.read_bytes(), json.loads((tmp_path / (name + ".manifest.json")).read_text())

        bytes_cfg, man_cfg = run_sim("c.csv")
        assert man_cfg["seed"] == 1
        monkeypatch.setenv("CONFDOP_SEED", "2")
        bytes_env, man_env = run_sim("e.csv")
        assert man_env["seed"] == 2
        bytes_flag, man_flag = run_sim("f.csv", "--seed", "3")
        assert man_flag["seed"] == 3
        assert bytes_cfg != bytes_env != bytes_flag


class TestFit:
    def test_noiseless_exact_recovery_via_csv(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            v_radial=C * 2**-40,
            t_end=1e12,
            n_obs=200,
            alpha_true=2.19e-18,
        )
        csv_path = tmp_path / "run.csv"
        fit_path = tmp_path / "fit.json"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        code, out, _ = run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))
        assert code == 0
        doc = json.loads(fit_path.read_text())
        assert doc["alpha_hat"] == pytest.approx(2.19e-18, rel=1e-12)
        assert doc["n_used"] == 200
        assert set(doc) == {
            "alpha_hat", "alpha_stderr", "chi2", "dof",
            "z_score_alpha_zero", "n_used", "decision",
        }
        assert "alpha_hat" in out

    def test_alpha_zero_identity(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        csv_path = tmp_path / "run.csv"
        fit_path = tmp_path / "fit.json"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        code, _, _ = run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))
        doc = json.loads(fit_path.read_text())
        assert code == 0
        assert doc["alpha_hat"] == 0.0
        assert doc["decision"] == "MinkowskiConsistent"

    def test_bootstrap_key_present(self, capsys, tmp_path):
        cfg = write_config(tmp_path, sigma_frac=1e-12, n_obs=300)
        csv_path = tmp_path / "run.csv"
        fit_path = tmp_path / "fit.json"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        code, _, _ = run(
            capsys, "fit", "--input", str(csv_path), "--out", str(fit_path),
            "--bootstrap", "120", "--seed", "5",
        )
        assert code == 0
        assert "alpha_stderr_boot" in json.loads(fit_path.read_text())

    def test_malformed_csv_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "epoch_s,range_m,range_rate_mps,range_meas_m,doppler_frac,sigma_frac\n"
            "1,2,3,4,5,6\n"
            "oops\n"
        )
        code, _, err = run(capsys, "fit", "--input", str(bad), "--out", str(tmp_path / "f.json"))
        assert code == 1
        assert "line 3" in err

    def test_nan_in_csv_exits_one_without_fit_json(self, capsys, tmp_path):
        cfg = write_config(tmp_path, sigma_frac=1e-12)
        csv_path = tmp_path / "run.csv"
        fit_path = tmp_path / "fit.json"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        lines = csv_path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[4] = "nan"
        lines[5] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))
        assert code == 1
        assert "line 6: doppler_frac must be finite" in err
        assert not fit_path.exists()

    def test_non_finite_fit_is_not_written_as_json(self, capsys, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, sigma_frac=1e-12)
        csv_path = tmp_path / "run.csv"
        fit_path = tmp_path / "fit.json"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        nan_fit = confdop.FitResult(
            alpha_hat=float("nan"), alpha_stderr=1.0, chi2=0.0, dof=39,
            z_score_alpha_zero=float("nan"), n_used=40,
        )
        monkeypatch.setattr(confdop.cli, "fit_alpha", lambda table, c: nan_fit)
        code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))
        assert code == 1
        assert "JSON" in err
        assert not fit_path.exists()

    def test_refused_fit_leaves_an_old_fit_json_untouched(self, capsys, tmp_path, monkeypatch):
        # the text is built before the file is opened
        cfg = write_config(tmp_path, sigma_frac=1e-12)
        csv_path = tmp_path / "run.csv"
        fit_path = tmp_path / "fit.json"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        assert run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))[0] == 0
        old = fit_path.read_bytes()
        nan_fit = confdop.FitResult(
            alpha_hat=float("nan"), alpha_stderr=1.0, chi2=0.0, dof=39,
            z_score_alpha_zero=float("nan"), n_used=40,
        )
        monkeypatch.setattr(confdop.cli, "fit_alpha", lambda table, c: nan_fit)
        code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))
        assert code == 1 and "alpha_hat is not finite" in err
        assert fit_path.read_bytes() == old

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_design_exits_one_without_fit_json(self, capsys, tmp_path):
        csv_path = tmp_path / "big.csv"
        fit_path = tmp_path / "fit.json"
        csv_path.write_text(
            "epoch_s,range_m,range_rate_mps,range_meas_m,doppler_frac,sigma_frac\n"
            "0,1e200,0,1e200,1e-12,1e-12\n"
            "1,2e200,0,2e200,2e-12,1e-12\n"
        )
        code, _, err = run(capsys, "fit", "--input", str(csv_path), "--out", str(fit_path))
        assert code == 1
        assert err.startswith("error: sum(w*r^2) overflows")
        assert "Traceback" not in err
        assert not fit_path.exists()

    def test_csv_that_is_not_utf8_names_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(
            b"epoch_s,range_m,range_rate_mps,range_meas_m,doppler_frac,sigma_frac\n"
            b"1,2,3,4,5,6\n"
            b"\xff,2,3,4,5,6\n"
        )
        fit_path = tmp_path / "f.json"
        code, out, err = run(capsys, "fit", "--input", str(bad), "--out", str(fit_path))
        assert (code, out, err) == (1, "", f"error: {bad}: not UTF-8 text (invalid start byte)\n")
        assert not fit_path.exists()

    def test_bug_is_not_reported_as_a_refusal(self, capsys, tmp_path, monkeypatch):
        # only a ConfdopError or an OSError is an exit 1; anything else is a bug
        def broken(table, c):
            raise KeyError("alpha_hat")

        csv_path = self.noisy_csv(capsys, tmp_path)
        monkeypatch.setattr(confdop.cli, "fit_alpha", broken)
        with pytest.raises(KeyError):
            main(["fit", "--input", str(csv_path), "--out", str(tmp_path / "f.json")])

    def test_missing_input_exits_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json")
        )
        assert code == 1

    def noisy_csv(self, capsys, tmp_path):
        cfg = write_config(tmp_path, sigma_frac=1e-12, n_obs=100)
        csv_path = tmp_path / "run.csv"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        return csv_path

    @pytest.mark.parametrize("c, message", [
        # (c*sigma_frac)**2 underflowed to 0, so unit weights gave z = -1e5
        ("1e-300", "c must square to a normal float"),
        ("-1", "c must be positive"),
    ])
    def test_bad_c_exits_one_without_fit_json(self, capsys, tmp_path, c, message):
        csv_path = self.noisy_csv(capsys, tmp_path)
        fit_path = tmp_path / "fit.json"
        code, _, err = run(
            capsys, "fit", "--input", str(csv_path), "--out", str(fit_path), "--c", c
        )
        assert code == 1
        assert err.startswith(f"error: {message}, got {float(c)}")
        assert not fit_path.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_z_threshold_exits_one_without_fit_json(self, capsys, tmp_path, threshold):
        # |z| > nan is false, so nan used to decide MinkowskiConsistent for any z
        csv_path = self.noisy_csv(capsys, tmp_path)
        fit_path = tmp_path / "fit.json"
        code, _, err = run(
            capsys, "fit", "--input", str(csv_path), "--out", str(fit_path),
            "--z-threshold", threshold,
        )
        assert code == 1
        assert err == f"error: z_threshold must be finite and >= 0, got {float(threshold)}\n"
        assert not fit_path.exists()

    @pytest.mark.parametrize("seed", [str(-1), str(2**128)])
    def test_out_of_range_bootstrap_seed_is_named(self, capsys, tmp_path, seed):
        csv_path = self.noisy_csv(capsys, tmp_path)
        fit_path = tmp_path / "fit.json"
        code, _, err = run(
            capsys, "fit", "--input", str(csv_path), "--out", str(fit_path),
            "--bootstrap", "100", "--seed", seed,
        )
        assert code == 1
        assert err == f"error: bootstrap seed must be in [0, 2**128), got {seed}\n"
        assert not fit_path.exists()

    def test_bootstrap_numpy_cannot_size_is_refused(self, capsys, tmp_path):
        # used to end in a ValueError traceback from np.empty
        csv_path = self.noisy_csv(capsys, tmp_path)
        fit_path = tmp_path / "fit.json"
        code, _, err = run(
            capsys, "fit", "--input", str(csv_path), "--out", str(fit_path),
            "--bootstrap", str(2**62),
        )
        limit = np.iinfo(np.intp).max // 8
        assert code == 1
        assert err == (f"error: n_resamples must be <= {limit}, so that numpy can size "
                       f"the float64 estimates, got {2**62}\n")
        assert not fit_path.exists()


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_output_path_that_is_a_directory_exits_one(capsys, tmp_path, command):
    cfg = write_config(tmp_path)
    csv_path = tmp_path / "run.csv"
    assert run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))[0] == 0
    out = tmp_path / "dir"
    out.mkdir()
    inputs = {"simulate": ["--config", str(cfg)], "fit": ["--input", str(csv_path)]}
    code, stdout, err = run(capsys, command, *inputs[command], "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err
    assert list(out.iterdir()) == []


class TestReport:
    def test_default_rates(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert "opposite_sign: true" in out
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert float(lines["magnitude_ratio"]) == pytest.approx(1.28, abs=0.01)

    def test_fit_equal_to_hubble_cancels(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"alpha_hat": 2.19e-18, "decision": "ConformalDetected"}))
        code, out, _ = run(capsys, "report", "--fit", str(fit_path), "--hubble", "2.19e-18")
        assert code == 0
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert float(lines["corrected_hubble_rate_per_s"]) == 0.0
        assert lines["decision"] == "ConformalDetected"

    def test_zero_fit_leaves_hubble(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"alpha_hat": 0.0, "decision": "MinkowskiConsistent"}))
        code, out, _ = run(capsys, "report", "--fit", str(fit_path))
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert code == 0
        assert float(lines["corrected_hubble_rate_per_s"]) == 2.19e-18

    def test_missing_fit_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--fit", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("text, message", [
        # NaN used to print "alpha_hat_per_s: nan" and exit 0
        ('{"alpha_hat": NaN}', "alpha_hat must be a finite number, got NaN"),
        # null and [1] used to end in a TypeError traceback
        ('{"alpha_hat": null}', "alpha_hat must be a finite number, got null"),
        ('{"alpha_hat": "1e-18"}', 'alpha_hat must be a finite number, got "1e-18"'),
        ('{"alpha_hat": true}', "alpha_hat must be a finite number, got true"),
        ("[1]", "must hold a JSON object, got [1]"),
        ("{}", "alpha_hat is missing"),
        # a NaN decision used to print "decision: nan" and exit 0
        ('{"alpha_hat": 0, "decision": NaN}', "decision must be one of "
         "('MinkowskiConsistent', 'ConformalDetected', 'n/a'), got NaN"),
    ])
    def test_bad_fit_document_names_file_and_field(self, capsys, tmp_path, text, message):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(text)
        code, out, err = run(capsys, "report", "--fit", str(fit_path))
        assert (code, out, err) == (1, "", f"error: {fit_path}: {message}\n")

    @pytest.mark.parametrize("flag, value", [("--hubble", "nan"), ("--anomaly", "inf")])
    def test_non_finite_rate_is_named(self, capsys, flag, value):
        # --hubble nan used to print "magnitude_ratio: nan" and exit 0
        code, out, err = run(capsys, "report", flag, value)
        assert (code, out, err) == (1, "", f"error: {flag[2:]} must be finite, got {float(value)}\n")

    def test_overflowing_corrected_rate_is_refused(self, capsys, tmp_path):
        # hubble_alpha_correction names the overflow ("corrected_hubble_rate_per_s
        # must be finite, got inf" was report's own check)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"alpha_hat": -1.7e308}))
        code, out, err = run(capsys, "report", "--fit", str(fit_path), "--hubble", "1.7e308")
        assert (code, out, err) == (1, "", "error: Hubble rate correction overflows at "
                                    "(H0=1.7e+308, alpha=-1.7e+308): H0 - alpha = inf\n")

    def test_zero_hubble_rate_is_refused(self, capsys):
        code, out, err = run(capsys, "report", "--hubble", "0")
        assert (code, out, err) == (1, "", "error: magnitude_ratio must be finite, got inf\n")


class TestParserReuse:
    """One parser serves every main() call in a process; no call leaves
    anything behind for the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_fit_seed_does_not_carry_over(self, capsys, tmp_path):
        cfg = write_config(tmp_path, sigma_frac=1e-12, n_obs=300)
        csv_path = tmp_path / "run.csv"
        run(capsys, "simulate", "--config", str(cfg), "--out", str(csv_path))
        fit = ["fit", "--input", str(csv_path), "--bootstrap", "120", "--out"]
        assert run(capsys, *fit, str(tmp_path / "seeded.json"), "--seed", "5")[0] == 0
        assert run(capsys, *fit, str(tmp_path / "plain.json"))[0] == 0
        seeded = json.loads((tmp_path / "seeded.json").read_text())["alpha_stderr_boot"]
        plain = json.loads((tmp_path / "plain.json").read_text())["alpha_stderr_boot"]
        table = read_records_csv(csv_path)
        assert plain == bootstrap_alpha(table, 120, seed=0)
        assert seeded == bootstrap_alpha(table, 120, seed=5) != plain

    def test_transform_after_usage_error_prints_what_a_fresh_process_prints(self, capsys):
        argv = ["transform", "--alpha", "1e-5", "--r", "1e8", "--t", "3", "--hill"]
        with pytest.raises(SystemExit) as exc:
            main(["transform"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        proc = run_fresh_process(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert code == 0 and json.loads(out)["hill"]

    def test_check_suite_still_lists_its_choices(self, capsys):
        assert run(capsys, "check", "--suite", "group", "--cases", "3")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "nope"])
        assert exc.value.code == 2
        choices = capsys.readouterr().err.split("choose from", 1)[1]
        assert all(name in choices for name in SUITES)


# usage: confdop [-h] [--version] {transform,check,simulate,fit,report} ...
TOP_LEVEL_USAGE = cli._build_parser()[0].format_usage()


class TestDispatch:
    """A command's arguments go straight to its own parser; what that
    parser leaves over, and every argv that names no command, get the
    top-level parser's usage line and error."""

    def test_unrecognized_argument_gets_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--alpha", "0", "--r", "1", "--t", "0", "--bogus"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == (
            TOP_LEVEL_USAGE + "confdop: error: unrecognized arguments: --bogus\n"
        )

    def test_ambiguous_top_level_option_gets_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--alpha", "0", "--=x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            TOP_LEVEL_USAGE
            + "confdop: error: ambiguous option: --=x could match --help, --version\n"
        )

    def test_command_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "-h"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: confdop transform [-h]")
        assert "--hill" in captured.out

    def test_top_level_help_leaves_out_the_parsing_note(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith(TOP_LEVEL_USAGE)
        assert "value.\n\npositional arguments:" in out and "parsed once" not in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (f"confdop {confdop.__version__}\n", "")

    def test_no_argv_gets_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(TOP_LEVEL_USAGE + "confdop: error: ")


def run_fresh_process(*argv):
    src = str(Path(confdop.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "confdop.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_module_entry_point_runs_a_suite():
    proc = run_fresh_process("check", "--suite", "hill")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("suite=hill ") and " PASS " in proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    [(["report"], 0), (["report", "--hubble", "nan"], 1), (["report", "--bogus"], 2)],
)
def test_entrypoint_exits_with_mains_code(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["confdop", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code
    assert "Traceback" not in capsys.readouterr().err


def test_entrypoint_exits_70_after_the_traceback_of_a_crash(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli._HANDLERS, "report", crash)
    monkeypatch.setattr(sys, "argv", ["confdop", "report"])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    err = capsys.readouterr().err
    assert exc.value.code == cli.EX_SOFTWARE == 70
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: handler bug\n")
