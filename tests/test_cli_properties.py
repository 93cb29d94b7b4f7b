"""Hypothesis properties of `cli.main`, one per subcommand, over hostile
input: float flags drawn from NaN, +-inf, zeros, negatives, subnormals and
1e+-300, and documents that are not what the command expects.

Every run must end in one of two ways.  Either it exits 0 and every float
it prints or writes is finite, or it exits 1 with exactly one `error:`
line on stderr, nothing on stdout, no traceback and no new file.  `check`
may also exit 1 with its FAIL summary line.  Any other exception escapes
`main` and fails the test, and so does any RuntimeWarning (see the
pytest filterwarnings setting), since the CLI would print it to stderr.

One more property pins the one-pass parse of `cli.main`: over argv of
command names, options and junk, it gives what the top-level parser's
parse_args gives, or exits with the same code and output.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from confdop import cli
from confdop.cli import ENV_SEED, main
from confdop.constants import SPEED_OF_LIGHT

EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
)
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def examples(n):
    # derandomized: the same n examples, and the same cost, on every run
    return settings(derandomize=True, database=None, deadline=None, max_examples=n)


def flag(name, value):
    # the --flag=value form lets argparse take "-inf" or "-1e300" as a value
    return [] if value is None else [f"{name}={value!r}"]


def run_main(argv, workdir: Path):
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    new = sorted(set(os.listdir(workdir)) - before)
    return code, out.getvalue(), err.getvalue(), [workdir / name for name in new]


def assert_clean_outcome(code, out, err, new_files, fail_line_ok=False):
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert not NON_FINITE.search(out), out
        for path in new_files:
            assert not NON_FINITE.search(path.read_text()), path.name
    elif fail_line_ok and err == "":
        assert code == 1
        assert len(out.splitlines()) == 1 and " FAIL | " in out, out
    else:
        assert code == 1
        assert out == "" and new_files == [], (out, new_files)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@examples(40)
@given(
    param=st.sampled_from(["--beta4", "--alpha"]),
    param_value=FLOATS,
    r=FLOATS,
    time=st.sampled_from(["--x4", "--t"]),
    time_value=FLOATS,
    c=st.none() | FLOATS,
    hill=st.booleans(),
)
def test_transform(param, param_value, r, time, time_value, c, hill):
    argv = ["transform", *flag(param, param_value), *flag("--r", r), *flag(time, time_value),
            *flag("--c", c), *(["--hill"] if hill else [])]
    with tempfile.TemporaryDirectory() as tmp:
        assert_clean_outcome(*run_main(argv, Path(tmp)))


@examples(25)
@given(
    suite=st.sampled_from(["group", "oracle", "hill", "metric"]),
    tol=st.none() | FLOATS,
    seed=st.integers(-2, 3),
    cases=st.integers(-2, 3),
)
def test_check(suite, tol, seed, cases):
    argv = ["check", "--suite", suite, *flag("--tol", tol), *flag("--seed", seed),
            *flag("--cases", cases)]
    with tempfile.TemporaryDirectory() as tmp:
        assert_clean_outcome(*run_main(argv, Path(tmp)), fail_line_ok=True)


BASE_CONFIG = {
    "r0": 4.5e12, "v_radial": 12200.0, "t_start": 0.0, "t_end": 1e8, "n_obs": 12,
    "alpha_true": 2.19e-18, "sigma_frac": 1e-12, "sigma_range": 2.0, "seed": 1,
}
FLOAT_KEYS = ["r0", "v_radial", "t_start", "t_end", "alpha_true", "sigma_frac",
              "sigma_range", "c"]

def simulate_outcome(document: bytes, seed=None, env_seed=None):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        config = workdir / "config.json"
        config.write_bytes(document)
        argv = ["simulate", "--config", str(config), "--out", str(workdir / "run.csv"),
                *flag("--seed", seed)]
        with mock.patch.dict(os.environ):
            os.environ.pop(ENV_SEED, None)
            if env_seed is not None:
                os.environ[ENV_SEED] = env_seed
            assert_clean_outcome(*run_main(argv, workdir))


# a config document: the base config with one value redrawn, or a document
# that is no config at all
config_documents = st.one_of(
    st.tuples(st.sampled_from(FLOAT_KEYS), FLOATS).map(
        lambda kv: json.dumps({**BASE_CONFIG, kv[0]: kv[1]}).encode()
    ),
    st.sampled_from([b"[1]", b"null", b'"r0"', b"3", b"{", b"", b"\xff{}", b'{"r0": 1e999}',
                     b'{"n_obs": 1.5}', json.dumps({**BASE_CONFIG, "seed": True}).encode(),
                     b'{"r0": ' + b"9" * 400 + b"}", b"[" * 10**5]),
)


@examples(30)
@given(config_documents)
def test_simulate_config(document):
    simulate_outcome(document)


@examples(10)
@given(
    seed=st.sampled_from([None, -1, 0, 3, 2**64]),
    env_seed=st.sampled_from([None, "abc", "", "1.5", "-1", "7", str(2**64)]),
)
def test_simulate_seed(seed, env_seed):
    simulate_outcome(json.dumps(BASE_CONFIG).encode(), seed, env_seed)


CSV_HEADER = "epoch_s,range_m,range_rate_mps,range_meas_m,doppler_frac,sigma_frac"


def csv_rows(n=20):
    rows = []
    for i in range(n):
        r = 4.5e12 + 1.22e4 * 1e6 * i
        frac = 12200.0 / SPEED_OF_LIGHT + 1e-12 * math.sin(i)
        rows.append([1e6 * i, r, 12200.0, r, frac, 1e-12])
    return rows


@examples(30)
@given(
    cell=st.none() | st.tuples(st.integers(0, 19), st.integers(0, 5), FLOATS),
    c=st.none() | FLOATS,
    z_threshold=st.none() | FLOATS,
    bootstrap=st.sampled_from([None, 99, 100]),
    seed=st.sampled_from([None, -1, 0, 2**128]),
)
def test_fit(cell, c, z_threshold, bootstrap, seed):
    rows = csv_rows()
    if cell is not None:
        rows[cell[0]][cell[1]] = cell[2]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        csv_path = workdir / "run.csv"
        csv_path.write_text(CSV_HEADER + "\n" + "".join(
            ",".join(repr(v) for v in row) + "\n" for row in rows
        ))
        argv = ["fit", "--input", str(csv_path), "--out", str(workdir / "fit.json"),
                *flag("--c", c), *flag("--z-threshold", z_threshold),
                *flag("--bootstrap", bootstrap), *flag("--seed", seed)]
        assert_clean_outcome(*run_main(argv, workdir))


# a fit.json document as text: not an object, no alpha_hat, or an alpha_hat
# that is null, a string, a bool, a huge integer or any float, with a
# decision that may not be one that fit writes
ALPHA_HATS = st.one_of(
    FLOATS, st.none(), st.text(max_size=5), st.booleans(), st.just(10**400),
    st.integers(-(10**6), 10**6),
)
DECISIONS = st.sampled_from(["MinkowskiConsistent", "ConformalDetected", "nan", math.nan, None])
fit_texts = st.one_of(
    st.builds(lambda a, d: json.dumps({"alpha_hat": a, "decision": d}), ALPHA_HATS, DECISIONS),
    st.sampled_from(["[1]", "null", '"alpha_hat"', "2.5", "{}", '{"decision": "x"}', "{",
                     '{"alpha_hat": 1e999}']),
)


@examples(40)
@given(
    fit_text=st.none() | fit_texts,
    hubble=st.none() | FLOATS,
    anomaly=st.none() | FLOATS,
)
def test_report(fit_text, hubble, anomaly):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv = ["report", *flag("--hubble", hubble), *flag("--anomaly", anomaly)]
        if fit_text is not None:
            fit_path = workdir / "fit.json"
            fit_path.write_text(fit_text)
            argv += ["--fit", str(fit_path)]
        assert_clean_outcome(*run_main(argv, workdir))


# every option of every command, abbreviations and --opt=value forms, junk
# options (--=x is an ambiguous --help/--version to the top-level parser),
# negative numbers, plain values, --, -h and --version
ARGV_TOKENS = st.sampled_from([
    "--beta4", "--alpha", "--r", "--x4", "--t", "--c", "--hill", "--suite", "--tol",
    "--seed", "--cases", "--config", "--out", "--input", "--bootstrap", "--z-threshold",
    "--fit", "--hubble", "--anomaly", "--al", "--s", "--h", "--ver", "--alpha=-1e-5",
    "--suite=group", "--cases=0", "--bogus", "--bogus=1", "-x", "-hx", "--=x", "--=", "-",
    "---", "-1", "-2.80e-18", "-.5", "-1e3", "1", "0", "1e8", "group", "hill", "nan", "x y",
    "", "--", "-h", "--help", "--version",
])


def parse_outcome(parse, argv):
    """The Namespace parse returns, as sorted key/repr pairs (NaN != NaN), or
    the exit code and output of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return sorted((k, repr(v)) for k, v in vars(args).items()), out.getvalue(), err.getvalue()


@examples(400)
@given(
    first=st.sampled_from(list(cli._build_parser()[1])) | st.sampled_from(
        ["nope", "Transform", "transfor", "", "-x", "--", "-h", "--version", "--=x", "-1"]
    ),
    rest=st.lists(ARGV_TOKENS, max_size=8),
)
def test_command_parse_matches_top_level_parse(first, rest):
    argv = [first, *rest]
    parser, _ = cli._build_parser()
    assert parse_outcome(cli._parse_args, argv) == parse_outcome(parser.parse_args, argv)
