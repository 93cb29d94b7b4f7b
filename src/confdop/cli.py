"""Batch command-line front end.

Commands: transform, check, simulate, fit, report.  Exit codes: 0 on
success, 1 when a ConfdopError or an OSError refuses the input (reported
on one `error:` line), 2 on usage errors.  Any other exception is a bug:
the console script prints its traceback and exits 70 (EX_SOFTWARE).
The seed for `simulate` resolves as flag > CONFDOP_SEED env var > config
value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import traceback
from pathlib import Path

from . import __version__
from .checks import SUITES, run_suite
from .conformal import (
    Event,
    GroupParameter,
    _overflow,
    _require_finite,
    _transform_with_factor,
    hill_transform,
    transform_finite,  # not called here: perfbench's tracer wraps cli.transform_finite by getattr
)
from .constants import HUBBLE_RATE, PIONEER_ANOMALY_RATE, SPEED_OF_LIGHT
from .errors import ConfdopError
from .estimator import MetricDecision, bootstrap_alpha, decide_metric, fit_alpha
from .manifest import _read_json, _strict_json, _write_json, build_manifest, write_manifest
from .tracking import (
    RNG_ALGORITHM,
    SimConfig,
    read_records_csv,
    simulate,
    write_records_csv,
)
from .wave import hubble_alpha_correction, sign_comparison_report

ENV_SEED = "CONFDOP_SEED"
EX_SOFTWARE = 70  # sysexits.h: internal software error


class _Parser(argparse.ArgumentParser):
    # stdlib argparse (< 3.13) only treats plain decimals as negative-number
    # values; rates like -2.80e-18 need the exponent form recognized too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+\.?\d*[eE][-+]?\d+$"
        )


# Built once per process: parse_args keeps no state between calls.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's parser by command name."""
    parser = _Parser(prog="confdop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"confdop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    tr = sub.add_parser("transform", help="apply the finite transformation to one event")
    group_param = tr.add_mutually_exclusive_group(required=True)
    group_param.add_argument("--beta4", type=float, help="group parameter in 1/m")
    group_param.add_argument("--alpha", type=float, help="group parameter in 1/s")
    tr.add_argument("--r", type=float, required=True, help="radial distance in m")
    group_time = tr.add_mutually_exclusive_group(required=True)
    group_time.add_argument("--x4", type=float, help="time coordinate c*t in m")
    group_time.add_argument("--t", type=float, help="time coordinate in s")
    tr.add_argument("--c", type=float, default=SPEED_OF_LIGHT, help="speed of light in m/s")
    tr.add_argument("--hill", action="store_true", help="also print the first-order map")

    ck = sub.add_parser("check", help="run a randomized property suite")
    ck.add_argument("--suite", required=True, choices=SUITES)
    ck.add_argument("--tol", type=float, default=None,
                    help="error tolerance (for hill: minimum convergence order)")
    ck.add_argument("--seed", type=int, default=0, help="random seed (hill ignores it)")
    ck.add_argument("--cases", type=int, default=None,
                    help="number of random cases (hill ignores it: its grid is fixed)")

    sim = sub.add_parser("simulate", help="simulate a tracking mission to CSV + manifest")
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None,
                     help=f"override the config seed (precedence: flag > ${ENV_SEED} > config)")

    fit = sub.add_parser("fit", help="estimate alpha from a tracking CSV")
    fit.add_argument("--input", required=True, help="tracking CSV path")
    fit.add_argument("--out", required=True, help="output JSON path")
    fit.add_argument("--bootstrap", type=int, default=None, metavar="N",
                     help="also bootstrap the standard error with N resamples")
    fit.add_argument("--z-threshold", type=float, default=5.0)
    fit.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    fit.add_argument("--c", type=float, default=SPEED_OF_LIGHT)

    rep = sub.add_parser("report", help="compare fitted, Hubble, and anomaly rates")
    rep.add_argument("--fit", default=None, help="FitResult JSON path")
    rep.add_argument("--hubble", type=float, default=HUBBLE_RATE, help="Hubble rate in 1/s")
    rep.add_argument("--anomaly", type=float, default=PIONEER_ANOMALY_RATE,
                     help="anomaly rate in 1/s")
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What the top-level parse_args(argv) returns, prints and exits with,
    at the cost of one parse: a command's arguments are parsed once, by
    that command's own parser.

    The top-level parser hands every token after a command name to that
    command's parser, so it is called directly, and what it leaves over
    is refused as the top-level parser refuses it.  Any other argv (none,
    -h, --version, an unknown command) goes to the top-level parser, and
    so does any argv whose tokens, joined, hold `--=`.  That covers every
    `--=...` token before a `--`, which the top-level parser refuses as an
    ambiguous --help or --version before the command's parser sees it;
    the other argv it sends there get the same outcome by either parse,
    only one parse slower.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None or "--=" in "".join(argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def cmd_transform(args) -> int:
    c, r, t = args.c, args.r, args.t
    if args.beta4 is not None:
        p = GroupParameter(args.beta4, c)
    else:
        p = GroupParameter.from_alpha(args.alpha, c)
    if t is None:
        x4 = args.x4
    else:
        x4 = c * t
        if not abs(x4) < math.inf:  # name t or c*t, not x4; r first, as Event does
            _require_finite("r", r)
            _require_finite("t", t)
            raise ConfdopError(_overflow("x4", f"(t={t}, c={c})", (("c*t", x4),)))
    # Event refuses a negative or non-finite r and a non-finite x4
    g, image = _transform_with_factor(p, Event(r, x4))
    r_prime, x4_prime = image.r, image.x4
    s2 = x4 * x4 - r * r
    t = x4 / c  # also for --t: the document's t is x4/c, which can differ from --t in its last bit
    doc = {
        "beta4": p.beta4,
        "alpha": p.alpha,
        "c": c,
        "r": r,
        "x4": x4,
        "t": t,
        "r_prime": r_prime,
        "x4_prime": x4_prime,
        "t_prime": x4_prime / c,
        "gamma": g,
        "s2": s2,
        "s2_over_r": s2 / r if r > 0.0 else None,
    }
    if args.hill:
        hr, ht = hill_transform(p, r, t)
        doc["hill"] = {"r_prime": hr, "t_prime": ht, "x4_prime": c * ht}
    sys.stdout.write(_strict_json(doc) + "\n")
    return 0


def cmd_check(args) -> int:
    result = run_suite(args.suite, args.tol, args.seed, args.cases)
    print(result.summary())
    return 0 if result.passed else 1


def _resolve_seed(args_seed) -> int | None:
    if args_seed is not None:
        return args_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfdopError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return None  # fall through to the config value (or its default)


def cmd_simulate(args) -> int:
    raw = _read_json(args.config)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        raw = dict(raw, seed=seed)
    cfg = SimConfig.from_dict(raw)
    table = simulate(cfg)
    out = Path(args.out)
    write_records_csv(table, out)
    manifest = build_manifest(
        command="simulate",
        tool_version=__version__,
        rng_algorithm=RNG_ALGORITHM,
        seed=cfg.seed,
        config=cfg.to_dict(),
        output_paths=[out],
        base_dir=out.parent,
    )
    manifest_path = out.with_name(out.name + ".manifest.json")
    write_manifest(manifest, manifest_path)
    print(f"wrote {out} ({len(table)} records) and {manifest_path}")
    return 0


def cmd_fit(args) -> int:
    table = read_records_csv(args.input)
    fit = fit_alpha(table, c=args.c)
    decision = decide_metric(fit, z_threshold=args.z_threshold)
    doc = fit.to_dict()
    doc["decision"] = decision.value
    if args.bootstrap is not None:
        doc["alpha_stderr_boot"] = bootstrap_alpha(table, args.bootstrap, args.seed, c=args.c)
    _write_json(doc, args.out)
    print(
        f"alpha_hat={fit.alpha_hat:.6e} 1/s  stderr={fit.alpha_stderr:.6e}  "
        f"z={fit.z_score_alpha_zero:.3f}  decision={decision.value}"
    )
    return 0


# the decisions report accepts: those fit writes, or "n/a" for none given
_DECISIONS = tuple(d.value for d in MetricDecision) + ("n/a",)


def _read_fit(path) -> tuple[float, str]:
    """alpha_hat and decision from a fit.json, refusing what fit never
    writes: a missing or non-finite alpha_hat, or an unknown decision."""
    doc = _read_json(path)
    if "alpha_hat" not in doc:
        raise ConfdopError(f"{path}: alpha_hat is missing")
    alpha_hat = doc["alpha_hat"]
    # bool is an int subclass; an int past the float range is not finite
    if type(alpha_hat) not in (int, float) or not abs(alpha_hat) <= sys.float_info.max:
        raise ConfdopError(
            f"{path}: alpha_hat must be a finite number, got {json.dumps(alpha_hat):.40}"
        )
    decision = doc.get("decision", "n/a")
    if decision not in _DECISIONS:
        raise ConfdopError(
            f"{path}: decision must be one of {_DECISIONS}, got {json.dumps(decision):.40}"
        )
    return float(alpha_hat), decision


def cmd_report(args) -> int:
    _require_finite("anomaly", args.anomaly)
    _require_finite("hubble", args.hubble)
    comp = sign_comparison_report(args.anomaly, args.hubble)
    _require_finite("magnitude_ratio", comp.magnitude_ratio)
    lines = [
        f"anomaly_rate_per_s: {args.anomaly!r}",
        f"hubble_rate_per_s: {args.hubble!r}",
        f"magnitude_ratio: {comp.magnitude_ratio:.6f}",
        f"opposite_sign: {str(comp.opposite_sign).lower()}",
        f"caveat: {comp.caveat}",
    ]
    if args.fit is not None:
        alpha_hat, decision = _read_fit(args.fit)
        corrected = hubble_alpha_correction(args.hubble, alpha_hat)
        lines += [
            f"alpha_hat_per_s: {alpha_hat!r}",
            f"corrected_hubble_rate_per_s: {corrected!r}",
            f"decision: {decision}",
        ]
    print("\n".join(lines))
    return 0


_HANDLERS = {
    "transform": cmd_transform,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return _HANDLERS[args.command](args)
    except (ConfdopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    """Exit with main's code, or print the traceback of an exception
    main lets through, a bug, and exit EX_SOFTWARE."""
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = EX_SOFTWARE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
