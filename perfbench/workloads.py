"""The three benchmark workloads and the output checks run on every operation.

Each workload is a closed loop with one caller: an operation starts only
after the previous one and its checks have finished.  Operations go
through `confdop.cli.main` with generated config files and CLI arguments;
checks call the library directly and run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from pathlib import Path

import numpy as np

import confdop
import confdop.conformal
import confdop.wave
from confdop import cli

REFERENCE_CONFIG = {
    "r0": 2.99195741e12,
    "v_radial": 12200.0,
    "t_start": 0.0,
    "t_end": 6.13106e8,
    "n_obs": 10_000,
    "alpha_true": 2.19e-18,
    "sigma_frac": 1e-12,
}
LARGE_N_OBS = 1_000_000
BOOTSTRAP_RESAMPLES = 200
# Missions draw their config seed from a fixed pool, so that the CSV digest
# of every (workload seed, mission) pair is known in advance (digests.json).
POOL_SIZE = {"reference_mission": 64, "large_mission": 4}
SUITES = ("group", "oracle", "hill", "metric")
TRANSFORMS_PER_PASS = 100
# The noiseless mission of acceptance criterion 6: a tiny dyadic radial rate
# keeps the doppler-minus-rate cancellation far below the 1e-12 tolerance.
CONTROL_CONFIG = {
    "r0": 4.5e12,
    "v_radial": confdop.SPEED_OF_LIGHT * 2**-40,
    "t_start": 0.0,
    "t_end": 1e12,
    "n_obs": 200,
    "alpha_true": 2.19e-18,
    "sigma_frac": 0.0,
    "sigma_range": 0.0,
    "seed": 1,
}
CONTROL_TOL = 1e-12
ORACLE_STEPS = 5000  # the RK4 step count the oracle suite uses

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def call_cli(tracer, argv) -> tuple[int, str]:
    """Run one CLI command in-process under a `cli.<command>` span; return (exit code, stdout)."""
    buf = io.StringIO()
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pool_order(workload: str, seed: int) -> list[int]:
    """Config seeds of the workload's missions, in the order the workload seed gives."""
    size = POOL_SIZE[workload]
    return random.Random(f"{workload}:{seed}").sample(range(size), size)


class Mission:
    """reference_mission and large_mission: simulate -> fit -> report.

    With `bootstrap` the fit also bootstraps its standard error.
    """

    primary = "mission"

    def __init__(self, name: str, seed: int, work: Path, digests: dict | None, n_obs=None):
        self.name = name
        if n_obs is None:
            n_obs = LARGE_N_OBS if name == "large_mission" else REFERENCE_CONFIG["n_obs"]
        self.n_obs = n_obs
        self.bootstrap = name == "reference_mission"
        self.order = pool_order(name, seed)
        self.work = work
        self.digests = digests
        self.csv = work / "tracking.csv"
        self.fit = work / "fit.json"
        self._library_alpha = {}  # CSV digest -> library fit_alpha on that CSV

    def config_path(self, pool_seed: int, **overrides) -> Path:
        tag = "-".join(f"{k}{v}" for k, v in sorted(overrides.items()))
        return self.work / f"mission-{pool_seed}{'-' + tag if tag else ''}.json"

    def write_config(self, pool_seed: int, **overrides) -> Path:
        path = self.config_path(pool_seed, **overrides)
        cfg = {**REFERENCE_CONFIG, "n_obs": self.n_obs, "seed": pool_seed, **overrides}
        path.write_text(json.dumps(cfg))
        return path

    def setup(self, tracer) -> None:
        """Write every mission config, then warm up on one reference-size mission."""
        for pool_seed in self.order:
            self.write_config(pool_seed)
        warm = self.write_config(0, n_obs=REFERENCE_CONFIG["n_obs"])
        self._pipeline(tracer, warm, 0)

    def _pipeline(self, tracer, config: Path, pool_seed: int) -> dict:
        codes = {}
        codes["simulate"], _ = call_cli(
            tracer, ["simulate", "--config", str(config), "--out", str(self.csv)]
        )
        fit_argv = ["fit", "--input", str(self.csv), "--out", str(self.fit)]
        if self.bootstrap:
            fit_argv += ["--bootstrap", str(BOOTSTRAP_RESAMPLES), "--seed", str(pool_seed)]
        codes["fit"], _ = call_cli(tracer, fit_argv)
        codes["report"], report = call_cli(tracer, ["report", "--fit", str(self.fit)])
        return {"codes": codes, "report": report, "pool_seed": pool_seed}

    def operations(self, index: int):
        """One round: a single mission, yielded as (kind, action, check)."""
        pool_seed = self.order[index % len(self.order)]
        config = self.config_path(pool_seed)
        yield (
            self.primary,
            lambda tracer: self._pipeline(tracer, config, pool_seed),
            lambda tracer, out: self.check(tracer, out, self.digests[str(pool_seed)]),
        )

    def library_alpha(self, digest: str) -> float:
        if digest not in self._library_alpha:
            records = confdop.read_records_csv(self.csv)
            self._library_alpha[digest] = confdop.fit_alpha(records).alpha_hat
        return self._library_alpha[digest]

    def check(self, tracer, out: dict, expected: dict) -> list[str]:
        """Every output check of one mission; returns the failures found."""
        failures = [f"{cmd} exited {code}" for cmd, code in out["codes"].items() if code != 0]
        if failures:
            return failures
        digest = file_sha256(self.csv)
        if digest != expected["csv_sha256"]:
            failures.append(f"CSV sha256 {digest} != recorded {expected['csv_sha256']}")
        manifest = self.csv.with_name(self.csv.name + ".manifest.json")
        try:
            with tracer.span("manifest.verify_manifest"):
                confdop.verify_manifest(manifest)
        except confdop.ManifestMismatch as exc:
            failures.append(f"verify_manifest: {exc}")
        fit_doc = json.loads(self.fit.read_text())
        library = self.library_alpha(digest)
        if fit_doc["alpha_hat"] != library:
            failures.append(f"alpha_hat {fit_doc['alpha_hat']!r} != library fit_alpha {library!r}")
        if self.bootstrap:
            boot = float.hex(fit_doc["alpha_stderr_boot"])
            if boot != expected["alpha_stderr_boot"]:
                failures.append(f"alpha_stderr_boot {boot} != recorded {expected['alpha_stderr_boot']}")
        if f"alpha_hat_per_s: {fit_doc['alpha_hat']!r}\n" not in out["report"]:
            failures.append("report does not echo the fitted alpha_hat")
        return failures

    def control(self, tracer) -> list[str]:
        """Noiseless control mission: alpha_true recovered within CONTROL_TOL."""
        config, csv, fit = (self.work / f"control.{ext}" for ext in ("json", "csv", "fit.json"))
        config.write_text(json.dumps(CONTROL_CONFIG))
        codes = [
            call_cli(tracer, ["simulate", "--config", str(config), "--out", str(csv)])[0],
            call_cli(tracer, ["fit", "--input", str(csv), "--out", str(fit)])[0],
        ]
        if codes != [0, 0]:
            return [f"control mission exited {codes}"]
        alpha_hat = json.loads(fit.read_text())["alpha_hat"]
        alpha_true = CONTROL_CONFIG["alpha_true"]
        rel = abs(alpha_hat - alpha_true) / alpha_true
        return [] if rel <= CONTROL_TOL else [f"control mission relative error {rel:.3e}"]

    def record(self, tracer) -> dict:
        """Run every pool mission once and return its digests (for digests.json)."""
        recorded = {}
        for pool_seed in sorted(self.order):
            self._pipeline(tracer, self.write_config(pool_seed), pool_seed)
            entry = {"csv_sha256": file_sha256(self.csv)}
            if self.bootstrap:
                entry["alpha_stderr_boot"] = float.hex(
                    json.loads(self.fit.read_text())["alpha_stderr_boot"]
                )
            recorded[str(pool_seed)] = entry
        return recorded


def check_suite_output(suite: str, code: int, out: str) -> list[str]:
    if code != 0 or not out.startswith(f"suite={suite} ") or " PASS " not in out:
        return [f"check --suite {suite} exited {code}: {out.strip()}"]
    return []


def transform_expected(alpha: float, r: float, t: float) -> dict:
    """What `transform --alpha a --r r --t t --hill` must print, from the library."""
    p = confdop.GroupParameter.from_alpha(alpha)
    e = confdop.Event(r=r, x4=p.c * t)
    out = confdop.transform_finite(p, e)
    hr, ht = confdop.hill_transform(p, e.r, e.x4 / p.c)
    return {
        "r_prime": out.r,
        "x4_prime": out.x4,
        "gamma": confdop.conformal_factor(p, e),
        "hill": {"r_prime": hr, "t_prime": ht, "x4_prime": p.c * ht},
    }


def check_transform_output(code: int, out: str, expected: dict) -> list[str]:
    if code != 0:
        return [f"transform exited {code}"]
    doc = json.loads(out)
    wrong = [k for k, v in expected.items() if doc.get(k) != v]
    return [f"transform fields differ from the library: {wrong}"] if wrong else []


class ConformalChecks:
    """conformal_checks: passes of the four check suites, each followed by a
    stream of single-event `transform --alpha ... --hill` commands."""

    primary = "pass"

    def __init__(self, name: str, seed: int, work: Path, digests: dict | None):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")

    def draw_event(self) -> tuple[float, float, float]:
        # well inside the domain: |beta4| * (|x4| + r) stays below 2e-3
        rng = self.rng
        return rng.uniform(-1e-4, 1e-4), rng.uniform(1e7, 1e9), rng.uniform(-30.0, 30.0)

    def setup(self, tracer) -> None:
        """Warm up on small suites and one transform."""
        for suite in SUITES:
            call_cli(tracer, ["check", "--suite", suite, "--cases", "10"])
        self._transform(tracer, self.draw_event())

    def _suites(self, tracer, seed: int) -> list:
        return [
            (suite,) + call_cli(tracer, ["check", "--suite", suite, "--seed", str(seed)])
            for suite in SUITES
        ]

    def _transform(self, tracer, event) -> tuple[int, str]:
        alpha, r, t = event
        return call_cli(
            tracer,
            ["transform", "--alpha", repr(alpha), "--r", repr(r), "--t", repr(t), "--hill"],
        )

    def operations(self, index: int):
        """One round: a pass of the four suites, then TRANSFORMS_PER_PASS transforms."""
        seed = self.rng.randrange(2**31)
        yield (
            self.primary,
            lambda tracer: self._suites(tracer, seed),
            lambda tracer, results: [f for r in results for f in check_suite_output(*r)],
        )
        for _ in range(TRANSFORMS_PER_PASS):
            event = self.draw_event()
            yield (
                "transform",
                lambda tracer, event=event: self._transform(tracer, event),
                lambda tracer, out, event=event: check_transform_output(
                    *out, transform_expected(*event)
                ),
            )

    def control(self, tracer) -> None:
        """No control mission: this workload never touches tracking."""
        return None


WORKLOADS = {
    "reference_mission": Mission,
    "large_mission": Mission,
    "conformal_checks": ConformalChecks,
}


def load_digests(name: str) -> dict | None:
    if name not in POOL_SIZE:
        return None
    return json.loads(DIGESTS_PATH.read_text())[name]


def _batch_seconds(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def kernel_costs(seed: int, calls: int = 20_000, repeats: int = 5) -> dict:
    """Per-call cost of the conformal kernel and the Doppler relation, each
    from a directly timed batch of calls into the public function (median
    over `repeats` batches).  Events are sampled as the check suites do."""
    rng = random.Random(f"kernels:{seed}")
    cases = []
    for _ in range(calls):
        r, x4 = rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0)
        beta4 = rng.uniform(-1.0, 1.0) * 0.3 / (r + abs(x4))
        cases.append((confdop.GroupParameter(beta4), confdop.Event(r=r, x4=x4),
                      rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
    transform_finite = confdop.conformal.transform_finite
    differential_map = confdop.conformal.differential_map
    flow_oracle = confdop.conformal.flow_oracle
    doppler = confdop.wave.doppler_model_conformal

    def transforms():
        for p, e, _, _ in cases:
            transform_finite(p, e)

    def differentials():
        for p, e, dr, dx4 in cases:
            differential_map(p, e, dr, dx4)

    oracle_cases = cases[:5]

    def oracles():
        for p, e, _, _ in oracle_cases:
            flow_oracle(p, e, steps=ORACLE_STEPS)

    p = confdop.GroupParameter.from_alpha(REFERENCE_CONFIG["alpha_true"])
    ranges = np.linspace(REFERENCE_CONFIG["r0"], 2 * REFERENCE_CONFIG["r0"], LARGE_N_OBS)
    batches = {
        "conformal.transform_finite_us": (transforms, 1e6 / calls, "us"),
        "conformal.differential_map_us": (differentials, 1e6 / calls, "us"),
        "conformal.flow_oracle_s": (oracles, 1.0 / len(oracle_cases), "s"),
        "wave.doppler_model_conformal_s": (
            lambda: doppler(p, ranges, REFERENCE_CONFIG["v_radial"]), 1.0, "s"
        ),
    }
    costs = {}
    for name, (fn, scale, unit) in batches.items():
        times = _batch_seconds(fn, repeats)
        costs[name] = {"value": statistics.median(times) * scale, "unit": unit, "samples": repeats}
    return costs
