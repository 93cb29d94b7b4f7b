#!/usr/bin/env python3
"""confdop benchmark: closed-loop workloads driven through the public API.

Run from the root of a confdop checkout (the package is imported from
its `src/` directory):

    python3 perfbench/run.py --workload reference_mission --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --out perfbench/baseline.json
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

A workload run prints two JSON lines.  The last one holds `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it holds the detail: machine facts, every named metric
with its unit and sample count, computed sizes, the per-layer spans of a
traced run with their self times and the tracing overhead, and the
failed checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "confdop" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'confdop'} not found; run from the root of a confdop checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import confdop  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ConformalChecks,
    Mission,
    call_cli,
    check_suite_output,
    check_transform_output,
    file_sha256,
    kernel_costs,
    load_digests,
    transform_expected,
)

WORK_ROOT = BENCH / "_work"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
# The shared host's speed drifts by 1.5-1.8x for minutes at a time, which
# moved ten-run medians of raw op times by up to a third between runs.  A
# fixed calibration, timed before every round, tracks that drift: setup_s
# and the *_norm metrics are raw values scaled to this nominal calibration
# time.
NOMINAL_CALIBRATION_S = 0.002
NULL = NullTracer()


# ---------------------------------------------------------------- facts


def _read_first(path: Path, prefix: str) -> str | None:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    mem_kb = _read_first(Path("/proc/meminfo"), "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "confdop": confdop.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first(Path("/proc/cpuinfo"), "model name") or platform.processor(),
        "mem_total_mb": int(mem_kb.split()[0]) / 1024 if mem_kb else None,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAPS},
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def _loop_unit() -> float:
    total = 0.0
    for i in range(50_000):
        total += i * 0.5
    return total


def _format_parse_unit() -> float:
    values = [i * 1.0000000001 for i in range(1, 1001)]
    text = ",".join(f"{v:.17e}" for v in values)
    return sum(float(x) for x in text.split(","))


def calibrate() -> float:
    """Geometric mean of the times of an interpreter loop and a float
    format-and-parse pass: benchmark code only, so no change to confdop
    can move it."""
    start = time.perf_counter()
    _loop_unit()
    middle = time.perf_counter()
    _format_parse_unit()
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- harness


@contextlib.contextmanager
def work_dir(name: str):
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_op(kind, action, check, tracer):
    """Time one operation, then check its output outside the timed region.

    Returns (seconds, failures).  An operation that raises counts as failed.
    """
    active = tracer or NULL
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.begin_op(kind)
        start = time.perf_counter()
        try:
            out = action(active)
        except (Exception, SystemExit) as exc:  # a failed op is recorded, the loop goes on
            return time.perf_counter() - start, [
                f"{kind} raised " + "".join(traceback.format_exception_only(exc)).strip()
            ]
        elapsed = time.perf_counter() - start
        try:
            return elapsed, check(active, out)
        except (Exception, SystemExit) as exc:
            return elapsed, [
                f"{kind} check raised " + "".join(traceback.format_exception_only(exc)).strip()
            ]


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its `ready` line, SETUP_SAMPLES times."""
    times = []
    argv = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name,
            "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup process exited {child.returncode} without `ready`")
        times.append(elapsed)
    return times


def summary(values, unit: str, scale: float = 1.0) -> dict:
    return {"value": statistics.median(values) * scale, "unit": unit, "samples": len(values)}


def tail_p90(values, unit: str, scale: float = 1.0) -> dict | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 10:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    if sum(v > p90 for v in values) < 10:
        return None
    return {"value": p90 * scale, "unit": unit, "samples": len(values)}


def named_metrics(workload, ops, setup_times, peak_mb, calibration) -> dict:
    """The end-to-end metrics of the workload under their own names."""
    by_kind = {}
    for kind, seconds, traced, _ in ops:
        if not traced:
            by_kind.setdefault(kind, []).append(seconds)
    named = {}
    if setup_times:
        named["setup_s"] = summary(setup_times, "s")
    if isinstance(workload, Mission):
        missions = by_kind["mission"]
        named["mission_s_p50"] = summary(missions, "s")
        named["mission_s_p90"] = tail_p90(missions, "s")
        named["records_per_s"] = {
            "value": workload.n_obs / statistics.median(missions),
            "unit": "1/s",
            "samples": len(missions),
        }
    else:
        named["check_pass_s_p50"] = summary(by_kind["pass"], "s")
        named["check_pass_s_p90"] = tail_p90(by_kind["pass"], "s")
        named["transform_ms_p50"] = summary(by_kind["transform"], "ms", 1e3)
        named["transform_ms_p90"] = tail_p90(by_kind["transform"], "ms", 1e3)
    named["peak_rss_mb"] = {"value": peak_mb, "unit": "MB", "samples": 1}
    named["calibration_s"] = summary(calibration, "s")
    failed = sum(bool(f) for *_, f in ops)
    named["failed_ops_share"] = {"value": failed / len(ops), "unit": "share", "samples": len(ops)}
    return {k: v for k, v in named.items() if v is not None}


def contract_metrics(workload, named) -> dict:
    """Map the named metrics onto the end_to_end names of BENCHMARK.json."""
    if isinstance(workload, Mission):
        op, items = named["mission_s_p50"]["value"], named["records_per_s"]["value"]
    else:
        op = named["check_pass_s_p50"]["value"]
        items = 1e3 / named["transform_ms_p50"]["value"]
    speed = NOMINAL_CALIBRATION_S / named["calibration_s"]["value"]
    return {
        "setup_s": {"value": named["setup_s"]["value"] * speed, "unit": "s"},
        "op_s_p50_norm": {"value": op * speed, "unit": "s"},
        "items_per_s_norm": {"value": items / speed, "unit": "1/s"},
        "peak_rss_mb": {"value": named["peak_rss_mb"]["value"], "unit": "MB"},
    }


def layer_metrics(workload, tracer, ops, seed) -> tuple[dict, dict]:
    """(detail, contract) per-layer metrics of a traced run."""
    layers = tracer.layer_metrics()
    overhead = {}
    for kind in {k for k, *_ in ops}:
        traced = [s for k, s, t, _ in ops if k == kind and t]
        plain = [s for k, s, t, _ in ops if k == kind and not t]
        if traced and plain:
            overhead[kind] = {
                "value": statistics.median(traced) - statistics.median(plain),
                "unit": "s",
                "traced_s": statistics.median(traced),
                "untraced_s": statistics.median(plain),
                "samples": [len(traced), len(plain)],
            }
    kernels = kernel_costs(seed)
    primary = workload.primary
    cli_self = [
        sum(self_s for name, (_, self_s) in times.items() if name.startswith("cli."))
        for kind, times, _ in tracer.per_op()
        if kind == primary
    ]
    contract = {
        "cli.self_s": {"value": statistics.median(cli_self), "unit": "s"},
        "trace.overhead_s": {"value": overhead[primary]["value"], "unit": "s"},
    }
    contract.update({k: {"value": v["value"], "unit": v["unit"]} for k, v in kernels.items()})
    for counter in ("tracking.records", "tracking.csv_bytes", "estimator.resamples",
                    "manifest.bytes_hashed", "checks.cases", "conformal.transform_finite_calls"):
        entry = layers[primary].get(counter)
        contract[counter] = {"value": entry["value"] if entry else 0, "unit": "count"}
    detail = {"layers": layers, "kernels": kernels, "trace_overhead": overhead}
    return detail, contract


def computed_sizes(workload, rss_before_mb: float, peak_mb: float) -> dict:
    """Sizes derived from the outputs, labelled as computed rather than measured."""
    if not isinstance(workload, Mission) or not workload.csv.exists():
        return {}
    header = len(confdop.tracking.CSV_HEADER) + 1
    manifest = json.loads(workload.csv.with_name(workload.csv.name + ".manifest.json").read_text())
    return {
        "computed.csv_bytes_per_record": (workload.csv.stat().st_size - header) / workload.n_obs,
        "computed.bytes_hashed_per_manifest": sum(o["size_bytes"] for o in manifest["outputs"]),
        "computed.row_object_bytes_per_record":
            (peak_mb - rss_before_mb) * 2**20 / workload.n_obs,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_times = [] if trace else measure_setup(name, seed)
    tracer = Tracer() if trace else None
    ops = []  # (kind, seconds, traced, failures)
    calibration = []
    with work_dir(name) as work:
        workload = WORKLOADS[name](name, seed, work, load_digests(name))
        workload.setup(NULL)
        rss_before = current_rss_mb()
        timed = 0.0
        rounds = 0
        # Rounds run while the next one, at the mean round time so far, still
        # fits in `seconds`; a traced run alternates untraced and traced
        # rounds to measure the overhead, so it runs at least two.
        while rounds < (2 if trace else 1) or timed * (rounds + 1) / rounds <= seconds:
            traced = trace and rounds % 2 == 1
            gc.collect()  # garbage of the last round's checks is not charged to this round
            calibration.append(calibrate())
            for kind, action, check in workload.operations(rounds):
                elapsed, failures = run_op(kind, action, check, tracer if traced else None)
                ops.append((kind, elapsed, traced, failures))
                timed += elapsed
            rounds += 1
        control = workload.control(NULL)
        if control is not None:
            ops.append(("control", 0.0, False, control))
        peak = peak_rss_mb()
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "rounds": rounds,
            "machine": machine_facts(),
            "metrics": named_metrics(workload, ops, setup_times, peak, calibration),
            "computed": computed_sizes(workload, rss_before, peak),
            "failures": [f for *_, fs in ops for f in fs][:20],
        }
        if trace:
            detail["per_layer"], metrics = layer_metrics(workload, tracer, ops, seed)
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
        else:
            metrics = contract_metrics(workload, detail["metrics"])
    failed = sum(bool(fs) for *_, fs in ops)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def setup_only(name: str, seed: int) -> int:
    with work_dir(name) as work:
        WORKLOADS[name](name, seed, work, load_digests(name)).setup(NULL)
        print("ready", flush=True)
    return 0


# ---------------------------------------------------------------- all workloads


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    report = {"machine": machine_facts(), "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    print(f"{'workload':18} {'metric':36} {'value':>14} {'unit':6} samples")
    for name in WORKLOADS:
        untraced, result = run_child(name, seed, seconds, 0)
        traced, traced_result = run_child(name, seed, seconds, 1)
        ok &= result["correct"] and traced_result["correct"]
        report["workloads"][name] = {
            "untraced": {"detail": untraced, "result": result},
            "traced": {"detail": traced, "result": traced_result},
        }
        for metric, m in untraced["metrics"].items():
            print(f"{name:18} {metric:36} {m['value']:14.6g} {m['unit']:6} {m['samples']}")
        for kind, layers in traced["per_layer"]["layers"].items():
            for metric, m in layers.items():
                print(f"{name:18} {metric:36} {m['value']:14.6g} {m['unit']:6} "
                      f"{m['samples']} ({'per ' + kind})")
        for metric, m in traced["per_layer"]["kernels"].items():
            print(f"{name:18} {metric:36} {m['value']:14.6g} {m['unit']:6} {m['samples']}")
        for kind, m in traced["per_layer"]["trace_overhead"].items():
            print(f"{name:18} {'trace.overhead_s per ' + kind:36} {m['value']:14.6g} s      "
                  f"{m['samples'][0]}+{m['samples'][1]} (traced {m['traced_s']:.6g} s, "
                  f"untraced {m['untraced_s']:.6g} s)")
    if out is not None:
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


# ---------------------------------------------------------------- self-test and digests


def self_test() -> int:
    """Feed the output checks deliberately wrong outputs at tiny sizes.

    Each bad case must be counted as a failed operation and the clean
    case must not, so the checks are shown not to be vacuous.
    """
    results = []

    def case(label, action, check, want_failed):
        _, failures = run_op(label, action, check, None)
        results.append((label, bool(failures) == want_failed, failures))

    with work_dir("self-test") as work:
        mission = Mission("reference_mission", 0, work, None, n_obs=200)
        config = mission.write_config(0)
        out = mission._pipeline(NULL, config, 0)
        boot = json.loads(mission.fit.read_text())["alpha_stderr_boot"]
        expected = {"csv_sha256": file_sha256(mission.csv), "alpha_stderr_boot": float.hex(boot)}
        csv_bytes = mission.csv.read_bytes()
        fit_text = mission.fit.read_text()

        def mission_case(label, csv=csv_bytes, fit=fit_text, want_failed=True):
            mission.csv.write_bytes(csv)
            mission.fit.write_text(fit)
            case(label, lambda t: out, lambda t, o: mission.check(t, o, expected), want_failed)

        mission_case("clean mission", want_failed=False)
        flip = len(csv_bytes) - 10  # a digit of the last record's sigma_frac exponent
        flipped = csv_bytes[:flip] + bytes([csv_bytes[flip] ^ 1]) + csv_bytes[flip + 1:]
        mission_case("CSV with one flipped byte", csv=flipped)
        doc = json.loads(fit_text)
        perturbed = dict(doc, alpha_hat=numpy.nextafter(doc["alpha_hat"], 1.0).item())
        mission_case("perturbed alpha_hat", fit=json.dumps(perturbed))
        perturbed = dict(doc, alpha_stderr_boot=numpy.nextafter(boot, 1.0).item())
        mission_case("perturbed alpha_stderr_boot", fit=json.dumps(perturbed))
        mission.csv.write_bytes(csv_bytes)
        mission.fit.write_text(fit_text)

        case("passing suite", lambda t: call_cli(t, ["check", "--suite", "hill"]),
             lambda t, o: check_suite_output("hill", *o), False)
        case("failing suite (hill order below --tol 3)",
             lambda t: call_cli(t, ["check", "--suite", "hill", "--tol", "3"]),
             lambda t, o: check_suite_output("hill", *o), True)
        event, other = (1e-4, 1e8, 5.0), (1e-4, 1e8, 5.5)
        transform = ConformalChecks("conformal_checks", 0, work, None)._transform
        case("transform output", lambda t: transform(t, event),
             lambda t, o: check_transform_output(*o, transform_expected(*event)), False)
        case("transform output against another event", lambda t: transform(t, event),
             lambda t, o: check_transform_output(*o, transform_expected(*other)), True)

    for label, ok, failures in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {len(failures)} failed check(s) "
              f"{failures[:2]}")
    passed = all(ok for _, ok, _ in results)
    print("self-test", "passed" if passed else "FAILED")
    return 0 if passed else 1


def record_digests() -> int:
    """Rewrite digests.json from the current source: run only where outputs must change."""
    recorded = {"git_sha": git_sha()}
    for name in ("reference_mission", "large_mission"):
        with work_dir(name) as work:
            recorded[name] = Mission(name, 0, work, None).record(NULL)
    path = BENCH / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="timed work per run; at least one round always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write the report here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
