"""The check suites' summary lines, pinned from the per-case loops they replaced.

The group and metric suites run as batched array passes that must
reproduce the per-case loop bit for bit: same Generator stream, same
arithmetic, same first-worst case.  These lines were recorded from the
loop implementation; any drift in a draw, an operation order or the
worst-case pick changes them.  The hill suite is a per-case loop of the
scalar maps; it takes neither a seed nor a case count, so it is
pinned once.
"""

import re

import numpy as np
import pytest

import confdop.checks
import confdop.conformal
from confdop.checks import DEFAULT_TOLERANCES, run_suite
from confdop.errors import ConfdopError

PINNED = {
    ("group", 0, 1):
        "suite=group cases=1 max_rel_err=1.439e-16 tol=1e-12 PASS | worst case: r=1.29208 x4=-0.920853 b1=-0.0622288 b2=-0.0655429",
    ("group", 0, 7):
        "suite=group cases=7 max_rel_err=3.349e-16 tol=1e-12 PASS | worst case: r=1.25 x4=-0.46529 b1=0.0869608 b2=0.0840969",
    ("group", 0, 300):
        "suite=group cases=300 max_rel_err=3.462e-16 tol=1e-12 PASS | worst case: r=0.555551 x4=1.48037 b1=-0.0261555 b2=-0.00242757",
    ("group", 0, None):
        "suite=group cases=10000 max_rel_err=5.533e-16 tol=1e-12 PASS | worst case: r=0.108299 x4=1.10943 b1=-0.113016 b2=-0.0625413",
    ("group", 1, 1):
        "suite=group cases=1 max_rel_err=7.574e-17 tol=1e-12 PASS | worst case: r=1.04805 x4=1.80185 b1=-0.0374581 b2=0.0472278",
    ("group", 1, 7):
        "suite=group cases=7 max_rel_err=2.580e-16 tol=1e-12 PASS | worst case: r=0.692977 x4=1.15371 b1=-0.0319715 b2=-0.00755439",
    ("group", 1, 300):
        "suite=group cases=300 max_rel_err=3.891e-16 tol=1e-12 PASS | worst case: r=0.798284 x4=0.015941 b1=0.158522 b2=-0.0984489",
    ("group", 1, None):
        "suite=group cases=10000 max_rel_err=5.444e-16 tol=1e-12 PASS | worst case: r=0.0820021 x4=1.07748 b1=0.0287274 b2=0.0164598",
    ("oracle", 0, 1):
        "suite=oracle cases=1 max_rel_err=8.725e-16 tol=1e-09 PASS | worst case: r=1.29208 x4=-0.920853 beta4=-0.124458",
    ("oracle", 0, 7):
        "suite=oracle cases=7 max_rel_err=3.028e-15 tol=1e-09 PASS | worst case: r=1.72194 x4=-1.86566 beta4=0.0384082",
    ("oracle", 0, 300):
        "suite=oracle cases=300 max_rel_err=8.931e-15 tol=1e-09 PASS | worst case: r=1.21133 x4=-0.576969 beta4=0.0792597",
    ("oracle", 0, None):
        "suite=oracle cases=100 max_rel_err=6.582e-15 tol=1e-09 PASS | worst case: r=0.190917 x4=-0.000108705 beta4=0.766694",
    ("oracle", 1, 1):
        "suite=oracle cases=1 max_rel_err=1.418e-15 tol=1e-09 PASS | worst case: r=1.04805 x4=1.80185 beta4=-0.0749162",
    ("oracle", 1, 7):
        "suite=oracle cases=7 max_rel_err=4.464e-15 tol=1e-09 PASS | worst case: r=0.10374 x4=1.01405 beta4=0.0204743",
    ("oracle", 1, 300):
        "suite=oracle cases=300 max_rel_err=9.206e-15 tol=1e-09 PASS | worst case: r=0.196662 x4=1.85146 beta4=0.0117213",
    ("oracle", 1, None):
        "suite=oracle cases=100 max_rel_err=9.206e-15 tol=1e-09 PASS | worst case: r=0.196662 x4=1.85146 beta4=0.0117213",
    ("hill", 0, None):
        "suite=hill cases=16 min_order=2.000e+00 tol=1.9 PASS | worst case: orders per halving: 2.0011, 2.0005, 2.0003",
    ("metric", 0, 1):
        "suite=metric cases=1 max_scaled_err=0.000e+00 tol=1e-12 PASS | worst case: ",
    ("metric", 0, 7):
        "suite=metric cases=7 max_scaled_err=2.705e-16 tol=1e-12 PASS | worst case: r=1.87339 x4=1.26341 beta4=-0.0951149 dr=0.714809 dx4=-0.932829",
    ("metric", 0, 300):
        "suite=metric cases=300 max_scaled_err=6.871e-16 tol=1e-12 PASS | worst case: r=1.57194 x4=0.82315 beta4=-0.0327972 dr=-0.00771064 dx4=0.598006",
    ("metric", 0, None):
        "suite=metric cases=10000 max_scaled_err=8.697e-16 tol=1e-12 PASS | worst case: r=0.302172 x4=1.20291 beta4=-0.155993 dr=-0.0330447 dx4=0.710824",
    ("metric", 1, 1):
        "suite=metric cases=1 max_scaled_err=0.000e+00 tol=1e-12 PASS | worst case: ",
    ("metric", 1, 7):
        "suite=metric cases=7 max_scaled_err=2.816e-16 tol=1e-12 PASS | worst case: r=1.94135 x4=0.0642743 beta4=-0.114917 dr=0.24698 dx4=0.553366",
    ("metric", 1, 300):
        "suite=metric cases=300 max_scaled_err=5.975e-16 tol=1e-12 PASS | worst case: r=0.447619 x4=-0.586597 beta4=0.0251283 dr=-0.144698 dx4=-0.754949",
    ("metric", 1, None):
        "suite=metric cases=10000 max_scaled_err=1.277e-15 tol=1e-12 PASS | worst case: r=1.27915 x4=0.108011 beta4=0.213788 dr=0.678157 dx4=0.423253",
}


@pytest.mark.parametrize("suite, seed, cases", list(PINNED))
def test_summary_matches_pinned_line(suite, seed, cases):
    assert run_suite(suite, None, seed, cases).summary() == PINNED[suite, seed, cases]


@pytest.mark.parametrize(
    "seed, cases", [(seed, cases) for suite, seed, cases in PINNED if suite == "oracle"
                    and cases is not None and cases < confdop.conformal._FLOW_ARRAY_MIN_ELEMENTS],
)
def test_small_oracle_lines_match_on_the_array_path(monkeypatch, seed, cases):
    # flow_oracle_array runs these counts through its flow_oracle loop by
    # default, and the 100- and 300-case lines (recorded from that loop)
    # through its array pass
    monkeypatch.setattr(confdop.conformal, "_FLOW_ARRAY_MIN_ELEMENTS", 1)
    assert run_suite("oracle", None, seed, cases).summary() == PINNED["oracle", seed, cases]


# Largest case count whose widest suite array, the oracle's (14, cases)
# RK4 row buffer, numpy can size.
MAX_CASES = np.iinfo(np.intp).max // (14 * 8)


@pytest.mark.parametrize("suite", ["group", "oracle", "metric"])
@pytest.mark.parametrize("cases", [0, -3, 2**62, MAX_CASES + 1])
def test_no_cases_is_refused(suite, cases):
    # a check of no cases would pass without checking anything; 2**62 used
    # to end in a ValueError traceback from numpy
    if cases < 1:
        message = f"cases must be >= 1, got {cases}"
    else:
        message = (f"cases must be <= {MAX_CASES}, so that numpy can size the "
                   f"suite's float64 arrays, got {cases}")
    with pytest.raises(ConfdopError, match=f"^{re.escape(message)}$"):
        run_suite(suite, None, 0, cases)


@pytest.mark.parametrize("suite", ["group", "oracle", "metric"])
def test_largest_sizable_cases_reach_the_suite(monkeypatch, suite):
    # the suite is stubbed: nothing of that size is allocated
    monkeypatch.setattr(confdop.checks, f"run_{suite}_suite", lambda *args: args)
    assert run_suite(suite, None, 0, MAX_CASES) == (MAX_CASES, DEFAULT_TOLERANCES[suite], 0)


def test_hill_suite_calls_the_finite_map_once_per_point_and_alpha(monkeypatch):
    # perfbench counts transform_finite calls through this name
    calls = []
    finite = confdop.checks.transform_finite
    monkeypatch.setattr(confdop.checks, "transform_finite", lambda *a: calls.append(a) or finite(*a))
    assert run_suite("hill", None, 0, None).summary() == PINNED["hill", 0, None]
    assert len(calls) == 4 * len(confdop.checks.hill_grid()) == 64
