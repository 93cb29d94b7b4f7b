"""The package parses as Python 3.10, the oldest version it supports."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "confdop").glob("*.py"))


def test_modules_are_found():
    assert {"conformal.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_parses_as_python_3_10(module):
    """Catches syntax that 3.10 lacks (an `except*`, a PEP 695 type
    statement, ...).  It does not catch a stdlib name that only exists in
    3.11, such as `typing.NotRequired` or `tomllib`: that parses on every
    version and fails only when 3.10 runs it."""
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=(3, 10))
