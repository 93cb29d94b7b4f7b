"""The package parses as Python 3.10, the oldest version it supports, and
uses no standard-library name that only 3.11 or later provides."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "confdop").glob("*.py"))

# names that Python 3.11 added to the standard library (builtins bare)
NEWER_THAN_3_10 = {
    "typing.NotRequired", "typing.Required", "typing.Self", "typing.Never",
    "tomllib", "ExceptionGroup", "BaseExceptionGroup", "hashlib.file_digest",
    "math.cbrt", "math.exp2", "datetime.UTC", "enum.StrEnum", "contextlib.chdir",
    "sys.exception",
}


def dotted_names(source: str) -> set[str]:
    """Every module, `from` import and attribute chain the source names,
    with import aliases resolved (`import typing as t; t.Self` names
    typing.Self)."""
    tree = ast.parse(source)
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names.add(a.name)
                if a.asname:
                    aliases[a.asname] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                names.add(f"{node.module}.{a.name}")
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(aliases.get(node.id, node.id))
        elif isinstance(node, ast.Attribute):  # a.b.c is also walked as a.b
            head, _, rest = ast.unparse(node).partition(".")
            names.add(f"{aliases.get(head, head)}.{rest}")
    return names


def test_modules_are_found():
    assert {"conformal.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_parses_as_python_3_10(module):
    """Catches syntax that 3.10 lacks (an `except*`, a PEP 695 type
    statement, ...).  A stdlib name that only exists in 3.11, such as
    `typing.NotRequired` or `tomllib`, parses on every version; the
    test below catches those."""
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=(3, 10))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_uses_no_stdlib_name_newer_than_3_10(module):
    used = dotted_names(module.read_text(encoding="utf-8")) & NEWER_THAN_3_10
    assert not used, f"{module.name} uses {sorted(used)}, which Python 3.10 lacks"


@pytest.mark.parametrize("source, name", [
    ("import tomllib", "tomllib"),
    ("from typing import NotRequired", "typing.NotRequired"),
    ("import typing as t\nx: t.Self", "typing.Self"),
    ("from typing import Required as R", "typing.Required"),
    ("import math\nmath.cbrt(8.0)", "math.cbrt"),
    ("import datetime\nnow = datetime.datetime.now(datetime.UTC)", "datetime.UTC"),
    ("from hashlib import file_digest", "hashlib.file_digest"),
    ("raise ExceptionGroup('x', [ValueError()])", "ExceptionGroup"),
])
def test_newer_name_is_found(source, name):
    assert name in dotted_names(source) & NEWER_THAN_3_10
