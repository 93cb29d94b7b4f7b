"""The package parses as Python 3.11, the oldest version it supports, and
its scalar core names no numpy."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "confdop").glob("*.py"))


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
def test_module_parses_as_python_3_11(module):
    """`requires-python = ">=3.11"` admits newer interpreters, and on those
    this test is the only guard against syntax that 3.11 lacks (a PEP 695
    type statement, a PEP 701 f-string, ...). On 3.11 itself such a module
    fails to import, so every test that imports it fails first."""
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=(3, 11))


# modules that compute in Python floats only: none may name numpy, or import
# a confdop module outside this set
NUMPY_FREE = {"conformal", "wave", "manifest", "constants", "errors"}


@pytest.mark.parametrize("module", sorted(NUMPY_FREE))
def test_scalar_core_is_numpy_free(module):
    source = (MODULES[0].parent / f"{module}.py").read_text(encoding="utf-8")
    heads = {name.removeprefix("confdop.").partition(".")[0] for name in dotted_names(source)}
    assert "numpy" not in heads, f"{module}.py names numpy"
    package = {m.stem for m in MODULES}
    assert heads & package <= NUMPY_FREE, f"{module}.py imports {sorted(heads & package - NUMPY_FREE)}"
