"""Properties of the package source itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

import conifold_lab

SOURCES = sorted(Path(conifold_lab.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    """python -O strips assert statements, so a check built on one passes
    silently there; the package raises or returns its violations instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_the_standard_library_and_numpy(path):
    """numpy is the package's one runtime dependency: every import names the
    standard library, numpy or the package itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
    allowed = sys.stdlib_module_names | {"numpy", "conifold_lab"}
    outside = sorted({name for name in names if name.split(".")[0] not in allowed})
    assert outside == [], f"{path.name}: imports {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_string_leads_with_a_flag(path):
    """cli.main alone spells the '--x: ' or '--x/--y: ' head of a refusal,
    from the names of an InputError; a string that starts with one would be
    a second way to name a flag.  Every string constant is checked, and so
    is every literal part of an f-string, its first one included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    heads = re.compile(r"--[\w-]+(?:/--[\w-]+)*: ")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and heads.match(node.value)]
    assert lines == [], f"{path.name}: strings that lead with a flag at lines {lines}"


# every test module but the one whose REFUSALS table pins the exit-2 lines
TESTS = [p for p in sorted(Path(__file__).resolve().parent.glob("*.py")) if p.name != "test_cli_contract.py"]


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_only_the_refusal_table_spells_an_exit_2_line(path):
    """test_cli_contract.REFUSALS pins every exit-2 line, so one rewording
    edits one row: no other test module holds a string, or a literal part of
    an f-string, that starts with the 'error: ' of such a line."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    head = re.compile(r"error:[ ]")  # a bracket, so that this pattern does not match itself
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and head.match(node.value)]
    assert lines == [], f"{path.name}: strings that lead with 'error: ' at lines {lines}"


def _layer_imports(path) -> set:
    """numpy, if the module imports it anywhere, and each package module it
    imports anywhere, as 'numpy' and 'conifold_lab.<module>'."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "conifold_lab":
            names |= {f"conifold_lab.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return {"numpy" if name.split(".")[0] == "numpy" else name for name in names
            if name.split(".")[0] in ("numpy", "conifold_lab")}


def test_the_import_graph_keeps_its_layers():
    """checks and hodge import neither numpy nor another package module than
    checks, so an exact request loads no numpy; conifold, below the solver,
    imports nothing from transitions; and only cli and acceptance, which run
    the solver and the quintic, import transitions."""
    imports = {path.stem: _layer_imports(path) for path in SOURCES}
    for module in ("checks", "hodge"):
        assert imports[module] <= {"conifold_lab.checks"}, f"{module} imports {sorted(imports[module])}"
    assert "conifold_lab.transitions" not in imports["conifold"]
    assert {module for module, names in imports.items() if "conifold_lab.transitions" in names} == {"cli", "acceptance"}
