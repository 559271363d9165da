"""The exact subcommands run without numpy, the solver's subcommands without
the fiber geometry, and importing the command line alone still makes every
layer of the package reachable as its attribute."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conifold_lab
from conifold_lab import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(conifold_lab.__file__).resolve().parents[1])

# hodge's and transition's reports, and a refusal of each subcommand that it makes before it loads numpy
NUMPY_FREE = [
    (0, ["hodge", "--n", "4", "--d", "5"]),
    (0, ["transition", "--catalog"]),
    (0, ["transition", "--h11", "1", "--h21", "101", "--N", "1", "--k", "0", "--c", "1", "--betti", "0,1,204"]),
    (2, ["hodge", "--n", "2", "--d", "5"]),
    (2, ["transition", "--h11", "5", "--h21", "1", "--N", "2", "--k", "2", "--c", "0", "--betti", "0,1,2"]),
    (2, ["metric", "--family", "cone", "--points", "0"]),
    (2, ["slag", "--t", "1@x"]),
    (2, ["dwork", "--smooth-points", "1000000"]),
    (2, ["friedman", "--classes-json", "[[1, 2]"]),
    (2, ["verify-all", "--tol", "ode=1e-9"]),
]

# runs each argv of sys.argv[1] through cli.main with numpy unimportable, and prints what each wrote
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every import of numpy raises ImportError
from conifold_lab import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outputs.append([cli.main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(outputs))
"""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def test_exact_requests_and_early_refusals_need_no_numpy():
    """Each request writes, in an interpreter where numpy cannot be imported,
    byte for byte what it writes here: the same report or the same exit-2 line."""
    argvs = [argv for _, argv in NUMPY_FREE]
    child = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, json.dumps(argvs)], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC), check=True)
    expected = [run(argv) for argv in argvs]
    assert [code for code, _, _ in expected] == [code for code, _ in NUMPY_FREE]
    assert json.loads(child.stdout) == expected


# runs sys.argv[1] through cli.main and prints its exit code and whether conifold_lab.conifold was loaded
MODULES_LOADED = """
import contextlib, io, json, sys
from conifold_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "conifold_lab.conifold" in sys.modules]))
"""


@pytest.mark.parametrize("argv", [["friedman", "--classes-json", "[[1, 0], [0, 1], [-1, -1]]"], ["dwork"]])
def test_solver_requests_load_no_fiber_geometry(argv):
    """transitions takes _product from exterior, so a friedman or dwork
    request neither imports conifold nor compiles it."""
    child = subprocess.run([sys.executable, "-c", MODULES_LOADED, json.dumps(argv)], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert json.loads(child.stdout) == [0, False]


def _layers():
    """perfbench/tracing.py's LAYERS, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"])


def test_importing_cli_alone_reaches_every_traced_layer():
    """perfbench's tracer imports conifold_lab.cli and reads each layer with
    getattr(conifold_lab, name): each is that module, imported on first read."""
    code = ("import json, sys; import conifold_lab.cli; import conifold_lab; "
            "print(json.dumps([getattr(conifold_lab, name) is sys.modules['conifold_lab.' + name] "
            "for name in json.loads(sys.argv[1])]))")
    layers = _layers()
    child = subprocess.run([sys.executable, "-c", code, json.dumps(layers)], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert "acceptance" in layers and "transitions" in layers
    assert json.loads(child.stdout) == [True] * len(layers)


def test_every_module_is_an_attribute_and_nothing_else_is():
    modules = sorted(p.stem for p in Path(conifold_lab.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert all(getattr(conifold_lab, name).__name__ == f"conifold_lab.{name}" for name in modules)
    assert not hasattr(conifold_lab, "numpy") and not hasattr(conifold_lab, "_product")
