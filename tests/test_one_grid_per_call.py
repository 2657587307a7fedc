"""One grid per call: a function that is handed a solver or a step system
takes its grid from it.

An ast scan of ``src/thinfilm``: no function takes a ``grid`` parameter
together with a required ``solver`` or ``system`` parameter.  Both objects
carry the grid they were built for, and a second copy passed beside them
could disagree with it unnoticed.  An optional solver, which the scheme
constructors build from their grid when it is left out and check against
it when it is given, does not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "thinfilm").glob("*.py"))
OWNERS = {"solver", "system"}


def required_parameters(args):
    """Names of the parameters of ``args`` that have no default."""
    positional = args.posonlyargs + args.args
    required = positional[: len(positional) - len(args.defaults)]
    required += [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is None
    ]
    return {arg.arg for arg in required}


def second_grids(source):
    """``name (line n)`` for each function taking a grid beside its owner."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
        if "grid" in names and required_parameters(args) & OWNERS:
            found.append(f"{node.name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_second_grid_beside_a_solver_or_system(path):
    assert second_grids(path.read_text()) == []


def test_scan_flags_a_planted_second_grid():
    source = (
        "def solve(grid, system, phi, cfg=None):\n"
        "    pass\n"
        "\n"
        "class Step:\n"
        "    def __init__(self, grid, solver, dt, *, weight):\n"
        "        pass\n"
        "\n"
        "def energy(solver, phi, *, grid=None):\n"
        "    pass\n"
        "\n"
        "def keyword_owner(grid, *, system):\n"
        "    pass\n"
        "\n"
        "def optional_owner(grid, params, solver=None):\n"
        "    pass\n"
        "\n"
        "def no_grid(solver, system):\n"
        "    pass\n"
        "\n"
        "def grid_only(grid, phi):\n"
        "    pass\n"
    )
    assert second_grids(source) == [
        "__init__ (line 5)",
        "energy (line 8)",
        "keyword_owner (line 11)",
        "solve (line 1)",
    ]
