"""One field rule: only ``grid.py`` decides what a field argument may be.

An ast scan of ``src/thinfilm``: outside ``grid.py`` no module reads an
attribute named ``validate_field``, and no module calls ``np.asarray`` or
``np.array`` with ``dtype=float``.  Every field argument goes through
``Grid.field`` (the grid's shape, an integer or real float dtype, taken as
C-contiguous float64) or ``Grid.height`` (that, strictly positive), so
hand-written copies of the rule cannot drift apart again.  The log-log fits
of ``experiments.py`` take 1-D series, not fields, and are exempt by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for path in (ROOT / "src" / "thinfilm").glob("*.py") if path.name != "grid.py"
)
# Functions that take 1-D series, not fields.
SERIES_FUNCTIONS = {"_loglog_fit", "fit_power_law"}


def _is_float_cast(call):
    """``np.asarray(..., dtype=float)`` or ``np.array(..., dtype=float)``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("asarray", "array")
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and any(
            kw.arg == "dtype" and isinstance(kw.value, ast.Name) and kw.value.id == "float"
            for kw in call.keywords
        )
    )


def field_rule_copies(source):
    """``what (line n)`` for each ``validate_field`` and each float64 cast
    outside the exempt series functions."""
    found = []

    def visit(node, exempt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            exempt = exempt or node.name in SERIES_FUNCTIONS
        if isinstance(node, ast.Attribute) and node.attr == "validate_field":
            found.append(f"validate_field (line {node.lineno})")
        elif isinstance(node, ast.Call) and not exempt and _is_float_cast(node):
            found.append(f"np.{node.func.attr}(dtype=float) (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(ast.parse(source), False)
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_field_rule_outside_grid(path):
    assert field_rule_copies(path.read_text()) == []


def test_scan_flags_a_planted_field_rule():
    source = (
        "import numpy as np\n"
        "\n"
        "def energy(grid, phi):\n"
        "    grid.validate_field(phi)\n"
        "    phi = np.asarray(phi, dtype=float)\n"
        "    return np.array(phi, dtype=float, copy=True)\n"
        "\n"
        "def fit_power_law(times):\n"
        "    return np.asarray(times, dtype=float)\n"
        "\n"
        "def narrow(phi):\n"
        "    return np.asarray(phi, dtype=np.float32)\n"
    )
    assert field_rule_copies(source) == [
        "np.array(dtype=float) (line 6)",
        "np.asarray(dtype=float) (line 5)",
        "validate_field (line 4)",
    ]
