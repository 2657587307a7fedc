"""One integer rule: only ``errors.py`` decides what counts as an integer.

An ast scan of ``src/thinfilm``: outside ``errors.py`` no module imports
``numbers`` or reads ``numbers.Integral``.  Every count goes through
``errors.check_count`` (an Integral that is not a bool, at least a
bound), so hand-written copies of the rule cannot drift apart again.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path for path in (ROOT / "src" / "thinfilm").glob("*.py") if path.name != "errors.py"
)


def integer_rule_copies(source):
    """``what (line n)`` for each import of ``numbers`` and each ``numbers.Integral``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                f"import {alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name == "numbers"
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.append(f"from numbers import (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "Integral"
            and isinstance(node.value, ast.Name)
            and node.value.id == "numbers"
        ):
            found.append(f"numbers.Integral (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_integer_rule_outside_errors(path):
    assert integer_rule_copies(path.read_text()) == []


def test_scan_flags_a_planted_integer_rule():
    source = (
        "import math, numbers as nb\n"
        "from numbers import Integral\n"
        "\n"
        "def is_count(value):\n"
        "    return isinstance(value, numbers.Integral) and value >= math.ulp(0)\n"
    )
    assert integer_rule_copies(source) == [
        "from numbers import (line 2)",
        "import numbers (line 1)",
        "numbers.Integral (line 5)",
    ]
