"""No module imports a name it never uses.

An ast scan of the package's modules (``__init__.py`` re-exports by
design) and of the test files: every name an import binds must be read
somewhere else in the same file.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for path in [*(ROOT / "src" / "thinfilm").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = "import math\nfrom os import path, sep as s\n\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "s (line 2)"]
