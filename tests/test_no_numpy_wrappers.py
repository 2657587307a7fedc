"""No numpy convenience wrapper on the package's paths.

An ast scan of ``src/thinfilm``: no ``roll``, no ``mean`` and no n-D FFT
wrapper (``rfftn``, ``irfftn``, ``fftn``, ``ifftn`` and their 2D forms) is
referenced, as an attribute or imported by name from numpy, and no
module-level reduction ``min``, ``max``, ``sum`` or ``all`` is referenced
as an attribute of ``np`` or ``numpy`` or imported by name from numpy.
Each costs Python-level set-up per call that dominates on small grids, and
each has a replacement with the same bits on float64 fields: slices added
in the roll formula's order, ``x.sum() / x.size``, one
rfft/fft/ifft/irfft call per axis in the n-D wrapper's axis order, and the
array methods ``x.min()``, ``x.max()``, ``x.sum()`` and ``x.all()``, which
stay legal.

The same scan refuses a self-multiply of one name: ``x * x``, ``x *= x``
or ``np.multiply(x, x, ...)``.  Each reads its operand twice, where
``np.square(x)`` (``out=x`` in place) reads it once, for the same bits at
about half the time on a field.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "thinfilm").glob("*.py"))
WRAPPERS = {
    "roll", "mean",
    "rfftn", "irfftn", "fftn", "ifftn", "rfft2", "irfft2", "fft2", "ifft2",
}
# Flagged only as attributes of the numpy module itself: the array methods
# of the same names are the replacement.
REDUCTIONS = {"min", "max", "sum", "all"}
NUMPY_NAMES = {"np", "numpy"}


def wrapper_uses(source):
    """``name (line n)`` for each reference to a wrapper or a module-level
    reduction."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr in WRAPPERS
            or node.attr in REDUCTIONS
            and isinstance(node.value, ast.Name) and node.value.id in NUMPY_NAMES
        ):
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [
                f"{alias.name} (line {node.lineno})"
                for alias in node.names if alias.name in WRAPPERS | REDUCTIONS
            ]
    return sorted(found)


def self_multiplies(source):
    """``name (line n)`` for each product of a name with itself."""

    def same_name(a, b):
        return isinstance(a, ast.Name) and isinstance(b, ast.Name) and a.id == b.id

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            pair = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
            pair = (node.target, node.value)
        elif (
            isinstance(node, ast.Call) and len(node.args) >= 2
            and isinstance(node.func, ast.Attribute) and node.func.attr == "multiply"
            and isinstance(node.func.value, ast.Name) and node.func.value.id in NUMPY_NAMES
        ):
            pair = tuple(node.args[:2])
        else:
            continue
        if same_name(*pair):
            found.append(f"{pair[0].id} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_numpy_convenience_wrapper(path):
    assert wrapper_uses(path.read_text()) == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_self_multiply(path):
    assert self_multiplies(path.read_text()) == []


def test_scan_flags_planted_self_multiplies():
    source = (
        "import numpy as np\n"
        "\n"
        "def f(u, v, work, out):\n"
        "    a = u * u\n"
        "    b = u * u * u + v ** 2\n"
        "    work *= work\n"
        "    np.multiply(work, work, out=out)\n"
        "    numpy.multiply(v, v)\n"
        "    ok = u * v + np.multiply(u, v) + np.square(u) + u.x * u.y + 2.0 * 2.0\n"
        "    work *= v\n"
        "    np.square(work, out=work)\n"
        "    return np.multiply(out, 2.0, out=out)\n"
    )
    assert self_multiplies(source) == [
        "u (line 4)",
        "u (line 5)",
        "v (line 8)",
        "work (line 6)",
        "work (line 7)",
    ]


def test_scan_flags_planted_wrappers():
    source = (
        "import numpy as np\n"
        "from numpy.fft import irfftn, rfft\n"
        "from numpy import roll as shift\n"
        "\n"
        "def f(u, grid):\n"
        "    a = np.roll(u, 1, axis=0)\n"
        "    m = np.mean(u) + u.mean()\n"
        "    h = np.fft.rfftn(u, axes=(0, 1))\n"
        "    np.fft.ifftn(h, out=h)\n"
        "    g = numpy.fft.fft2(u)\n"
        "    ok = np.fft.rfft(u) + u.sum() / u.size + grid.mean_value\n"
        "    return trace.mean_tail_contraction()\n"
    )
    assert wrapper_uses(source) == [
        "fft2 (line 10)",
        "ifftn (line 9)",
        "irfftn (line 2)",
        "mean (line 7)",
        "mean (line 7)",
        "rfftn (line 8)",
        "roll (line 3)",
        "roll (line 6)",
    ]


def test_scan_flags_module_reductions_only():
    source = (
        "import numpy as np\n"
        "from numpy import sum as total, maximum\n"
        "\n"
        "def f(u, grid, trace):\n"
        "    a = np.min(u) + numpy.max(u)\n"
        "    if np.all(u > 0.0):\n"
        "        return np.sum(u)\n"
        "    ok = u.min() + u.max() + u.sum() + (u > 0.0).all() + maximum(u, 0)\n"
        "    ok += grid.min + trace.max() + np.minimum(u, 1).sum() + np.fft.rfft(u).sum()\n"
        "    return min(1, 2) + max(ok, 0) + sum([1]) + all([ok])\n"
    )
    assert wrapper_uses(source) == [
        "all (line 6)",
        "max (line 5)",
        "min (line 5)",
        "sum (line 2)",
        "sum (line 7)",
    ]
