"""No numpy convenience wrapper on the package's paths.

An ast scan of ``src/thinfilm``: no ``roll``, no ``mean`` and no n-D FFT
wrapper (``rfftn``, ``irfftn``, ``fftn``, ``ifftn`` and their 2D forms) is
referenced, as an attribute or imported by name from numpy.  Each costs
Python-level set-up per call that dominates on small grids, and each has a
replacement with the same bits on float64 fields: slices added in the roll formula's order,
``x.sum() / x.size``, and one rfft/fft/ifft/irfft call per axis in the
n-D wrapper's axis order.
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


def wrapper_uses(source):
    """``name (line n)`` for each reference to a wrapper."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in WRAPPERS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [
                f"{alias.name} (line {node.lineno})"
                for alias in node.names if alias.name in WRAPPERS
            ]
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_no_numpy_convenience_wrapper(path):
    assert wrapper_uses(path.read_text()) == []


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
