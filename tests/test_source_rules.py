"""Source rules: ast scans that pin how the package and its tests are written.

One table, ``RULES``, gives each rule's scan, the files it reads, and
planted sources with the findings the scan must report, so a scan that
stops seeing what it is for fails too.  A scan takes a parsed module and
returns ``what (line n)`` for each breach, sorted.

- *No unused import* (tests, and the package but ``__init__.py``, which
  re-exports): each name an import binds is read elsewhere in its file.
- *No unread parameter*: each parameter but ``self``/``cls`` is read in
  its function's body (a nested function's read counts); one nothing reads
  is a knob that does nothing.
- *One integer rule*: outside ``errors.py``, which owns ``check_count``, no
  module imports ``numbers`` or reads ``numbers.Integral``.
- *One grid per call*: no function takes a ``grid`` beside a required
  ``solver`` or ``system``, which carry the grid they were built for and
  could disagree with a second copy unnoticed.  An optional solver, which
  the scheme constructors build from their grid or check against it, does
  not count.
- *No numpy convenience wrapper*: no ``roll``, ``mean`` or n-D FFT wrapper,
  and no module-level ``min``, ``max``, ``sum`` or ``all`` of numpy.  Each
  costs per-call set-up that dominates on small grids, and each has a
  replacement with the same bits on float64 fields: slices added in the
  roll formula's order, ``x.sum() / x.size``, one 1-D transform per axis in
  the wrapper's axis order, and the array methods of the same names.
- *No self-multiply*: ``x * x``, ``x *= x`` or ``np.multiply(x, x, ...)``
  reads its operand twice, where ``np.square(x)`` reads it once, for the
  same bits at about half the time on a field.
- *One field rule*: no module, ``grid.py`` included, reads an attribute
  ``validate_field`` or calls ``np.asarray``/``np.array`` with
  ``dtype=float``.  Every field argument goes through ``Grid.field`` or
  ``Grid.height``.  The log-log fits of ``experiments.py`` take 1-D series,
  not fields, and are exempt by name.
- *One scalar rule*: outside ``errors.py``, no public function and no
  ``__post_init__`` passes its own parameter, or a field of ``self``, to
  ``math.isnan`` or ``math.isfinite``: ``errors.py``'s rules check scalar
  arguments.  Private helpers and checks on locals are not flagged.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "thinfilm").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
NUMPY_NAMES = {"np", "numpy"}
WRAPPERS = {
    "roll", "mean",
    "rfftn", "irfftn", "fftn", "ifftn", "rfft2", "irfft2", "fft2", "ifft2",
}
# Flagged only as attributes of the numpy module itself: the array methods
# of the same names are the replacement.
REDUCTIONS = {"min", "max", "sum", "all"}
OWNERS = {"solver", "system"}
# Functions that take 1-D series, not fields.
SERIES_FUNCTIONS = {"_loglog_fit", "fit_power_law"}


def package_but(name):
    return [path for path in PACKAGE if path.name != name]


def unused_imports(tree):
    """Names bound by the imports of ``tree`` that no expression reads."""
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


def unread_parameters(tree):
    """``function.parameter (line n)`` for each parameter its body never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            name.id
            for stmt in body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        label = getattr(node, "name", "<lambda>")
        found += [
            f"{label}.{param.arg} (line {node.lineno})"
            for param in params
            if param.arg not in ("self", "cls", *read)
        ]
    return sorted(found)


def integer_rule_copies(tree):
    """``what (line n)`` for each import of ``numbers`` and each ``numbers.Integral``."""
    found = []
    for node in ast.walk(tree):
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


def second_grids(tree):
    """``name (line n)`` for each function taking a grid beside its owner."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        required = positional[: len(positional) - len(args.defaults)]
        required += [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is None
        ]
        names = {arg.arg for arg in positional + args.kwonlyargs}
        if "grid" in names and {arg.arg for arg in required} & OWNERS:
            found.append(f"{node.name} (line {node.lineno})")
    return sorted(found)


def wrapper_uses(tree):
    """``name (line n)`` for each reference to a wrapper or a module-level
    reduction."""
    found = []
    for node in ast.walk(tree):
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


def self_multiplies(tree):
    """``name (line n)`` for each product of a name with itself."""

    def same_name(a, b):
        return isinstance(a, ast.Name) and isinstance(b, ast.Name) and a.id == b.id

    found = []
    for node in ast.walk(tree):
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


def _is_float_cast(call):
    """``np.asarray(..., dtype=float)`` or ``np.array(..., dtype=float)``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("asarray", "array")
        and isinstance(func.value, ast.Name)
        and func.value.id in NUMPY_NAMES
        and any(
            kw.arg == "dtype" and isinstance(kw.value, ast.Name) and kw.value.id == "float"
            for kw in call.keywords
        )
    )


def field_rule_copies(tree):
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

    visit(tree, False)
    return sorted(found)


def scalar_rule_copies(tree):
    """``function(argument) (line n)`` for each public function or
    ``__post_init__`` passing its own parameter, or a field of self, to
    ``math.isnan`` or ``math.isfinite``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or (
            node.name.startswith("_") and node.name != "__post_init__"
        ):
            continue
        params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and call.args
                    and ast.unparse(call.func) in ("math.isnan", "math.isfinite")):
                continue
            arg = call.args[0]
            if (isinstance(arg, ast.Name) and arg.id in params - {"self", "cls"}
                    or isinstance(arg, ast.Attribute) and ast.unparse(arg.value) == "self"):
                found.append(f"{node.name}({ast.unparse(arg)}) (line {call.lineno})")
    return sorted(found)


# rule: (scan, files it reads, [(planted source, expected findings), ...])
RULES = {
    "unused-import": (unused_imports, package_but("__init__.py") + TESTS, [(
        "import math\nfrom os import path, sep as s\n\nprint(path)\n",
        ["math (line 1)", "s (line 2)"],
    )]),
    "unread-parameter": (unread_parameters, PACKAGE, [(
        "class A:\n"
        "    def f(self, used, unused, *, key=1, **rest):\n"
        "        def inner():\n"
        "            return used + key\n"
        "        unused = 2\n"
        "        return inner()\n"
        "\n"
        "g = lambda x, y: x\n",
        ["<lambda>.y (line 8)", "f.rest (line 2)", "f.unused (line 2)"],
    )]),
    "integer-rule": (integer_rule_copies, package_but("errors.py"), [(
        "import math, numbers as nb\n"
        "from numbers import Integral\n"
        "\n"
        "def is_count(value):\n"
        "    return isinstance(value, numbers.Integral) and value >= math.ulp(0)\n",
        ["from numbers import (line 2)", "import numbers (line 1)", "numbers.Integral (line 5)"],
    )]),
    "second-grid": (second_grids, PACKAGE, [(
        "def solve(grid, system, phi, cfg=None):\n    pass\n\n"
        "class Step:\n    def __init__(self, grid, solver, dt, *, weight):\n        pass\n\n"
        "def energy(solver, phi, *, grid=None):\n    pass\n\n"
        "def keyword_owner(grid, *, system):\n    pass\n\n"
        "def optional_owner(grid, params, solver=None):\n    pass\n\n"
        "def no_grid(solver, system):\n    pass\n\n"
        "def grid_only(grid, phi):\n    pass\n",
        ["__init__ (line 5)", "energy (line 8)", "keyword_owner (line 11)", "solve (line 1)"],
    )]),
    "numpy-wrapper": (wrapper_uses, PACKAGE, [(
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
        "    return trace.mean_tail_contraction()\n",
        ["fft2 (line 10)", "ifftn (line 9)", "irfftn (line 2)", "mean (line 7)",
         "mean (line 7)", "rfftn (line 8)", "roll (line 3)", "roll (line 6)"],
    ), (
        "import numpy as np\n"
        "from numpy import sum as total, maximum\n"
        "\n"
        "def f(u, grid, trace):\n"
        "    a = np.min(u) + numpy.max(u)\n"
        "    if np.all(u > 0.0):\n"
        "        return np.sum(u)\n"
        "    ok = u.min() + u.max() + u.sum() + (u > 0.0).all() + maximum(u, 0)\n"
        "    ok += grid.min + trace.max() + np.minimum(u, 1).sum() + np.fft.rfft(u).sum()\n"
        "    return min(1, 2) + max(ok, 0) + sum([1]) + all([ok])\n",
        ["all (line 6)", "max (line 5)", "min (line 5)", "sum (line 2)", "sum (line 7)"],
    )]),
    "self-multiply": (self_multiplies, PACKAGE, [(
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
        "    return np.multiply(out, 2.0, out=out)\n",
        ["u (line 4)", "u (line 5)", "v (line 8)", "work (line 6)", "work (line 7)"],
    )]),
    "field-rule": (field_rule_copies, PACKAGE, [(
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
        "    return np.asarray(phi, dtype=np.float32)\n",
        ["np.array(dtype=float) (line 6)", "np.asarray(dtype=float) (line 5)",
         "validate_field (line 4)"],
    )]),
    "scalar-rule": (scalar_rule_copies, package_but("errors.py"), [(
        "import math\n"
        "\n"
        "class Config:\n"
        "    def __post_init__(self):\n"
        "        return math.isnan(self.cutoff) or any(math.isnan(t) for t in self.times)\n"
        "\n"
        "def write(path, t, *, strict=True):\n"
        "    header = float(path)\n"
        "    return math.isfinite(t) or math.isnan(strict) or math.isfinite(header.t)\n"
        "\n"
        "def _newton(alpha, slope):\n"
        "    return math.isfinite(slope) and math.isnan(alpha)\n",
        ["__post_init__(self.cutoff) (line 5)", "write(strict) (line 9)", "write(t) (line 9)"],
    )]),
}


@pytest.mark.parametrize("scan, path", [
    pytest.param(scan, path, id=f"{rule}-{path.parent.name}/{path.name}")
    for rule, (scan, files, _) in RULES.items()
    for path in files
])
def test_source_follows_the_rule(scan, path):
    assert scan(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("scan, source, expected", [
    pytest.param(scan, source, expected, id=f"{rule}-{i}")
    for rule, (scan, _, planted) in RULES.items()
    for i, (source, expected) in enumerate(planted)
])
def test_scan_flags_the_planted_source(scan, source, expected):
    assert scan(ast.parse(source)) == expected
