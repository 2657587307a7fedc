"""No function of the package takes a parameter it never reads.

An ast scan of every function and lambda in ``src/thinfilm``: each
parameter other than ``self``/``cls`` must be read somewhere in the body
(a nested function reading it counts).  A parameter nothing reads is a
knob that does nothing for every caller that sets it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "thinfilm").glob("*.py"))


def unread_parameters(source):
    """``function.parameter (line n)`` for each parameter its body never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
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


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_scan_flags_an_unread_parameter():
    source = (
        "class A:\n"
        "    def f(self, used, unused, *, key=1, **rest):\n"
        "        def inner():\n"
        "            return used + key\n"
        "        unused = 2\n"
        "        return inner()\n"
        "\n"
        "g = lambda x, y: x\n"
    )
    assert unread_parameters(source) == [
        "<lambda>.y (line 8)",
        "f.rest (line 2)",
        "f.unused (line 2)",
    ]
