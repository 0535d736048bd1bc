"""Every module of the package imports at module level only.

A deferred ``from .x import f`` inside a function reads the binding at
call time, so which object the call reaches (and which binding a wrapper
must replace) is decided out of sight of the module's import block.
"""

import ast
from pathlib import Path

import epnozzle

PACKAGE = Path(epnozzle.__file__).resolve().parent


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                          for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
