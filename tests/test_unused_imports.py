"""No module of the engine imports a name it never uses.

No linter ships with the test dependencies, so this reads each module's
syntax tree: every name bound by an ``import`` must be read somewhere in
the module.  ``__future__`` imports and the package ``__init__``, whose
imports are its exports, are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridorbits"

# orbit_poset no longer calls sw_array, but the benchmark's tracer and its
# self-test expect the name bound there.
ALLOWED = {("orbit_poset", "sw_array")}


def unused_imports(tree):
    """The names that ``import`` statements in ``tree`` bind and that no
    expression in ``tree`` reads."""
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return bound - read


def test_checker_finds_unused_names():
    tree = ast.parse("import os.path\nfrom a import b, c as d\nfrom __future__ import annotations\nd()\n")
    assert unused_imports(tree) == {"os", "b"}


def test_no_unused_imports():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(ast.parse(path.read_text(), str(path)))
    }
    assert found == ALLOWED
