"""Only ``grid_quiver`` knows the rook index rule.

A height matching's a -> b is the rook cell (size+1-b, size+1-a), and
``grid_quiver.rook_cells`` and its inverse ``matching_of_rook`` are the
only code that computes it.  As ``test_unused_imports`` does, this reads
each module's syntax tree: no module but ``grid_quiver`` subtracts from
``size + 1``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridorbits"


def _is_size_plus_one(node):
    """Whether ``node`` is ``size + 1`` or ``<expr>.size + 1``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left, right = node.left, node.right
    names_size = (isinstance(left, ast.Name) and left.id == "size") or (
        isinstance(left, ast.Attribute) and left.attr == "size"
    )
    return names_size and isinstance(right, ast.Constant) and right.value == 1


def reflections(tree):
    """Sorted line numbers of every ``size + 1 - x`` in ``tree``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and _is_size_plus_one(node.left)
    )


def test_checker_finds_reflections():
    tree = ast.parse(
        "a = size + 1 - b\nc = shape.size + 1 - d\ne = size - b\nf = range(1, size + 1)\ng = size + 2 - b\n"
    )
    assert reflections(tree) == [1, 2]


def test_only_grid_quiver_reflects_heights():
    found = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if reflections(ast.parse(path.read_text(), str(path)))
    }
    assert found == {"grid_quiver"}
