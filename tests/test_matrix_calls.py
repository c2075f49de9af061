"""The degeneration lab builds a ``Matrix`` only to rank it.

The Hom audit reads each arrow's map off the canonical point's matchings
as the cells of its 1s, so no dense matrix is built per arrow, per step of
the fixed-point stream or per base point.  The only matrices the module
builds are the linear systems it ranks: the rep-variety fibres and the
audit's two Jacobians.  As ``test_fraction_names`` does, this reads the
module's syntax tree: every call of ``Matrix`` or of one of its
constructors (``Matrix.identity``, ``Matrix.zeros``) is the direct
argument of a call of ``rank``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridorbits"


def _builds_matrix(node):
    """Whether ``node`` calls ``Matrix`` or an attribute of ``Matrix``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "Matrix"


def unranked_matrices(tree):
    """Sorted line numbers of every ``Matrix`` built in ``tree`` other than
    as the direct argument of a ``rank(...)`` call."""
    ranked = {
        id(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "rank"
        for arg in node.args
    }
    return sorted(node.lineno for node in ast.walk(tree) if _builds_matrix(node) and id(node) not in ranked)


def test_checker_finds_unranked_matrices():
    tree = ast.parse(
        "r = rank(Matrix(QQ, rows))\n"
        "m = Matrix(QQ, rows)\n"
        "i = Matrix.identity(QQ, 3)\n"
        "d = rank(m) - rank(Matrix(field, jac[k:]))\n"
        "s = rank(Matrix(QQ, rows) @ m)\n"
        "t = rank(f(Matrix(QQ, rows)))\n"
        "u = rank(Matrix.zeros(QQ, 2))\n"
        "v = isinstance(m, Matrix)\n"
        "w = [rank(Matrix(QQ, r)) for r in rs]\n"
    )
    assert unranked_matrices(tree) == [2, 3, 5, 6]


def test_degeneration_lab_builds_matrices_only_to_rank_them():
    path = SRC / "degeneration_lab.py"
    assert unranked_matrices(ast.parse(path.read_text(), str(path))) == []
