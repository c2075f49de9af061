"""The counting polynomial is fitted at one place.

The flat scan and the Hom audit count over the schedule and fit through
one step, ``degeneration_lab._count_and_fit``, so the engine calls
``fit_dimension`` at exactly one place.  As ``test_matrix_calls`` does,
this reads the syntax tree of every module under ``src/gridorbits``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridorbits"


def fit_calls(tree):
    """Sorted line numbers of every call of ``fit_dimension`` in ``tree``,
    by its name or as an attribute of a module or object."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "fit_dimension":
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_fit_calls():
    tree = ast.parse(
        "est = fit_dimension(counts, 3)\n"
        "f = fit_dimension\n"
        "g = degeneration_lab.fit_dimension(counts, 3)\n"
        "h = fit_dimensions(counts)\n"
        "k = [fit_dimension(c, d) for c in cs]\n"
        "def fit_dimension(counts, max_degree): pass\n"
        "m = DimEstimate(fit_dimension)\n"
    )
    assert fit_calls(tree) == [1, 3, 5]


def test_engine_fits_at_one_place():
    calls = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in fit_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert [name for name, _line in calls] == ["degeneration_lab.py"]
