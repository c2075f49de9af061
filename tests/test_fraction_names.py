"""An int is a rational: no ``Fraction`` is built around one.

``QQ`` holds an integer as the int itself, so a ``Fraction`` is needed
only where a value is divided or enters from outside: in ``fields``
(``RationalField``'s division and ``from_fraction``), in ``grid_quiver``
(``make_point``'s reading of plain number lists) and in ``serialize``
(``scalar_from_str``).  As ``test_rook_convention`` does, this reads each
module's syntax tree: no other module imports or reads the name
``Fraction``.  Docstrings and comments may still mention it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridorbits"


def fraction_names(tree):
    """Sorted line numbers where ``tree`` imports ``fractions`` or
    ``Fraction``, or reads ``Fraction`` as a name or an attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hit = node.id == "Fraction"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "Fraction"
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "fractions" or any(a.name == "Fraction" for a in node.names)
        elif isinstance(node, ast.Import):
            hit = any(a.name == "fractions" for a in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_fraction_names():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "x = Fraction(3)\n"
        "y = fractions.Fraction(1, 2)\n"
        "z = isinstance(x, Fraction)\n"
        '"""A Fraction in a docstring."""\n'
        "w = QQ.from_fraction(x)  # a Fraction in a comment\n"
        "v = x.denominator\n"
    )
    assert fraction_names(tree) == [1, 2, 3, 4, 5]


def test_only_entry_and_division_modules_name_fraction():
    found = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if fraction_names(ast.parse(path.read_text(), str(path)))
    }
    assert found == {"fields", "grid_quiver", "serialize"}
