"""Shared fixtures: published worked-example data and small random helpers."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from gridorbits import GridShape, Matrix, QQ, make_point, sw_array
from gridorbits.decomposition import flat_entries, table_intersections

# The fifteen canonical 3x3 representatives, in the source's numbering.
CANONICAL_15 = {
    1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    2: [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    3: [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    4: [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
    5: [[1, 0, 0], [0, 0, 1], [0, 0, 0]],
    6: [[0, 0, 1], [0, 1, 0], [0, 0, 0]],
    7: [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    8: [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
    9: [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    10: [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
    11: [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    12: [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    13: [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    14: [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    15: [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
}

# Their published rank vectors (intersection part only).
RANK_VECTORS_15 = {
    1: (1, 1, 2, 1, 2, 3),
    2: (1, 1, 2, 1, 2, 2),
    3: (1, 1, 1, 1, 1, 2),
    4: (0, 0, 1, 0, 1, 2),
    5: (1, 1, 1, 1, 2, 2),
    6: (0, 0, 1, 1, 2, 2),
    7: (0, 1, 1, 1, 2, 2),
    8: (0, 1, 1, 1, 1, 2),
    9: (1, 1, 1, 1, 1, 1),
    10: (0, 0, 1, 0, 1, 1),
    11: (0, 0, 0, 0, 0, 1),
    12: (0, 0, 0, 0, 1, 1),
    13: (0, 0, 0, 1, 1, 1),
    14: (0, 1, 1, 1, 1, 1),
    15: (0, 0, 0, 0, 0, 0),
}

# Cover relations of the published Hasse diagram, as (upper, lower) pairs.
HASSE_EDGES_15 = frozenset(
    [
        (1, 2), (1, 3), (1, 4),
        (2, 5), (2, 6), (3, 5), (3, 8), (4, 6), (4, 8),
        (5, 7), (5, 9), (6, 7), (6, 10), (8, 7), (8, 11),
        (7, 12), (7, 14), (9, 14), (10, 12), (10, 14), (11, 12),
        (12, 13), (14, 13),
        (13, 15),
    ]
)

# The published twelve thin indecomposables (heights -> 12-entry vector:
# six dimensions column-major, then the intersection entries).
INDECOMPOSABLE_VECTORS_12 = {
    (3, 3): (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (3, 0): (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 3): (0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0),
    (2, 0): (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 2): (0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0),
    (1, 0): (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1): (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (2, 3): (0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1),
    (1, 3): (0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1),
    (2, 2): (0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1),
    (1, 2): (0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1),
    (1, 1): (0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1),
}

# The published size-4 pair and its seven-summand decomposition.
PAIR_N3 = (
    [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
)
DECOMP_N3 = {
    (4, 0, 0), (3, 3, 0), (2, 0, 0), (1, 1, 1), (0, 4, 4), (0, 2, 2), (0, 0, 3),
}


@pytest.fixture
def shape2():
    return GridShape(2)


@pytest.fixture
def shape3():
    return GridShape(3)


@pytest.fixture
def diag011(shape2):
    return make_point(shape2, [CANONICAL_15[4]])


@pytest.fixture
def pair_n3(shape3):
    return make_point(shape3, list(PAIR_N3))


@pytest.fixture
def paper_points(shape2):
    return {k: make_point(shape2, [m]) for k, m in CANONICAL_15.items()}


def flat_rank_vector(point):
    """The flat rank vector of a point as ``rank-vector`` and the orbit
    listing print it: each south-west table's intersections read flat, in
    window order."""
    size = point.shape.size
    return tuple(x for table in sw_array(point).tables for x in flat_entries(table_intersections(table), size))


def random_ut(size, rng, invertible=False):
    """Random upper-triangular matrix over Q with small integer entries."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        if invertible:
            rows[i][i] = Fraction(rng.choice([1, 2, 3, -1, -2]))
        else:
            rows[i][i] = Fraction(rng.randint(-2, 2))
        for j in range(i + 1, size):
            rows[i][j] = Fraction(rng.randint(-2, 2))
    return Matrix(QQ, rows)


def random_point(shape, rng):
    return make_point(shape, [random_ut(shape.size, rng) for _ in range(shape.num_maps)])


def random_unimodular_ut(size, rng):
    """Upper-triangular with diagonal +-1: invertible over the integers,
    so its reduction mod any prime stays invertible."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(rng.choice([1, -1]))
        for j in range(i + 1, size):
            rows[i][j] = Fraction(rng.randint(-2, 2))
    return Matrix(QQ, rows)


def random_borel(shape, rng):
    return [random_ut(shape.size, rng, invertible=True) for _ in range(shape.n)]


@pytest.fixture
def rng():
    return random.Random(20240809)


def count_calls(monkeypatch, targets):
    """Count the calls of each (module, attr) function by wrapping every
    module-level binding of it, as the benchmark's tracer does, so an
    import by name is counted too.  Returns the live counts by attr."""
    calls = {}
    for module, attr in targets:
        original = getattr(module, attr)
        calls[attr] = 0

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "gridorbits":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return calls
