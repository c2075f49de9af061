"""South-west arrays: the compact orbit parametrisation and its order.

For every window of consecutive maps, the south-west array stores the rank
of each submatrix made of rows p..n+1 and columns 1..q of the composed
matrix.  The array is constant on Borel orbits and rank functions are upper
semicontinuous, so equal arrays are necessary for equal orbits and
componentwise comparison is necessary for degeneration.  For n = 2 (one
map) the array is a complete invariant; for n >= 3 it is not: the points
(E24 + E33, E11 + E13) and (E24 + E33, E11 + E12 + E13) have equal arrays
but stabilisers of different dimensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .exact_linalg import Matrix, b_reduce
from .fields import QQ
from .grid_quiver import GridQuiverError, SizeMismatch, make_point, window_products, windows


class InvalidTable(GridQuiverError):
    """A candidate table whose double differences are not all 0 or 1."""


class ReconstructInvalid(GridQuiverError):
    """A candidate array that no direct sum of thin summands realises."""

    def __init__(self, window, position, expected, got):
        self.window = window
        self.position = position
        self.expected = expected
        self.got = got
        super().__init__(
            f"window {window}: south-west rank at {position} is {got}, array claims {expected}"
        )


class Order(enum.Enum):
    LT = "LT"
    GT = "GT"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class SWArray:
    """Per-window upper-triangular rank tables.

    ``tables`` is parallel to ``windows(shape)``; each table is a tuple of
    rows, row p holding (s(p, p), ..., s(p, n+1)).
    """

    shape: object
    tables: tuple

    def table(self, j1, j2):
        return self.tables[windows(self.shape).index((j1, j2))]

    def flat(self):
        return tuple(v for t in self.tables for row in t for v in row)


def table_entry(table, p, q):
    """s(p, q) with the zero extension outside 1 <= p <= q <= size."""
    size = len(table)
    if p < 1 or q < 1 or p > size or q > size or p > q:
        return 0
    return table[p - 1][q - p]


def sw_table(mat):
    """South-west rank table of one upper-triangular matrix.

    :func:`b_reduce` keeps every south-west rank and leaves a partial
    permutation matrix, whose table :func:`rook_table` counts.
    """
    return rook_table(b_reduce(mat).data)


def rook_table(rows):
    """South-west rank table of a partial permutation matrix, given as rows
    whose nonzero entries are its 1s: the rank on rows p..size and columns
    1..q is the number of 1s there, so 2-D prefix sums give the whole
    table."""
    size = len(rows)
    below = [0] * (size + 1)  # below[q]: 1s in rows p..size, columns 1..q
    table = [None] * size
    for p in range(size, 0, -1):
        seen = 0  # 1s in row p, columns 1..q
        for q, x in enumerate(rows[p - 1], start=1):
            if x:
                seen += 1
            below[q] += seen
        table[p - 1] = tuple(below[p:])
    return tuple(table)


def sw_array(point):
    """South-west array of a point: one table per window composition."""
    prods = window_products(point)
    return SWArray(
        point.shape,
        tuple(sw_table(prods[w]) for w in windows(point.shape)),
    )


def same_orbit(f, g):
    """Whether two points have equal south-west arrays: the same Borel orbit
    for n = 2, a necessary condition only for n >= 3 (see the module
    docstring)."""
    if f.shape != g.shape:
        raise SizeMismatch("points have different shapes")
    return sw_array(f) == sw_array(g)


def array_leq(a, b):
    """Componentwise a <= b."""
    if a.shape != b.shape:
        raise SizeMismatch("arrays have different shapes")
    return all(x <= y for x, y in zip(a.flat(), b.flat()))


def degenerates(f, g):
    """Whether g's array is componentwise below f's.

    Rank functions are upper semicontinuous, so the closure of an orbit
    consists of points with componentwise smaller-or-equal arrays: this is
    necessary for the orbit of g to lie in the closure of the orbit of f,
    and for n >= 3 (where arrays do not separate orbits) not sufficient.
    """
    return array_leq(sw_array(g), sw_array(f))


def compare(a, b):
    """Order of two arrays: EQ, LT (a below b), GT, or INCOMPARABLE."""
    le = array_leq(a, b)
    ge = array_leq(b, a)
    if le and ge:
        return Order.EQ
    if le:
        return Order.LT
    if ge:
        return Order.GT
    return Order.INCOMPARABLE


def pivots(table):
    """Pivot positions of the unique partial permutation matrix with these
    south-west ranks: cells where the double difference
    s(p,q) - s(p+1,q) - s(p,q-1) + s(p+1,q-1) equals 1.

    Raises:
        InvalidTable: some double difference is not 0 or 1.
    """
    size = len(table)
    out = set()
    for p in range(1, size + 1):
        for q in range(1, size + 1):
            d = (
                table_entry(table, p, q)
                - table_entry(table, p + 1, q)
                - table_entry(table, p, q - 1)
                + table_entry(table, p + 1, q - 1)
            )
            if d not in (0, 1):
                raise InvalidTable(f"double difference at ({p},{q}) is {d}")
            if d == 1:
                out.add((p, q))
    return out


def reconstruct(s):
    """Rebuild the canonical point from a candidate array, or fail.

    Each single-map window's table yields a pivot set, hence a partial
    permutation matrix; the candidate is accepted only if the assembled
    tuple reproduces the claimed table on every window, compositions
    included.  This decides whether a direct sum of thin summands realises
    the array; for n >= 3 a point without one may realise a rejected array.

    Raises:
        InvalidTable: a single-map table is not a valid rank table.
        ReconstructInvalid: some window of the assembled point disagrees
            with the candidate (first failing entry reported).
    """
    shape = s.shape
    size = shape.size
    mats = []
    for j in range(1, shape.num_maps + 1):
        rows = [[QQ.zero] * size for _ in range(size)]
        for (p, q) in pivots(s.table(j, j)):
            rows[p - 1][q - 1] = QQ.one
        mats.append(Matrix(QQ, rows))
    point = make_point(shape, mats)
    realised = sw_array(point)
    for w, got_t, want_t in zip(windows(shape), realised.tables, s.tables):
        for p, (got_row, want_row) in enumerate(zip(got_t, want_t), start=1):
            for off, (got, want) in enumerate(zip(got_row, want_row)):
                if got != want:
                    raise ReconstructInvalid(w, (p, p + off), want, got)
    return point


def validate_array_inequalities(s):
    """Diagnostic check of the necessary rank-table conditions.

    Per window: the size bound s(p,q) <= min(q-p+1, q), double differences
    in {0,1}, and the pivot cells forming a partial permutation (each row
    and column used at most once, so ranks grow by at most one per added
    row or column, and the table equals its pivot counts; the zero
    extension below the diagonal keeps every pivot on or above it).  Across windows, for every split of a composition at t:
    s_[a,b](p,q) <= min(s_[a,t](1,q), s_[t+1,b](p,n+1)), the rank-of-a-
    product bound with the column restriction on the first factor and the
    row restriction on the second.

    Returns:
        (ok, violations) where violations is a list of human-readable
        strings; the array of any point always comes back clean.
    """
    shape = s.shape
    size = shape.size
    violations = []
    for (j1, j2), table in zip(windows(shape), s.tables):
        for p in range(1, size + 1):
            for q in range(p, size + 1):
                v = table_entry(table, p, q)
                if v > min(q - p + 1, q):
                    violations.append(
                        f"window ({j1},{j2}): entry ({p},{q})={v} exceeds min({q - p + 1},{q})"
                    )
        try:
            piv = pivots(table)
        except InvalidTable as exc:
            violations.append(f"window ({j1},{j2}): {exc}")
            continue
        rows_used = [p for (p, _q) in piv]
        cols_used = [q for (_p, q) in piv]
        if len(set(rows_used)) != len(rows_used) or len(set(cols_used)) != len(cols_used):
            violations.append(f"window ({j1},{j2}): pivots {sorted(piv)} reuse a row or column")
    for (j1, j2) in windows(shape):
        if j1 == j2:
            continue
        comp = s.table(j1, j2)
        for t in range(j1, j2):
            first = s.table(j1, t)
            second = s.table(t + 1, j2)
            for p in range(1, size + 1):
                for q in range(p, size + 1):
                    v = table_entry(comp, p, q)
                    bound = min(table_entry(first, 1, q), table_entry(second, p, size))
                    if v > bound:
                        violations.append(
                            f"window ({j1},{j2}) split at {t}: entry ({p},{q})={v} "
                            f"exceeds factor bound {bound}"
                        )
    return (not violations, violations)
