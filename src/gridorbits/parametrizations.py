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

from dataclasses import dataclass
from itertools import chain
from operator import le

from .exact_linalg import b_pivots
from .grid_quiver import GridQuiverError, SizeMismatch, window_products, windows
from .grid_quiver import carry, matching_of_rook, rook_cells, rook_point


class InvalidTable(GridQuiverError):
    """A candidate table that is not the south-west rank table of a rook."""


class ReconstructInvalid(GridQuiverError):
    """A candidate array that no direct sum of thin summands realises."""

    def __init__(self, window, position, expected, got):
        self.window = window
        self.position = position
        self.expected = expected
        self.got = got
        (j1, j2), (p, q) = window, position
        super().__init__(
            f"window ({j1},{j2}): south-west rank at ({p},{q}) is {got}, array claims {expected}"
        )


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
        return tuple(chain.from_iterable(chain.from_iterable(self.tables)))


def table_entry(table, p, q):
    """s(p, q) with the zero extension outside 1 <= p <= q <= size."""
    size = len(table)
    if p < 1 or q < 1 or p > size or q > size or p > q:
        return 0
    return table[p - 1][q - p]


def sw_table(mat):
    """South-west rank table of one upper-triangular matrix: the
    :func:`rook_table` of its :func:`~gridorbits.exact_linalg.b_pivots`."""
    return rook_table(mat.rows, b_pivots(mat))


def rook_table(size, cells):
    """South-west rank table of a size x size rook (0/1 partial permutation
    matrix) given by the 1-based (row, column) cells of its 1s: the rank on
    rows p..size and columns 1..q is the number of 1s there, so 2-D prefix
    sums give the whole table.  :func:`pivots` is its inverse."""
    col = dict(cells)
    below = [0] * (size + 1)  # below[q]: 1s in rows p..size, columns 1..q
    table = [None] * size
    for p in range(size, 0, -1):
        if p in col:
            for q in range(col[p], size + 1):
                below[q] += 1
        table[p - 1] = tuple(below[p:])
    return tuple(table)


def matchings_sw_array(shape, matchings):
    """South-west array of the rook point of these per-pair matchings
    (:func:`~gridorbits.grid_quiver.rook_point`), read off the matchings.

    Window (j1, j2) of that point is the rook of the composed matching
    m_j2 ∘ ... ∘ m_j1, and its table is the :func:`rook_table` of its
    :func:`~gridorbits.grid_quiver.rook_cells`, so no matrix is built.  The
    composed matching is kept as its image vector, a tuple whose entry
    a - 1 is the height a reaches, or 0 once a's chain has dropped; one
    more map ``step`` sends it to ``carry(image, step)``
    (:func:`~gridorbits.grid_quiver.carry`).  Tables are memoised per image
    vector within the call (:func:`image_table`).
    """
    tables = {}
    size = shape.size
    out = []
    for j1 in range(shape.num_maps):
        image = range(1, size + 1)
        for step in matchings[j1:]:
            image = carry(image, step)
            out.append(tables.get(image) or image_table(size, image, tables))
    return SWArray(shape, tuple(out))


def image_table(size, image, tables):
    """The :func:`rook_table` of the composed matching with this image
    vector, entered in the memo ``tables``."""
    composed = {a: b for a, b in enumerate(image, start=1) if b}
    table = tables[image] = rook_table(size, rook_cells(size, composed))
    return table


def sw_array(point):
    """South-west array of a point: one table per window composition.

    The array is computed once per point and kept on it, so every later
    query on the same point object (:func:`same_orbit`, :func:`degenerates`,
    ``rank_vector``, ``decompose``) reads that array.  This is sound because
    a point cannot change: :func:`~gridorbits.grid_quiver.make_point` is its
    only constructor, and it stores a tuple of immutable ``Matrix`` values.
    The memo is freed with its point; an equal but distinct point computes
    its own array.
    """
    arr = point._sw
    if arr is None:
        prods = window_products(point)
        arr = SWArray(point.shape, tuple(sw_table(prods[w]) for w in windows(point.shape)))
        object.__setattr__(point, "_sw", arr)
    return arr


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
    return all(map(le, a.flat(), b.flat()))


def degenerates(f, g):
    """Whether g's array is componentwise below f's.

    Rank functions are upper semicontinuous, so the closure of an orbit
    consists of points with componentwise smaller-or-equal arrays: this is
    necessary for the orbit of g to lie in the closure of the orbit of f,
    and for n >= 3 (where arrays do not separate orbits) not sufficient.
    """
    if f.shape != g.shape:
        raise SizeMismatch("points have different shapes")
    return array_leq(sw_array(g), sw_array(f))


def pivots(table):
    """Pivot positions of the unique partial permutation matrix with these
    south-west ranks, the inverse of :func:`rook_table`: cells where the
    double difference s(p,q) - s(p+1,q) - s(p,q-1) + s(p+1,q-1) is 1.

    Raises:
        InvalidTable: a double difference is not 0 or 1, or pivots share a
            row or column.
    """
    size = len(table)
    # ranks[p][q] = s(p, q) for p in 1..size+1 and q in 0..size, with the zero
    # extension; below the diagonal every double difference is 0
    ranks = [[0] * (size + 1) for _ in range(size + 2)]
    for p, row in enumerate(table, start=1):
        ranks[p][p:] = row
    out = set()
    for p in range(1, size + 1):
        here, below = ranks[p], ranks[p + 1]
        for q in range(p, size + 1):
            d = here[q] - below[q] - here[q - 1] + below[q - 1]
            if d not in (0, 1):
                raise InvalidTable(f"double difference at ({p},{q}) is {d}")
            if d == 1:
                out.add((p, q))
    if len({p for p, _q in out}) < len(out) or len({q for _p, q in out}) < len(out):
        cells = ", ".join(f"({p},{q})" for p, q in sorted(out))
        raise InvalidTable(f"pivots [{cells}] reuse a row or column")
    return out


def reconstruct_matchings(s):
    """Per-pair height matchings of the canonical point with array ``s``.

    Each single-map table's pivots are a rook, hence a matching; the
    candidate is accepted only if :func:`matchings_sw_array` of those
    matchings reproduces it on every window, compositions included.  This
    decides whether a direct sum of thin summands realises the array; for
    n >= 3 a point without one may realise a rejected array.

    Raises:
        InvalidTable: a single-map table is not the rank table of a rook;
            the message starts with its window, as ReconstructInvalid's does.
        ReconstructInvalid: the first entry where the rook point's array
            disagrees with the candidate.
    """
    shape = s.shape
    matchings = []
    for j in range(1, shape.num_maps + 1):
        try:
            cells = pivots(s.table(j, j))
        except InvalidTable as exc:
            raise InvalidTable(f"window ({j},{j}): {exc}") from exc
        matchings.append(matching_of_rook(shape.size, cells))
    realised = matchings_sw_array(shape, matchings)
    if realised.tables != s.tables:  # walk the entries only to name the first
        for w, got_t, want_t in zip(windows(shape), realised.tables, s.tables):
            for p, (got_row, want_row) in enumerate(zip(got_t, want_t), start=1):
                for off, (got, want) in enumerate(zip(got_row, want_row)):
                    if got != want:
                        raise ReconstructInvalid(w, (p, p + off), want, got)
    return matchings


def reconstruct(s):
    """The canonical point with array ``s``, the rook point of
    :func:`reconstruct_matchings` (whose errors it raises)."""
    return rook_point(s.shape, reconstruct_matchings(s))


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
            pivots(table)
        except InvalidTable as exc:
            violations.append(f"window ({j1},{j2}): {exc}")
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
