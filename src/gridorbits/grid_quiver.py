"""The grid quiver, points of its inclusion-restricted representation space,
thin indecomposables, and canonical representatives.

A point is a tuple of n-1 upper-triangular (n+1)x(n+1) matrices: the maps
along the bottom row of the grid.  Every other horizontal map is the
principal block of the bottom one, and the vertical maps are the standard
coordinate inclusions, so they are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, filterfalse, repeat, zip_longest
from operator import itemgetter, le

from .exact_linalg import Matrix, integer_multiple, inverse, is_upper_triangular
from .fields import QQ


class GridQuiverError(Exception):
    """Base class for domain errors raised by this package."""


class InfeasibleSize(GridQuiverError):
    """A run refused before it starts: its enumeration would exceed the
    configured budget or a fixed size limit."""


class TriangularityViolation(GridQuiverError):
    def __init__(self, index, position):
        self.index = index
        self.position = position
        super().__init__(f"map {index} has nonzero entry below the diagonal at {position}")


class SizeMismatch(GridQuiverError):
    pass


class InvalidDecomposition(GridQuiverError):
    pass


@dataclass(frozen=True)
class GridShape:
    """Grid with n+1 rows and n columns of vertices; maps act on C^(n+1)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid shape needs n >= 2")

    @property
    def size(self):
        """Ambient dimension n+1."""
        return self.n + 1

    @property
    def num_maps(self):
        return self.n - 1


@dataclass(frozen=True)
class MapTuple:
    """A point of the restricted representation space: n-1 upper-triangular
    matrices of size n+1 (validated; build through :func:`make_point`).

    ``_sw`` keeps the point's south-west array once
    :func:`~gridorbits.parametrizations.sw_array` has computed it; it takes
    no part in equality, hashing or ``repr``.
    """

    shape: GridShape
    maps: tuple
    _sw: object = field(default=None, init=False, repr=False, compare=False)

    def __reduce__(self):
        return MapTuple, (self.shape, self.maps)  # without the array


@dataclass(frozen=True)
class Decomposition:
    """A decomposition into thin indecomposables: the sorted tuple of its
    summands' height vectors.  A thin summand is its height vector h, where
    h_j marks the first nonzero row of column j, counted from the bottom
    (0 = column absent); its nonzero entries form one weakly increasing
    run of columns.  In a full decomposition each column sees every height
    once, so no summand repeats, and the summands are the chains of the
    per-pair matchings that :func:`check_full_decomposition` reads off."""

    shape: GridShape
    summands: tuple  # (h, ...)

    def __str__(self):
        return "+".join(map(summand_text, self.summands))


def summand_text(h):
    """The text ``U(h_1,...,h_n)`` of the thin summand with heights ``h``;
    the text of a decomposition joins its summands' texts with ``+``."""
    return "U(" + ",".join(map(str, h)) + ")"


def decomposition_text(summands, texts):
    """``str`` of the decomposition with these summands, joined from their
    texts.  ``texts`` is a dict from height vectors to their
    :func:`summand_text`, filled as needed, so a caller that labels many
    decompositions with one dict makes each summand's text once."""
    for h in summands:
        if h not in texts:
            texts[h] = summand_text(h)
    return "+".join([texts[h] for h in summands])


def make_point(shape, mats):
    """Validate and wrap a tuple of maps as a point of the restricted space.

    Args:
        shape: the grid shape.
        mats: n-1 square matrices of size n+1 (Matrix instances over a
            common field, or plain nested number lists, taken over Q).

    Raises:
        SizeMismatch: wrong number of maps or wrong matrix size.
        GridQuiverError: maps over different fields.
        TriangularityViolation: a nonzero entry below the diagonal.
    """
    mats = [
        m if isinstance(m, Matrix) else Matrix(QQ, [[Fraction(x) for x in row] for row in m])
        for m in mats
    ]
    if len(mats) != shape.num_maps:
        raise SizeMismatch(f"expected {shape.num_maps} maps, got {len(mats)}")
    for idx, m in enumerate(mats, start=1):
        if m.field is not mats[0].field:
            raise GridQuiverError(f"map {idx} is over {m.field}, map 1 over {mats[0].field}")
        if m.rows != shape.size or m.cols != shape.size:
            raise SizeMismatch(f"map {idx} is {m.rows}x{m.cols}, expected size {shape.size}")
        for i in range(m.rows):
            for j in range(i):
                if m.data[i][j]:
                    raise TriangularityViolation(idx, (i + 1, j + 1))
    return MapTuple(shape, tuple(mats))


def identity_tuple(shape):
    return make_point(shape, [Matrix.identity(QQ, shape.size)] * shape.num_maps)


def zero_tuple(shape):
    return make_point(shape, [Matrix.zeros(QQ, shape.size)] * shape.num_maps)


# Caches nothing: ``sw_array`` keeps each point's array on the point, so a
# point's products are asked for once.  The wrapper stays for its
# ``cache_info``, which the benchmark's tracer reads.
@lru_cache(maxsize=0)
def window_products(point):
    """All window compositions of a point, each up to a positive scalar,
    keyed by 1-based (j1, j2).

    Window (j1, j2) is maps[j2] · ... · maps[j1], map j1 applied first;
    each window extends (j1, j2 - 1) by one map on the left, so a window
    of two or more maps costs one product.  Over QQ each map is first
    replaced by its :func:`~gridorbits.exact_linalg.integer_multiple`, so
    window (j1, j2) is d_j2 ··· d_j1 times the composition, d_j the lcm of
    map j's denominators, and has int entries: no product builds a
    ``Fraction``.  A nonzero scalar changes no rank, so every south-west
    rank is the composition's.  Over GF(q) the windows are the
    compositions themselves.
    """
    maps = point.maps
    if maps and maps[0].field is QQ:
        maps = [integer_multiple(m) for m in maps]
    prods = {}
    for j1 in range(1, len(maps) + 1):
        prods[(j1, j1)] = maps[j1 - 1]
        for j2 in range(j1 + 1, len(maps) + 1):
            prods[(j1, j2)] = maps[j2 - 1] @ prods[(j1, j2 - 1)]
    return prods


def windows(shape):
    return [
        (j1, j2)
        for j1 in range(1, shape.num_maps + 1)
        for j2 in range(j1, shape.num_maps + 1)
    ]


def enumerate_indecomposables(shape):
    """All valid height vectors for this shape, in lexicographic order.

    Generates, per support interval [a, b], every weakly increasing height
    sequence with values in 1..n+1.
    """
    n = shape.n
    return sorted(
        (0,) * (a - 1) + seg + (0,) * (n - b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        for seg in combinations_with_replacement(range(1, shape.size + 1), b - a + 1)
    )


def check_full_decomposition(dec):
    """The per-pair :func:`height_matchings` of a full decomposition: each
    column sees heights 1..n+1 once (the invariant of full points, where
    dim at (i,j) is i), and each summand is thin.  With the column rule
    met, the summands are thin exactly when each has n heights, none is
    zero, every pair a -> b of the matchings has a <= b, and they hold
    n(n+1) - #summands pairs, one per adjacent pair of a run's heights (a
    gap drops one).  Anything else raises InvalidDecomposition; only then
    are the summands scanned, to name the first that is not thin."""
    shape, summands = dec.shape, dec.summands
    n = shape.n
    if set(map(len, summands)) <= {n}:
        expected = list(range(1, shape.size + 1))
        for j in range(n):
            seen = sorted(filter(None, map(itemgetter(j), summands)))
            if seen != expected:
                raise InvalidDecomposition(f"column {j + 1} sees heights {seen}, expected {expected}")
        matchings = height_matchings(shape, summands)
        if (sum(map(len, matchings)) == n * shape.size - len(summands) and (0,) * n not in summands
                and all(all(map(le, m, m.values())) for m in matchings)):
            return matchings
    h, fault = next((h, fault) for h in summands if (fault := _thin_fault(n, h)))
    raise InvalidDecomposition(f"summand {h} is not thin: {fault}")


def _thin_fault(n, h):
    """Why ``h`` is not the heights of a thin summand of n columns (n
    entries, the nonzero ones one weakly increasing run), or None; heights
    above n+1 are the column rule's to refuse."""
    support = [j for j, v in enumerate(h) if v]
    run = h[support[0]:support[-1] + 1] if support else ()
    if len(h) != n:
        return f"it has length {len(h)}, expected {n}"
    if not support:
        return "it is zero"
    if len(run) != len(support):
        return "its support has a gap"
    if any(a > b for a, b in zip(run, run[1:])):
        return "its heights decrease"


def assemble_canonical(dec):
    """Canonical representative of the orbit with decomposition ``dec``:
    the :func:`rook_point` of the per-pair matchings that
    :func:`check_full_decomposition` reads off its summands."""
    return rook_point(dec.shape, check_full_decomposition(dec))


def height_matchings(shape, heights):
    """Per-pair matchings of thin summands with these height vectors: h_j
    to h_(j+1) wherever both are nonzero (inverse of
    :func:`matchings_to_decomposition` on full decompositions)."""
    out = [{} for _ in range(shape.num_maps)]
    for h in heights:
        for j, m in enumerate(out):
            if h[j] and h[j + 1]:
                m[h[j]] = h[j + 1]
    return out


def rook_point(shape, matchings):
    """The 0/1 point over Q whose map j is the rook of ``matchings[j-1]``."""
    return make_point(shape, [Matrix(QQ, rook_of_matching(shape.size, m)) for m in matchings])


def rook_cells(size, matching):
    """1-based (row, column) cells of the 1s of a height matching's rook:
    a -> b is (size+1-b, size+1-a), so e_(size+1-a), the line of height a
    in one column, goes to e_(size+1-b)."""
    return [(size + 1 - b, size + 1 - a) for a, b in matching.items()]


def rook_of_matching(size, matching):
    """The rook of a height matching as int rows, 1 at its :func:`rook_cells`."""
    rows = [[0] * size for _ in range(size)]
    for p, q in rook_cells(size, matching):
        rows[p - 1][q - 1] = 1
    return rows


def matching_of_rook(size, cells):
    """Inverse of :func:`rook_cells`, from the 1-based (row, column) cells
    of the rook's 1s, such as a rank table's pivots."""
    return {size + 1 - q: size + 1 - p for p, q in cells}


def carry(heights, matching, starts=()):
    """The one composing and chaining rule: each of ``heights`` carried
    through one height matching, to the height it is matched to or to 0
    where its chain stops (0, a stopped chain, stays 0), then ``starts``.

    With no starts it composes: an image vector, entry a - 1 the height a
    reaches, becomes the next window's
    (:func:`~gridorbits.parametrizations.matchings_sw_array`).  With the
    matching's :func:`chain_starts` it chains: a column of the heights of
    every chain so far becomes the next column's, the chains that start
    there listed last (:func:`chained_summands`).
    """
    return (*map(matching.get, heights, repeat(0)), *starts)


def chain_starts(size, matching):
    """The heights of the next column that ``matching`` leaves without a
    left partner, downward, as an iterator: each starts a summand there."""
    return filterfalse(set(matching.values()).__contains__, range(size, 0, -1))


def chained_summands(columns):
    """The summand tuple of the full decomposition whose summands are the
    chains of these columns (a :class:`Decomposition`'s ``summands``): the
    first column's heights downward, then one :func:`carry` with
    :func:`chain_starts` per matching.

    A chain's heights are its entries across the columns, 0 before it
    starts (an earlier column lists no chain that starts later, so
    ``zip_longest`` fills it) and 0 once it stops.  No two chains are
    equal, and listed backwards they are sorted: a chain that starts in a
    later column has a 0 where an earlier one has its first height, and
    chains that start in one column start at different heights, listed
    downward.
    """
    # reversed in a list: a reversed copy of a tuple would leave one
    # discarded tuple per call in CPython's tuple free lists, which a walk
    # over thousands of orbits fills (0.27 MB more peak memory at n = 3)
    summands = list(zip_longest(*columns, fillvalue=0))
    summands.reverse()
    return tuple(summands)


def matchings_to_decomposition(shape, matchings):
    """Chain per-pair height matchings into a full decomposition.

    ``matchings[j-1]`` matches heights of column j to heights of column
    j+1 (weakly increasing pairs, each height used at most once per side).
    Heights with no left partner start a summand; following right partners
    yields its height chain (:func:`carry`, :func:`chained_summands`).
    """
    size = shape.size
    columns = [range(size, 0, -1)]
    for m in matchings:
        columns.append(carry(columns[-1], m, chain_starts(size, m)))
    return Decomposition(shape, chained_summands(columns))


def borel_act(point, hs):
    """Simultaneous Borel base change: map j becomes h_(j+1) f_j h_j^(-1).

    Args:
        point: a MapTuple.
        hs: n invertible upper-triangular matrices, one per grid column.

    Raises:
        SizeMismatch: a wrong number of base changes, or one of wrong size.
        GridQuiverError: a base change over another field than the point's.
        ValueError: a base change not upper-triangular or not invertible.
    """
    shape = point.shape
    field = point.maps[0].field
    if len(hs) != shape.n:
        raise SizeMismatch(f"expected {shape.n} base-change matrices, got {len(hs)}")
    for j, h in enumerate(hs, start=1):
        if h.rows != shape.size or h.cols != shape.size:
            raise SizeMismatch(f"base change {j} is {h.rows}x{h.cols}, expected size {shape.size}")
        if h.field is not field:
            raise GridQuiverError(f"base change {j} is over {h.field}, the point over {field}")
        if not is_upper_triangular(h):
            raise ValueError("base change must be upper-triangular")
    invs = [inverse(h) for h in hs]
    new_maps = [hs[j + 1] @ point.maps[j] @ invs[j] for j in range(shape.num_maps)]
    return make_point(shape, new_maps)


def full_dim_grid(shape):
    """The dimension grid of the restricted space: entry (i, j) equals i."""
    return tuple(tuple(i for _ in range(shape.n)) for i in range(1, shape.size + 1))


def dims_of_heights(shape, h):
    """Dimension grid of the thin indecomposable with heights ``h``."""
    size = shape.size
    return tuple(
        tuple(1 if hj >= size + 1 - i else 0 for hj in h)
        for i in range(1, size + 1)
    )
