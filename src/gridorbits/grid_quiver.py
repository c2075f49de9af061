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
from itertools import combinations_with_replacement

from .exact_linalg import Matrix, inverse, is_upper_triangular
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


class HeightVectorError(GridQuiverError):
    pass


class EmptySupport(HeightVectorError):
    pass


class HeightOutOfRange(HeightVectorError):
    pass


class NonContiguousSupport(HeightVectorError):
    pass


class NonMonotone(HeightVectorError):
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
class HeightVector:
    """Heights of a thin indecomposable: h_j marks the first nonzero row of
    column j, counted from the bottom (0 = column absent)."""

    shape: GridShape
    h: tuple


@dataclass(frozen=True)
class Decomposition:
    """Multiset of height vectors with multiplicities, sorted for determinism."""

    shape: GridShape
    summands: tuple  # ((h, mult), ...)

    @classmethod
    def from_heights(cls, shape, heights):
        counts = {}
        for h in heights:
            h = tuple(h)
            counts[h] = counts.get(h, 0) + 1
        return cls(shape, tuple(sorted(counts.items())))

    def heights(self):
        """All summands, with multiplicity, as a sorted list of tuples."""
        out = []
        for h, mult in self.summands:
            out.extend([h] * mult)
        return out

    def __str__(self):
        parts = []
        for h, mult in self.summands:
            body = "U(" + ",".join(str(x) for x in h) + ")"
            parts.append(body if mult == 1 else f"{mult}*{body}")
        return "+".join(parts)


def make_point(shape, mats):
    """Validate and wrap a tuple of maps as a point of the restricted space.

    Args:
        shape: the grid shape.
        mats: n-1 square matrices of size n+1 (Matrix instances over a
            common field, or plain nested number lists, taken over Q).

    Raises:
        SizeMismatch: wrong number of maps or wrong matrix size.
        TriangularityViolation: a nonzero entry below the diagonal.
    """
    mats = [
        m if isinstance(m, Matrix) else Matrix(QQ, [[Fraction(x) for x in row] for row in m])
        for m in mats
    ]
    if len(mats) != shape.num_maps:
        raise SizeMismatch(f"expected {shape.num_maps} maps, got {len(mats)}")
    for idx, m in enumerate(mats, start=1):
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
    """All window compositions of a point, keyed by 1-based (j1, j2).

    Window (j1, j2) is maps[j2] · ... · maps[j1], map j1 applied first;
    each window extends (j1, j2 - 1) by one map on the left, so a window
    of two or more maps costs one product.
    """
    maps = point.maps
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


def validate_heights(shape, h):
    """Check the height-vector invariants and return the HeightVector.

    The support must be a nonempty contiguous column interval, heights must
    be weakly increasing along it, and each height must lie in 1..n+1.
    (Contiguity is stronger than weak monotonicity alone: a vector like
    (2,0,3) splits as a direct sum of its column blocks.)
    """
    h = tuple(h)
    if len(h) != shape.n:
        raise SizeMismatch(f"expected {shape.n} heights, got {len(h)}")
    if any(v < 0 or v > shape.size for v in h):
        raise HeightOutOfRange(f"heights must lie in 0..{shape.size}: {h}")
    support = [j for j, v in enumerate(h) if v > 0]
    if not support:
        raise EmptySupport("height vector with empty support")
    a, b = support[0], support[-1]
    if support != list(range(a, b + 1)):
        raise NonContiguousSupport(f"support of {h} is not a contiguous interval")
    seg = h[a:b + 1]
    if any(x > y for x, y in zip(seg, seg[1:])):
        raise NonMonotone(f"heights {h} are not weakly increasing on the support")
    return HeightVector(shape, h)


def enumerate_indecomposables(shape):
    """All valid height vectors for this shape, in lexicographic order.

    Generates, per support interval [a, b], every weakly increasing height
    sequence with values in 1..n+1.
    """
    n = shape.n
    heights = sorted(
        (0,) * (a - 1) + seg + (0,) * (n - b)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        for seg in combinations_with_replacement(range(1, shape.size + 1), b - a + 1)
    )
    return [HeightVector(shape, h) for h in heights]


def column_heights(dec, j):
    """Nonzero heights seen by 1-based column j, with multiplicity."""
    vals = []
    for h, mult in dec.summands:
        if h[j - 1] > 0:
            vals.extend([h[j - 1]] * mult)
    return sorted(vals)


def check_full_decomposition(dec):
    """Raise InvalidDecomposition unless every column sees heights 1..n+1
    exactly once (the invariant of full points, where dim at (i,j) is i)."""
    expected = list(range(1, dec.shape.size + 1))
    for j in range(1, dec.shape.n + 1):
        if column_heights(dec, j) != expected:
            raise InvalidDecomposition(
                f"column {j} sees heights {column_heights(dec, j)}, expected {expected}"
            )


def assemble_canonical(dec):
    """Canonical representative of the orbit with decomposition ``dec``:
    the :func:`rook_point` of its summands' :func:`height_matchings`."""
    check_full_decomposition(dec)
    return rook_point(dec.shape, height_matchings(dec.shape, dec.heights()))


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
    rows = [[[QQ.one if x else QQ.zero for x in row] for row in rook_of_matching(shape.size, m)]
            for m in matchings]
    return make_point(shape, [Matrix(QQ, r) for r in rows])


def rook_of_matching(size, matching):
    """The rook (0/1 partial permutation matrix, as int rows) of a height
    matching: a -> b is the 1 in 1-based row size+1-b, column size+1-a, so
    e_(size+1-a), the line of height a in one column, goes to e_(size+1-b)."""
    rows = [[0] * size for _ in range(size)]
    for a, b in matching.items():
        rows[size - b][size - a] = 1
    return rows


def matching_of_rook(size, cells):
    """Inverse of :func:`rook_of_matching`, from the 1-based (row, column)
    cells of the rook's 1s, such as a rank table's pivots."""
    return {size + 1 - q: size + 1 - p for p, q in cells}


def matchings_to_decomposition(shape, matchings):
    """Chain per-pair height matchings into a full decomposition.

    ``matchings[j-1]`` matches heights of column j to heights of column
    j+1 (weakly increasing pairs, each height used at most once per side).
    Heights with no left partner start a summand; following right partners
    yields its height chain.
    """
    size = shape.size
    heights = []
    for start_col in range(1, shape.n + 1):
        for h0 in range(1, size + 1):
            if start_col > 1 and h0 in matchings[start_col - 2].values():
                continue
            chain = [h0]
            col = start_col
            while col <= shape.n - 1 and chain[-1] in matchings[col - 1]:
                chain.append(matchings[col - 1][chain[-1]])
                col += 1
            h = [0] * shape.n
            h[start_col - 1:start_col - 1 + len(chain)] = chain
            heights.append(tuple(h))
    return Decomposition.from_heights(shape, heights)


def borel_act(point, hs):
    """Simultaneous Borel base change: map j becomes h_(j+1) f_j h_j^(-1).

    Args:
        point: a MapTuple.
        hs: n invertible upper-triangular matrices, one per grid column.
    """
    shape = point.shape
    if len(hs) != shape.n:
        raise SizeMismatch(f"expected {shape.n} base-change matrices, got {len(hs)}")
    for h in hs:
        if not is_upper_triangular(h):
            raise ValueError("base change must be upper-triangular")
    invs = [inverse(h) for h in hs]
    new_maps = [hs[j + 1] @ point.maps[j] @ invs[j] for j in range(shape.num_maps)]
    return make_point(shape, new_maps)


def full_dim_grid(shape):
    """The dimension grid of the restricted space: entry (i, j) equals i."""
    return tuple(tuple(i for _ in range(shape.n)) for i in range(1, shape.size + 1))


def dims_of_heights(hv):
    """Dimension grid of the thin indecomposable with heights ``hv``."""
    n, size = hv.shape.n, hv.shape.size
    return tuple(
        tuple(1 if hv.h[j] >= size + 1 - i else 0 for j in range(n))
        for i in range(1, size + 1)
    )
