"""Rank vectors and the decomposition of points into thin indecomposables.

The rank vector collects, for every row i and window of consecutive maps,
the dimensions of the image of the windowed composition (restricted to the
top-left i x i block) intersected with each coordinate subspace.  Window
products are upper-triangular, so each entry is a difference of two
south-west ranks and the rank vector is a reindexing of the south-west
array: it is an orbit invariant, complete for n = 2 and not for n >= 3 (see
:mod:`gridorbits.parametrizations`).  Points are decomposed into thin
indecomposables by :func:`~gridorbits.parametrizations.reconstruct_matchings`
of their south-west array, one height matching per single-map table,
accepted only if their rook point has the same array; the matchings chain
into the summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import rank
from .grid_quiver import (
    GridQuiverError,
    dims_of_heights,
    enumerate_indecomposables,
    full_dim_grid,
    height_matchings,
    matchings_to_decomposition,
    windows,
)
from .parametrizations import ReconstructInvalid, reconstruct_matchings, sw_array, table_entry
from .parametrizations import matchings_sw_array


class SolveFailure(GridQuiverError):
    """The point admits no decomposition into thin indecomposables.

    For n = 2 every point decomposes and this error signals an
    implementation bug.  For n >= 3 genuinely indecomposable-beyond-thin
    points exist: the shared base change couples adjacent maps, so not
    every tuple reduces to partial permutation form simultaneously."""


@dataclass(frozen=True)
class RankVector:
    """Dimension grid plus intersection entries, flattened in a fixed order.

    ``inter`` holds the entries keyed by (i, j1, j2, k) in the order of
    :func:`inter_order`; k runs 1..i for the coordinate intersections and
    k = i+1 stores the plain rank of the windowed block.
    """

    shape: object
    dims: tuple
    inter: tuple


def inter_order(shape):
    """Fixed (i, j1, j2, k) enumeration order of the intersection part."""
    order = []
    for (j1, j2) in windows(shape):
        for i in range(1, shape.size + 1):
            for k in range(1, i + 2):
                order.append((i, j1, j2, k))
    return order


def rank_vector(point):
    """Rank vector of a point of the restricted representation space.

    For each window (j1, j2) and row i, the windowed composition is cut to
    its top-left i x i block; entry k <= i is dim(im ∩ span(e_1..e_k)),
    entry k = i+1 is the block's rank.  It is read off the point's
    south-west array by :func:`rank_vector_from_sw`.
    """
    return rank_vector_from_sw(sw_array(point))


def rank_vector_from_sw(arr):
    """Rank vector of the points whose south-west array is ``arr``.

    Window products are upper-triangular, so the block's rank is the
    south-west rank s(1, i) of the window's table, and its rows k+1..i have
    rank s(k+1, i); entry k < i is their difference.
    """
    shape = arr.shape
    entries = []
    for table in arr.tables:
        for i in range(1, shape.size + 1):
            full = table_entry(table, 1, i)
            for k in range(1, i):
                entries.append(full - table_entry(table, k + 1, i))
            entries.append(full)  # k = i: im is contained in C^i already
            entries.append(full)  # k = i+1: the plain rank slot
    return RankVector(shape, full_dim_grid(shape), tuple(entries))


def heights_rank_vector(hv):
    """Rank vector of the thin indecomposable with height vector ``hv``: the
    intersection part is read off the summand's matchings, the dimension
    part is its own grid."""
    arr = matchings_sw_array(hv.shape, height_matchings(hv.shape, [hv.h]))
    return RankVector(hv.shape, dims_of_heights(hv), rank_vector_from_sw(arr).inter)


def same_rank_vector(a, b):
    """Orbit-level equality: the intersection parts coincide (the dimension
    part never varies on the restricted space)."""
    return a.shape == b.shape and a.inter == b.inter


def flat_intersections(rv):
    """Flat reading order: per window, rows top to bottom, the k = 1..i
    coordinate intersections (without the duplicate rank slot)."""
    out = []
    pos = 0
    for (_j1, _j2) in windows(rv.shape):
        for i in range(1, rv.shape.size + 1):
            out.extend(rv.inter[pos:pos + i])
            pos += i + 1
    return tuple(out)


def full_vector(rv):
    """Dimension part (column-major) followed by all intersection entries."""
    dims = tuple(
        rv.dims[i][j] for j in range(rv.shape.n) for i in range(rv.shape.size)
    )
    return dims + rv.inter


def independence_check(shape):
    """Whether the indecomposables' rank vectors are linearly independent.

    A family larger than the vector length is dependent outright; otherwise
    the rank is computed exactly over Q.
    """
    from .exact_linalg import Matrix
    from .fields import QQ

    vecs = [full_vector(heights_rank_vector(hv)) for hv in enumerate_indecomposables(shape)]
    if len(vecs) > len(vecs[0]):
        return False
    m = Matrix(QQ, [[Fraction(x) for x in v] for v in vecs])
    return rank(m) == len(vecs)


def decompose(point):
    """Unique decomposition of a point into thin indecomposables.

    :func:`~gridorbits.parametrizations.reconstruct_matchings` of the
    point's south-west array reads the per-pair height matchings off the
    single-map tables and accepts them only if their rook point has the
    point's array, which decides the same as comparing rank vectors, an
    injective reindexing of the arrays; the matchings chain into summands.

    Raises:
        SolveFailure: no multiset of thin summands reproduces the point's
            rank vector.  Impossible for n = 2; for n >= 3 such points
            exist (see :class:`SolveFailure`).
    """
    try:
        matchings = reconstruct_matchings(sw_array(point))
    except ReconstructInvalid as exc:
        raise SolveFailure(
            "no multiset of thin summands reproduces the rank vector: the "
            "point's maps cannot be reduced to partial permutation form "
            "simultaneously"
        ) from exc
    return matchings_to_decomposition(point.shape, matchings)
