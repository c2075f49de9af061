"""Rank vectors and the decomposition of points into thin indecomposables.

The rank vector collects, for every row i and window of consecutive maps,
the dimensions of the image of the windowed composition (restricted to the
top-left i x i block) intersected with each coordinate subspace.  Window
products are upper-triangular, so each entry is a difference of two
south-west ranks and the rank vector is a reindexing of the south-west
array: it is an orbit invariant, complete for n = 2 and not for n >= 3 (see
:mod:`gridorbits.parametrizations`).  It is rendered from the array's
tables: each window's :func:`table_intersections`, in window order, read
flat by :func:`flat_entries`; :class:`RankVector` remains for the
benchmark's invariants op.  Points are decomposed into thin
indecomposables by :func:`~gridorbits.parametrizations.reconstruct_matchings`
of their south-west array, one height matching per single-map table,
accepted only if their rook point has the same array; the matchings chain
into the summands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import Matrix, rank
from .fields import QQ
from .grid_quiver import (
    GridQuiverError,
    dims_of_heights,
    enumerate_indecomposables,
    height_matchings,
    matchings_to_decomposition,
    windows,
)
from .parametrizations import ReconstructInvalid, matchings_sw_array, reconstruct_matchings, sw_array


class SolveFailure(GridQuiverError):
    """The point admits no decomposition into thin indecomposables.

    For n = 2 every point decomposes and this error signals an
    implementation bug.  For n >= 3 genuinely indecomposable-beyond-thin
    points exist: the shared base change couples adjacent maps, so not
    every tuple reduces to partial permutation form simultaneously."""


# RankVector, rank_vector and same_rank_vector serve the benchmark's invariants op only
@dataclass(frozen=True)
class RankVector:
    """Intersection entries of a rank vector, keyed by (i, j1, j2, k) in the
    order of :func:`inter_order`; k runs 1..i for the coordinate
    intersections and k = i+1 stores the plain rank of the windowed block.
    The dimension part is :func:`~gridorbits.grid_quiver.full_dim_grid` on
    every point of the restricted space, so it is not stored.
    """

    shape: object
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
    entry k = i+1 is the block's rank.  The intersection part joins the
    :func:`table_intersections` of the point's south-west tables in window
    order.
    """
    arr = sw_array(point)
    return RankVector(arr.shape, tuple(x for table in arr.tables for x in table_intersections(table)))


def table_intersections(table):
    """One window's entries k = 1..i+1 of each row i, in the order of
    :func:`inter_order`, read off the window's south-west table
    (``table[p-1][q-p]`` is s(p, q)).

    Window products are upper-triangular, so the block's rank is s(1, i),
    and its rows k+1..i have rank s(k+1, i); entry k < i is their
    difference.  Entry k = i is the rank again, as the image lies in C^i,
    and so is the plain rank slot k = i+1.
    """
    entries = []
    for i, full in enumerate(table[0]):  # row i + 1
        entries += [full - table[k][i - k] for k in range(1, i + 1)]
        entries += (full, full)
    return entries


def same_rank_vector(a, b):
    """Orbit-level equality: the intersection parts coincide (the dimension
    part never varies on the restricted space)."""
    return a.shape == b.shape and a.inter == b.inter


def flat_entries(inter, size):
    """Flat reading order of ``inter``, the entries of whole windows of a
    rank vector whose maps have size ``size``, as a list: per window, rows
    top to bottom, the k = 1..i coordinate intersections (without the
    duplicate rank slot)."""
    out = []
    pos = 0
    while pos < len(inter):
        for i in range(1, size + 1):
            out.extend(inter[pos:pos + i])
            pos += i + 1
    return out


def _indecomposable_vector(shape, h):
    """The vector of the thin indecomposable with height vector ``h``: its
    dimension grid (:func:`~gridorbits.grid_quiver.dims_of_heights`)
    column-major, then the :func:`table_intersections` of the south-west
    array read off its matchings."""
    dims = dims_of_heights(shape, h)
    arr = matchings_sw_array(shape, height_matchings(shape, [h]))
    return [dims[i][j] for j in range(shape.n) for i in range(shape.size)] + [
        x for table in arr.tables for x in table_intersections(table)
    ]


def independence_check(shape):
    """Whether the indecomposables' vectors (:func:`_indecomposable_vector`)
    are linearly independent.

    A family larger than the vector length is dependent outright; otherwise
    the rank is computed exactly over Q.
    """
    vecs = [_indecomposable_vector(shape, h) for h in enumerate_indecomposables(shape)]
    if len(vecs) > len(vecs[0]):
        return False
    return rank(Matrix(QQ, vecs)) == len(vecs)


def thin_matchings(arr):
    """Per-pair height matchings of the thin decomposition of a point with
    south-west array ``arr``: :func:`~gridorbits.parametrizations.reconstruct_matchings`,
    which decides the same as comparing rank vectors, an injective reindexing.

    Raises:
        SolveFailure: no multiset of thin summands reproduces the point's
            rank vector.  Impossible for n = 2; for n >= 3 such points
            exist (see :class:`SolveFailure`).
    """
    try:
        return reconstruct_matchings(arr)
    except ReconstructInvalid as exc:
        raise SolveFailure(
            "no multiset of thin summands reproduces the rank vector: the point's "
            "maps cannot be reduced to partial permutation form simultaneously"
        ) from exc


def decompose(point):
    """Unique decomposition of a point into thin indecomposables: its
    :func:`thin_matchings` (whose SolveFailure it raises), chained."""
    return matchings_to_decomposition(point.shape, thin_matchings(sw_array(point)))
