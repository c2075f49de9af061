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

from .exact_linalg import Matrix, rank
from .fields import QQ
from .grid_quiver import (
    GridQuiverError,
    dims_of_heights,
    enumerate_indecomposables,
    full_dim_grid,
    height_matchings,
    matchings_to_decomposition,
    windows,
)
from .parametrizations import ReconstructInvalid, reconstruct_matchings, sw_array
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
    """Rank vector of the points whose south-west array is ``arr``: its
    intersection part joins the windows' :func:`table_intersections` in
    window order."""
    entries = []
    for table in arr.tables:
        entries += table_intersections(table)
    return RankVector(arr.shape, full_dim_grid(arr.shape), tuple(entries))


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


def heights_rank_vector(shape, h):
    """Rank vector of the thin indecomposable with height vector ``h``: the
    intersection part is read off the summand's matchings, the dimension
    part is its own grid."""
    arr = matchings_sw_array(shape, height_matchings(shape, [h]))
    return RankVector(shape, dims_of_heights(shape, h), rank_vector_from_sw(arr).inter)


def same_rank_vector(a, b):
    """Orbit-level equality: the intersection parts coincide (the dimension
    part never varies on the restricted space)."""
    return a.shape == b.shape and a.inter == b.inter


def flat_intersections(rv):
    """Flat reading order: per window, rows top to bottom, the k = 1..i
    coordinate intersections (without the duplicate rank slot)."""
    return tuple(flat_entries(rv.inter, rv.shape.size))


def flat_entries(inter, size):
    """The flat reading of ``inter``, the entries of whole windows of a rank
    vector whose maps have size ``size``, as a list."""
    out = []
    pos = 0
    while pos < len(inter):
        for i in range(1, size + 1):
            out.extend(inter[pos:pos + i])
            pos += i + 1
    return out


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
    vecs = [full_vector(heights_rank_vector(shape, h)) for h in enumerate_indecomposables(shape)]
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
