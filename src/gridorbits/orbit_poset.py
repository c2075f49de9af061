"""Orbit census and the degeneration poset.

Decomposable orbits are enumerated combinatorially: between each pair of
adjacent columns, the heights 1..n+1 are partially matched with every
matched pair weakly increasing, and matchings of different column pairs are
independent.  Chaining the matchings yields the decomposition; assembling
it yields the canonical representative, a tuple of rooks (0/1 partial
permutation matrices).  Its south-west array is read off the matchings:
each window's product is the rook of the composed matching, and each rank
is a count of that rook's 1s, so no Fraction matrix is multiplied or
reduced.  The array order compares arrays as packed thermometer bits.  The
product order of the matchings numbers the orbits 1..b_(n+2)^(n-1); these
ids index the census, the poset and the experiment commands.  An
exhaustive F_2 census of
south-west arrays provides an independent check for n <= 3: it holds every
enumerated orbit's array, plus those of tuples with no thin decomposition.
It runs over the tuples whose first map is a rook (a partial permutation
matrix), which over F_2 realise every array, and keeps one such tuple per
array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .exact_linalg import Matrix
from .fields import GF
from .grid_quiver import (
    Decomposition,
    GridQuiverError,
    InfeasibleSize,
    assemble_canonical,
    matchings_to_decomposition,
)
# sw_array is no longer called here; it stays bound because the benchmark's
# self-test (bench/selftest.py) lists orbit_poset among its binders.
from .parametrizations import SWArray, rook_table, sw_array, sw_table  # noqa: F401


def bell(m):
    """Bell numbers via the binomial recursion b_m = sum C(m-1, k) b_k."""
    if m < 0:
        raise ValueError("Bell numbers need m >= 0")
    b = [1]
    for t in range(1, m + 1):
        b.append(sum(comb(t - 1, k) * b[k] for k in range(t)))
    return b[m]


def order_matchings(size):
    """All partial matchings m on {1..size} with a <= m(a), each value used
    at most once; returned as dicts in a fixed depth-first order."""
    out = []

    def assign(a, current, used):
        if a > size:
            out.append(dict(current))
            return
        assign(a + 1, current, used)
        for b in range(a, size + 1):
            if b not in used:
                current[a] = b
                used.add(b)
                assign(a + 1, current, used)
                del current[a]
                used.remove(b)

    assign(1, {}, set())
    return out


def orbit_count(shape):
    """Number of decomposable orbits, b_(n+2)^(n-1): the n-1 column pairs
    are matched independently, each in b_(n+2) ways (the Bell number of
    size+1), so nothing is enumerated."""
    return bell(shape.size + 1) ** shape.num_maps


def _matching_tuples(shape):
    """Each decomposable orbit's per-pair matchings in id order.  Raises
    InfeasibleSize on its first step for n >= 4, where the orbit listings
    stop."""
    if shape.n >= 4:
        raise InfeasibleSize(
            f"n = {shape.n} has {orbit_count(shape)} orbit nodes; orbit listings stop at n = 3")
    yield from itertools.product(order_matchings(shape.size), repeat=shape.num_maps)


def enumerate_orbits(shape):
    """All decomposable orbits of the restricted space (those of points that
    are direct sums of thin summands), as decompositions, in a fixed order
    (the product order of the per-pair matchings), orbit id k at k - 1.
    Raises InfeasibleSize for n >= 4 before it builds any."""
    return [matchings_to_decomposition(shape, combo) for combo in _matching_tuples(shape)]


def orbit_by_id(shape, k):
    """``enumerate_orbits(shape)[k - 1]``, decoded without enumerating: k - 1
    is a mixed-radix number over the per-pair matchings, the first map's
    digit leading.  Raises GridQuiverError outside 1..orbit_count(shape)."""
    total = orbit_count(shape)
    if not (1 <= k <= total):
        raise GridQuiverError(f"orbit id {k} out of range 1..{total}")
    per_pair = order_matchings(shape.size)
    combo = []
    rest = k - 1
    for _ in range(shape.num_maps):
        rest, digit = divmod(rest, len(per_pair))
        combo.append(per_pair[digit])
    return matchings_to_decomposition(shape, combo[::-1])


def f2_census(shape):
    """Exhaustive F_2 census of south-west arrays (n <= 3).

    Every tuple of 0/1 upper-triangular matrices is covered by the tuples
    whose first map is a rook, an upper-triangular 0/1 matrix with at most
    one 1 per row and column: over F_2, (h1, h2) in B x B takes f1 to its
    rook r = h2 f1 h1^(-1) (:func:`~gridorbits.exact_linalg.b_reduce`), so
    it takes (f1, f2) to (r, f2 h2^(-1)), a 0/1 tuple with the same array.
    The rooks are the :func:`order_matchings` of the ambient size: the
    matching a -> m(a) has a 1 at 0-based (size - m(a), size - a).  So
    52 x 1024 tuples stand for all 2^20 at n = 3; at n = 2 the census is
    the rooks' own tables.

    Returns a dict from each distinct array (an :class:`SWArray`) to one
    realising tuple whose first map is a rook, as nested 0/1 tuples in map
    order.  Pass a representative to :func:`make_point` to read it over Q.

    Ranks of the canonical 0/1 representatives are field independent, so
    every decomposable orbit's array shows up.  Read over Q, each
    representative has the array it is filed under, so F_2 tuples create
    no array without a rational counterpart; this is checked exhaustively
    for n <= 3 (acceptance criterion 6), not proven in general.

    Raises InfeasibleSize for n >= 4 before it allocates.
    """
    if shape.n > 3:
        raise InfeasibleSize("exhaustive F_2 census implemented for n <= 3 only")
    size = shape.size
    positions = [(i, j) for i in range(size) for j in range(i, size)]
    codes = np.arange(1 << len(positions))
    mats = np.zeros((len(codes), size, size), dtype=np.uint8)
    weights = np.zeros((size, size), dtype=np.int64)  # a 0/1 matrix's code is its dot with these
    for b, (i, j) in enumerate(positions):
        mats[:, i, j] = (codes >> b) & 1
        weights[i, j] = 1 << b
    code_mats = [tuple(tuple(row) for row in m) for m in mats.tolist()]
    tables = [sw_table(Matrix(GF(2), mat)) for mat in code_mats]
    rooks = [sum(weights[size - b, size - a] for a, b in m.items()) for m in order_matchings(size)]
    if shape.num_maps == 1:
        return {SWArray(shape, (tables[r],)): (code_mats[r],) for r in rooks}
    census = {}
    for r in rooks:
        # windows run (1,1), (1,2), (2,2); window (1,2) is f2·r
        prods = ((mats @ mats[r]) % 2).reshape(len(codes), -1) @ weights.ravel()
        for f2, p in enumerate(prods.tolist()):
            census.setdefault(
                SWArray(shape, (tables[r], tables[p], tables[f2])), (code_mats[r], code_mats[f2]))
    return census


def f2_distinct_count(shape):
    """Number of distinct south-west arrays in :func:`f2_census`."""
    return len(f2_census(shape))


@dataclass(frozen=True)
class CountReport:
    enumerated: int
    f2_distinct: object  # int, or None when the exhaustive census is off the table
    paper_formula: int


def count_report(shape):
    """Three counts side by side: the decompositions, counted by
    :func:`orbit_count` without enumerating them, the exhaustive F_2 array
    census (n <= 3), and the formula (n-1)·b_(n+2).

    All three are reported verbatim, never asserted against each other.
    For n = 2 they coincide at 15.  For n >= 3 tuples exist whose maps
    cannot be reduced to partial permutation form simultaneously (the
    shared base change couples adjacent windows), so the census sees
    strictly more arrays than there are decompositions.  At n = 3 the
    census splits into the enumerated orbits' arrays and the arrays whose
    census representative :func:`decompose` rejects, 3402 = 2704 + 698
    (acceptance criterion 6); the formula, 104, matches neither.  The
    census visits only the tuples whose first map is a rook, which over F_2
    realise every array, and files one of them per array (:func:`f2_census`).
    """
    f2 = f2_distinct_count(shape) if shape.n <= 3 else None
    return CountReport(orbit_count(shape), f2, (shape.n - 1) * bell(shape.n + 2))


@dataclass(frozen=True)
class OrbitNode:
    id: int
    decomposition: Decomposition
    canonical: object
    sw: object


@dataclass(frozen=True)
class OrbitPoset:
    shape: object
    nodes: tuple
    edges: tuple  # (upper id, lower id) cover pairs

    def maximal(self):
        below_something = {v for _, v in self.edges}
        return sorted(n.id for n in self.nodes if n.id not in below_something)

    def minimal(self):
        above_something = {u for u, _ in self.edges}
        return sorted(n.id for n in self.nodes if n.id not in above_something)


def matchings_sw_array(shape, matchings, tables=None):
    """South-west array of the canonical representative of the orbit with
    these per-pair matchings, read off the matchings without a matrix.

    The representative's map j is the rook of ``matchings[j-1]``, with a 1
    at 0-based (size - m(a), size - a) for each matched a -> m(a); window
    (j1, j2) is the rook of the composed matching m_j2 ∘ ... ∘ m_j1, again
    an :func:`order_matchings` of the ambient size, and its table is the
    count of that rook's 1s (:func:`~gridorbits.parametrizations.rook_table`).
    ``tables`` memoises the table per composed matching across calls.
    """
    if tables is None:
        tables = {}
    size = shape.size
    out = []
    for j1 in range(shape.num_maps):
        composed = matchings[j1]
        for j2 in range(j1, shape.num_maps):
            if j2 > j1:
                step = matchings[j2]
                composed = {a: step[b] for a, b in composed.items() if b in step}
            key = tuple(sorted(composed.items()))
            table = tables.get(key)
            if table is None:
                rows = [[0] * size for _ in range(size)]
                for a, b in key:
                    rows[size - b][size - a] = 1
                table = tables[key] = rook_table(rows)
            out.append(table)
    return SWArray(shape, tuple(out))


def orbit_nodes(shape):
    """Each decomposable orbit in id order, as an :class:`OrbitNode` with its
    canonical representative and that point's south-west array.

    The array is read off the orbit's matchings by
    :func:`matchings_sw_array`, with one table per composed matching shared
    by every node (52 rooks at n = 3), so no window is multiplied or
    reduced.  Nodes are built one at a time; raises InfeasibleSize on the
    first step for n >= 4 (b_6^3 = 8,365,427 nodes).
    """
    tables = {}
    for idx, combo in enumerate(_matching_tuples(shape), start=1):
        dec = matchings_to_decomposition(shape, combo)
        yield OrbitNode(idx, dec, assemble_canonical(dec), matchings_sw_array(shape, combo, tables))


def array_order(arrays):
    """All-pairs componentwise order of equal-shape south-west arrays, as a
    boolean matrix: leq[i, j] holds when arrays[i] <= arrays[j] in every
    entry (:func:`~gridorbits.parametrizations.array_leq`).

    Each entry v is written as v thermometer bits (bit t set when v > t, up
    to the largest entry), so a <= b in every entry exactly when
    ``bits_a & ~bits_b`` is zero.  The bits are packed into 64-bit words,
    two per array at n = 3, and ``leq`` is filled in row chunks, one word
    at a time, with a (chunk x N) temporary of about 4 MB.
    """
    nn = len(arrays)
    if not nn:
        return np.zeros((0, 0), dtype=bool)
    a = np.array([arr.flat() for arr in arrays], dtype=np.int16)
    therm = (a[:, :, None] > np.arange(a.max())).reshape(nn, -1)
    words = -(-therm.shape[1] // 64)
    packed = np.zeros((nn, words * 8), dtype=np.uint8)
    packed[:, :(therm.shape[1] + 7) // 8] = np.packbits(therm, axis=1)
    bits = packed.view(np.uint64)
    missing = np.ascontiguousarray((~bits).T)  # missing[w, j]: bits array j lacks in word w
    leq = np.ones((nn, nn), dtype=bool)
    chunk = min(nn, max(1, (1 << 22) // (8 * nn)))
    scratch = np.empty((chunk, nn), dtype=np.uint64)
    for lo in range(0, nn, chunk):
        hi = min(nn, lo + chunk)
        tmp = scratch[:hi - lo]
        for w in range(words):
            np.bitwise_and(bits[lo:hi, w, None], missing[w], out=tmp)
            leq[lo:hi] &= tmp == 0
    return leq


def build_poset(shape):
    """Degeneration poset of all decomposable orbits: nodes carry the
    decomposition, the canonical representative and its array; edges are
    the covering pairs of the componentwise array order (transitive
    reduction), found by :func:`_covers` from bit-packed up-sets.  The order
    is a dense node x node matrix, so the n >= 4 refusal of
    :func:`orbit_nodes` applies.
    """
    nodes = tuple(orbit_nodes(shape))
    leq = array_order([node.sw for node in nodes])  # i degenerates below j
    less = leq & ~leq.T
    edges = tuple(
        (int(j + 1), int(i + 1)) for i, j in zip(*np.nonzero(_covers(less)))
    )
    return OrbitPoset(shape, nodes, tuple(sorted(edges)))


def _covers(less):
    """Covering pairs of a strict order given as a boolean matrix (less[i, j]
    when i < j): the pairs i < j with no k between them.

    Each row of ``less`` is packed into 64-bit words; i's reach row, the
    nodes two steps above i, is the OR of the packed rows of the nodes above
    i.  Exact boolean reachability, with no N x N array wider than a byte.
    """
    nn = len(less)
    packed = np.zeros((nn, -(-nn // 64) * 8), dtype=np.uint8)
    packed[:, :(nn + 7) // 8] = np.packbits(less, axis=1)
    packed = packed.view(np.uint64)
    reach = np.empty_like(packed)
    for i in range(nn):
        np.bitwise_or.reduce(packed[np.flatnonzero(less[i])], axis=0, out=reach[i])
    cover = np.unpackbits(reach.view(np.uint8), axis=1, count=nn).view(bool)
    np.invert(cover, out=cover)
    cover &= less
    return cover


def export_dot(poset):
    """Graphviz text for the poset, byte-deterministic, edges top-down."""
    lines = [
        "digraph orbit_poset {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for node in poset.nodes:
        lines.append(f'  o{node.id} [label="{node.id}: {node.decomposition}"];')
    for upper, lower in poset.edges:
        lines.append(f"  o{upper} -> o{lower};")
    lines.append("}")
    return "\n".join(lines) + "\n"
