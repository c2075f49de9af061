"""Orbit census and the degeneration poset.

Decomposable orbits are enumerated combinatorially: between each pair of
adjacent columns, the heights 1..n+1 are partially matched with every
matched pair weakly increasing, and matchings of different column pairs are
independent.  Chaining the matchings yields the decomposition; assembling
it yields the canonical representative.  The product order of the matchings
numbers the orbits 1..b_(n+2)^(n-1); these ids index the census, the poset
and the experiment commands.  An exhaustive F_2 census of
south-west arrays provides an independent check for n <= 3: it holds every
enumerated orbit's array, plus those of tuples with no thin decomposition.
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
    windows,
)
from .parametrizations import SWArray, sw_array, sw_table


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


def _refuse_past_n3(shape):
    """Raise InfeasibleSize for n >= 4, where the orbit listings stop."""
    if shape.n >= 4:
        raise InfeasibleSize(
            f"n = {shape.n} has {orbit_count(shape)} orbit nodes; orbit listings stop at n = 3")


def enumerate_orbits(shape):
    """All decomposable orbits of the restricted space (those of points that
    are direct sums of thin summands), as decompositions, in a fixed order
    (the product order of the per-pair matchings), orbit id k at k - 1.
    Raises InfeasibleSize for n >= 4 before it builds any."""
    _refuse_past_n3(shape)
    per_pair = order_matchings(shape.size)
    out = []
    for combo in itertools.product(per_pair, repeat=shape.num_maps):
        out.append(matchings_to_decomposition(shape, list(combo)))
    return out


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

    Runs over every F_2 point (every tuple of 0/1 upper-triangular
    matrices) and takes its south-west array with ranks over F_2.  Returns
    a dict from each distinct array (an :class:`SWArray`) to the first
    tuple realising it, as nested 0/1 tuples in map order (tuples run in
    lexicographic order of their maps' bit codes).  Pass a representative
    to :func:`make_point` to read it over Q.

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
    nbits = len(positions)
    ncodes = 1 << nbits
    mats = np.zeros((ncodes, size, size), dtype=np.uint8)
    codes = np.arange(ncodes)
    for b, (i, j) in enumerate(positions):
        mats[:, i, j] = (codes >> b) & 1

    code_mats = [tuple(tuple(row) for row in m) for m in mats.tolist()]
    tables = {}
    t_of_code = np.empty(ncodes, dtype=np.int64)
    for c, mat in enumerate(code_mats):
        t = sw_table(Matrix(GF(2), mat))
        t_of_code[c] = tables.setdefault(t, len(tables))
    by_id = list(tables)
    ntab = len(by_id)

    n_keys = ncodes ** shape.num_maps  # one key per tuple, in enumeration order
    if shape.num_maps == 1:
        keys = t_of_code
    else:
        # window (1,2) is f2·f1; encode each product back to its code
        shifts = np.arange(nbits, dtype=np.int64)
        pos_i = np.array([i for (i, j) in positions])
        pos_j = np.array([j for (i, j) in positions])
        keys = np.empty(n_keys, dtype=np.int64)
        for a in range(ncodes):
            prod = (mats @ mats[a]) % 2  # prod[b] = f2(b) · f1(a)
            prod_codes = (prod[:, pos_i, pos_j].astype(np.int64) << shifts).sum(axis=1)
            keys[a * ncodes:(a + 1) * ncodes] = (
                (t_of_code[a] * ntab) + t_of_code
            ) * ntab + t_of_code[prod_codes]

    # a key holds one table id per window, and ntab is the number of partial
    # permutation patterns of the ambient size (52 at size 4), so the key
    # space is small enough to index densely: first[key] is the index of
    # the first tuple with that key
    first = np.full(ntab ** len(windows(shape)), n_keys, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(n_keys, dtype=np.int64))
    found = np.flatnonzero(first < n_keys)
    idx = first[found]
    if shape.num_maps == 1:
        window_ids = [found]
        map_codes = [idx]
    else:
        # keys are (f1, f2, f2·f1); windows run (1,1), (1,2), (2,2)
        window_ids = [found // (ntab * ntab), found % ntab, (found // ntab) % ntab]
        map_codes = [idx // ncodes, idx % ncodes]
    return {
        SWArray(shape, tuple(by_id[t] for t in ts)): tuple(code_mats[c] for c in cs)
        for ts, cs in zip(
            zip(*(w.tolist() for w in window_ids)), zip(*(m.tolist() for m in map_codes))
        )
    }


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
    (acceptance criterion 6); the formula, 104, matches neither.
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


def orbit_nodes(shape):
    """Each decomposable orbit in id order, as an :class:`OrbitNode` with its
    canonical representative and that point's south-west array.  Raises
    InfeasibleSize on the first step for n >= 4 (b_6^3 = 8,365,427 nodes).
    """
    _refuse_past_n3(shape)
    for idx, dec in enumerate(enumerate_orbits(shape), start=1):
        point = assemble_canonical(dec)
        yield OrbitNode(idx, dec, point, sw_array(point))


def array_order(arrays):
    """All-pairs componentwise order of equal-shape south-west arrays, as a
    boolean matrix: leq[i, j] holds when arrays[i] <= arrays[j] in every
    entry (:func:`~gridorbits.parametrizations.array_leq`)."""
    a = np.array([arr.flat() for arr in arrays], dtype=np.int16)
    nn = len(a)
    leq = np.empty((nn, nn), dtype=bool)
    chunk = max(1, (1 << 24) // max(1, a.size))
    for lo in range(0, nn, chunk):
        hi = min(nn, lo + chunk)
        leq[lo:hi] = (a[lo:hi, None, :] <= a[None, :, :]).all(axis=2)
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
