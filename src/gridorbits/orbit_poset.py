"""Orbit census and the degeneration poset.

Decomposable orbits are enumerated combinatorially: between each pair of
adjacent columns, the heights 1..n+1 are partially matched with every
matched pair weakly increasing, and matchings of different column pairs are
independent.  Chaining the matchings yields the decomposition, its summands
listed in sorted order; their rooks (0/1 partial permutation matrices) form
the canonical representative, whose south-west array is read off the
matchings, one table per composed matching shared by all orbits, so no
matrix is built, multiplied or reduced.  The listing walks the product of
the matchings once: each prefix's chains and composed image vectors are
extended by one matching at a time, with the chaining and composing step
(:func:`~gridorbits.grid_quiver.carry`) that the single-orbit builds
share.  The array order is one
up-set per array, a Python int used as a bitset: the AND of one up-set per
window, each made once per distinct table there; the poset's covers are
read off the up-sets.  The product order of the matchings numbers the
orbits 1..b_(n+2)^(n-1); these ids index the census, the poset and the
experiment commands.  An exhaustive F_2 census of south-west arrays
provides an independent check for n <= 3: it holds every enumerated orbit's
array, plus those of tuples with no thin decomposition.  It runs over the
tuples whose first map is a rook (a partial permutation matrix), which over
F_2 realise every array, keys them by the rooks of their windows, and keeps
one such tuple per array.  Each 0/1 matrix's rook is found by walking the
elementary row and column moves of B x B out from the rooks, so its table
is its rook's and no matrix is swept.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb

from .grid_quiver import (
    Decomposition,
    GridQuiverError,
    InfeasibleSize,
    carry,
    chain_starts,
    chained_decomposition,
    decomposition_text,
    matchings_to_decomposition,
    rook_cells,
)
# sw_array is not called here; it stays bound because the benchmark's
# self-test (bench/selftest.py) lists orbit_poset among its binders.
from .parametrizations import SWArray, image_table, matchings_sw_array, rook_table, sw_array  # noqa: F401


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


# b_(n+2)^(n-1) has 4,278 digits at n = 64 and 4,431 at n = 65, past the
# 4,300 digits Python writes an int in by default, so counts stop at n = 64
MAX_COUNT_N = 64
_PAST_MAX_COUNT = "more than 10^4300"


def orbit_count(shape):
    """Number of decomposable orbits, b_(n+2)^(n-1): the n-1 column pairs
    are matched independently, each in b_(n+2) ways (the Bell number of
    size+1), so nothing is enumerated.  Raises InfeasibleSize past
    n = :data:`MAX_COUNT_N` before it computes anything."""
    if shape.n > MAX_COUNT_N:
        raise InfeasibleSize(
            f"n = {shape.n} has {_PAST_MAX_COUNT} orbit nodes; "
            f"orbit counts stop at n = {MAX_COUNT_N}")
    return bell(shape.size + 1) ** shape.num_maps


def enumerate_orbits(shape):
    """All decomposable orbits of the restricted space (those of points that
    are direct sums of thin summands), as decompositions, in a fixed order
    (the product order of the per-pair matchings), orbit id k at k - 1.
    Raises InfeasibleSize for n >= 4 before it builds any."""
    return [node.decomposition for node in orbit_nodes(shape)]


def orbit_by_id(shape, k):
    """The :class:`OrbitNode` with id k, the k-th of :func:`orbit_nodes`,
    decoded without enumerating: k - 1 is a mixed-radix number over the
    per-pair matchings, the first map's digit leading.  The node holds the
    decoded matchings as a tuple, their decomposition and their
    :func:`matchings_sw_array`.  Raises GridQuiverError outside
    1..orbit_count(shape)."""
    total = orbit_count(shape)
    if not (1 <= k <= total):
        raise GridQuiverError(f"orbit id {k} out of range 1..{total}")
    per_pair = order_matchings(shape.size)
    combo = []
    rest = k - 1
    for _ in range(shape.num_maps):
        rest, digit = divmod(rest, len(per_pair))
        combo.append(per_pair[digit])
    combo = tuple(combo[::-1])
    return OrbitNode(k, matchings_to_decomposition(shape, combo),
                     matchings_sw_array(shape, combo), combo)


def f2_census(shape):
    """Exhaustive F_2 census of south-west arrays (n <= 3).

    Every tuple of 0/1 upper-triangular matrices is covered by the tuples
    whose first map is a rook, an upper-triangular 0/1 matrix with at most
    one 1 per row and column: over F_2, (h1, h2) in B x B takes f1 to its
    rook r = h2 f1 h1^(-1) (:func:`~gridorbits.exact_linalg.b_pivots`), so
    it takes (f1, f2) to (r, f2 h2^(-1)), a 0/1 tuple with the same array.
    The rooks are the :func:`~gridorbits.grid_quiver.rook_cells` of the
    :func:`order_matchings` of the ambient size.  So 52 x 1024 tuples
    stand for all 2^20 at n = 3; at n = 2 the census is the rooks' own
    tables.

    Returns a dict from each distinct array (an :class:`SWArray`) to one
    realising tuple whose first map is a rook, as nested 0/1 tuples in map
    order, in order of first appearance.  Pass a representative to
    :func:`make_point` to read it over Q.  Each tuple is keyed by its
    windows' rooks (:func:`_f2_keyed`), and each distinct array is wrapped
    in an :class:`SWArray` once at the end.

    Ranks of the canonical 0/1 representatives are field independent, so
    every decomposable orbit's array shows up.  Read over Q, each
    representative has the array it is filed under, so F_2 tuples create
    no array without a rational counterpart; this is checked exhaustively
    for n <= 3 (acceptance criterion 6), not proven in general.

    Raises InfeasibleSize for n >= 4 before it allocates.
    """
    keyed, tables, matrix = _f2_keyed(shape)
    return {
        SWArray(shape, tuple(tables[k] for k in key)): tuple(map(matrix, codes))
        for key, codes in keyed.items()
    }


def _f2_keyed(shape):
    """The census of :func:`f2_census` keyed by each window's rook, an
    index into :func:`order_matchings`, with the rooks' tables and the
    function that turns a code into its nested 0/1 tuple (made once per
    code).  Each representative is given by its maps' codes, bit b of a
    code being the entry at the b-th upper-triangular position in row
    order.

    Every code is labelled with the rook of its B x B orbit
    (:func:`_rook_labels`), and its table is that rook's
    :func:`~gridorbits.parametrizations.rook_table`, so no matrix is built
    or swept.  At n = 3 the windows run (1,1), (1,2), (2,2), and window
    (1,2) of (r, f2) is the product f2·r.
    """
    if shape.n > 3:
        raise InfeasibleSize("exhaustive F_2 census implemented for n <= 3 only")
    size = shape.size
    positions = [(i, j) for i in range(size) for j in range(i, size)]
    bit = {cell: 1 << b for b, cell in enumerate(positions)}
    cells = [rook_cells(size, m) for m in order_matchings(size)]
    tables = [rook_table(size, rook) for rook in cells]
    rook_codes = [sum(bit[p - 1, q - 1] for p, q in rook) for rook in cells]

    @functools.cache
    def matrix(code):
        rows = [[0] * size for _ in range(size)]
        for b, (i, j) in enumerate(positions):
            if code >> b & 1:
                rows[i][j] = 1
        return tuple(map(tuple, rows))

    if shape.num_maps == 1:
        return {(k,): (r,) for k, r in enumerate(rook_codes)}, tables, matrix
    label = _rook_labels(size, bit, rook_codes)
    codes = range(len(label))
    census = {}
    for k, (rook, r) in enumerate(zip(cells, rook_codes)):
        # column c of f2·r is f2's column j when r has its 1 in row j at
        # column c, so each bit of f2 moves to one place or drops, and f2·r
        # is the OR of its bits' images
        col = {p - 1: q - 1 for p, q in rook}
        moved = {bit[i, j]: bit[i, col[j]] if j in col else 0 for i, j in positions}
        prods = [0] * len(codes)
        for f2 in codes[1:]:
            low = f2 & -f2
            prods[f2] = prods[f2 ^ low] | moved[low]
        for f2, p in enumerate(prods):
            key = (k, label[p], label[f2])
            if key not in census:
                census[key] = (r, f2)
    return census, tables, matrix


def _rook_labels(size, bit, rook_codes):
    """The index of the rook in each code's B x B orbit, for every code of
    a 0/1 upper-triangular matrix (bit ``bit[i, j]`` for entry (i, j)).

    Over F_2, B is generated by the elementary matrices I + E_ab, a < b, so
    each orbit is connected by the moves "row a += row b" (on the left) and
    "column b += column a" (on the right).  Each move XORs a shifted copy
    of one row's or one column's bits into the code, and the orbit of each
    rook is walked out from its code.
    """
    moves = []  # (bits of the copied row or column, left shift, right shift)
    for a in range(size):
        for b in range(a + 1, size):
            # row b's entries (b, j), j >= b, go to (a, j)
            rise = bit[b, b].bit_length() - bit[a, b].bit_length()
            moves.append((sum(bit[b, j] for j in range(b, size)), 0, rise))
            # column a's entries (i, a), i <= a, go to (i, b)
            moves.append((sum(bit[i, a] for i in range(a + 1)), b - a, 0))
    label = [None] * (1 << len(bit))
    todo = []
    for k, r in enumerate(rook_codes):
        label[r] = k
        todo.append(r)
    while todo:
        code = todo.pop()
        k = label[code]
        for mask, up, down in moves:
            other = code ^ ((code & mask) << up >> down)
            if label[other] is None:
                label[other] = k
                todo.append(other)
    return label


def f2_distinct_count(shape):
    """Number of distinct south-west arrays in :func:`f2_census`: the keys
    of :func:`_f2_keyed`, with no :class:`SWArray` built."""
    return len(_f2_keyed(shape)[0])


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

    Answers up to n = :data:`MAX_COUNT_N` = 64 and raises InfeasibleSize
    past it, before it computes anything (:func:`orbit_count`).
    """
    f2 = f2_distinct_count(shape) if shape.n <= 3 else None
    return CountReport(orbit_count(shape), f2, (shape.n - 1) * bell(shape.n + 2))


@dataclass(frozen=True)
class OrbitNode:
    """One decomposable orbit: its id, its decomposition, the per-pair
    height matchings whose rooks are its canonical representative's maps
    (:func:`~gridorbits.grid_quiver.rook_of_matching`), and that
    representative's south-west array."""

    id: int
    decomposition: Decomposition
    sw: object
    # dicts, determined by the decomposition, so left out of == and hash
    matchings: tuple = field(compare=False)


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
    decomposition, its per-pair ``matchings`` and its canonical
    representative's south-west array.

    The nodes come from one walk of the product of :func:`order_matchings`
    (:func:`_walk`), so each node costs one step from the node of its first
    n - 2 matchings, and no window is multiplied or reduced.  The matchings
    are the dicts of :func:`order_matchings`, shared between nodes.  Nodes
    are built one at a time; raises InfeasibleSize for n >= 4
    (b_6^3 = 8,365,427 nodes) before it builds any.
    """
    if shape.n >= 4:
        count = orbit_count(shape) if shape.n <= MAX_COUNT_N else _PAST_MAX_COUNT
        raise InfeasibleSize(f"n = {shape.n} has {count} orbit nodes; orbit listings stop at n = 3")
    return _walk(shape, [order_matchings(shape.size)] * shape.num_maps)


def _walk(shape, choices):
    """An :class:`OrbitNode` for each combination of one matching per pair,
    ``choices[j-1]`` listing pair j's, in product order (the first pair's
    choice leading), numbered from 1: the orbit ids when every pair may take
    every matching (:func:`orbit_nodes`).

    Each matching's own pieces are made once per call: its
    :func:`~gridorbits.grid_quiver.chain_starts`, its image vector (the
    heights carried through it) and that vector's table.  A prefix of
    matchings keeps its chain columns, the image vectors of the windows
    that end at its last pair, and each window's table so far, grouped by
    the window's first pair; the next matching extends each by one
    :func:`~gridorbits.grid_quiver.carry`, the same steps that
    :func:`~gridorbits.grid_quiver.matchings_to_decomposition` and
    :func:`~gridorbits.parametrizations.matchings_sw_array` take for one
    combination.  Tables are memoised per image vector (52 at n = 3).
    """
    size = shape.size
    tables = {}
    pieces = {}  # id of each matching -> (its chain starts, image vector, table)
    for m in itertools.chain.from_iterable(choices):
        if id(m) not in pieces:
            image = carry(range(1, size + 1), m)
            pieces[id(m)] = (tuple(chain_starts(size, m)), image,
                             tables.get(image) or image_table(size, image, tables))
    steps = [[(m, *pieces[id(m)]) for m in choice] for choice in choices]
    last = len(steps) - 1
    ids = itertools.count(1)

    def extend(depth, combo, columns, images, rows):
        # images[j1 - 1] is the image vector of window (j1, depth) and
        # rows[j1 - 1] holds the tables of windows (j1, j1..depth)
        for m, starts, image, table in steps[depth]:
            here = combo + (m,)
            chains = [*columns, carry(columns[-1], m, starts)]
            ends = [carry(v, m) for v in images]
            grown = [row + (tables.get(v) or image_table(size, v, tables),) for row, v in zip(rows, ends)]
            grown.append((table,))
            if depth == last:
                yield OrbitNode(next(ids), chained_decomposition(shape, chains),
                                SWArray(shape, sum(grown, ())), here)
            else:
                ends.append(image)
                yield from extend(depth + 1, here, chains, ends, grown)

    return extend(0, (), [range(size, 0, -1)], [], [])


def array_order(arrays):
    """All-pairs componentwise order of equal-shape south-west arrays, as
    up-sets: bit j of ``ups[i]`` is set when arrays[i] <= arrays[j] in every
    entry (:func:`~gridorbits.parametrizations.array_leq`).

    An array's up-set is the AND over windows of its window up-set: the
    arrays whose table there is at least its own in every entry.  Each
    window groups the arrays by table (52 tables at n = 3), so one up-set
    is built per distinct table, as the OR of the groups of the tables at
    or above it (:func:`_up_sets`).  Python ints are the bitsets, N ints of
    N bits for N arrays.
    """
    ups = [(1 << len(arrays)) - 1] * len(arrays)
    for column in zip(*(arr.tables for arr in arrays)):
        slot = {}  # each distinct table's index
        which = [slot.setdefault(table, len(slot)) for table in column]
        groups = [0] * len(slot)
        for j, k in enumerate(which):
            groups[k] |= 1 << j
        above = []
        for up in _up_sets([[v for row in table for v in row] for table in slot]):
            acc = 0
            while up:
                low = up & -up
                acc |= groups[low.bit_length() - 1]
                up ^= low
            above.append(acc)
        ups = [up & above[k] for up, k in zip(ups, which)]
    return ups


def _up_sets(rows):
    """Bit j of entry i is set when rows[i] <= rows[j] in every place.

    For each place and value v, ``at_least[v]`` holds the rows whose entry
    there is at least v; a row's up-set is the AND of these sets over its
    places.
    """
    ups = [(1 << len(rows)) - 1] * len(rows)
    for column in zip(*rows):
        at_least = [0] * (max(column) + 1)
        for j, v in enumerate(column):
            at_least[v] |= 1 << j
        for v in range(len(at_least) - 1, 0, -1):
            at_least[v - 1] |= at_least[v]
        ups = [up & at_least[v] for up, v in zip(ups, column)]
    return ups


def build_poset(shape):
    """Degeneration poset of all decomposable orbits: nodes carry the
    decomposition and the canonical representative's array; edges are
    the covering pairs of the componentwise array order (transitive
    reduction), found by :func:`_covers` from the up-sets of
    :func:`array_order`.  The nodes are ordered by entry sum, a linear
    extension since a strictly larger array has a strictly larger sum.  The
    up-sets are N ints of N bits, so the n >= 4 refusal of
    :func:`orbit_nodes` applies.
    """
    nodes = tuple(orbit_nodes(shape))
    ranked = sorted(
        nodes, key=lambda node: sum(map(sum, itertools.chain.from_iterable(node.sw.tables)))
    )
    ups = array_order([node.sw for node in ranked])  # bit j: ranked[j] at or above
    # no two nodes share an array: window (j, j) is the rook table of
    # matching j, which pivots turns back into that rook
    strict = [up & ~(1 << i) for i, up in enumerate(ups)]
    edges = [(ranked[j].id, ranked[i].id) for i, found in enumerate(_covers(strict)) for j in found]
    return OrbitPoset(shape, nodes, tuple(sorted(edges)))


def _covers(ups):
    """Covering pairs of a strict order given as up-sets over a linear
    extension: bit j of ``ups[i]`` is set when i < j, which implies i < j as
    indices.  Returns the indices of each node's covers, lowest first.

    The lowest bit of i's up-set that is above no cover found so far is a
    cover: anything between i and it would have a lower index, so it would
    be above a found cover, and so would the bit.  Each cover found takes
    itself and its up-set out of what is left with one OR; no N x N matrix
    is built.
    """
    out = []
    for rest in ups:
        found = []
        while rest:
            low = rest & -rest
            found.append(low.bit_length() - 1)
            rest &= ~(ups[found[-1]] | low)
        out.append(found)
    return out


def export_dot(poset):
    """Graphviz text for the poset, byte-deterministic, edges top-down."""
    lines = [
        "digraph orbit_poset {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    texts = {}  # each summand's text, made once per call
    for node in poset.nodes:
        label = decomposition_text(node.decomposition, texts)
        lines.append(f'  o{node.id} [label="{node.id}: {label}"];')
    for upper, lower in poset.edges:
        lines.append(f"  o{upper} -> o{lower};")
    lines.append("}")
    return "\n".join(lines) + "\n"
