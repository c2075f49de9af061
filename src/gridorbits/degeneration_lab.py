"""Finite-field point counting, dimension estimation, the flat-locus scan,
the Euler-form lower bound, and the Hom-scheme complete-intersection audit.

Dimensions of the degenerate fibres are estimated by counting their points
over several finite fields and fitting one integer polynomial, an exact
Vandermonde solve on :class:`~gridorbits.exact_linalg.Matrix`, validated
on held-out field sizes.  A count filters each column's chains of subspaces
one pair of adjacent columns at a time, deciding each span test once per
pair; :func:`flat_scan` builds the chains, which depend only on (column
dims, q), once per scan.  Every count meters its budget in closed form.

The audit compares the codimension of the Hom scheme inside its ambient
space against the rank of the defining bilinear system, computed exactly
over Q at the first ``MAX_BASE_POINTS`` items of the uncapped stream of
coordinate subrepresentations (see :func:`_coordinate_subreps`).  It reads
the canonical point's per-pair matchings: each arrow's map is the set of
its 1s, built once per audit for every arrow (:func:`_arrow_maps`), so no
dense matrix is built per arrow.  The
ambient space contains the variety of representations with one
commutativity relation per square.
Both are cut out by one list of equations over one index of unknowns (the
arrow entries, horizontal before vertical, then the frame entries g), each
a sum of terms coef·x_a·x_b where x_b may be absent.  The audit's Jacobian
is written down from that list by the product rule, and the representation
variety is counted by linear fibres of its square relations (see
:func:`rep_variety_count`), under a budget on q^nvars, the number of arrow
tuples over F_q.  All exact linear algebra runs on
:class:`~gridorbits.exact_linalg.Matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

from .decomposition import thin_matchings
from .exact_linalg import Matrix, rank, solve_unique
from .fields import GF, QQ, is_prime_power
from .grid_quiver import GridQuiverError, GridShape, InfeasibleSize, rook_cells, rook_point
from .orbit_poset import array_order, orbit_nodes
from .parametrizations import sw_array
from .schubert import check_permutation, length, target_dims
from .subspaces import chain_tests, column_chains, in_span

DEFAULT_QS = (2, 3, 4, 5, 7, 8, 9)
DEFAULT_BUDGET = 10 ** 9


class FitFailure(GridQuiverError):
    """No integer polynomial within the degree bound fits the counts."""


class NoPointFound(GridQuiverError):
    """The canonical point has no coordinate subrepresentation, the source
    of the Hom audit's exact rational points."""


@dataclass(frozen=True)
class DimEstimate:
    degree: int
    coefficients: tuple  # ascending, integers


@dataclass(frozen=True)
class HomReport:
    dim_G: int
    dim_Gr: int
    dim_Hom0: int
    dim_V: int
    dim_Re: int
    codim: int
    indep_eqs: int
    lci: bool
    per_point_ranks: tuple


@dataclass(frozen=True)
class FlatScanRow:
    orbit_id: int
    decomposition: object
    counts: tuple  # ((q, count), ...) in schedule order
    estimate: DimEstimate
    flat_candidate: bool


@dataclass(frozen=True)
class FlatScanResult:
    w: tuple
    target_dim: int
    rows: tuple
    upward_closed: bool


def _check_dim_grid(shape, e):
    if len(e) != shape.size or any(len(row) != shape.n for row in e):
        raise ValueError("dimension grid has the wrong shape")
    for i in range(1, shape.size + 1):
        for j in range(1, shape.n + 1):
            if not (0 <= e[i - 1][j - 1] <= i):
                raise ValueError(f"dimension grid entry ({i},{j}) out of range")


def _check_field_size(q):
    """Refuse a q that is not a prime power <= 9, the fields counted here."""
    if q > 9 or not is_prime_power(q):
        raise ValueError(f"q must be a prime power <= 9, got {q}")


def _check_field_sizes(qs):
    """Refuse, before anything is counted, a schedule no fit can use: a q
    :func:`_check_field_size` refuses, a repeated q or fewer than three q."""
    for k, q in enumerate(qs):
        _check_field_size(q)
        if q in qs[:k]:
            raise ValueError(f"field size q = {q} is repeated")
    if len(qs) < 3:
        raise ValueError("need at least 3 distinct field sizes")


def _maps_over(point, field):
    """The stored maps with entries moved into the given finite field."""
    return [
        [[field.from_fraction(x) for x in row] for row in m.data]
        for m in point.maps
    ]


def subrep_count(point, e, q, budget=DEFAULT_BUDGET, *, chains=None):
    """Number of F_q-subrepresentations of the point with dimension grid e.

    Enumerates, per column, the chains of subspaces with the prescribed
    dimensions (respecting the coordinate inclusions), then runs a dynamic
    programme over adjacent columns filtering on the horizontal conditions
    f(U) ⊆ U'.  Each step decides each span test (target, image) once.

    Args:
        chains: dict (column dims, q) -> :func:`~gridorbits.subspaces.column_chains`,
            filled as needed; one dict shared by many calls builds each once.

    Raises:
        InfeasibleSize: the candidate tests of the chain enumeration,
            counted in closed form on every call before any chain is built
            or looked up (see :func:`~gridorbits.subspaces.chain_tests`),
            or those plus the pair tests of the filtering exceed the budget.
    """
    shape = point.shape
    if shape.n > 3:
        raise InfeasibleSize("point counting is limited to n <= 3")
    _check_field_size(q)
    _check_dim_grid(shape, e)
    col_dims = [tuple(e[i][j] for i in range(shape.size)) for j in range(shape.n)]
    used = sum(chain_tests(dims, q) for dims in col_dims)
    if used > budget:
        raise InfeasibleSize("subspace enumeration budget exceeded")
    field = GF(q)
    maps_gf = _maps_over(point, field)
    chains = {} if chains is None else chains
    for dims in col_dims:
        if (dims, q) not in chains:
            chains[(dims, q)] = column_chains(dims, q)
    cols = [chains[(dims, q)] for dims in col_dims]

    vec = {c: 1 for c in cols[0]}
    for j in range(shape.n - 1):
        used += len(vec) * len(cols[j + 1])
        if used > budget:
            raise InfeasibleSize("pair filtering budget exceeded")
        mat = maps_gf[j]
        # each chain's image level by level: a vector of F^i meets only the
        # first i entries of a row, so the full row gives the i x i block's
        images = [
            (mult, [
                [tuple(_dot(field, mat[r], u) for r in range(i)) for u in level]
                for i, level in enumerate(chain, start=1)
            ])
            for chain, mult in vec.items()
        ]
        spans = {}  # (target, img) -> in_span, for this step only

        def lies_in(target, img):
            hit = spans.get((target, img))
            if hit is None:
                hit = spans[(target, img)] = in_span(field, target, img)
            return hit

        nxt_vec = {}
        for nxt in cols[j + 1]:
            total = 0
            for mult, image in images:
                if all(lies_in(target, img)
                       for target, level in zip(nxt, image) for img in level):
                    total += mult
            if total:
                nxt_vec[nxt] = total
        vec = nxt_vec
        if not vec:
            return 0
    return sum(vec.values())


def _dot(field, row, u):
    acc = field.zero
    for a, b in zip(row, u):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def point_counts(point, e, qs, budget=DEFAULT_BUDGET, *, chains=None):
    """((q, :func:`subrep_count` at q), ...) in schedule order, sharing ``chains``."""
    return tuple((q, subrep_count(point, e, q, budget, chains=chains)) for q in qs)


# ---------------------------------------------------------------------------
# exact polynomial fitting

def _poly_trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_eval(c, x):
    acc = 0
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def fit_dimension(counts, max_degree):
    """Fit one integer polynomial to (q, count) samples with mandatory
    holdout validation; the fitted degree is the dimension estimate.

    The polynomial through the first k + 1 samples solves their Vandermonde
    system by :func:`~gridorbits.exact_linalg.solve_unique`; it is unique
    because the field sizes are distinct.  The fit decides at the first
    prefix whose polynomial reproduces every held-out count: it interpolates
    all samples, so each longer prefix would give it again.

    Args:
        counts: ordered (q, count) pairs with distinct q; the fit uses a
            prefix and the rest must be reproduced exactly.
        max_degree: a priori bound on the degree.

    Raises:
        ValueError: fewer than 3 samples, or a repeated field size.
        FitFailure: no integer polynomial of degree <= max_degree matches
            all samples with at least one held-out point.
    """
    pts = list(counts)
    if len(pts) < 3:
        raise ValueError("need at least 3 sample points")
    for k, (q, _c) in enumerate(pts):
        if any(q == p for p, _ in pts[:k]):
            raise ValueError(f"field size q = {q} is repeated")
    for k in range(len(pts) - 1):
        sample = pts[: k + 1]
        vandermonde = [[q ** d for q, _c in sample] for d in range(k + 1)]
        coeffs = _poly_trim(solve_unique(vandermonde, [c for _q, c in sample]))
        if len(coeffs) - 1 > max_degree:
            break
        if all(_poly_eval(coeffs, q) == c for q, c in pts[k + 1:]):
            if any(c.denominator != 1 for c in coeffs) or (any(c for _q, c in pts) and coeffs[-1] <= 0):
                break
            return DimEstimate(len(coeffs) - 1, tuple(int(c) for c in coeffs))
    raise FitFailure(
        f"no integer polynomial of degree <= {max_degree} fits {pts} with a holdout"
    )


def _degree_bound(shape, e):
    return sum(
        e[i - 1][j - 1] * (i - e[i - 1][j - 1])
        for i in range(1, shape.size + 1)
        for j in range(1, shape.n + 1)
    )


def estimate_dim(point, e, qs, budget=DEFAULT_BUDGET):
    """Dimension of the fibre with dimension grid e over the point, as the
    degree of the validated counting polynomial."""
    _check_field_sizes(qs)
    return fit_dimension(point_counts(point, e, qs, budget), _degree_bound(point.shape, e))


def euler_form(a, b):
    """Euler form of the grid quiver with one relation per commuting square:
    sum_v a_v b_v - sum_arrows a_s b_t + sum_squares a_(i,j) b_(i+1,j+1), for
    (n+1) x n grids a and b, over their shape's arrows and squares.  Any
    other pair of grids, such as two of different shapes, is refused with a
    ValueError naming both shapes (row lengths)."""
    shape_a, shape_b = tuple(map(len, a)), tuple(map(len, b))
    if shape_a != shape_b or shape_a != (len(a) - 1,) * len(a):
        raise ValueError(f"euler_form needs two (n+1) x n grids, got row lengths {shape_a} and {shape_b}")
    shape = GridShape(len(a) - 1)
    total = sum(x * y for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))
    total -= sum(_edim(a, s) * _edim(b, t) for s, t in _grid_arrows(shape))
    total += sum(_edim(a, (i, j)) * _edim(b, (i + 1, j + 1)) for i, j in _squares(shape))
    return total


def flat_scan(w, qs=DEFAULT_QS, budget=DEFAULT_BUDGET):
    """Estimated fibre dimension over every orbit, flagged against the
    target dimension (the permutation's length).

    The flat-candidate set is reported raw; whether it is upward closed
    under the componentwise array order (no orbit above a candidate is
    left out) is attached as a diagnostic only: each candidate's up-set
    from :func:`~gridorbits.orbit_poset.array_order` must lie inside the
    candidate set, ``up & ~flat == 0``.

    Each orbit is counted on its canonical point, the
    :func:`~gridorbits.grid_quiver.rook_point` of its node's matchings.  The
    scan builds each column's chains once per (column dims, q) and shares
    them across its :func:`subrep_count` calls, one per (orbit, q), each of
    which still meters the budget before it looks the chains up.
    The field sizes are checked before the first count.
    """
    w = check_permutation(w)
    _check_field_sizes(qs)
    shape = GridShape(len(w) - 1)
    e = target_dims(w)
    target = length(w)
    rows = []
    arrays = []
    chains = {}
    for node in orbit_nodes(shape):
        counts = point_counts(rook_point(shape, node.matchings), e, qs, budget, chains=chains)
        est = fit_dimension(counts, _degree_bound(shape, e))
        rows.append(FlatScanRow(node.id, node.decomposition, counts, est, est.degree == target))
        arrays.append(node.sw)
    flat = sum(1 << i for i, r in enumerate(rows) if r.flat_candidate)
    upward_closed = all(up & ~flat == 0 for up, r in zip(array_order(arrays), rows) if r.flat_candidate)
    return FlatScanResult(w, target, tuple(rows), upward_closed)


# ---------------------------------------------------------------------------
# Hom-scheme audit

SAMPLES = 5  # least length of per_point_ranks; nothing is sampled
MAX_BASE_POINTS = 8  # the audit's cap: base points ranked per report


def _grid_arrows(shape):
    """Every arrow (s, t) of the grid, horizontal before vertical."""
    horiz = [((i, j), (i, j + 1)) for i in range(1, shape.size + 1) for j in range(1, shape.n)]
    vert = [((i, j), (i + 1, j)) for i in range(1, shape.size) for j in range(1, shape.n + 1)]
    return horiz + vert


def _squares(shape):
    """The corner (i, j) of each unit square (i, j) -> (i + 1, j + 1)."""
    return product(range(1, shape.size), range(1, shape.n))


def _arrow_maps(shape, matchings):
    """The 1s of the canonical point's map on every arrow (s, t) of the
    grid, s = (i, j), as a dict from the arrow to a dict column -> row
    (1-based): if horizontal, the ``rook_cells`` of ``matchings[j-1]`` in
    columns <= i (the rook is upper triangular, so these are its top-left
    i x i block's); if vertical, c -> c (F^i ⊂ F^(i+1))."""
    size = shape.size
    maps = {}
    for s, t in _grid_arrows(shape):
        i, j = s
        if t[0] == i:
            maps[s, t] = {c: r for r, c in rook_cells(size, matchings[j - 1]) if c <= i}
        else:
            maps[s, t] = {c: c for c in range(1, i + 1)}
    return maps


def _edim(e, v):
    return e[v[0] - 1][v[1] - 1]


def _unknowns(shape, e):
    """Keys of the audit's unknowns, as (arrow entries, frame entries).

    Arrow entry (r, c) of the e_t x e_s matrix on arrow (s, t) is keyed
    ((s, t), r, c), horizontal arrows before vertical ones; these are the
    coordinates of the representation variety.  Frame entry (r, c) of the
    i x e_v frame g_v at vertex v = (i, j) is keyed (v, r, c).
    """
    arrows = [
        ((s, t), r, c)
        for (s, t) in _grid_arrows(shape)
        for r in range(_edim(e, t))
        for c in range(_edim(e, s))
    ]
    frames = [
        ((i, j), r, c)
        for i in range(1, shape.size + 1)
        for j in range(1, shape.n + 1)
        for r in range(i)
        for c in range(e[i - 1][j - 1])
    ]
    return arrows, frames


def _square_relations(shape, e, index):
    """Each square's relation v2·h1 = h2·v1, one equation per entry.

    An equation is a list of terms (coef, a, b) standing for coef·x_a·x_b,
    or coef·x_a when b is None; ``index`` maps the keys of
    :func:`_unknowns` to positions in x.  Here x_a is always a vertical and
    x_b a horizontal arrow entry.
    """
    equations = []
    for i, j in _squares(shape):
        h1, v2 = ((i, j), (i, j + 1)), ((i, j + 1), (i + 1, j + 1))
        v1, h2 = ((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1))
        for r in range(_edim(e, v2[1])):
            for c in range(_edim(e, h1[0])):
                equations.append(
                    [(1, index[(v2, r, t)], index[(h1, t, c)]) for t in range(_edim(e, h1[1]))]
                    + [(-1, index[(v1, t, c)], index[(h2, r, t)]) for t in range(_edim(e, v1[1]))]
                )
    return equations


def _hom_conditions(shape, maps, e, index):
    """The Hom conditions f·g_s = g_t·N_(s,t) over the canonical point whose
    arrow maps f have their 1s at ``maps`` (:func:`_arrow_maps`), one
    equation per entry, in the format of :func:`_square_relations`."""
    equations = []
    for (s, t) in _grid_arrows(shape):
        col_of = {r: c for c, r in maps[s, t].items()}
        for r in range(1, t[0] + 1):
            for c in range(_edim(e, s)):
                equations.append(
                    ([(1, index[(s, col_of[r] - 1, c)], None)] if r in col_of else [])
                    + [(-1, index[(t, r - 1, u)], index[((s, t), u, c)]) for u in range(_edim(e, t))]
                )
    return equations


def _residuals(equations, x):
    """Values of the equations at x."""
    return [
        sum(coef * x[a] * (1 if b is None else x[b]) for coef, a, b in terms)
        for terms in equations
    ]


def _jacobian(equations, x):
    """Jacobian of the equations at x over Q, by the product rule."""
    rows = []
    for terms in equations:
        row = [QQ.zero] * len(x)
        for coef, a, b in terms:
            if b is None:
                row[a] += coef
            else:
                row[a] += coef * x[b]
                row[b] += coef * x[a]
        rows.append(row)
    return rows


def _check_rep_budget(nvars, q, budget):
    """Refuse a count of the representation variety over F_q whose q^nvars
    arrow tuples exceed the budget, nvars being the number of entries of
    all arrow matrices (horizontal and vertical)."""
    if q ** nvars > budget:
        raise InfeasibleSize(f"representation variety has q^{nvars} candidate points")


def rep_variety_count(shape, e, q, budget=DEFAULT_BUDGET):
    """Points over F_q of the variety of representations with dimension
    grid e satisfying every square's commutativity relation.

    Each relation v2·h1 = h2·v1 is linear in the vertical maps once the
    horizontal maps are fixed.  So the count is the sum, over the tuples H
    of horizontal matrices, of q^(nv - rank L_H), where L_H is the linear
    system in the nv vertical entries.

    Raises:
        ValueError: :func:`_check_field_size` refuses q, or
            :func:`_check_dim_grid` refuses e (both before GF(q) is built).
        InfeasibleSize: :func:`_check_rep_budget` refuses q.
    """
    _check_field_size(q)
    _check_dim_grid(shape, e)
    arrows, _frames = _unknowns(shape, e)
    nvars = len(arrows)
    _check_rep_budget(nvars, q, budget)
    field = GF(q)
    nh = sum(1 for (s, t), _r, _c in arrows if s[0] == t[0])
    nv = nvars - nh
    # With the horizontal entries fixed at H, the term coef·x_a·x_b puts
    # coef·H[b] on the vertical entry x_a, column a - nh of L_H.
    equations = [
        [(a - nh, b, field.from_int(coef)) for coef, a, b in terms]
        for terms in _square_relations(shape, e, {key: pos for pos, key in enumerate(arrows)})
    ]
    count = 0
    for h in product(field.elements(), repeat=nh):
        rows = []
        for terms in equations:
            row = [field.zero] * nv
            for col, b, coef in terms:
                row[col] = field.add(row[col], field.mul(coef, h[b]))
            rows.append(row)
        count += q ** (nv - rank(Matrix(field, rows)))
    return count


def _coordinate_subreps(shape, maps, e):
    """Every subrepresentation spanned by standard basis vectors: the
    torus-fixed points of the fibre over the canonical point whose arrow
    maps have their 1s at ``maps`` (:func:`_arrow_maps`).

    Yields each as a dict from vertex to the sorted tuple of basis indices
    spanning it, depth first: column by column, the bottom cell last.  A
    cell's candidates must hold the images of the basis vectors chosen at
    the cells below it and left of it.
    """
    cells = [(i, j) for j in range(1, shape.n + 1) for i in range(1, shape.size + 1)]

    def extend(idx, assign):
        if idx == len(cells):
            yield assign
            return
        i, j = cells[idx]
        image = set()
        for s in ((i - 1, j), (i, j - 1)):
            if s in assign:
                f = maps[s, (i, j)]
                image.update(f[c] for c in assign[s] if c in f)
        for cand in combinations(range(1, i + 1), _edim(e, (i, j))):
            if image <= set(cand):
                yield from extend(idx + 1, {**assign, (i, j): cand})

    yield from extend(0, {})


def _base_point(maps, arrows, frames, assign):
    """The unknowns x, keyed by ``arrows + frames`` (see :func:`_unknowns`),
    at the coordinate subrepresentation ``assign``: N_(s,t) holds the
    arrow's 1s (``maps``, :func:`_arrow_maps`) between the chosen basis
    vectors and the frame g_v the chosen basis vectors of F^i."""
    one, zero = QQ.one, QQ.zero
    return [
        one if maps[s, t].get(assign[s][c]) == assign[t][r] else zero for (s, t), r, c in arrows
    ] + [one if assign[v][c] == r + 1 else zero for v, r, c in frames]


def hom_report(w, point, qs=DEFAULT_QS, budget=DEFAULT_BUDGET):
    """Complete-intersection audit of the Hom scheme for (w, point).

    All reported quantities are orbit invariants, so the audit runs on the
    canonical representative of the point's orbit, where coordinate
    subrepresentations provide exact rational points of the scheme.  It
    reads that representative's per-pair matchings, ``thin_matchings`` of
    the point's south-west array: the Hom conditions, the coordinate
    subrepresentations and the base points all come from the 1s of its
    arrow maps (:func:`_arrow_maps`, made once per call), and its dense rook point is built
    only for the fibre count.  The field sizes and the budget at the
    largest q are checked before anything is counted.

    A base change a in GL(e) = prod_v GL(e_v), (N, g) -> (a_t N a_s^-1,
    g_v a_v^-1), is a linear automorphism of the unknowns that multiplies
    the residuals by invertible matrices, so both Jacobian ranks are GL(e)
    invariant: ``per_point_ranks`` holds rank(J) - rank(J_squares) once per
    base point, the first MAX_BASE_POINTS items of
    :func:`_coordinate_subreps`, cycled to max(SAMPLES, number of base
    points) entries.

    Raises:
        ValueError: the field sizes are refused by :func:`_check_field_sizes`.
        SolveFailure: the point has no thin decomposition (so no canonical
            representative); raised before anything is counted.
        InfeasibleSize: q^nvars exceeds the budget at the largest q (see
            :func:`_check_rep_budget`), or the fibre's counts exceed it.
        NoPointFound: the canonical point has no coordinate
            subrepresentation, so there is no exact point to start from.
    """
    w = check_permutation(w)
    shape = point.shape
    if len(w) != shape.size:
        raise ValueError("permutation size does not match the shape")
    _check_field_sizes(qs)
    e = target_dims(w)
    matchings = thin_matchings(sw_array(point))
    arrows, frames = _unknowns(shape, e)
    _check_rep_budget(len(arrows), max(qs), budget)
    dim_g = sum(x * x for row in e for x in row)
    total_e = sum(
        e[i - 1][j - 1] * i for i in range(1, shape.size + 1) for j in range(1, shape.n + 1)
    )
    re_counts = tuple((q, rep_variety_count(shape, e, q, budget)) for q in qs)
    est_gr = estimate_dim(rook_point(shape, matchings), e, qs, budget)
    est_re = fit_dimension(re_counts, len(arrows))
    dim_hom0 = est_gr.degree + dim_g
    dim_v = est_re.degree + total_e
    codim = dim_v - dim_hom0
    maps = _arrow_maps(shape, matchings)
    base_points = list(islice(_coordinate_subreps(shape, maps, e), MAX_BASE_POINTS))
    if not base_points:
        raise NoPointFound("no coordinate subrepresentation of the canonical point")
    index = {key: pos for pos, key in enumerate(arrows + frames)}
    hom = _hom_conditions(shape, maps, e, index)
    equations = hom + _square_relations(shape, e, index)
    ranks = []
    for assign in base_points:
        x = _base_point(maps, arrows, frames, assign)
        assert not any(_residuals(equations, x))
        jac = _jacobian(equations, x)
        # independent equations beyond the square relations
        ranks.append(rank(Matrix(QQ, jac)) - rank(Matrix(QQ, jac[len(hom):])))
    ranks = [ranks[idx % len(ranks)] for idx in range(max(SAMPLES, len(ranks)))]
    indep = max(ranks)
    return HomReport(
        dim_g, est_gr.degree, dim_hom0, dim_v, est_re.degree, codim, indep, indep == codim, tuple(ranks)
    )
