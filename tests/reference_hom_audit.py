"""The Hom audit's rational points written with one dense ``Matrix`` per
arrow: the map a point puts on each arrow, the Hom conditions f·g_s =
g_t·N_(s,t) read row by row off those maps, the depth-first stream of
coordinate subrepresentations, and each one's exact (N, g) pair.
:mod:`gridorbits.degeneration_lab` reads the same from the canonical
point's matchings; its equations, stream and base points must equal
these."""

from itertools import combinations

from gridorbits.degeneration_lab import _edim, _grid_arrows
from gridorbits.exact_linalg import Matrix
from gridorbits.fields import QQ


def reference_arrow_map(point, s, t):
    """The map the point puts on arrow (s, t), s = (i, j): the stored map
    cut to its top-left i x i block if horizontal, the inclusion
    F^i -> F^(i+1) if vertical."""
    i, j = s
    if t[0] == i:
        return Matrix(QQ, [row[:i] for row in point.maps[j - 1].data[:i]])
    return Matrix(QQ, [[QQ.one if c == r else QQ.zero for c in range(i)] for r in range(i + 1)])


def reference_hom_conditions(point, e, index):
    """The Hom conditions over the point, one equation per entry, in the
    format of :func:`gridorbits.degeneration_lab._square_relations`."""
    equations = []
    for (s, t) in _grid_arrows(point.shape):
        for r, f_row in enumerate(reference_arrow_map(point, s, t).data):
            for c in range(_edim(e, s)):
                equations.append(
                    [(x, index[(s, k, c)], None) for k, x in enumerate(f_row) if x]
                    + [(-1, index[(t, r, u)], index[((s, t), u, c)]) for u in range(_edim(e, t))]
                )
    return equations


def reference_coordinate_subreps(point, e):
    """Every subrepresentation spanned by standard basis vectors, as a dict
    vertex -> sorted tuple of basis indices, depth first: column by column,
    the bottom cell last."""
    shape = point.shape
    cells = [(i, j) for j in range(1, shape.n + 1) for i in range(1, shape.size + 1)]

    def extend(idx, assign):
        if idx == len(cells):
            yield assign
            return
        i, j = cells[idx]
        below = set(assign.get((i - 1, j), ()))
        images = []
        if j >= 2:
            f = reference_arrow_map(point, (i, j - 1), (i, j)).data
            images = [{r for r in range(1, i + 1) if f[r - 1][t - 1]} for t in assign[(i, j - 1)]]
        for cand in combinations(range(1, i + 1), _edim(e, (i, j))):
            if below.union(*images) <= set(cand):
                yield from extend(idx + 1, {**assign, (i, j): cand})

    yield from extend(0, {})


def reference_hom_point_from_subrep(point, e, assign):
    """Exact (N, g) pair over Q for a coordinate subrepresentation, as dicts
    arrow -> e_t x e_s matrix and vertex -> i x e_v frame."""
    g = {
        (i, j): Matrix(QQ, [[QQ.one if t == r else QQ.zero for t in basis] for r in range(1, i + 1)])
        for (i, j), basis in assign.items()
    }
    n_mats = {}
    for (s, t) in _grid_arrows(point.shape):
        if not (_edim(e, s) and _edim(e, t)):
            continue
        ambient = reference_arrow_map(point, s, t).data
        n_mats[(s, t)] = Matrix(
            QQ, [[ambient[dst - 1][src - 1] for src in assign[s]] for dst in assign[t]]
        )
    return n_mats, g


def reference_values(keys, n_mats, g):
    """The point (N, g) as the vector x of the unknowns with these keys."""
    mats = {**n_mats, **g}
    return [mats[key].data[r][c] for key, r, c in keys]
