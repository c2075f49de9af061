"""Enumeration of subspaces of F_q^m in reduced row echelon form.

A subspace is a tuple of RREF rows (tuples of field elements as ints);
the empty tuple is the zero subspace.  Enumeration fixes the pivot-column
combination first and then runs over the free entries, so the order is
deterministic and the census per (m, k) matches the Gaussian binomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .fields import GF


def gaussian_binomial(m, k, q):
    num, den = 1, 1
    for t in range(k):
        num *= q ** (m - t) - 1
        den *= q ** (t + 1) - 1
    return num // den


@lru_cache(maxsize=None)
def subspaces(m, k, q):
    """All k-dimensional subspaces of F_q^m, as tuples of RREF rows."""
    if k == 0:
        return ((),)
    if k > m:
        return ()
    out = []
    for pivs in combinations(range(m), k):
        free_pos = [
            (r, c)
            for r in range(k)
            for c in range(pivs[r] + 1, m)
            if c not in pivs
        ]
        for vals in product(range(q), repeat=len(free_pos)):
            rows = [[0] * m for _ in range(k)]
            for r, p in enumerate(pivs):
                rows[r][p] = 1
            for (r, c), v in zip(free_pos, vals):
                rows[r][c] = v
            out.append(tuple(tuple(r) for r in rows))
    assert len(out) == gaussian_binomial(m, k, q)
    return tuple(out)


def reduce_vector(field, rows, vec):
    """Reduce a vector against RREF rows; result is zero iff it lies in
    their span."""
    v = list(vec)
    for row in rows:
        p = next(i for i, x in enumerate(row) if x)
        c = v[p]
        if c:
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


def in_span(field, rows, vec):
    return all(x == 0 for x in reduce_vector(field, rows, vec))


def contains(field, big_rows, small_rows, width):
    """Whether span(small) sits inside span(big) in F^width; small rows may
    be shorter than width and are right-padded with zeros."""
    for row in small_rows:
        padded = tuple(row) + (0,) * (width - len(row))
        if not in_span(field, big_rows, padded):
            return False
    return True


def column_chains(col_dims, q, counter, budget):
    """All vertical chains of one grid column: U_i of dimension col_dims[i-1]
    inside F_q^i, with U_i contained in U_(i+1) under the coordinate
    inclusion.  Returns tuples of subspaces (rows of length i at level i).

    Every candidate test adds one to ``counter[0]``; a count above
    ``budget`` raises OverflowError.
    """
    field = GF(q)
    levels = len(col_dims)
    chains = [()]
    for i in range(1, levels + 1):
        options = subspaces(i, col_dims[i - 1], q)
        new_chains = []
        for chain in chains:
            prev = chain[-1] if chain else ()
            for cand in options:
                counter[0] += 1
                if counter[0] > budget:
                    raise OverflowError("subspace enumeration budget exceeded")
                if i == 1 or contains(field, cand, prev, i):
                    new_chains.append(chain + (cand,))
        chains = new_chains
        if not chains:
            break
    return chains
