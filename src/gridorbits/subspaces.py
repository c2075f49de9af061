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


def in_span(field, rows, vec):
    """Whether vec lies in the span of the RREF rows.  Each row is 1 at its
    pivot, its first nonzero entry, and 0 at every other row's pivot, so vec
    lies in the span exactly when it equals the sum of vec[pivot]·row."""
    comb = [field.zero] * len(vec)
    for row in rows:
        c = vec[row.index(field.one)]
        if c:
            comb = [field.add(x, field.mul(c, y)) for x, y in zip(comb, row)]
    return comb == list(vec)


def chain_tests(col_dims, q):
    """The number of candidate tests :func:`column_chains` makes, in closed
    form: level i tests each of the N_(i-1) chains built so far against all
    [i, d_i]_q subspaces of F_q^i, and each chain has
    N_i / N_(i-1) = [i - d_(i-1), d_i - d_(i-1)]_q extensions, none when
    d_i < d_(i-1)."""
    tests, chains, prev = 0, 1, 0
    for i, d in enumerate(col_dims, start=1):
        tests += chains * gaussian_binomial(i, d, q)
        chains = chains * gaussian_binomial(i - prev, d - prev, q) if d >= prev else 0
        prev = d
    return tests


def column_chains(col_dims, q):
    """All vertical chains of one grid column: U_i of dimension col_dims[i-1]
    inside F_q^i, with U_i contained in U_(i+1) under the coordinate
    inclusion.  Returns tuples of subspaces (rows of length i at level i).
    """
    field = GF(q)
    chains = [()]
    for i, d in enumerate(col_dims, start=1):
        options = subspaces(i, d, q)
        new_chains = []
        for chain in chains:
            below = [row + (0,) for row in (chain[-1] if chain else ())]
            new_chains += [chain + (u,) for u in options if all(in_span(field, u, v) for v in below)]
        chains = new_chains
        if not chains:
            break
    return chains
