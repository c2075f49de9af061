"""The census :func:`gridorbits.orbit_poset.f2_census` is tested against:
a walk over every 0/1 tuple, all 2^20 at n = 3, through a dense key table
that keeps each array's lexicographically first tuple."""

import numpy as np

from gridorbits.exact_linalg import Matrix
from gridorbits.fields import GF
from gridorbits.grid_quiver import windows
from gridorbits.parametrizations import SWArray, sw_table


def reference_census(shape):
    """Dict from each south-west array of a 0/1 tuple to the first tuple
    realising it, tuples in lexicographic order of their maps' bit codes."""
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
