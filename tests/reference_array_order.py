"""The array order :func:`gridorbits.orbit_poset.array_order` is tested
against: one int16 broadcast comparison of every entry, in row chunks."""

import numpy as np


def reference_array_order(arrays):
    """leq[i, j] when arrays[i] <= arrays[j] in every entry, compared entry
    by entry with no more than 2^24 entries broadcast at a time."""
    a = np.array([arr.flat() for arr in arrays], dtype=np.int16)
    nn = len(a)
    leq = np.empty((nn, nn), dtype=bool)
    chunk = max(1, (1 << 24) // max(1, a.size))
    for lo in range(0, nn, chunk):
        hi = min(nn, lo + chunk)
        leq[lo:hi] = (a[lo:hi, None, :] <= a[None, :, :]).all(axis=2)
    return leq
