"""The vector of a thin indecomposable that
:func:`gridorbits.decomposition.independence_check` builds from the tables
is tested against: its dimension grid column-major, then its intersection
entries read off the height vector directly."""

from gridorbits.grid_quiver import dims_of_heights, windows


def reference_heights_rank_vector(shape, h):
    """All spaces are 0 or C, so each entry is 0 or 1: the windowed image at
    row i is nonzero iff every column the window touches reaches row i, and
    it meets the image of the vertical chain from row k iff column j2+1
    reaches row k."""
    size = shape.size
    entries = []
    for (j1, j2) in windows(shape):
        for i in range(1, size + 1):
            alive = all(h[j - 1] >= size + 1 - i for j in range(j1, j2 + 2))
            for k in range(1, i + 1):
                entries.append(1 if alive and h[j2] >= size + 1 - k else 0)
            entries.append(1 if alive else 0)
    dims = dims_of_heights(shape, h)
    return tuple(dims[i][j] for j in range(shape.n) for i in range(size)) + tuple(entries)
