"""Definitions the south-west kernels are tested against: one window's
composition, one south-west rank per cell, and the dimension of an image
meeting the first k coordinates, each by plain products and ranks.  The
ranks come from the reference sweep, not from the kernel under test."""

from gridorbits.exact_linalg import Matrix

from reference_sweep import reference_rank as rank


def reference_compose_window(mats, j1, j2):
    """Product mats[j2] · ... · mats[j1] (1-based; map j1 applied first)."""
    if not (1 <= j1 <= j2 <= len(mats)):
        raise ValueError(f"window ({j1},{j2}) out of range for {len(mats)} maps")
    out = mats[j1 - 1]
    for j in range(j1, j2):
        out = mats[j] @ out
    return out


def reference_sw_rank(m, p, q):
    """Rank of the south-west window of an upper-triangular matrix.

    The window is rows p..size and columns 1..q (1-based); requires
    1 <= p <= q <= size.
    """
    size = m.rows
    if not (1 <= p <= q <= size):
        raise ValueError(f"sw_rank window ({p},{q}) out of range for size {size}")
    return rank(Matrix(m.field, [row[:q] for row in m.data[p - 1:size]]))


def reference_image_meet_coord_dim(m, k):
    """dim(im(m) ∩ span(e_1..e_k)) for a square matrix of size i, 0 <= k <= i.

    Computed as rank(m) - rank(rows k+1..i of m): intersecting the image
    with the first k coordinates kills exactly the directions visible in
    the last i-k rows.
    """
    i = m.rows
    if not (0 <= k <= i):
        raise ValueError(f"coordinate index {k} out of range for size {i}")
    if k == i:
        return rank(m)
    lower = Matrix(m.field, [row[:i] for row in m.data[k:i]])
    return rank(m) - rank(lower)
