"""The triangular sweep over each field's own ``inv``, ``sub`` and ``mul``:
every hit row is cleared with the pivot row scaled so the pivot is 1.  The
integer sweep that :func:`gridorbits.exact_linalg._sweep` runs over QQ must
take the same pivots, and the kernels on it must return the same values as
the kernels built here on this sweep and its back-substitution."""

from gridorbits.exact_linalg import Matrix, is_upper_triangular


def reference_sweep(m):
    """Pivot positions (row, column), 0-based, of the triangular sweep, in
    column order, and the swept rows.

    Column c takes the bottom-most nonzero entry outside the earlier pivot
    rows as its pivot and, if another free row is nonzero in column c,
    clears it there with the pivot row scaled so the pivot is 1.  After
    column c every free row is zero in column c, so on any matrix the
    pivots count the rank.  On an upper-triangular matrix they are the 1s
    of :func:`b_reduce`'s canonical form, by two facts:

    - Once processed, a pivot column (r0, c0) is the unit vector e_r0 for
      the rest of the sweep: everything below its pivot is zero, everything
      above was cleared, and later row operations add rows that are zero in
      column c0.  So the column operation that clears a later entry of row
      r0 only sets that entry to zero; the row drops out of the sweep.
    - A pivot row is zero left of its pivot, since every earlier column is
      either a unit vector of another row or entirely zero.  So the upward
      row operations touch only the columns right of the pivot.

    The swept rows hold each pivot row as it stood when it took its pivot,
    unscaled; entries left of a row's pivot are stale and read as zero.
    """
    f = m.field
    sub, mul = f.sub, f.mul
    a = [list(row) for row in m.data]
    free = list(range(m.rows))  # rows without a pivot, in increasing order
    pivots = []
    for c in range(m.cols):
        r = next((x for x in reversed(free) if a[x][c]), None)
        if r is None:
            continue
        free.remove(r)
        pivots.append((r, c))
        if not free:
            break
        hits = [rr for rr in free if a[rr][c]]
        if not hits:
            continue
        inv_p = f.inv(a[r][c])
        tail = [(j, mul(y, inv_p)) for j, y in enumerate(a[r][c + 1:], start=c + 1) if y]
        for rr in hits:
            coef = a[rr][c]
            row = a[rr]
            for j, y in tail:
                row[j] = sub(row[j], mul(coef, y))
    return pivots, a


def _reference_back_substitute(f, pivots, a, ncols):
    """Rows of the unique X with A X = B, from the swept rows ``a`` of
    [A | B] when A's ncols columns are all pivot columns.

    A pivot row is zero left of its pivot, so the last pivot row gives its
    unknown row directly and each earlier one needs only the unknown rows
    after it.
    """
    sub, mul, zero = f.sub, f.mul, f.zero
    x = [None] * ncols
    for r, c in reversed(pivots):
        row = a[r]
        acc = row[ncols:]
        for cc in range(c + 1, ncols):
            coef = row[cc]
            if coef:
                acc = [sub(s, mul(coef, y)) if y else s for s, y in zip(acc, x[cc])]
        inv_p = f.inv(row[c])
        x[c] = [mul(y, inv_p) if y else zero for y in acc]
    return x


def _reference_solve(f, aug, ncols):
    """The unique X with A X = B for the rows ``aug`` of [A | B], A having
    ncols columns: one sweep, then one back-substitution."""
    pivots, a = reference_sweep(Matrix(f, aug))
    if sum(1 for _r, c in pivots if c < ncols) < ncols:
        raise ValueError("system is rank-deficient: solution not unique")
    if len(pivots) > ncols:
        raise ValueError("system is inconsistent")
    return _reference_back_substitute(f, pivots, a, ncols)


def reference_rank(m):
    return len(reference_sweep(m)[0])


def reference_b_reduce(m):
    if not is_upper_triangular(m):
        raise ValueError("b_reduce expects an upper-triangular matrix")
    f = m.field
    out = [[f.zero] * m.cols for _ in range(m.rows)]
    for r, c in reference_sweep(m)[0]:
        out[r][c] = f.one
    return Matrix(f, out)


def reference_inverse(m):
    n = m.rows
    if m.cols != n:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    f = m.field
    one, zero = f.one, f.zero
    aug = [row + tuple(one if i == k else zero for k in range(n)) for i, row in enumerate(m.data)]
    try:
        return Matrix(f, _reference_solve(f, aug, n))
    except ValueError:
        raise ValueError("matrix is singular") from None


def reference_solve_unique(columns, target, field):
    aug = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    return [row[0] for row in _reference_solve(field, aug, len(columns))]
