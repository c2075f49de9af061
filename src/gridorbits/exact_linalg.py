"""Exact linear algebra over the rationals and finite fields.

Everything operates on immutable :class:`Matrix` values whose entries live
in one of the fields from :mod:`gridorbits.fields`.  Ranks are computed by
exact Gaussian elimination; reduction to partial permutation canonical form
uses only invertible upper-triangular row/column operations, so all
south-west ranks are preserved.

Zero tests are truthiness tests: ``Fraction(0)`` and the GF(q) element
``0`` are both falsy and every other element is truthy, so ``if x:`` decides
``x != field.zero`` without a call to ``Fraction.__eq__``.
"""

from __future__ import annotations

from .fields import QQ


class Matrix:
    """Immutable dense matrix over an exact field.

    Entries are stored row-major as a tuple of tuples.  The field object
    supplies all arithmetic (see :mod:`gridorbits.fields`).
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data):
        data = tuple(tuple(row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols=None):
        zero = field.zero
        cols = rows if cols is None else cols
        return cls(field, [[zero] * cols for _ in range(rows)])

    @classmethod
    def from_int_rows(cls, rows, field=QQ):
        return cls(field, [[field.from_int(x) for x in row] for row in rows])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((id(self.field), self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"size mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        add, mul = f.add, f.mul
        # each output entry sums its products in increasing inner index, as
        # the row-by-column definition does, so results are identical
        other_rows = [
            [(j, b) for j, b in enumerate(brow) if b] for brow in other.data
        ]
        out = []
        for row in self.data:
            acc = [f.zero] * other.cols
            for a, brow in zip(row, other_rows):
                if a:
                    for j, b in brow:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return Matrix(f, out)

    def entry(self, i, j):
        """1-based entry access."""
        return self.data[i - 1][j - 1]

    def submatrix(self, row_range, col_range):
        """Submatrix for 1-based inclusive ranges (r1, r2), (c1, c2)."""
        r1, r2 = row_range
        c1, c2 = col_range
        return Matrix(self.field, [row[c1 - 1:c2] for row in self.data[r1 - 1:r2]])


def is_upper_triangular(m):
    return not any(
        m.data[i][j] for i in range(m.rows) for j in range(min(i, m.cols))
    )


def rank(m):
    """Rank over the matrix's field, by exact Gaussian elimination."""
    f = m.field
    sub, mul = f.sub, f.mul
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv_p = f.inv(a[r][c])
        # columns up to c are never read again, so only the pivot row's
        # nonzero trailing entries enter the row operations
        tail = [(j, y) for j, y in enumerate(a[r][c + 1:], start=c + 1) if y]
        for i in range(r + 1, nrows):
            row = a[i]
            if row[c]:
                coef = mul(row[c], inv_p)
                for j, y in tail:
                    row[j] = sub(row[j], mul(coef, y))
        r += 1
        if r == nrows:
            break
    return r


def sw_rank(m, p, q):
    """Rank of the south-west window of an upper-triangular matrix.

    The window is rows p..size and columns 1..q (1-based); requires
    1 <= p <= q <= size.
    """
    size = m.rows
    if not (1 <= p <= q <= size):
        raise ValueError(f"sw_rank window ({p},{q}) out of range for size {size}")
    return rank(m.submatrix((p, size), (1, q)))


def compose_window(mats, j1, j2):
    """Product mats[j2] · ... · mats[j1] (1-based; map j1 applied first)."""
    if not (1 <= j1 <= j2 <= len(mats)):
        raise ValueError(f"window ({j1},{j2}) out of range for {len(mats)} maps")
    out = mats[j1 - 1]
    for j in range(j1, j2):
        out = mats[j] @ out
    return out


def principal_block(m, i):
    """Top-left i x i block (1-based size)."""
    if not (1 <= i <= m.rows):
        raise ValueError(f"principal block size {i} out of range for {m.rows}")
    return m.submatrix((1, i), (1, i))


def image_meet_coord_dim(m, k):
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
    lower = m.submatrix((k + 1, i), (1, i))
    return rank(m) - rank(lower)


def b_reduce(m):
    """Canonical partial permutation representative of the B x B orbit.

    Sweeps right with invertible upper-triangular column operations and
    upwards with invertible upper-triangular row operations, scaling each
    pivot row so that its pivot is 1.  The result is the unique
    upper-triangular 0/1 matrix with at most one 1 per row and column that
    has the same south-west rank table as the input.

    Column c takes the bottom-most nonzero entry outside the earlier pivot
    rows as its pivot.  The sweep relies on two facts:

    - Once processed, a pivot column (r0, c0) is the unit vector e_r0 for
      the rest of the sweep: everything below its pivot is zero, everything
      above was cleared, and later row operations add rows that are zero in
      column c0.  So the column operation that clears a later entry of row
      r0 only sets that entry to zero; the row drops out of the sweep.
    - A pivot row is zero left of its pivot, since every earlier column is
      either a unit vector of another row or entirely zero.  So the upward
      row operations touch only the columns right of the pivot.

    Only the pivot positions reach the result, which is built from them.
    """
    if not is_upper_triangular(m):
        raise ValueError("b_reduce expects an upper-triangular matrix")
    f = m.field
    sub, mul = f.sub, f.mul
    n = m.rows
    a = [list(row) for row in m.data]
    free = list(range(n))  # rows without a pivot, in increasing order
    pivots = []
    for c in range(n):
        r = next((x for x in reversed(free) if a[x][c]), None)
        if r is None:
            continue
        free.remove(r)
        pivots.append((r, c))
        inv_p = f.inv(a[r][c])
        tail = [(j, mul(y, inv_p)) for j, y in enumerate(a[r][c + 1:], start=c + 1) if y]
        # sweep upwards: clear the column above the pivot with row operations
        # (free rows below the pivot are already zero in column c)
        for rr in free:
            coef = a[rr][c]
            if coef:
                row = a[rr]
                for j, y in tail:
                    row[j] = sub(row[j], mul(coef, y))
    out = [[f.zero] * n for _ in range(n)]
    for r, c in pivots:
        out[r][c] = f.one
    return Matrix(f, out)


def inverse_upper_triangular(m):
    """Exact inverse of an invertible upper-triangular matrix."""
    f = m.field
    zero = f.zero
    n = m.rows
    if not all(m.data[i][i] for i in range(n)):
        raise ValueError("matrix is singular")
    inv = [[zero] * n for _ in range(n)]
    for col in range(n):
        # back-substitute for the col-th column of the inverse
        x = [zero] * n
        for i in range(n - 1, -1, -1):
            s = f.one if i == col else zero
            for j in range(i + 1, n):
                s = f.sub(s, f.mul(m.data[i][j], x[j]))
            x[i] = f.div(s, m.data[i][i])
        for i in range(n):
            inv[i][col] = x[i]
    return Matrix(f, inv)


def inverse(m):
    """Exact inverse of an invertible square matrix, by Gauss-Jordan
    elimination over the matrix's field."""
    f = m.field
    zero, one = f.zero, f.one
    n = m.rows
    if m.cols != n:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(m.data)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv_p = f.inv(aug[c][c])
        aug[c] = [f.mul(x, inv_p) for x in aug[c]]
        for r in range(n):
            coef = aug[r][c]
            if r != c and coef:
                aug[r] = [f.sub(x, f.mul(coef, y)) for x, y in zip(aug[r], aug[c])]
    return Matrix(f, [row[n:] for row in aug])


def solve_unique(columns, target, field=QQ):
    """Solve sum_j x_j * columns[j] = target for a full-column-rank system.

    Args:
        columns: list of equal-length vectors (the matrix columns).
        target: right-hand-side vector.

    Returns:
        The unique coefficient list, or raises ValueError when the system
        is inconsistent or rank-deficient.
    """
    ncols = len(columns)
    nrows = len(target)
    f = field
    zero = f.zero
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = f.inv(aug[r][c])
        aug[r] = [f.mul(x, inv_p) for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                coef = aug[i][c]
                aug[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if r < ncols:
        raise ValueError("system is rank-deficient: solution not unique")
    # every column is a pivot, so all coefficient entries below row r vanish
    if any(row[-1] for row in aug[r:]):
        raise ValueError("system is inconsistent")
    x = [zero] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][-1]
    return x
