"""Exact linear algebra over the rationals and finite fields.

Everything operates on immutable :class:`Matrix` values whose entries live
in one of the fields from :mod:`gridorbits.fields`.  One elimination, the
triangular sweep :func:`_sweep`, serves every use, and one
back-substitution reads solutions off its pivot rows:

- the sweep's pivots give :func:`rank` on any matrix and, on an
  upper-triangular one, the partial permutation canonical form of
  :func:`b_reduce`, which keeps all south-west ranks;
- :func:`solve_unique` sweeps [A | b] and back-substitutes; it fits the
  counting polynomials of :mod:`gridorbits.degeneration_lab`;
- :func:`inverse` sweeps [m | I] and back-substitutes all n right-hand
  sides at once; it inverts the Borel base changes of
  :func:`~gridorbits.grid_quiver.borel_act`, on which the sweep eliminates
  nothing.

The span tests of :mod:`gridorbits.subspaces` need no elimination: its
subspaces are in reduced row echelon form, so the only combination of the
rows that can equal a vector is read off the vector's entries at the
pivots, and :func:`~gridorbits.subspaces.in_span` compares the two.

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

    def __reduce__(self):
        return Matrix, (self.field, self.data)  # rebuilt by __init__, as __setattr__ refuses

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
    def from_int_rows(cls, rows):
        return cls(QQ, [[QQ.from_int(x) for x in row] for row in rows])

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


def _sweep(m):
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


def rank(m):
    """Rank over the matrix's field: the number of pivots of the sweep."""
    return len(_sweep(m)[0])


def principal_block(m, i):
    """Top-left i x i block (1-based size)."""
    if not (1 <= i <= m.rows):
        raise ValueError(f"principal block size {i} out of range for {m.rows}")
    return m.submatrix((1, i), (1, i))


def b_reduce(m):
    """Canonical partial permutation representative of the B x B orbit.

    The result is the unique upper-triangular 0/1 matrix with at most one 1
    per row and column that has the same south-west rank table as the
    input: invertible upper-triangular column operations sweeping right and
    row operations sweeping upwards reach it, and its 1s are the pivots of
    :func:`_sweep`.
    """
    if not is_upper_triangular(m):
        raise ValueError("b_reduce expects an upper-triangular matrix")
    f = m.field
    out = [[f.zero] * m.cols for _ in range(m.rows)]
    for r, c in _sweep(m)[0]:
        out[r][c] = f.one
    return Matrix(f, out)


def _back_substitute(f, pivots, a, ncols):
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


def _solve(f, aug, ncols):
    """The unique X with A X = B for the rows ``aug`` of [A | B], A having
    ncols columns: one sweep, then one back-substitution."""
    pivots, a = _sweep(Matrix(f, aug))
    if sum(1 for _r, c in pivots if c < ncols) < ncols:
        raise ValueError("system is rank-deficient: solution not unique")
    if len(pivots) > ncols:
        raise ValueError("system is inconsistent")
    return _back_substitute(f, pivots, a, ncols)


def inverse(m):
    """Exact inverse of an invertible square matrix: the sweep of [m | I]
    and one back-substitution of all n right-hand sides.  On an
    upper-triangular m the sweep eliminates nothing."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    f = m.field
    one, zero = f.one, f.zero
    aug = [row + tuple(one if i == k else zero for k in range(n)) for i, row in enumerate(m.data)]
    try:
        return Matrix(f, _solve(f, aug, n))
    except ValueError:
        raise ValueError("matrix is singular") from None


def solve_unique(columns, target, field=QQ):
    """Solve sum_j x_j * columns[j] = target for a full-column-rank system.

    Args:
        columns: list of equal-length vectors (the matrix columns).
        target: right-hand-side vector.

    Returns:
        The unique coefficient list, or raises ValueError when the system
        is rank-deficient (checked first) or inconsistent.
    """
    aug = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    return [row[0] for row in _solve(field, aug, len(columns))]
