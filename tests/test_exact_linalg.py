import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridorbits import (
    GF,
    QQ,
    GaloisField,
    Matrix,
    b_reduce,
    inverse,
    is_upper_triangular,
    principal_block,
    rank,
)
from gridorbits.exact_linalg import solve_unique
from gridorbits.parametrizations import sw_table

from conftest import random_ut
from reference_windows import reference_compose_window, reference_image_meet_coord_dim, reference_sw_rank

DIAG011 = Matrix.from_int_rows([[0, 0, 0], [0, 1, 0], [0, 0, 1]])


def reference_rank(m):
    """Gaussian elimination whose row operations run over every column: the
    definition the pivot-only :func:`rank` must agree with."""
    f = m.field
    zero = f.zero
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != zero), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv_p = f.inv(a[r][c])
        for i in range(r + 1, nrows):
            if a[i][c] != zero:
                coef = f.mul(a[i][c], inv_p)
                a[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def reference_b_reduce(m):
    """The full two-sided sweep: every column operation updates the whole
    column, pivots are normalised by scaling their column, and every row
    operation runs over the whole row.  The pivot-only :func:`b_reduce`
    must return the same matrix."""
    f = m.field
    zero, one = f.zero, f.one
    n = m.rows
    a = [list(row) for row in m.data]
    pivot_row_of_col = {}
    pivot_rows = set()
    for c in range(n):
        for c0, r0 in pivot_row_of_col.items():
            coef = a[r0][c]
            if coef != zero:
                for r in range(n):
                    a[r][c] = f.sub(a[r][c], f.mul(coef, a[r][c0]))
        r = next((x for x in range(n - 1, -1, -1) if a[x][c] != zero and x not in pivot_rows), None)
        if r is None:
            continue
        inv_p = f.inv(a[r][c])
        if a[r][c] != one:
            for x in range(n):
                a[x][c] = f.mul(a[x][c], inv_p)
        for rr in range(r):
            coef = a[rr][c]
            if coef != zero:
                a[rr] = [f.sub(x, f.mul(coef, y)) for x, y in zip(a[rr], a[r])]
        pivot_row_of_col[c] = r
        pivot_rows.add(r)
    return Matrix(f, a)


def reference_matmul(a, b):
    """Row-by-column product, each entry summed in increasing inner index."""
    f = a.field
    out = [[f.zero] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                x, y = a.data[i][k], b.data[k][j]
                if x != f.zero and y != f.zero:
                    out[i][j] = f.add(out[i][j], f.mul(x, y))
    return Matrix(f, out)


def reference_solve_unique(columns, target, field=QQ):
    """Gauss-Jordan elimination of [A | b], the solver :func:`solve_unique`
    replaced: same solutions and same error messages."""
    ncols = len(columns)
    nrows = len(target)
    f = field
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
    if any(row[-1] for row in aug[r:]):
        raise ValueError("system is inconsistent")
    x = [f.zero] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][-1]
    return x


def reference_inverse(m):
    """Column k of the inverse solves m x = e_k by Gauss-Jordan."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"inverse of a non-square {m.rows}x{m.cols} matrix")
    f = m.field
    columns = [list(col) for col in zip(*m.data)]
    try:
        inv_cols = [
            reference_solve_unique(columns, [f.one if i == k else f.zero for i in range(n)], f)
            for k in range(n)
        ]
    except ValueError:
        raise ValueError("matrix is singular") from None
    return Matrix(f, zip(*inv_cols))


def reference_inverse_upper_triangular(m):
    """Back-substitution, column by column, for an upper-triangular m."""
    f = m.field
    zero = f.zero
    n = m.rows
    if not all(m.data[i][i] for i in range(n)):
        raise ValueError("matrix is singular")
    inv = [[zero] * n for _ in range(n)]
    for col in range(n):
        x = [zero] * n
        for i in range(n - 1, -1, -1):
            s = f.one if i == col else zero
            for j in range(i + 1, n):
                s = f.sub(s, f.mul(m.data[i][j], x[j]))
            x[i] = f.div(s, m.data[i][i])
        for i in range(n):
            inv[i][col] = x[i]
    return Matrix(f, inv)


def outcome(func, *args):
    """The value of func(*args), or the message of the ValueError it raises."""
    try:
        return func(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# (id, field, entry drawer); QQ is drawn both as plain ints and as Fractions
KERNEL_FIELDS = [
    ("QQ-int", QQ, lambda rng: rng.randint(-3, 3)),
    ("QQ-fraction", QQ, lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
    ("GF2", GF(2), lambda rng: rng.randrange(2)),
    ("GF3", GF(3), lambda rng: rng.randrange(3)),
    ("GF4", GF(4), lambda rng: rng.randrange(4)),
    ("GF9", GF(9), lambda rng: rng.randrange(9)),
]


def _draw_ut(field, draw, size, rng, density):
    return Matrix(field, [
        [draw(rng) if j >= i and rng.random() < density else field.zero for j in range(size)]
        for i in range(size)
    ])


def _invertible_ut(field, draw, size, rng):
    rows = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        while not rows[i][i]:
            rows[i][i] = draw(rng)
        for j in range(i + 1, size):
            rows[i][j] = draw(rng)
    return Matrix(field, rows)


def _partial_permutation(field, size, rng):
    """A random upper-triangular 0/1 matrix with at most one 1 per row and
    column."""
    rows = [[field.zero] * size for _ in range(size)]
    free_rows = list(range(size))
    for c in rng.sample(range(size), rng.randint(0, size)):
        choices = [r for r in free_rows if r <= c]
        if choices:
            r = rng.choice(choices)
            free_rows.remove(r)
            rows[r][c] = field.one
    return Matrix(field, rows)


def minor_rank_oracle(rows, p):
    """Largest size of a nonvanishing minor, over F_p, by brute force."""
    n = len(rows)
    best = 0
    for size in range(1, n + 1):
        for rsel in combinations(range(n), size):
            for csel in combinations(range(n), size):
                det = 0
                for perm in permutations(range(size)):
                    sign = 1
                    for a, b in combinations(range(size), 2):
                        if perm[a] > perm[b]:
                            sign = -sign
                    term = sign
                    for i in range(size):
                        term *= rows[rsel[i]][csel[perm[i]]]
                    det += term
                if det % p != 0:
                    best = size
                    break
            else:
                continue
            break
    return best


class TestRank:
    def test_worked_example(self):
        assert rank(DIAG011) == 2

    def test_zero(self):
        assert rank(Matrix.zeros(QQ, 3)) == 0

    def test_random_f5_against_minor_oracle(self):
        rng = random.Random(5)
        field = GF(5)
        for _ in range(25):
            rows = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
            m = Matrix(field, rows)
            assert rank(m) == minor_rank_oracle(rows, 5)

    def test_partial_permutation_rank_field_independent(self):
        rows = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert rank(Matrix.from_int_rows(rows)) == rank(Matrix(GF(2), rows)) == 2


class TestSwRank:
    @pytest.mark.parametrize(
        "p,q,expected",
        [(1, 1, 0), (1, 2, 1), (1, 3, 2), (2, 2, 1), (2, 3, 2), (3, 3, 1)],
    )
    def test_worked_example_table(self, p, q, expected):
        assert reference_sw_rank(DIAG011, p, q) == expected

    def test_identity(self):
        m = Matrix.identity(QQ, 5)
        for p in range(1, 6):
            for q in range(p, 6):
                assert reference_sw_rank(m, p, q) == q - p + 1

    @pytest.mark.parametrize("p,q", [(0, 1), (2, 1), (1, 4), (4, 4)])
    def test_window_out_of_range(self, p, q):
        with pytest.raises(ValueError):
            reference_sw_rank(DIAG011, p, q)

    def test_monotone_unit_steps(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_ut(4, rng)
            for p in range(1, 5):
                for q in range(p, 4):
                    step = reference_sw_rank(m, p, q + 1) - reference_sw_rank(m, p, q)
                    assert step in (0, 1)
            for q in range(2, 5):
                for p in range(2, q + 1):
                    step = reference_sw_rank(m, p - 1, q) - reference_sw_rank(m, p, q)
                    assert step in (0, 1)


class TestComposeWindow:
    def test_single_window(self):
        mats = [DIAG011]
        assert reference_compose_window(mats, 1, 1) == DIAG011

    def test_published_pair(self):
        # diagonal 0/1 matrices multiply entrywise: only the shared (4,4)
        # survives in the composition
        f1 = Matrix.from_int_rows([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        f2 = Matrix.from_int_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        prod = reference_compose_window([f1, f2], 1, 2)
        expected = Matrix.from_int_rows(
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
        )
        assert prod == expected

    def test_identities(self):
        mats = [Matrix.identity(QQ, 3)] * 3
        assert reference_compose_window(mats, 1, 3) == Matrix.identity(QQ, 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            reference_compose_window([DIAG011, Matrix.identity(QQ, 4)], 1, 2)

    def test_result_upper_triangular(self):
        rng = random.Random(3)
        for _ in range(20):
            mats = [random_ut(4, rng) for _ in range(3)]
            assert is_upper_triangular(reference_compose_window(mats, 1, 3))


class TestPrincipalBlock:
    def test_full_block_is_identity_op(self):
        assert principal_block(DIAG011, 3) == DIAG011

    def test_worked_example_restriction(self):
        assert principal_block(DIAG011, 2) == Matrix.from_int_rows([[0, 0], [0, 1]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1), st.integers(1, 4))
    def test_commutes_with_products(self, seed_a, seed_b, i):
        rng_a, rng_b = random.Random(seed_a), random.Random(seed_b)
        a, b = random_ut(4, rng_a), random_ut(4, rng_b)
        assert principal_block(a @ b, i) == principal_block(a, i) @ principal_block(b, i)


class TestImageMeetCoordDim:
    @pytest.mark.parametrize("k,expected", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_worked_example(self, k, expected):
        assert reference_image_meet_coord_dim(DIAG011, k) == expected

    def test_identity(self):
        m = Matrix.identity(QQ, 4)
        for k in range(5):
            assert reference_image_meet_coord_dim(m, k) == k

    def test_nondecreasing_and_final_rank(self):
        rng = random.Random(23)
        for _ in range(30):
            m = random_ut(4, rng)
            vals = [reference_image_meet_coord_dim(m, k) for k in range(5)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))
            assert vals[-1] == rank(m)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reference_image_meet_coord_dim(DIAG011, 4)


class TestBReduce:
    def test_canonical_fixed_point(self):
        assert b_reduce(DIAG011) == DIAG011

    def test_invertible_to_identity(self):
        rng = random.Random(9)
        for _ in range(10):
            m = random_ut(4, rng, invertible=True)
            assert b_reduce(m) == Matrix.identity(QQ, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 20 - 1))
    def test_preserves_sw_table(self, seed):
        m = random_ut(4, random.Random(seed))
        reduced = b_reduce(m)
        assert sw_table(reduced) == sw_table(m)
        # partial permutation shape: 0/1 entries, one 1 per row and column
        ones = [
            (i, j)
            for i in range(4)
            for j in range(4)
            if reduced.data[i][j] != 0
        ]
        assert all(reduced.data[i][j] == 1 for i, j in ones)
        assert len({i for i, _ in ones}) == len(ones)
        assert len({j for _, j in ones}) == len(ones)
        assert b_reduce(reduced) == reduced

    def test_rejects_non_triangular(self):
        with pytest.raises(ValueError):
            b_reduce(Matrix.from_int_rows([[0, 0], [1, 0]]))

    def test_prime_field_reduction(self):
        rng = random.Random(17)
        field = GF(5)
        for _ in range(30):
            rows = [[rng.randrange(5) if j >= i else 0 for j in range(4)] for i in range(4)]
            m = Matrix(field, rows)
            reduced = b_reduce(m)
            assert sw_table(reduced) == sw_table(m)
            assert all(x in (0, 1) for row in reduced.data for x in row)


@pytest.mark.parametrize("field,draw", [f[1:] for f in KERNEL_FIELDS],
                         ids=[f[0] for f in KERNEL_FIELDS])
class TestPivotOnlyKernels:
    """The pivot-only kernels against the full sweeps they replaced."""

    def test_random_upper_triangular(self, field, draw):
        rng = random.Random(f"ut:{field}")
        for size in range(1, 8):
            for density in (0.3, 0.6, 1.0):
                for _ in range(6):
                    m = _draw_ut(field, draw, size, rng, density)
                    reduced = b_reduce(m)
                    assert reduced == reference_b_reduce(m)
                    ones = sum(1 for row in reduced.data for x in row if x)
                    assert rank(m) == reference_rank(m) == ones

    def test_borel_conjugates_of_partial_permutations(self, field, draw):
        # a partial permutation is its orbit's canonical form, so both
        # sweeps must give it back from any two-sided Borel conjugate
        rng = random.Random(f"borel:{field}")
        for size in range(1, 8):
            for _ in range(8):
                perm = _partial_permutation(field, size, rng)
                m = _invertible_ut(field, draw, size, rng) @ perm @ _invertible_ut(
                    field, draw, size, rng
                )
                assert b_reduce(m) == reference_b_reduce(m) == perm
                ones = sum(1 for row in perm.data for x in row if x)
                assert rank(m) == reference_rank(m) == ones

    def test_rank_deficient(self, field, draw):
        # products through a k-dimensional middle space have rank <= k, and
        # rank takes any shape, not only upper-triangular squares
        rng = random.Random(f"deficient:{field}")
        for rows in range(1, 8):
            for cols in range(1, 8):
                k = rng.randint(0, min(rows, cols) - 1)
                left = Matrix(field, [[draw(rng) for _ in range(k)] for _ in range(rows)])
                right = Matrix(field, [[draw(rng) for _ in range(cols)] for _ in range(k)])
                m = left @ right if k else Matrix.zeros(field, rows, cols)
                assert rank(m) == reference_rank(m) <= k
        for size in range(2, 8):
            for _ in range(6):
                m = _draw_ut(field, draw, size, rng, 0.7)
                rows = [list(row) for row in m.data]
                rows[rng.randrange(size)] = [field.zero] * size
                m = Matrix(field, rows)
                assert b_reduce(m) == reference_b_reduce(m)
                assert rank(m) == reference_rank(m) < size

    def test_matmul_against_row_by_column(self, field, draw):
        rng = random.Random(f"matmul:{field}")
        for size in range(1, 8):
            for density in (0.3, 1.0):
                a = _draw_ut(field, draw, size, rng, density)
                b = Matrix(field, [[draw(rng) for _ in range(size)] for _ in range(size)])
                assert a @ b == reference_matmul(a, b)
                assert b @ a == reference_matmul(b, a)


def _apply(field, rows, x):
    """The matrix with these rows times the vector x."""
    out = []
    for row in rows:
        acc = field.zero
        for y, z in zip(row, x):
            acc = field.add(acc, field.mul(y, z))
        out.append(acc)
    return out


def _product_rows(field, draw, rows, cols, k, rng):
    """A rows x cols matrix, as row lists, of rank at most k."""
    left = [[draw(rng) for _ in range(k)] for _ in range(rows)]
    right_cols = [[draw(rng) for _ in range(k)] for _ in range(cols)]
    return [[_apply(field, [row], col)[0] for col in right_cols] for row in left]


@pytest.mark.parametrize("field,draw", [f[1:] for f in KERNEL_FIELDS],
                         ids=[f[0] for f in KERNEL_FIELDS])
class TestSolveAndInverse:
    """solve_unique and inverse against the Gauss-Jordan elimination and the
    back-substitution they replaced, results and error messages alike."""

    def test_solve_unique(self, field, draw):
        rng = random.Random(f"solve:{field}")
        kinds = set()
        for rows in range(7):
            for cols in range(6):
                for _ in range(5):
                    a = _product_rows(field, draw, rows, cols, rng.randint(0, min(rows, cols)), rng)
                    columns = [[a[i][j] for i in range(rows)] for j in range(cols)]
                    if rng.random() < 0.5:
                        # consistent: the image of a random vector
                        target = _apply(field, a, [draw(rng) for _ in range(cols)])
                    else:
                        target = [draw(rng) for _ in range(rows)]
                    got = outcome(solve_unique, columns, target, field)
                    assert got == outcome(reference_solve_unique, columns, target, field)
                    kinds.add(got if isinstance(got, str) else "solved")
        assert kinds == {
            "solved",
            "ValueError: system is rank-deficient: solution not unique",
            "ValueError: system is inconsistent",
        }

    def test_inverse(self, field, draw):
        rng = random.Random(f"inverse:{field}")
        kinds = set()
        for size in range(1, 7):
            for _ in range(8):
                dense = Matrix(field, [[draw(rng) for _ in range(size)] for _ in range(size)])
                singular = Matrix(field, _product_rows(field, draw, size, size, size - 1, rng))
                ut = _draw_ut(field, draw, size, rng, 0.7)
                for m in (dense, singular, ut):
                    got = outcome(inverse, m)
                    assert got == outcome(reference_inverse, m)
                    kinds.add(got if isinstance(got, str) else "inverted")
                assert outcome(inverse, ut) == outcome(reference_inverse_upper_triangular, ut)
        assert kinds == {"inverted", "ValueError: matrix is singular"}
        for shape in ((2, 3), (3, 2)):
            m = Matrix.zeros(field, *shape)
            assert outcome(inverse, m) == outcome(reference_inverse, m)


class CountingGF5(GaloisField):
    """GF(5) that counts its multiplications."""

    def __init__(self):
        super().__init__(5)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


# a fixed dense invertible upper-triangular matrix over GF(5)
DENSE_UT7 = [[(i * j + i + 2 * j) % 4 + 1 if j >= i else 0 for j in range(7)] for i in range(7)]


def test_b_reduce_skips_work_that_cannot_move_a_pivot():
    # a deterministic operation count, not a timing: on upper-triangular
    # input no free row has a nonzero in a pivot column, so the sweep
    # scales and subtracts nothing
    field = CountingGF5()
    m = Matrix(field, DENSE_UT7)
    expected = reference_b_reduce(m)
    assert field.muls > 0
    field.muls = 0
    assert b_reduce(m) == expected
    assert field.muls == 0


def test_inverse_of_triangular_input_costs_a_back_substitution():
    # on an upper-triangular matrix the sweep of [m | I] eliminates nothing,
    # so the inverse costs about one back-substitution per column
    field = CountingGF5()
    m = Matrix(field, DENSE_UT7)
    expected = reference_inverse_upper_triangular(m)
    back = field.muls
    field.muls = 0
    assert inverse(m) == expected
    assert back == 196
    assert field.muls == 80


class TestHelpers:
    def test_inverse_upper_triangular(self):
        rng = random.Random(1)
        for _ in range(10):
            m = random_ut(4, rng, invertible=True)
            assert inverse(m) == reference_inverse_upper_triangular(m)
            assert m @ inverse(m) == Matrix.identity(QQ, 4)

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(9)], ids=repr)
    def test_inverse(self, field):
        rng = random.Random(2)

        def draw():
            return field.from_int(rng.randint(-2, 2)) if field is QQ else rng.randrange(field.q)

        found = 0
        while found < 10:
            m = Matrix(field, [[draw() for _ in range(4)] for _ in range(4)])
            if rank(m) < 4:
                with pytest.raises(ValueError):
                    inverse(m)
                continue
            found += 1
            assert m @ inverse(m) == Matrix.identity(field, 4) == inverse(m) @ m
        with pytest.raises(ValueError):
            inverse(Matrix.zeros(field, 2, 3))

    def test_solve_unique(self):
        cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        assert solve_unique(cols, [Fraction(3), Fraction(2)]) == [Fraction(1), Fraction(2)]
        with pytest.raises(ValueError):
            solve_unique([[Fraction(1), Fraction(2)]], [Fraction(1), Fraction(1)])
