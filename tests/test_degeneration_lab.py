import random
import re
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest

from gridorbits import (
    DEFAULT_QS,
    GF,
    DimEstimate,
    FitFailure,
    GridShape,
    InfeasibleSize,
    SolveFailure,
    assemble_canonical,
    e_grid,
    estimate_dim,
    euler_form,
    fit_dimension,
    flat_scan,
    full_dim_grid,
    hom_report,
    identity_tuple,
    make_point,
    orbit_nodes,
    point_counts,
    r_grid,
    rep_variety_count,
    subrep_count,
    target_dims,
    zero_tuple,
)
from gridorbits import degeneration_lab, fields, grid_quiver
from gridorbits.degeneration_lab import _degree_bound, _poly_trim
from gridorbits.exact_linalg import Matrix, inverse, rank, solve_unique
from gridorbits.fields import QQ, _poly_mul_mod
from gridorbits.subspaces import (
    chain_tests,
    column_chains,
    gaussian_binomial,
    in_span,
    subspaces,
)

from conftest import CANONICAL_15, count_calls
from reference_fit import reference_fit
from reference_hom_audit import (
    reference_coordinate_subreps,
    reference_hom_conditions,
    reference_hom_point_from_subrep,
    reference_values,
)
from reference_subspaces import reference_in_span

W231 = (2, 3, 1)


def reference_random_unimodular(size, rng):
    """A random integer matrix of determinant 1, as upper @ lower unitriangular."""
    upper = Matrix(QQ, [
        [Fraction(1) if i == j else (Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)) for j in range(size)]
        for i in range(size)
    ])
    lower = Matrix(QQ, [
        [Fraction(1) if i == j else (Fraction(rng.randint(-2, 2)) if j < i else Fraction(0)) for j in range(size)]
        for i in range(size)
    ])
    return upper @ lower


def reference_translate_point(shape, e, n_mats, g, rng):
    """Base change of the subrepresentation by random invertible matrices
    a in GL(e): (N, g) -> (a_t N a_s^-1, g_v a_v^-1), another exact point of
    the same Hom scheme."""
    a = {}
    a_inv = {}
    for i in range(1, shape.size + 1):
        for j in range(1, shape.n + 1):
            if e[i - 1][j - 1]:
                a[(i, j)] = reference_random_unimodular(e[i - 1][j - 1], rng)
                a_inv[(i, j)] = inverse(a[(i, j)])
    new_n = {(s, t): a[t] @ (mat @ a_inv[s]) for (s, t), mat in n_mats.items()}
    new_g = {v: mat @ a_inv[v] if v in a_inv else mat for v, mat in g.items()}
    return new_n, new_g


def reference_smallest_irreducible(p, k):
    """Smallest monic irreducible polynomial of degree k over F_p, in the
    order of base-p codes, by trial division by every monic polynomial of
    degree 1..k//2."""
    def polys(deg):
        for code in range(p ** deg):
            yield [code // p ** t % p for t in range(deg)] + [1]

    def divides(d, f):
        rem = list(f)
        while len(rem) >= len(d):
            lead = rem[-1]
            shift = len(rem) - len(d)
            for t in range(len(d)):
                rem[shift + t] = (rem[shift + t] - lead * d[t]) % p
            rem.pop()
        return not any(rem)

    return next(
        cand for cand in polys(k)
        if not any(divides(d, cand) for deg in range(1, k // 2 + 1) for d in polys(deg))
    )


def reference_lagrange(points):
    """Coefficients (ascending, Fractions) of the interpolating polynomial,
    by Lagrange's formula."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _yj) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for t, b in enumerate(basis):
            coeffs[t] += scale * b
    return _poly_trim(coeffs)


def reference_fit_dimension(counts, max_degree):
    """The holdout-validated fit, on :func:`reference_lagrange`."""
    pts = list(counts)
    for k in range(len(pts) - 1):
        coeffs = reference_lagrange(pts[: k + 1])
        if len(coeffs) - 1 > max_degree:
            break
        if any(c.denominator != 1 for c in coeffs):
            continue
        if all(sum(c * q ** d for d, c in enumerate(coeffs)) == y for q, y in pts[k + 1:]):
            ints = tuple(int(c) for c in coeffs)
            if any(c for _q, c in pts) and ints[-1] <= 0:
                continue
            return DimEstimate(len(ints) - 1, ints)
    raise FitFailure(
        f"no integer polynomial of degree <= {max_degree} fits {pts} with a holdout"
    )


def fit_outcome(fit, counts, max_degree):
    try:
        return fit(counts, max_degree)
    except FitFailure as exc:
        return f"FitFailure: {exc}"


def outcome(fit, counts, max_degree):
    """The fit's result, or the type and text of what it raised."""
    try:
        return fit(counts, max_degree)
    except (FitFailure, ValueError) as exc:
        return type(exc), str(exc)


class TestFields:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_field_axioms_exhaustive(self, q):
        f = GF(q)
        els = list(range(q))
        for a in els:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in els:
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.neg(b))
                for c in els:
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_base_p_encoding(self, q):
        # subspaces and every count read an element n as the base-p digits
        # of a polynomial over F_p, with the integers mod p as constants
        f = GF(q)
        p = f.p

        def digits(n):
            return [n // p ** i % p for i in range(f.k)]

        for a in range(q):
            for b in range(q):
                assert digits(f.add(a, b)) == [(x + y) % p for x, y in zip(digits(a), digits(b))]
        for n in range(-2 * q, 2 * q):
            assert f.from_int(n) == n % p

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49])
    def test_modulus_is_the_smallest_irreducible(self, q):
        # the field test picks the modulus trial division would
        f = GF(q)
        p, k = f.p, f.k
        mod_poly = reference_smallest_irreducible(p, k)

        def digits(n):
            return [n // p ** i % p for i in range(k)]

        def code(coeffs):
            return sum(c * p ** i for i, c in enumerate(coeffs))

        assert f._mul == [
            [code(_poly_mul_mod(digits(a), digits(b), mod_poly, p)) for b in range(q)]
            for a in range(q)
        ]

    def test_fraction_embedding(self):
        f = GF(7)
        assert f.from_fraction(Fraction(3, 2)) == f.mul(3, f.inv(2))
        with pytest.raises(ZeroDivisionError):
            GF(4).from_fraction(Fraction(1, 2))

    def test_rejects_non_prime_powers(self):
        from gridorbits import is_prime_power
        from gridorbits.fields import GaloisField

        assert not is_prime_power(6)
        with pytest.raises(ValueError):
            GaloisField(6)

    def test_refuses_q_past_the_cap_before_building(self, monkeypatch):
        assert fields.MAX_Q == 64 and GF(64).q == 64

        def no_factoring(q):
            raise AssertionError(f"{q} was factored")

        monkeypatch.setattr(fields, "_factor_prime_power", no_factoring)
        for build in (fields.GaloisField, GF):  # 67, the prime after the cap
            with pytest.raises(ValueError, match=r"^GF\(67\) is past the cap q <= 64"):
                build(67)


class TestSubspaces:
    @pytest.mark.parametrize("m,k,q", [(3, 1, 2), (3, 2, 3), (4, 2, 4), (4, 2, 5)])
    def test_census_matches_gaussian_binomial(self, m, k, q):
        assert len(subspaces(m, k, q)) == gaussian_binomial(m, k, q)

    def test_membership(self):
        f = GF(3)
        rows = ((1, 0, 2),)
        assert in_span(f, rows, (2, 0, 1))
        assert not in_span(f, rows, (1, 1, 0))

    @pytest.mark.parametrize("q,max_m", [(2, 4), (3, 4), (4, 3), (5, 3)])
    def test_span_test_matches_elimination(self, q, max_m):
        # every (subspace, vector) pair of F_q^m for m <= max_m
        f = GF(q)
        pairs = [
            (rows, v)
            for m in range(1, max_m + 1)
            for k in range(m + 1)
            for rows in subspaces(m, k, q)
            for v in product(range(q), repeat=m)
        ]
        wrong = [(rows, v) for rows, v in pairs if in_span(f, rows, v) != reference_in_span(f, rows, v)]
        assert wrong == []

    @pytest.mark.parametrize("q", [2, 3])
    def test_chain_count_is_the_gaussian_product(self, q):
        # each chain ending at level i - 1 in dimension d_(i-1) extends in
        # [i - d_(i-1), d_i - d_(i-1)]_q ways, in none when d drops
        for size in range(1, 5):
            for dims in product(*(range(i + 1) for i in range(1, size + 1))):
                expected, prev = 1, 0
                for i, d in enumerate(dims, start=1):
                    expected *= gaussian_binomial(i - prev, d - prev, q) if d >= prev else 0
                    prev = d
                assert len(column_chains(dims, q)) == expected, dims


def exhaustive_subrep_oracle(point, e, q):
    """Independent brute force: every tuple of subspaces, all conditions,
    with membership decided on the listed vectors of each span."""
    field = GF(q)
    shape = point.shape
    size = shape.size
    verts = [(i, j) for i in range(1, size + 1) for j in range(1, shape.n + 1)]
    choices = [subspaces(i, e[i - 1][j - 1], q) for (i, j) in verts]
    spans = {}

    def span(rows, width):
        # the q^k combinations of the RREF rows, as a set of vectors
        if (rows, width) not in spans:
            vecs = set()
            for coefs in product(range(q), repeat=len(rows)):
                v = [0] * width
                for c, row in zip(coefs, rows):
                    v = [field.add(x, field.mul(c, y)) for x, y in zip(v, row)]
                vecs.add(tuple(v))
            spans[(rows, width)] = vecs
        return spans[(rows, width)]

    maps_q = [
        [[field.from_fraction(x) for x in row] for row in m.data] for m in point.maps
    ]
    count = 0
    for pick in product(*choices):
        sub = dict(zip(verts, pick))
        ok = True
        for (i, j) in verts:
            if i < size and not all(
                tuple(u) + (0,) in span(sub[(i + 1, j)], i + 1) for u in sub[(i, j)]
            ):
                ok = False
                break
            if j < shape.n and ok:
                block = [row[:i] for row in maps_q[j - 1][:i]]
                for u in sub[(i, j)]:
                    img = tuple(_dotq(field, block[r], u) for r in range(i))
                    if img not in span(sub[(i, j + 1)], i):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            count += 1
    return count


def _dotq(field, row, u):
    acc = 0
    for a, b in zip(row, u):
        acc = field.add(acc, field.mul(a, b))
    return acc


class TestSubrepCount:
    def test_worked_example_against_oracle(self, shape2):
        e = target_dims(W231)
        pt = identity_tuple(shape2)
        assert subrep_count(pt, e, 2) == 9 == exhaustive_subrep_oracle(pt, e, 2)
        assert subrep_count(zero_tuple(shape2), e, 2) == 27

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_identity_orbit_counts(self, shape2, q):
        assert subrep_count(identity_tuple(shape2), target_dims(W231), q) == (q + 1) ** 2

    def test_full_grid_single_point(self, shape2):
        assert subrep_count(identity_tuple(shape2), full_dim_grid(shape2), 3) == 1

    def test_zero_grid_single_point(self, shape2):
        e = tuple(tuple(0 for _ in range(2)) for _ in range(3))
        assert subrep_count(identity_tuple(shape2), e, 3) == 1

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("w", [W231, (3, 1, 2), (3, 2, 1), (1, 3, 2), (2, 1, 3)],
                             ids=lambda w: "".join(map(str, w)))
    @pytest.mark.parametrize("orbit", sorted(CANONICAL_15))
    def test_canonical_orbits_against_oracle(self, shape2, orbit, w, q):
        e = target_dims(w)
        pt = make_point(shape2, [CANONICAL_15[orbit]])
        assert subrep_count(pt, e, q) == exhaustive_subrep_oracle(pt, e, q)

    def test_budget_guard(self, shape2):
        with pytest.raises(InfeasibleSize):
            subrep_count(identity_tuple(shape2), target_dims(W231), 5, budget=3)

    def test_budget_metered_before_any_chain_is_built(self, shape2, monkeypatch):
        e = target_dims(W231)
        tests = sum(chain_tests(tuple(e[i][j] for i in range(3)), 5) for j in range(2))
        assert subrep_count(identity_tuple(shape2), e, 5, budget=10 ** 6) == 36

        def built(*args):
            raise AssertionError("a chain was built before the budget check")

        monkeypatch.setattr(degeneration_lab, "column_chains", built)
        with pytest.raises(InfeasibleSize, match="^subspace enumeration budget exceeded$"):
            subrep_count(identity_tuple(shape2), e, 5, budget=tests - 1)

    def test_shared_chains_leave_every_count_unchanged(self, shape2):
        # the chains depend only on (column dims, q), so one dict shared by
        # every orbit of every w gives each point's own counts
        qs = (2, 3, 4, 5)
        chains = {}
        for w in permutations((1, 2, 3)):
            e = target_dims(w)
            for node in orbit_nodes(shape2):
                canon = assemble_canonical(node.decomposition)
                shared = point_counts(canon, e, qs, chains=chains)
                assert shared == tuple((q, subrep_count(canon, e, q)) for q in qs)
        col_dims = {tuple(row[j] for row in target_dims(w)) for w in permutations((1, 2, 3)) for j in range(2)}
        assert set(chains) == {(dims, q) for dims in col_dims for q in qs}

    def test_scan_builds_each_column_once(self, monkeypatch):
        built = []

        def counted(dims, q):
            built.append((dims, q))
            return column_chains(dims, q)

        monkeypatch.setattr(degeneration_lab, "column_chains", counted)
        flat_scan(W231)
        assert len(built) == 14 == 2 * len(DEFAULT_QS) == len(set(built))

    def test_shared_chains_keep_the_budget_refusals(self, shape2):
        # every (point, q) call meters the chain tests before it looks the
        # chains up, so a shared dict cannot let a call past the budget
        e = target_dims(W231)
        tests = sum(chain_tests(tuple(e[i][j] for i in range(3)), 2) for j in range(2))
        with pytest.raises(InfeasibleSize, match="^subspace enumeration budget exceeded$"):
            flat_scan(W231, budget=tests - 1)
        with pytest.raises(InfeasibleSize, match="^pair filtering budget exceeded$"):
            flat_scan(W231, budget=300)
        chains = {}
        assert subrep_count(identity_tuple(shape2), e, 2, chains=chains) == 9
        with pytest.raises(InfeasibleSize, match="^subspace enumeration budget exceeded$"):
            subrep_count(identity_tuple(shape2), e, 2, budget=tests - 1, chains=chains)

    @pytest.mark.parametrize("q", [2, 3])
    def test_chain_tests_closed_form(self, q):
        # level i tests every chain of the levels below against every
        # subspace of F_q^i of the level's dimension
        for size in range(1, 5):
            for dims in product(*[range(i + 1) for i in range(1, size + 1)]):
                made = sum(
                    len(column_chains(dims[: i - 1], q)) * len(subspaces(i, dims[i - 1], q))
                    for i in range(1, size + 1)
                )
                assert chain_tests(dims, q) == made

    def test_shape_guard(self):
        shape = GridShape(4)
        with pytest.raises(InfeasibleSize):
            subrep_count(identity_tuple(shape), full_dim_grid(shape), 2)


class TestEstimateDim:
    def test_worked_example(self, shape2):
        est = estimate_dim(identity_tuple(shape2), target_dims(W231), (2, 3, 5, 7))
        assert est.degree == 2
        assert est.coefficients == (1, 2, 1)

    def test_zero_orbit_product_of_flags(self, shape2):
        est = estimate_dim(zero_tuple(shape2), target_dims(W231), (2, 3, 4, 5, 7))
        assert est.degree == 3
        assert est.coefficients == (1, 3, 3, 1)

    def test_trivial_grid(self, shape2):
        e = tuple(tuple(0 for _ in range(2)) for _ in range(3))
        est = estimate_dim(identity_tuple(shape2), e, (2, 3, 5))
        assert est.degree == 0 and est.coefficients == (1,)

    def test_requires_three_fields(self, shape2):
        with pytest.raises(ValueError):
            estimate_dim(identity_tuple(shape2), target_dims(W231), (2, 3))

    def test_fit_failure(self):
        with pytest.raises(FitFailure):
            fit_dimension(((2, 1), (3, 2), (5, 4), (7, 8)), max_degree=1)

    def test_fit_requires_holdout(self):
        # degree-2 series with exactly 3 points has no holdout left
        with pytest.raises(FitFailure):
            fit_dimension(((2, 9), (3, 16), (5, 36)), max_degree=2)

    def test_repeated_field_size_refused(self):
        with pytest.raises(ValueError, match="field size q = 2 is repeated"):
            fit_dimension(((2, 1), (2, 1), (3, 2), (4, 3)), 3)
        with pytest.raises(ValueError, match="field size q = 2 is repeated"):
            flat_scan((2, 3, 1), qs=(2, 2, 3, 4, 5))

    def test_vandermonde_solve_matches_lagrange(self):
        rng = random.Random(8)
        for _ in range(300):
            xs = rng.sample(range(-6, 12), rng.randint(1, 7))
            pts = [(x, Fraction(rng.randint(-20, 20), rng.randint(1, 4))) for x in xs]
            vandermonde = [[Fraction(x) ** d for x in xs] for d in range(len(xs))]
            got = _poly_trim(solve_unique(vandermonde, [y for _x, y in pts]))
            assert got == reference_lagrange(pts)

    def test_fit_matches_lagrange_fit(self):
        rng = random.Random(9)
        kinds = set()
        for _ in range(300):
            qs = rng.sample([2, 3, 4, 5, 7, 8, 9, 11], rng.randint(3, 7))
            poly = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
            counts = [(q, sum(c * q ** d for d, c in enumerate(poly))) for q in qs]
            if rng.random() < 0.3:
                t = rng.randrange(len(counts))
                counts[t] = (counts[t][0], counts[t][1] + rng.choice([-1, 1]))
            max_degree = rng.randint(0, 5)
            got = fit_outcome(fit_dimension, counts, max_degree)
            assert got == fit_outcome(reference_fit_dimension, counts, max_degree)
            kinds.add(type(got))
        assert kinds == {DimEstimate, str}

    @pytest.mark.parametrize("w", [(2, 3, 1), (3, 1, 2), (3, 2, 1)])
    def test_fit_decides_as_the_full_prefix_loop_on_scan_tables(self, w):
        # every prefix of every scan table, under every degree bound up to
        # the scan's own
        shape = GridShape(2)
        bound = _degree_bound(shape, target_dims(w))
        for row in flat_scan(w).rows:
            for size in range(len(row.counts) + 1):
                table = row.counts[:size]
                for max_degree in range(bound + 1):
                    want = outcome(reference_fit, table, max_degree)
                    assert outcome(fit_dimension, table, max_degree) == want

    def test_fit_decides_as_the_full_prefix_loop_on_random_tables(self):
        rng = random.Random(21)
        kinds = set()
        for _ in range(3000):
            qs = rng.sample([2, 3, 4, 5, 7, 8, 9, 11], rng.randint(1, 7))
            if rng.random() < 0.05:
                qs.append(rng.choice(qs))
            den = rng.choice([1, 1, 1, 2, 3])
            poly = [Fraction(rng.randint(-4, 4), den) for _ in range(rng.randint(1, 5))]
            counts = [(q, sum(c * q ** d for d, c in enumerate(poly))) for q in qs]
            if rng.random() < 0.3:
                t = rng.randrange(len(counts))
                counts[t] = (counts[t][0], counts[t][1] + rng.choice([-1, 1]))
            max_degree = rng.randint(0, 5)
            want = outcome(reference_fit, counts, max_degree)
            assert outcome(fit_dimension, counts, max_degree) == want
            kinds.add(want[0] if isinstance(want, tuple) else type(want))
        assert kinds == {DimEstimate, FitFailure, ValueError}


class TestEulerForm:
    def test_worked_value(self, shape2):
        e = target_dims(W231)
        d = full_dim_grid(shape2)
        dme = tuple(tuple(d[i][j] - e[i][j] for j in range(2)) for i in range(3))
        assert euler_form(e, dme) == 2

    def test_zero_left(self, shape2):
        z = tuple(tuple(0 for _ in range(2)) for _ in range(3))
        assert euler_form(z, full_dim_grid(shape2)) == 0

    def test_zero_right(self, shape2):
        d = full_dim_grid(shape2)
        z = tuple(tuple(0 for _ in range(2)) for _ in range(3))
        assert euler_form(d, z) == 0

    def test_refuses_all_but_two_grids_of_one_shape(self, shape2):
        # zip would drop the longer grid's extra row or cell without a word,
        # and a grid that is not (n+1) x n would be read only in part
        a = full_dim_grid(shape2)
        for b in (a + ((9, 9),), a[:2], ((1, 1), (2,), (3, 3))):
            for x, y in ((a, b), (b, a)):
                message = f"euler_form needs two (n+1) x n grids, got row lengths {tuple(map(len, x))} and {tuple(map(len, y))}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    euler_form(x, y)
        for c in (a + ((1, 1),), ((1, 1, 1), (1, 1, 1))):  # 4 x 2 and 2 x 3
            with pytest.raises(ValueError, match="^euler_form needs two"):
                euler_form(c, c)


def brute_force_rep_count(shape, e, q):
    """Independent brute force: every tuple of arrow matrices over F_q,
    with each square's relation v2·h1 = h2·v1 checked entry by entry."""
    field = GF(q)

    def dim(v):
        return e[v[0] - 1][v[1] - 1]

    arrows = [((i, j), (i, j + 1)) for i in range(1, shape.size + 1) for j in range(1, shape.n)]
    arrows += [((i, j), (i + 1, j)) for i in range(1, shape.size) for j in range(1, shape.n + 1)]
    entries = [(a, r, c) for a in arrows for r in range(dim(a[1])) for c in range(dim(a[0]))]
    relations = [
        ((((i, j + 1), (i + 1, j + 1)), ((i, j), (i, j + 1))),
         (((i + 1, j), (i + 1, j + 1)), ((i, j), (i + 1, j))), r, c)
        for i in range(1, shape.size)
        for j in range(1, shape.n)
        for r in range(dim((i + 1, j + 1)))
        for c in range(dim((i, j)))
    ]

    def entry_of_product(m, second, first, r, c):
        acc = field.zero
        for t in range(dim(first[1])):
            acc = field.add(acc, field.mul(m[(second, r, t)], m[(first, t, c)]))
        return acc

    count = 0
    for values in product(range(q), repeat=len(entries)):
        m = dict(zip(entries, values))
        if all(
            entry_of_product(m, *right_down, r, c) == entry_of_product(m, *down_right, r, c)
            for right_down, down_right, r, c in relations
        ):
            count += 1
    return count


def _oracle_cases(limit=10 ** 5):
    """Every distinct grid among target_dims, r_grid and e_grid of the
    permutations of sizes 3 and 4, at q = 2, 3, where q^nvars <= limit."""
    grids = sorted(
        {
            (len(w), grid(w))
            for size in (3, 4)
            for w in permutations(range(1, size + 1))
            for grid in (target_dims, r_grid, e_grid)
        }
    )
    cases = []
    for size, e in grids:
        nvars = sum(
            e[i][j] * (e[i][j + 1] if j + 1 < size - 1 else 0)
            + e[i][j] * (e[i + 1][j] if i + 1 < size else 0)
            for i in range(size)
            for j in range(size - 1)
        )
        cases.extend((size, e, q) for q in (2, 3) if q ** nvars <= limit)
    return cases


class TestRepVarietyCount:
    @pytest.mark.parametrize("q", DEFAULT_QS)
    def test_published_grid_counts(self, shape2, q):
        # two bilinear relations on six coordinates: 2q^4 - q^2 points
        assert rep_variety_count(shape2, target_dims(W231), q) == 2 * q ** 4 - q ** 2

    @pytest.mark.parametrize("size,e,q", _oracle_cases())
    def test_linear_fibres_match_brute_force(self, size, e, q):
        shape = GridShape(size - 1)
        assert rep_variety_count(shape, e, q) == brute_force_rep_count(shape, e, q)

    def test_oracle_cases(self):
        assert len(_oracle_cases()) == 16

    def test_budget(self, shape2):
        with pytest.raises(InfeasibleSize):
            rep_variety_count(shape2, target_dims(W231), 9, budget=10)

    def test_budget_bounds_all_arrow_entries(self, shape2):
        # 5^3 = 125 horizontal tuples fit the budget, but 5^6 arrow tuples
        # do not: the budget meters q^nvars over every arrow entry
        with pytest.raises(InfeasibleSize, match=r"q\^6 candidate points"):
            rep_variety_count(shape2, target_dims(W231), 5, budget=1000)

    def test_budget_refused_before_the_field_is_built(self, shape2, monkeypatch):
        # 9^6 exceeds the budget, which is refused before GF(9) is built
        def built(q):
            raise AssertionError(f"GF({q}) was built before the budget check")

        monkeypatch.setattr(degeneration_lab, "GF", built)
        with pytest.raises(InfeasibleSize, match=r"^representation variety has q\^6 candidate points$"):
            rep_variety_count(shape2, target_dims(W231), 9, budget=10)

    def test_dimension_grid_checked_first(self, shape2, monkeypatch):
        # the rule of subrep_count: a grid of the wrong shape or with an
        # entry out of range is refused before it is metered or counted
        def built(q):
            raise AssertionError(f"GF({q}) was built before the grid was checked")

        monkeypatch.setattr(degeneration_lab, "GF", built)
        with pytest.raises(ValueError, match="^dimension grid has the wrong shape$"):
            rep_variety_count(shape2, ((1,),), 2)
        fives = ((5, 5), (5, 5), (5, 5))  # would meter q^175 arrow tuples
        with pytest.raises(ValueError, match=r"^dimension grid entry \(1,1\) out of range$"):
            rep_variety_count(shape2, fives, 2)

    def test_field_rule_checked_before_the_field_is_built(self, shape2, monkeypatch):
        # the rule of subrep_count: GF(256)'s tables take seconds to build,
        # and the zero grid meters q^0 = 1, so no budget refuses q = 11
        def built(q):
            raise AssertionError(f"GF({q}) was built before the field rule")

        monkeypatch.setattr(degeneration_lab, "GF", built)
        zero = ((0, 0), (0, 0), (0, 0))
        for e, q in ((target_dims(W231), 256), (zero, 11)):
            with pytest.raises(ValueError, match=f"^q must be a prime power <= 9, got {q}$"):
                rep_variety_count(shape2, e, q)


class TestFlatScan:
    def test_identity_permutation_trivial(self):
        res = flat_scan((1, 2, 3), qs=(2, 3, 5))
        assert all(r.estimate.degree == 0 and r.flat_candidate for r in res.rows)
        assert res.upward_closed

    def test_worked_permutation(self):
        res = flat_scan(W231, qs=(2, 3, 4, 5, 7))
        assert res.target_dim == 2
        by_dec = {str(r.decomposition): r for r in res.rows}
        identity_row = by_dec["U(1,1)+U(2,2)+U(3,3)"]
        assert identity_row.flat_candidate and identity_row.estimate.degree == 2
        zero_row = by_dec["U(0,1)+U(0,2)+U(0,3)+U(1,0)+U(2,0)+U(3,0)"]
        assert zero_row.estimate.degree == 3 and not zero_row.flat_candidate
        assert sum(r.flat_candidate for r in res.rows) == 11
        assert res.upward_closed
        bound = 2
        assert all(r.estimate.degree >= bound for r in res.rows)

    def test_scan_builds_no_poset(self, monkeypatch):
        # the scan orders its own arrays; building the poset as well would
        # repeat the census and its covers for every scan
        from gridorbits import orbit_poset

        original = orbit_poset.build_poset

        def refused(shape):
            raise AssertionError("flat_scan built the poset")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gridorbits" and getattr(module, "build_poset", None) is original:
                monkeypatch.setattr(module, "build_poset", refused)
        res = flat_scan(W231, qs=(2, 3, 4, 5, 7))
        assert len(res.rows) == 15 and res.upward_closed

    def test_scan_counts_on_the_nodes_matchings(self, shape2, monkeypatch):
        # each orbit is counted on the rook point of its node's matchings,
        # with the rows that counting on assemble_canonical gave
        qs = (2, 3, 4, 5, 7)
        e = target_dims(W231)
        want = []
        for node in orbit_nodes(shape2):
            counts = point_counts(assemble_canonical(node.decomposition), e, qs)
            want.append((node.id, node.decomposition, counts, fit_dimension(counts, _degree_bound(shape2, e))))
        calls = count_calls(monkeypatch, [(grid_quiver, "assemble_canonical")])
        res = flat_scan(W231, qs=qs)
        assert calls == {"assemble_canonical": 0}
        assert [(r.orbit_id, r.decomposition, r.counts, r.estimate) for r in res.rows] == want


class TestOrbitInvariance:
    # counts over F_q see only the reduction mod q, so invariance is stated
    # for base changes that stay invertible over the integers; a rational
    # point with entries divisible by q reduces into a smaller orbit and
    # genuinely counts differently
    def test_counts_constant_under_unimodular_base_change(self, shape2, rng):
        from gridorbits import borel_act, enumerate_orbits, assemble_canonical
        from conftest import random_unimodular_ut

        e = target_dims(W231)
        for dec in enumerate_orbits(shape2)[:6]:
            canon = assemble_canonical(dec)
            hs = [random_unimodular_ut(3, rng) for _ in range(2)]
            moved = borel_act(canon, hs)
            for q in (2, 3, 5):
                assert subrep_count(moved, e, q) == subrep_count(canon, e, q)

    def test_estimate_matches_canonical_form(self, shape2, rng):
        from gridorbits import borel_act, identity_tuple
        from conftest import random_unimodular_ut

        e = target_dims(W231)
        moved = borel_act(identity_tuple(shape2), [random_unimodular_ut(3, rng) for _ in range(2)])
        est = estimate_dim(moved, e, (2, 3, 5, 7))
        assert est.degree == 2 and est.coefficients == (1, 2, 1)


class TestCoordinateSubreps:
    def test_count_is_the_fit_at_one(self, shape2):
        # the torus-fixed points of a fibre number P(1), P the fitted
        # counting polynomial; the stream is not capped
        from gridorbits.degeneration_lab import _arrow_maps, _coordinate_subreps

        maps = {node.id: _arrow_maps(shape2, node.matchings) for node in orbit_nodes(shape2)}
        for w in permutations((1, 2, 3)):
            e = target_dims(w)
            for row in flat_scan(w).rows:
                fixed = sum(1 for _ in _coordinate_subreps(shape2, maps[row.orbit_id], e))
                assert sum(row.estimate.coefficients) == fixed


class TestHomAuditOracle:
    # the audit reads the canonical point's matchings; the dense path of
    # reference_hom_audit builds one Matrix per arrow from its rook point.
    # Both must give the same equations, the same stream of coordinate
    # subrepresentations in the same order and the same x at each of them:
    # on every (w, orbit) pair at n = 2, and at n = 3 on every 211th orbit
    # for all 24 w
    @pytest.mark.parametrize("n,step,pairs,points", [(2, 1, 90, 358), (3, 211, 312, 7972)])
    def test_matches_the_dense_path(self, n, step, pairs, points):
        from gridorbits.degeneration_lab import (
            _arrow_maps,
            _base_point,
            _coordinate_subreps,
            _hom_conditions,
            _unknowns,
        )

        shape = GridShape(n)
        nodes = list(orbit_nodes(shape))[::step]
        seen = [0, 0]
        for w in permutations(range(1, n + 2)):
            e = target_dims(w)
            arrows, frames = _unknowns(shape, e)
            keys = arrows + frames
            index = {key: pos for pos, key in enumerate(keys)}
            for node in nodes:
                canon = grid_quiver.rook_point(shape, node.matchings)
                maps = _arrow_maps(shape, node.matchings)
                assert _hom_conditions(shape, maps, e, index) == reference_hom_conditions(canon, e, index)
                stream = list(_coordinate_subreps(shape, maps, e))
                assert stream == list(reference_coordinate_subreps(canon, e))
                for assign in stream:
                    want = reference_values(keys, *reference_hom_point_from_subrep(canon, e, assign))
                    assert _base_point(maps, arrows, frames, assign) == want
                seen[0] += 1
                seen[1] += len(stream)
        assert seen == [pairs, points]


class TestHomReport:
    def test_worked_example(self, shape2):
        rep = hom_report(W231, identity_tuple(shape2), qs=(2, 3, 4, 5, 7, 8))
        assert (
            rep.dim_G,
            rep.dim_Gr,
            rep.dim_Hom0,
            rep.dim_V,
            rep.dim_Re,
            rep.codim,
            rep.indep_eqs,
            rep.lci,
        ) == (7, 2, 9, 17, 4, 8, 8, True)
        assert len(rep.per_point_ranks) >= 5

    def test_arrow_maps_made_once_per_report(self, shape2, monkeypatch):
        # the Hom conditions, the fixed-point stream and every base point
        # read one arrow -> cells map
        from gridorbits import degeneration_lab

        calls = count_calls(monkeypatch, [(degeneration_lab, "_arrow_maps")])
        hom_report(W231, identity_tuple(shape2), qs=(2, 3, 4, 5, 7, 8))
        assert calls == {"_arrow_maps": 1}

    def test_zero_orbit_recorded(self, shape2):
        rep = hom_report(W231, zero_tuple(shape2), qs=(2, 3, 4, 5, 7, 8))
        assert rep.dim_G == 7 and rep.dim_V == 17
        assert rep.dim_Hom0 == rep.dim_Gr + rep.dim_G
        assert rep.codim == rep.dim_V - rep.dim_Hom0
        assert rep.lci == (rep.indep_eqs == rep.codim)

    def test_refuses_rep_variety_before_counting_the_fibre(self, monkeypatch):
        from gridorbits import degeneration_lab

        def fibre_count(*args, **kwargs):
            raise AssertionError("the fibre was counted before the budget refusal")

        monkeypatch.setattr(degeneration_lab, "subrep_count", fibre_count)
        with pytest.raises(InfeasibleSize, match=r"q\^32 candidate points"):
            hom_report((2, 3, 4, 1), identity_tuple(GridShape(3)))

    @pytest.mark.parametrize("w,qs,budget,nvars", [
        ((3, 4, 2, 1), DEFAULT_QS, 10 ** 9, 16),
        ((4, 3, 1, 2), DEFAULT_QS, 10 ** 9, 13),
        (W231, (2, 3, 4, 5), 1000, 6),
    ])
    def test_over_budget_schedule_refused_before_any_count(self, w, qs, budget, nvars, monkeypatch):
        # the budget is checked at the largest q, so no smaller q is
        # counted first only for the schedule to be refused later
        def counted(*args, **kwargs):
            raise AssertionError("counted before the budget was checked")

        monkeypatch.setattr(degeneration_lab, "rep_variety_count", counted)
        monkeypatch.setattr(degeneration_lab, "subrep_count", counted)
        point = identity_tuple(GridShape(len(w) - 1))
        with pytest.raises(InfeasibleSize, match=rf"^representation variety has q\^{nvars} candidate points$"):
            hom_report(w, point, qs=qs, budget=budget)

    def test_point_without_thin_decomposition_refused_before_any_count(self, monkeypatch):
        # the README witness (E24 + E33, E11 + E13) has no canonical
        # representative, so decompose refuses it before anything is counted
        def counted(*args, **kwargs):
            raise AssertionError("counted before the decomposition was refused")

        monkeypatch.setattr(degeneration_lab, "rep_variety_count", counted)
        monkeypatch.setattr(degeneration_lab, "subrep_count", counted)
        witness = make_point(GridShape(3), [
            [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0]],
            [[1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        ])
        with pytest.raises(SolveFailure, match="^no multiset of thin summands reproduces the rank vector"):
            hom_report((2, 3, 4, 1), witness)

    def test_field_sizes_checked_before_any_count(self, shape2, monkeypatch):
        def counted(*args, **kwargs):
            raise AssertionError("counted before the field sizes were checked")

        monkeypatch.setattr(degeneration_lab, "rep_variety_count", counted)
        monkeypatch.setattr(degeneration_lab, "column_chains", counted)
        message = "^q must be a prime power <= 9, got 49$"
        with pytest.raises(ValueError, match=message):
            hom_report(W231, identity_tuple(shape2), qs=(2, 49))
        with pytest.raises(ValueError, match=message):
            flat_scan(W231, qs=(2, 49))
        with pytest.raises(ValueError, match=message):
            subrep_count(identity_tuple(shape2), target_dims(W231), 49)

    def test_short_schedule_refused_before_any_count(self, shape2, monkeypatch):
        # a fit with a holdout needs three field sizes, so nothing is counted
        def counted(*args, **kwargs):
            raise AssertionError("counted before the schedule was checked")

        monkeypatch.setattr(degeneration_lab, "rep_variety_count", counted)
        monkeypatch.setattr(degeneration_lab, "subrep_count", counted)
        message = "^need at least 3 distinct field sizes$"
        with pytest.raises(ValueError, match=message):
            hom_report(W231, identity_tuple(shape2), qs=(2, 3))
        with pytest.raises(ValueError, match=message):
            flat_scan(W231, qs=(8, 9))
        with pytest.raises(ValueError, match=message):
            estimate_dim(identity_tuple(shape2), target_dims(W231), (2, 3))
        with pytest.raises(ValueError, match="^field size q = 2 is repeated$"):
            flat_scan(W231, qs=(2, 3, 2, 4))

    @pytest.mark.parametrize("w", [(2, 3, 1), (3, 1, 2), (3, 2, 1), (2, 1, 3), (1, 2, 3)])
    def test_jacobian_is_the_derivative(self, shape2, w):
        # every equation is affine in each single unknown, so a unit step
        # changes the residuals by exactly the Jacobian's column
        from gridorbits.decomposition import thin_matchings
        from gridorbits.degeneration_lab import (
            _arrow_maps,
            _coordinate_subreps,
            _hom_conditions,
            _jacobian,
            _residuals,
            _square_relations,
            _unknowns,
        )
        from gridorbits.parametrizations import sw_array

        e = target_dims(w)
        nodes = list(orbit_nodes(shape2))
        points = [thin_matchings(sw_array(p)) for p in (identity_tuple(shape2), zero_tuple(shape2))]
        points += [nodes[k - 1].matchings for k in (3, 7, 11)]
        checked = 0
        for matchings in points:
            canon = grid_quiver.rook_point(shape2, matchings)
            arrows, frames = _unknowns(shape2, e)
            keys = arrows + frames
            index = {key: pos for pos, key in enumerate(keys)}
            maps = _arrow_maps(shape2, matchings)
            equations = _hom_conditions(shape2, maps, e, index) + _square_relations(shape2, e, index)
            rng = random.Random(0)
            for assign in _coordinate_subreps(shape2, maps, e):
                n_mats, g = reference_hom_point_from_subrep(canon, e, assign)
                # the translate is a dense point, off the coordinate base points
                for x in (
                    reference_values(keys, n_mats, g),
                    reference_values(keys, *reference_translate_point(shape2, e, n_mats, g, rng)),
                ):
                    base = _residuals(equations, x)
                    assert not any(base)
                    jac = _jacobian(equations, x)
                    for v in range(len(x)):
                        step = list(x)
                        step[v] += 1
                        diff = [s - b for s, b in zip(_residuals(equations, step), base)]
                        assert diff == [row[v] for row in jac]
                    checked += 1
        assert checked

    def test_ranks_constant_on_gl_e_orbits(self, shape2):
        # the audit ranks each coordinate base point once; a GL(e) base change
        # of (N, g) is a linear automorphism of the unknowns, so neither rank
        # may move: checked on every w of size 3, orbit and coordinate
        # subrepresentation at n = 2, the ninth of w = 321's zero orbit too
        from gridorbits.degeneration_lab import (
            _arrow_maps,
            _coordinate_subreps,
            _hom_conditions,
            _jacobian,
            _residuals,
            _square_relations,
            _unknowns,
        )

        def ranks(equations, split, x):
            assert not any(_residuals(equations, x))
            jac = _jacobian(equations, x)
            return rank(Matrix(QQ, jac)), rank(Matrix(QQ, jac[split:]))

        translates = 0
        for w in permutations((1, 2, 3)):
            e = target_dims(w)
            arrows, frames = _unknowns(shape2, e)
            keys = arrows + frames
            index = {key: pos for pos, key in enumerate(keys)}
            for node in orbit_nodes(shape2):
                canon = grid_quiver.rook_point(shape2, node.matchings)
                maps = _arrow_maps(shape2, node.matchings)
                hom = _hom_conditions(shape2, maps, e, index)
                equations = hom + _square_relations(shape2, e, index)
                for assign in _coordinate_subreps(shape2, maps, e):
                    n_mats, g = reference_hom_point_from_subrep(canon, e, assign)
                    base = ranks(equations, len(hom), reference_values(keys, n_mats, g))
                    for seed in range(6):
                        moved = reference_translate_point(shape2, e, n_mats, g, random.Random(seed))
                        assert ranks(equations, len(hom), reference_values(keys, *moved)) == base
                        translates += 1
        assert translates == 2148
