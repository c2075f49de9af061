import random

import pytest

from gridorbits import (
    GF,
    QQ,
    GridShape,
    InvalidTable,
    Matrix,
    Order,
    ReconstructInvalid,
    SWArray,
    assemble_canonical,
    borel_act,
    compare,
    degenerates,
    enumerate_orbits,
    make_point,
    pivots,
    rank_vector,
    reconstruct,
    same_orbit,
    same_rank_vector,
    sw_array,
    sw_table,
    validate_array_inequalities,
    zero_tuple,
)
from gridorbits.exact_linalg import (
    compose_window,
    image_meet_coord_dim,
    principal_block,
    sw_rank,
)
from gridorbits.grid_quiver import matchings_to_decomposition, windows
from gridorbits.orbit_poset import order_matchings

from conftest import random_borel, random_point, random_unimodular_ut, random_ut


@pytest.fixture
def single_one_12(shape2):
    return make_point(shape2, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])


@pytest.fixture
def single_one_11(shape2):
    return make_point(shape2, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]])


class TestSwArray:
    def test_worked_example(self, diag011):
        assert sw_array(diag011).tables[0] == ((0, 1, 2), (1, 2), (1,))

    def test_relation_example(self, single_one_12):
        assert sw_array(single_one_12).tables[0] == ((0, 1, 1), (0, 0), (0,))

    def test_zero(self, shape2):
        assert sw_array(zero_tuple(shape2)).tables[0] == ((0, 0, 0), (0, 0), (0,))


class TestSameOrbit:
    def test_borel_translates(self, rng, shape2):
        f = random_point(shape2, rng)
        assert same_orbit(f, borel_act(f, random_borel(shape2, rng)))

    def test_distinct_ranks(self, diag011, single_one_12):
        assert not same_orbit(diag011, single_one_12)

    def test_distinct_representatives(self, paper_points):
        assert not same_orbit(paper_points[9], paper_points[10])


class TestDegenerates:
    def test_worked_direction(self, diag011, single_one_12):
        # the rank-1 point lies in the closure of the rank-2 orbit
        assert degenerates(diag011, single_one_12)
        assert not degenerates(single_one_12, diag011)

    def test_incomparable(self, diag011, single_one_11):
        assert not degenerates(diag011, single_one_11)
        assert not degenerates(single_one_11, diag011)

    def test_reflexive(self, diag011):
        assert degenerates(diag011, diag011)

    def test_compare_enum(self, diag011, single_one_12, single_one_11):
        a, b, c = sw_array(diag011), sw_array(single_one_12), sw_array(single_one_11)
        assert compare(a, a) is Order.EQ
        assert compare(b, a) is Order.LT
        assert compare(a, b) is Order.GT
        assert compare(a, c) is Order.INCOMPARABLE


class TestPivots:
    def test_worked_example(self, diag011):
        assert pivots(sw_array(diag011).tables[0]) == {(2, 2), (3, 3)}

    def test_zero_table(self):
        assert pivots(((0, 0, 0), (0, 0), (0,))) == set()

    def test_identity_table(self):
        table = ((1, 2, 3), (1, 2), (1,))
        assert pivots(table) == {(1, 1), (2, 2), (3, 3)}

    def test_invalid_double_difference(self):
        with pytest.raises(InvalidTable):
            pivots(((2, 2, 2), (0, 0), (0,)))


class TestReconstruct:
    @pytest.mark.parametrize("n", [2])
    def test_round_trip_all_orbits(self, n):
        from gridorbits import GridShape

        for dec in enumerate_orbits(GridShape(n)):
            pt = assemble_canonical(dec)
            assert reconstruct(sw_array(pt)) == pt

    def test_worked_example(self, shape2, diag011):
        assert reconstruct(sw_array(diag011)) == diag011

    def test_composite_rank_exceeding_factors(self, shape3, pair_n3):
        arr = sw_array(pair_n3)
        # claim full rank on the composite window while the factors stay small
        tables = list(arr.tables)
        tables[1] = ((1, 2, 3, 4), (1, 2, 3), (1, 2), (1,))  # window (1,2)
        bad = SWArray(shape3, tuple(tables))
        with pytest.raises(ReconstructInvalid):
            reconstruct(bad)
        ok, violations = validate_array_inequalities(bad)
        assert not ok and violations


class TestValidateArrayInequalities:
    def test_all_orbit_arrays_pass(self, shape2):
        for dec in enumerate_orbits(shape2):
            ok, violations = validate_array_inequalities(sw_array(assemble_canonical(dec)))
            assert ok, violations

    def test_column_jump_of_two(self, shape2):
        bad = SWArray(shape2, (((2, 2, 2), (0, 0), (0,)),))
        ok, violations = validate_array_inequalities(bad)
        assert not ok
        assert violations

    def test_size_bound(self, shape2):
        ok, violations = validate_array_inequalities(SWArray(shape2, (((1, 2, 3), (1, 3), (1,)),)))
        assert not ok


class TestParametrisationEquivalence:
    @pytest.mark.parametrize("n", [2, 3])
    def test_equality_agreement_on_samples(self, n, rng):
        from gridorbits import GridShape

        shape = GridShape(n)
        pts = [random_point(shape, rng) for _ in range(12)]
        pts += [borel_act(p, random_borel(shape, rng)) for p in pts[:6]]
        for a in pts:
            rva, swa = rank_vector(a), sw_array(a)
            for b in pts:
                assert same_rank_vector(rva, rank_vector(b)) == (swa == sw_array(b))


def _over(field, m):
    """A rational matrix with integer entries, read over ``field``."""
    return Matrix(field, [[field.from_fraction(x) for x in row] for row in m.data])


def _kernel_points(n, field):
    """Random points, their Borel conjugates, and Borel conjugates of
    canonical points (which have low, structured ranks) over ``field``."""
    rng = random.Random(f"one-pass-kernel:{n}:{field!r}")
    shape = GridShape(n)
    matchings = order_matchings(shape.size)

    def conjugate(pt):
        hs = [_over(field, random_unimodular_ut(shape.size, rng)) for _ in range(n)]
        return borel_act(pt, hs)

    out = []
    for _ in range(2):
        pt = make_point(shape, [_over(field, random_ut(shape.size, rng)) for _ in range(n - 1)])
        dec = matchings_to_decomposition(shape, [rng.choice(matchings) for _ in range(n - 1)])
        canon = make_point(shape, [_over(field, m) for m in assemble_canonical(dec).maps])
        out += [pt, conjugate(pt), conjugate(canon)]
    return out


KERNEL_CASES = [
    pytest.param(n, field, id=f"n{n}-{field!r}") for n in range(2, 7) for field in (QQ, GF(2))
]


class TestOnePassKernel:
    """The one-reduction kernels against their definitions: per-cell
    south-west ranks, and rank-vector entries from principal blocks."""

    @pytest.mark.parametrize("n,field", KERNEL_CASES)
    def test_sw_table_matches_per_cell_ranks(self, n, field):
        for pt in _kernel_points(n, field):
            size = pt.shape.size
            for j1, j2 in windows(pt.shape):
                comp = compose_window(list(pt.maps), j1, j2)
                per_cell = tuple(
                    tuple(sw_rank(comp, p, q) for q in range(p, size + 1))
                    for p in range(1, size + 1)
                )
                assert sw_table(comp) == per_cell

    @pytest.mark.parametrize("n,field", KERNEL_CASES)
    def test_rank_vector_matches_definition(self, n, field):
        for pt in _kernel_points(n, field):
            entries = []
            for j1, j2 in windows(pt.shape):
                comp = compose_window(list(pt.maps), j1, j2)
                for i in range(1, pt.shape.size + 1):
                    block = principal_block(comp, i)
                    entries += [image_meet_coord_dim(block, k) for k in range(1, i + 1)]
                    entries.append(image_meet_coord_dim(block, i))  # the rank slot
            assert rank_vector(pt).inter == tuple(entries)
