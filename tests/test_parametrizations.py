import pickle
import random

import pytest

from gridorbits import (
    GF,
    QQ,
    GridQuiverError,
    GridShape,
    InvalidTable,
    Matrix,
    ReconstructInvalid,
    SWArray,
    SizeMismatch,
    assemble_canonical,
    borel_act,
    decompose,
    degenerates,
    enumerate_orbits,
    f2_census,
    make_point,
    orbit_by_id,
    orbit_count,
    pivots,
    rank_vector,
    reconstruct,
    rook_table,
    same_orbit,
    same_rank_vector,
    sw_array,
    sw_table,
    validate_array_inequalities,
    zero_tuple,
)
from gridorbits.grid_quiver import (
    matching_of_rook,
    matchings_to_decomposition,
    rook_cells,
    rook_of_matching,
    windows,
)
from gridorbits.orbit_poset import order_matchings

from conftest import count_calls, random_borel, random_point, random_unimodular_ut, random_ut
from reference_reconstruct import reference_pivots, reference_reconstruct
from reference_windows import reference_compose_window, reference_image_meet_coord_dim, reference_sw_rank


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


class TestArrayMemo:
    def test_one_array_per_point(self, pair_n3):
        assert sw_array(pair_n3) is sw_array(pair_n3)

    def test_array_leaves_the_point_as_it_was(self, shape3, pair_n3):
        fresh = make_point(shape3, pair_n3.maps)
        sw_array(pair_n3)
        assert pair_n3 == fresh and hash(pair_n3) == hash(fresh)
        assert repr(pair_n3) == repr(fresh)
        assert pickle.dumps(pair_n3) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(pair_n3)) == fresh

    def test_equal_point_computes_its_own(self, shape3, pair_n3, monkeypatch):
        from gridorbits import exact_linalg

        arr = sw_array(pair_n3)
        twin = make_point(shape3, pair_n3.maps)
        calls = count_calls(monkeypatch, [(exact_linalg, "b_pivots"), (exact_linalg, "b_reduce")])
        assert sw_array(twin) == arr and sw_array(twin) is not arr
        assert calls == {"b_pivots": len(windows(shape3)), "b_reduce": 0}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_invariants_query_reads_one_array(self, n, rng, monkeypatch):
        # every query of the invariants workload on one fresh point reads
        # the same array: its window products are formed and swept once,
        # and no dense rook is built
        from gridorbits import exact_linalg, grid_quiver

        shape = GridShape(n)
        dec = matchings_to_decomposition(shape, [rng.choice(order_matchings(n + 1)) for _ in range(n - 1)])
        canon = assemble_canonical(dec)
        point = borel_act(canon, random_borel(shape, rng))
        zero = zero_tuple(shape)
        sw_array(canon)
        sw_array(zero)
        calls = count_calls(monkeypatch, [
            (exact_linalg, "b_pivots"), (exact_linalg, "b_reduce"), (grid_quiver, "window_products"),
        ])
        assert sw_array(point) == sw_array(canon)
        assert rank_vector(point) == rank_vector(canon)
        assert decompose(point) == dec
        assert same_orbit(point, canon)
        assert degenerates(point, zero)
        assert calls == {"b_pivots": len(windows(shape)), "b_reduce": 0, "window_products": 1}


class TestSameOrbit:
    def test_refuses_points_of_different_shapes(self, diag011, pair_n3, monkeypatch):
        from gridorbits import exact_linalg

        calls = count_calls(monkeypatch, [(exact_linalg, "b_pivots")])
        with pytest.raises(SizeMismatch, match="^points have different shapes$"):
            same_orbit(diag011, pair_n3)
        assert calls == {"b_pivots": 0}

    def test_borel_translates(self, rng, shape2):
        f = random_point(shape2, rng)
        assert same_orbit(f, borel_act(f, random_borel(shape2, rng)))

    def test_distinct_ranks(self, diag011, single_one_12):
        assert not same_orbit(diag011, single_one_12)

    def test_distinct_representatives(self, paper_points):
        assert not same_orbit(paper_points[9], paper_points[10])


class TestDegenerates:
    def test_refuses_points_of_different_shapes(self, diag011, pair_n3, monkeypatch):
        # refused as same_orbit refuses them, before either array is computed
        from gridorbits import exact_linalg

        calls = count_calls(monkeypatch, [(exact_linalg, "b_pivots")])
        with pytest.raises(SizeMismatch, match="^points have different shapes$"):
            degenerates(pair_n3, diag011)
        assert calls == {"b_pivots": 0}

    def test_worked_direction(self, diag011, single_one_12):
        # the rank-1 point lies in the closure of the rank-2 orbit
        assert degenerates(diag011, single_one_12)
        assert not degenerates(single_one_12, diag011)

    def test_incomparable(self, diag011, single_one_11):
        assert not degenerates(diag011, single_one_11)
        assert not degenerates(single_one_11, diag011)

    def test_reflexive(self, diag011):
        assert degenerates(diag011, diag011)


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

    def test_pivots_sharing_a_row(self):
        # every double difference is 0 or 1, yet no rook has these ranks
        with pytest.raises(InvalidTable, match=r"^pivots \[\(1,1\), \(1,2\)\] reuse a row or column$"):
            pivots(((1, 2, 2), (0, 0), (0,)))

    @pytest.mark.parametrize("size,count", [(4, 52), (5, 203)])
    def test_every_rook_round_trips(self, size, count):
        # a rook's cells, its table, its matching and its int rows agree
        matchings = order_matchings(size)
        assert len(matchings) == count
        for m in matchings:
            cells = rook_cells(size, m)
            assert pivots(rook_table(size, cells)) == set(cells)
            assert matching_of_rook(size, cells) == m
            rows = rook_of_matching(size, m)
            ones = {(p, q) for p, row in enumerate(rows, start=1) for q, x in enumerate(row, start=1) if x}
            assert ones == set(cells) and all(x in (0, 1) for row in rows for x in row)


def _outcome(fn, arr):
    try:
        return fn(arr)
    except GridQuiverError as exc:
        return type(exc), str(exc)


def _reuses_pivots(arr):
    """Whether some single-map table's pivots share a row or column."""
    for j in range(1, arr.shape.num_maps + 1):
        try:
            piv = reference_pivots(arr.table(j, j))
        except InvalidTable:
            continue
        if len({p for p, _q in piv}) < len(piv) or len({q for _p, q in piv}) < len(piv):
            return True
    return False


def _first_rookless_window(arr):
    """The window (j, j) of the first single-map table that the reference
    refuses for a double difference outside 0 and 1."""
    for j in range(1, arr.shape.num_maps + 1):
        try:
            reference_pivots(arr.table(j, j))
        except InvalidTable:
            return (j, j)
    return None


def _perturbations(arr):
    """The arrays that differ from ``arr`` by +-1 in one entry."""
    for w, table in enumerate(arr.tables):
        for p, row in enumerate(table):
            for off in range(len(row)):
                for delta in (-1, 1):
                    bent = table[:p] + (row[:off] + (row[off] + delta,) + row[off + 1:],) + table[p + 1:]
                    yield SWArray(arr.shape, arr.tables[:w] + (bent,) + arr.tables[w + 1:])


@pytest.fixture(scope="module")
def reconstruct_inputs():
    """Every F_2 census array at n = 2 and 3, the +-1 perturbations of the
    first 100 at n = 3, and the canonical arrays of 14 fixed orbit ids at
    each n = 4, 5, 6."""
    census3 = list(f2_census(GridShape(3)))
    arrays = list(f2_census(GridShape(2))) + census3
    arrays += [bent for arr in census3[:100] for bent in _perturbations(arr)]
    for n in (4, 5, 6):
        shape = GridShape(n)
        ids = [1, orbit_count(shape)] + random.Random(n).sample(range(2, orbit_count(shape)), 12)
        arrays += [sw_array(assemble_canonical(orbit_by_id(shape, k).decomposition)) for k in ids]
    return arrays


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

    def test_matches_reference(self, reconstruct_inputs):
        # the rook point's array, read off its matchings, decides as the
        # multiplied and reduced Fraction point did: the same point or the
        # same error, except that a table with no rook is refused up front;
        # a refused table's message starts with its window
        outcomes = {"point": 0, "refused": 0, "reused": 0}
        for arr in reconstruct_inputs:
            got = _outcome(reconstruct, arr)
            if _reuses_pivots(arr):
                assert isinstance(got, tuple) and got[0] is InvalidTable
                assert got[1].startswith("window (")
                outcomes["reused"] += 1
            else:
                want = _outcome(reference_reconstruct, arr)
                if isinstance(want, tuple) and want[0] is InvalidTable:
                    j1, j2 = _first_rookless_window(arr)
                    want = (InvalidTable, f"window ({j1},{j2}): {want[1]}")
                assert got == want
                outcomes["point" if not isinstance(got, tuple) else "refused"] += 1
        # 15 + 2704 + 42 canonical arrays and 228 perturbations rebuilt;
        # 698 census arrays and 5562 perturbations refused
        assert outcomes == {"point": 2989, "refused": 6260, "reused": 210}


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
                comp = reference_compose_window(list(pt.maps), j1, j2)
                per_cell = tuple(
                    tuple(reference_sw_rank(comp, p, q) for q in range(p, size + 1))
                    for p in range(1, size + 1)
                )
                assert sw_table(comp) == per_cell

    @pytest.mark.parametrize("n,field", KERNEL_CASES)
    def test_rank_vector_matches_definition(self, n, field):
        for pt in _kernel_points(n, field):
            entries = []
            for j1, j2 in windows(pt.shape):
                comp = reference_compose_window(list(pt.maps), j1, j2)
                for i in range(1, pt.shape.size + 1):
                    block = Matrix(comp.field, [row[:i] for row in comp.data[:i]])
                    entries += [reference_image_meet_coord_dim(block, k) for k in range(1, i + 1)]
                    entries.append(reference_image_meet_coord_dim(block, i))  # the rank slot
            assert rank_vector(pt).inter == tuple(entries)
