import sys
from fractions import Fraction

import pytest

from gridorbits import (
    Decomposition,
    GridShape,
    SolveFailure,
    assemble_canonical,
    borel_act,
    decompose,
    enumerate_indecomposables,
    enumerate_orbits,
    flat_intersections,
    heights_rank_vector,
    identity_tuple,
    independence_check,
    make_point,
    matchings_to_decomposition,
    order_matchings,
    rank_vector,
    same_rank_vector,
    validate_heights,
    windows,
    zero_tuple,
)
from gridorbits.decomposition import full_vector
from gridorbits.exact_linalg import solve_unique

from conftest import DECOMP_N3, INDECOMPOSABLE_VECTORS_12, random_borel, random_point


class TestRankVector:
    def test_worked_example(self, diag011):
        assert flat_intersections(rank_vector(diag011)) == (0, 0, 1, 0, 1, 2)

    def test_identity(self, shape2):
        assert flat_intersections(rank_vector(identity_tuple(shape2))) == (1, 1, 2, 1, 2, 3)

    def test_zero(self, shape2):
        assert flat_intersections(rank_vector(zero_tuple(shape2))) == (0,) * 6

    def test_dims_part_constant(self, shape3, pair_n3):
        rv = rank_vector(pair_n3)
        assert rv.dims == tuple(tuple(i for _ in range(3)) for i in range(1, 5))

    def test_rank_slot_duplicates_last_intersection(self, rng, shape3):
        rv = rank_vector(random_point(shape3, rng))
        pos = 0
        from gridorbits import windows

        for _ in windows(shape3):
            for i in range(1, 5):
                row = rv.inter[pos:pos + i + 1]
                assert row[-1] == row[-2]
                pos += i + 1


class TestHeightsRankVector:
    @pytest.mark.parametrize("h,expected", sorted(INDECOMPOSABLE_VECTORS_12.items()))
    def test_published_list(self, shape2, h, expected):
        rv = heights_rank_vector(validate_heights(shape2, h))
        dims = tuple(rv.dims[i][j] for j in range(2) for i in range(3))
        assert dims + flat_intersections(rv) == expected

    def test_all_twelve_covered(self, shape2):
        assert {hv.h for hv in enumerate_indecomposables(shape2)} == set(
            INDECOMPOSABLE_VECTORS_12
        )


def solve_decomposition(point):
    """Decomposition read off the linear system for n = 2: the twelve
    indecomposables' full rank vectors are linearly independent, so the
    point's rank vector has unique coefficients, which must be nonnegative
    integers (the multiplicities)."""
    shape = point.shape
    indecs = enumerate_indecomposables(shape)
    columns = [[Fraction(x) for x in full_vector(heights_rank_vector(hv))] for hv in indecs]
    target = [Fraction(x) for x in full_vector(rank_vector(point))]
    heights = []
    for hv, mult in zip(indecs, solve_unique(columns, target)):
        assert mult.denominator == 1 and mult >= 0, (hv.h, mult)
        heights.extend([hv.h] * int(mult))
    return Decomposition.from_heights(shape, heights)


class TestDecompose:
    def test_published_pair(self, shape3, pair_n3):
        dec = decompose(pair_n3)
        assert set(dec.heights()) == DECOMP_N3
        assert len(dec.heights()) == 7
        assert assemble_canonical(dec) == pair_n3

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity(self, n):
        shape = GridShape(n)
        dec = decompose(identity_tuple(shape))
        assert dec.heights() == [tuple([k] * n) for k in range(1, n + 2)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero(self, n):
        shape = GridShape(n)
        dec = decompose(zero_tuple(shape))
        expected = sorted(
            tuple(h if t == j else 0 for t in range(n))
            for j in range(n)
            for h in range(1, n + 2)
        )
        assert dec.heights() == expected

    def test_no_thin_decomposition_raises(self, shape3):
        # the two windows force incompatible matchings through the middle
        # column, so this point is not a direct sum of thin summands
        f1 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        f2 = [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(SolveFailure):
            decompose(make_point(shape3, [f1, f2]))

    def test_solve_and_sweep_agree(self, rng, shape2, paper_points):
        # decompose runs the canonical-form sweep; the n = 2 linear solve is
        # an independent oracle for it
        pts = list(paper_points.values())
        pts += [random_point(shape2, rng) for _ in range(15)]
        pts += [borel_act(pt, random_borel(shape2, rng)) for pt in pts]
        for pt in pts:
            assert decompose(pt) == solve_decomposition(pt)

    def test_round_trip_all_orbits(self, shape2):
        for dec in enumerate_orbits(shape2):
            assert decompose(assemble_canonical(dec)) == dec

    def test_canonical_form_idempotent(self, rng, shape2):
        for _ in range(10):
            f = random_point(shape2, rng)
            once = assemble_canonical(decompose(f))
            assert assemble_canonical(decompose(once)) == once

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_reduction_per_window_product(self, n, rng, monkeypatch):
        # the maps' forms are read off the point's array, so decompose
        # reduces each window product of the point and of its reassembly
        # once, and no map a second time
        from gridorbits import exact_linalg

        shape = GridShape(n)
        matchings = order_matchings(n + 1)
        dec = matchings_to_decomposition(shape, [rng.choice(matchings) for _ in range(n - 1)])
        point = borel_act(assemble_canonical(dec), random_borel(shape, rng))
        original = exact_linalg.b_reduce
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gridorbits" and getattr(module, "b_reduce", None) is original:
                monkeypatch.setattr(module, "b_reduce", counted)
        assert decompose(point) == dec
        assert len(calls) == 2 * len(windows(shape))


class TestIndependence:
    def test_small_family_independent(self, shape2):
        assert independence_check(shape2) is True

    def test_larger_families_dependent(self):
        # 52 indecomposables for n=3 span only 42 coordinates; 205 for n=4
        # exceed the vector length outright
        assert independence_check(GridShape(3)) is False
        assert independence_check(GridShape(4)) is False

    def test_vector_lengths(self, shape2):
        vec = full_vector(heights_rank_vector(validate_heights(shape2, (1, 1))))
        assert len(vec) == 15  # 6 dims + 9 window entries


class TestOrbitInvariance:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_vector_constant_on_orbits(self, n, rng):
        shape = GridShape(n)
        for _ in range(25):
            f = random_point(shape, rng)
            moved = borel_act(f, random_borel(shape, rng))
            assert same_rank_vector(rank_vector(f), rank_vector(moved))
            if n == 2:
                canon = assemble_canonical(decompose(f))
                assert same_rank_vector(rank_vector(f), rank_vector(canon))
