import sys
from fractions import Fraction

import pytest

from gridorbits import (
    GridShape,
    SolveFailure,
    assemble_canonical,
    borel_act,
    decompose,
    enumerate_indecomposables,
    enumerate_orbits,
    full_dim_grid,
    identity_tuple,
    independence_check,
    make_point,
    matchings_to_decomposition,
    order_matchings,
    rank_vector,
    reconstruct,
    same_rank_vector,
    sw_array,
    windows,
    zero_tuple,
)
from gridorbits.decomposition import _indecomposable_vector, flat_entries
from gridorbits.exact_linalg import solve_unique
from gridorbits.parametrizations import pivots
from gridorbits.serialize import rank_vector_to_json

from conftest import DECOMP_N3, INDECOMPOSABLE_VECTORS_12, flat_rank_vector, random_borel, random_point
from reference_decomposition import (
    decomposition_from_heights,
    reference_matchings_to_decomposition,
)
from reference_rank_vectors import reference_heights_rank_vector


class TestRankVector:
    def test_worked_example(self, diag011):
        assert flat_rank_vector(diag011) == (0, 0, 1, 0, 1, 2)

    def test_identity(self, shape2):
        assert flat_rank_vector(identity_tuple(shape2)) == (1, 1, 2, 1, 2, 3)

    def test_zero(self, shape2):
        assert flat_rank_vector(zero_tuple(shape2)) == (0,) * 6

    def test_dims_part_constant(self, shape3, pair_n3):
        dims = rank_vector_to_json(sw_array(pair_n3))["dims"]
        assert dims == [[i for _ in range(3)] for i in range(1, 5)]

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
        vec = _indecomposable_vector(shape2, h)
        assert tuple(vec[:6] + flat_entries(vec[6:], 3)) == expected

    def test_all_twelve_covered(self, shape2):
        assert set(enumerate_indecomposables(shape2)) == set(
            INDECOMPOSABLE_VECTORS_12
        )

    @pytest.mark.parametrize("n,count", [(2, 12), (3, 52), (4, 205)])
    def test_matches_reference(self, n, count):
        # the vector rendered from the one-summand tables against the 0/1
        # formula
        shape = GridShape(n)
        indecs = enumerate_indecomposables(shape)
        assert len(indecs) == count
        for h in indecs:
            assert tuple(_indecomposable_vector(shape, h)) == reference_heights_rank_vector(shape, h)


def solve_decomposition(point):
    """Decomposition read off the linear system for n = 2: the twelve
    indecomposables' full rank vectors are linearly independent, so the
    point's rank vector has unique coefficients, which must be nonnegative
    integers (the multiplicities)."""
    shape = point.shape
    indecs = enumerate_indecomposables(shape)
    columns = [[Fraction(x) for x in _indecomposable_vector(shape, h)] for h in indecs]
    dims = full_dim_grid(shape)
    column_major = [dims[i][j] for j in range(shape.n) for i in range(shape.size)]
    target = [Fraction(x) for x in column_major + list(rank_vector(point).inter)]
    heights = []
    for h, mult in zip(indecs, solve_unique(columns, target)):
        assert mult.denominator == 1 and mult >= 0, (h, mult)
        heights.extend([h] * int(mult))
    return decomposition_from_heights(shape, heights)


def reference_decompose(point):
    """The decomposition path before :func:`decompose` ran on
    :func:`reconstruct`: matchings read off the pivots of the single-map
    tables, chained, reassembled and accepted when the arrays agree."""
    shape = point.shape
    size = shape.size
    arr = sw_array(point)
    matchings = [
        {size + 1 - q: size + 1 - p for p, q in pivots(arr.table(j, j))}
        for j in range(1, shape.num_maps + 1)
    ]
    dec = reference_matchings_to_decomposition(shape, matchings)
    if sw_array(assemble_canonical(dec)) != arr:
        raise SolveFailure("no thin decomposition")
    return dec


def sparse_point(shape, rng):
    """0/1 maps with about 30% of each upper triangle set."""
    size = shape.size
    maps = [
        [[int(j >= i and rng.random() < 0.3) for j in range(size)] for i in range(size)]
        for _ in range(shape.num_maps)
    ]
    return make_point(shape, maps)


class TestDecompose:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_reference_path(self, n, rng):
        # both paths accept exactly when the maps' partial permutation forms
        # reproduce the point's array, and then read the same summands
        shape = GridShape(n)
        matchings = order_matchings(shape.size)
        pts = [sparse_point(shape, rng) for _ in range(20)]
        pts += [random_point(shape, rng) for _ in range(4)]
        for _ in range(6):
            dec = matchings_to_decomposition(shape, [rng.choice(matchings) for _ in range(n - 1)])
            pts.append(borel_act(assemble_canonical(dec), random_borel(shape, rng)))
        accepted = 0
        for pt in pts:
            try:
                want = reference_decompose(pt)
            except SolveFailure:
                with pytest.raises(SolveFailure):
                    decompose(pt)
                continue
            assert decompose(pt) == want
            accepted += 1
        assert accepted >= 6 and (n == 2 or accepted < len(pts))

    def test_published_pair(self, shape3, pair_n3):
        dec = decompose(pair_n3)
        assert set(dec.summands) == DECOMP_N3
        assert len(dec.summands) == 7
        assert assemble_canonical(dec) == pair_n3

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity(self, n):
        shape = GridShape(n)
        dec = decompose(identity_tuple(shape))
        assert dec.summands == tuple(tuple([k] * n) for k in range(1, n + 2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero(self, n):
        shape = GridShape(n)
        dec = decompose(zero_tuple(shape))
        expected = sorted(
            tuple(h if t == j else 0 for t in range(n))
            for j in range(n)
            for h in range(1, n + 2)
        )
        assert dec.summands == tuple(expected)

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
        # the maps' forms are read off the point's array and checked on
        # their matchings, so decompose sweeps each window product of the
        # point once and nothing else
        from gridorbits import exact_linalg

        shape = GridShape(n)
        matchings = order_matchings(n + 1)
        dec = matchings_to_decomposition(shape, [rng.choice(matchings) for _ in range(n - 1)])
        point = borel_act(assemble_canonical(dec), random_borel(shape, rng))
        original = exact_linalg.b_pivots
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "gridorbits" and getattr(module, "b_pivots", None) is original:
                monkeypatch.setattr(module, "b_pivots", counted)
        assert decompose(point) == dec
        assert len(calls) == len(windows(shape))

    def test_arrays_read_off_matchings(self, rng, monkeypatch):
        # decompose computes the point's array once; reconstruct and the
        # independence check's summand vectors read theirs off matchings, so
        # they call no sw_array, multiply no window and sweep no matrix
        from gridorbits import exact_linalg, grid_quiver, parametrizations

        shape = GridShape(3)
        dec = matchings_to_decomposition(shape, [rng.choice(order_matchings(4)) for _ in range(2)])
        arr = sw_array(assemble_canonical(dec))
        point = borel_act(assemble_canonical(dec), random_borel(shape, rng))
        calls = {}
        for module, attr in (
            (parametrizations, "sw_array"),
            (grid_quiver, "window_products"),
            (exact_linalg, "b_pivots"),
        ):
            original = getattr(module, attr)

            def counted(*args, _calls=calls.setdefault(attr, []), _original=original):
                _calls.append(args)
                return _original(*args)

            for name, bound in list(sys.modules.items()):
                if name.split(".")[0] == "gridorbits" and getattr(bound, attr, None) is original:
                    monkeypatch.setattr(bound, attr, counted)
        assert decompose(point) == dec
        assert len(calls["sw_array"]) == 1
        for made in calls.values():
            made.clear()
        assert reconstruct(arr) == assemble_canonical(dec)
        assert independence_check(shape) is False
        assert calls == {"sw_array": [], "window_products": [], "b_pivots": []}


class TestIndependence:
    def test_small_family_independent(self, shape2):
        assert independence_check(shape2) is True

    def test_larger_families_dependent(self):
        # 52 indecomposables for n=3 span only 42 coordinates; 205 for n=4
        # exceed the vector length outright
        assert independence_check(GridShape(3)) is False
        assert independence_check(GridShape(4)) is False

    def test_vector_lengths(self, shape2):
        vec = _indecomposable_vector(shape2, (1, 1))
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
