import itertools
import random
import re

import pytest

from gridorbits import (
    GF,
    Decomposition,
    GridQuiverError,
    GridShape,
    HeightVectorError,
    InvalidDecomposition,
    Matrix,
    QQ,
    SizeMismatch,
    TriangularityViolation,
    assemble_canonical,
    borel_act,
    dims_of_heights,
    enumerate_indecomposables,
    identity_tuple,
    is_upper_triangular,
    make_point,
    matchings_to_decomposition,
    order_matchings,
    validate_heights,
    windows,
    zero_tuple,
)
from gridorbits import grid_quiver
from gridorbits.grid_quiver import window_products
from gridorbits.orbit_poset import enumerate_orbits

from conftest import DECOMP_N3, PAIR_N3, random_point
from reference_decomposition import (
    decomposition_from_heights,
    reference_matchings_to_decomposition,
)
from reference_windows import reference_compose_window


class TestMakePoint:
    def test_single_map_point(self, shape2, diag011):
        assert diag011.shape == shape2
        assert len(diag011.maps) == 1

    def test_published_pair(self, shape3, pair_n3):
        assert pair_n3.shape == shape3

    def test_triangularity_violation(self, shape2):
        with pytest.raises(TriangularityViolation) as err:
            make_point(shape2, [[[0, 0, 0], [1, 0, 0], [0, 0, 0]]])
        assert err.value.index == 1
        assert err.value.position == (2, 1)

    def test_wrong_map_count(self, shape3):
        with pytest.raises(SizeMismatch):
            make_point(shape3, [PAIR_N3[0]])

    def test_wrong_size(self, shape2):
        with pytest.raises(SizeMismatch):
            make_point(shape2, [[[0, 0], [0, 0]]])

    def test_maps_share_one_field(self, shape3):
        ident = [[int(i == j) for j in range(4)] for i in range(4)]
        with pytest.raises(GridQuiverError, match=exact("map 2 is over GF(3), map 1 over QQ")):
            make_point(shape3, [Matrix(QQ, ident), Matrix(GF(3), ident)])
        with pytest.raises(GridQuiverError, match=exact("map 2 is over QQ, map 1 over GF(3)")):
            make_point(shape3, [Matrix(GF(3), ident), ident])  # a nested list is taken over Q
        assert make_point(shape3, [Matrix(GF(3), ident)] * 2).maps[1].field is GF(3)


def exact(message):
    """A ``pytest.raises`` pattern that matches ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


class TestValidateHeights:
    @pytest.mark.parametrize("h", [(4, 0, 0), (3, 3, 0), (0, 4, 4), (1, 1, 1)])
    def test_published_summands_valid(self, shape3, h):
        assert validate_heights(shape3, list(h)) == h

    def test_non_contiguous(self, shape3):
        # (2,0,3) is weakly increasing where nonzero yet splits as a sum of
        # its two column blocks, so it is rejected
        with pytest.raises(
            HeightVectorError, match=exact("support of (2, 0, 3) is not a contiguous interval")
        ):
            validate_heights(shape3, (2, 0, 3))

    def test_non_monotone(self, shape3):
        with pytest.raises(
            HeightVectorError,
            match=exact("heights (3, 2, 1) are not weakly increasing on the support"),
        ):
            validate_heights(shape3, (3, 2, 1))

    def test_empty_support(self, shape2):
        with pytest.raises(HeightVectorError, match=exact("height vector with empty support")):
            validate_heights(shape2, (0, 0))

    def test_out_of_range(self, shape2):
        with pytest.raises(HeightVectorError, match=exact("heights must lie in 0..3: (4, 0)")):
            validate_heights(shape2, (4, 0))


class TestEnumerateIndecomposables:
    def test_count_small(self, shape2):
        assert len(enumerate_indecomposables(shape2)) == 12

    def test_single_column_heights(self, shape2):
        singles = [h for h in enumerate_indecomposables(shape2) if h[1] == 0]
        assert singles == [(1, 0), (2, 0), (3, 0)]

    def test_against_filter_oracle(self, shape3):
        # brute force: every candidate vector over 0..4 through the validator
        valid = 0
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    try:
                        validate_heights(shape3, (a, b, c))
                        valid += 1
                    except HeightVectorError:
                        pass
        enumerated = enumerate_indecomposables(shape3)
        assert len(enumerated) == valid == 52
        assert enumerated == sorted(enumerated)

    def test_dims_grid(self, shape2):
        h = validate_heights(shape2, (1, 2))
        assert dims_of_heights(shape2, h) == ((0, 0), (0, 1), (1, 1))


class TestAssembleCanonical:
    def test_identity_decomposition(self, shape2):
        dec = decomposition_from_heights(shape2, [(3, 3), (2, 2), (1, 1)])
        assert assemble_canonical(dec) == identity_tuple(shape2)

    def test_published_pair(self, shape3, pair_n3):
        dec = decomposition_from_heights(shape3, DECOMP_N3)
        assert assemble_canonical(dec) == pair_n3

    def test_all_singletons_give_zero(self, shape2):
        dec = decomposition_from_heights(
            shape2, [(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]
        )
        assert assemble_canonical(dec) == zero_tuple(shape2)

    def test_invalid_column_heights(self, shape2):
        dec = decomposition_from_heights(shape2, [(3, 3), (3, 0), (2, 0), (0, 1), (0, 2)])
        with pytest.raises(InvalidDecomposition):
            assemble_canonical(dec)

    def test_repeated_summand(self, shape2):
        # a full decomposition sees each height once per column, so no
        # summand can occur twice
        dec = Decomposition(shape2, ((1, 1), (2, 2), (3, 3), (3, 3)))
        with pytest.raises(InvalidDecomposition):
            assemble_canonical(dec)

    def test_assembled_maps_upper_triangular(self, shape3):
        from gridorbits import enumerate_orbits

        for dec in enumerate_orbits(shape3)[:200]:
            pt = assemble_canonical(dec)
            assert all(is_upper_triangular(m) for m in pt.maps)

    def test_assembled_windows_are_partial_permutations(self, shape3):
        from gridorbits import enumerate_orbits, windows

        for dec in enumerate_orbits(shape3)[:150]:
            pt = assemble_canonical(dec)
            for j1, j2 in windows(shape3):
                comp = reference_compose_window(list(pt.maps), j1, j2)
                ones = [
                    (i, j)
                    for i in range(4)
                    for j in range(4)
                    if comp.data[i][j] != 0
                ]
                assert all(comp.data[i][j] == 1 for i, j in ones)
                assert len({i for i, _ in ones}) == len(ones)
                assert len({j for _, j in ones}) == len(ones)


class TestMatchingsToDecomposition:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_tuple_matches_the_reference(self, n):
        shape = GridShape(n)
        for combo in itertools.product(order_matchings(shape.size), repeat=n - 1):
            want = reference_matchings_to_decomposition(shape, combo)
            assert matchings_to_decomposition(shape, combo) == want

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_sampled_tuples_match_the_reference(self, n, rng):
        shape = GridShape(n)
        matchings = order_matchings(shape.size)
        for _ in range(200):
            combo = [rng.choice(matchings) for _ in range(n - 1)]
            want = reference_matchings_to_decomposition(shape, combo)
            assert matchings_to_decomposition(shape, combo) == want


class TestBorelAct:
    def test_wrong_count(self, shape2, diag011):
        with pytest.raises(SizeMismatch):
            borel_act(diag011, [Matrix.identity(QQ, 3)])

    def test_identity_action(self, shape2, diag011):
        hs = [Matrix.identity(QQ, 3)] * 2
        assert borel_act(diag011, hs) == diag011

    def test_wrong_size_refused_before_any_inverse(self, diag011, monkeypatch):
        monkeypatch.setattr(grid_quiver, "inverse", _no_inverse)
        hs = [Matrix.identity(QQ, 3), Matrix.identity(QQ, 2)]
        with pytest.raises(SizeMismatch, match=exact("base change 2 is 2x2, expected size 3")):
            borel_act(diag011, hs)

    def test_wrong_field_refused_before_any_inverse(self, diag011, monkeypatch):
        monkeypatch.setattr(grid_quiver, "inverse", _no_inverse)
        hs = [Matrix.identity(QQ, 3), Matrix.identity(GF(3), 3)]
        with pytest.raises(GridQuiverError, match=exact("base change 2 is over GF(3), the point over QQ")):
            borel_act(diag011, hs)


def _no_inverse(m):
    raise AssertionError("a base change was inverted before every one was checked")


class TestWindowProducts:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_products_match_compose_window(self, n):
        rng = random.Random(n)
        shape = GridShape(n)
        for _ in range(3):
            pt = random_point(shape, rng)
            prods = window_products(pt)
            assert list(prods) == windows(shape)
            for (j1, j2), prod in prods.items():
                assert prod == reference_compose_window(list(pt.maps), j1, j2)

    def test_cache_is_bounded(self, shape3):
        # the wrapper keeps no entry: each point is asked for once
        for dec in enumerate_orbits(shape3)[:8]:
            pt = assemble_canonical(dec)
            assert window_products(pt)[(1, 2)] == pt.maps[1] @ pt.maps[0]
            assert window_products(pt)[(1, 2)] == pt.maps[1] @ pt.maps[0]
        info = window_products.cache_info()
        assert info.maxsize == 0 and info.currsize == 0 and info.hits == 0
