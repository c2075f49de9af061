import itertools
import random
import re

import pytest

from gridorbits import (
    GF,
    Decomposition,
    GridQuiverError,
    GridShape,
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
    windows,
    zero_tuple,
)
from gridorbits import grid_quiver
from gridorbits.grid_quiver import check_full_decomposition, height_matchings, window_products
from gridorbits.orbit_poset import enumerate_orbits, orbit_nodes

from conftest import DECOMP_N3, PAIR_N3, random_point
from reference_decomposition import (
    decomposition_from_heights,
    reference_is_full,
    reference_is_thin,
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
    """The height rules of a thin summand, as :func:`check_full_decomposition`
    applies them to every summand of a decomposition."""

    @pytest.mark.parametrize("h", [(4, 0, 0), (3, 3, 0), (0, 4, 4), (1, 1, 1)])
    def test_published_summands_valid(self, shape3, h):
        dec = decomposition_from_heights(shape3, DECOMP_N3)
        assert h in dec.summands
        assert check_full_decomposition(dec) == height_matchings(shape3, dec.summands)

    def test_non_contiguous(self, shape3):
        # (2,0,3) is weakly increasing where nonzero yet splits as a sum of
        # its two column blocks, so it is rejected, though every column
        # sees each height once
        dec = decomposition_from_heights(shape3, [(1, 1, 1), (0, 2, 2), (2, 0, 3), (3, 3, 4), (4, 4, 0)])
        with pytest.raises(
            InvalidDecomposition, match=exact("summand (2, 0, 3) is not thin: its support has a gap")
        ):
            check_full_decomposition(dec)

    def test_non_monotone(self, shape3):
        dec = decomposition_from_heights(shape3, [(1, 1, 2), (2, 3, 3), (3, 2, 1), (4, 4, 4)])
        with pytest.raises(
            InvalidDecomposition, match=exact("summand (3, 2, 1) is not thin: its heights decrease")
        ):
            check_full_decomposition(dec)

    def test_empty_support(self, shape2):
        dec = decomposition_from_heights(shape2, [(1, 1), (2, 2), (3, 3), (0, 0)])
        with pytest.raises(InvalidDecomposition, match=exact("summand (0, 0) is not thin: it is zero")):
            check_full_decomposition(dec)

    def test_out_of_range(self, shape2):
        # a height above n+1 is the column rule's to refuse
        dec = decomposition_from_heights(shape2, [(1, 1), (2, 2), (4, 0), (0, 3)])
        with pytest.raises(
            InvalidDecomposition, match=exact("column 1 sees heights [1, 2, 4], expected [1, 2, 3]")
        ):
            check_full_decomposition(dec)


class TestEnumerateIndecomposables:
    def test_count_small(self, shape2):
        assert len(enumerate_indecomposables(shape2)) == 12

    def test_single_column_heights(self, shape2):
        singles = [h for h in enumerate_indecomposables(shape2) if h[1] == 0]
        assert singles == [(1, 0), (2, 0), (3, 0)]

    def test_against_filter_oracle(self, shape3):
        # brute force: every candidate vector over 0..4 through the reference
        valid = [h for h in itertools.product(range(5), repeat=3) if reference_is_thin(shape3, h)]
        enumerated = enumerate_indecomposables(shape3)
        assert len(enumerated) == len(valid) == 52
        assert enumerated == valid

    def test_dims_grid(self, shape2):
        h = (1, 2)
        assert reference_is_thin(shape2, h)
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
        with pytest.raises(
            InvalidDecomposition, match=exact("column 1 sees heights [2, 3, 3], expected [1, 2, 3]")
        ):
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


class TestCheckFullDecomposition:
    @pytest.mark.parametrize("n,summands,message", [
        (3, ((1, 1, 1), (2, 0, 2), (3, 3, 3), (4, 4, 4), (0, 2, 0)),
         "summand (2, 0, 2) is not thin: its support has a gap"),
        (2, ((1, 1), (2, 2), (3, 3), (0, 0)), "summand (0, 0) is not thin: it is zero"),
        (2, ((1, 1, 7), (2, 2), (3, 3)), "summand (1, 1, 7) is not thin: it has length 3, expected 2"),
        (2, ((1, 1), (2, 3), (3, 2)), "summand (3, 2) is not thin: its heights decrease"),
    ], ids=["gap", "zero", "length", "decreasing"])
    def test_non_thin_summand_refused(self, n, summands, message):
        # every column sees each height once, yet a summand is not thin;
        # assembled, the first would give a point of another orbit
        dec = Decomposition(GridShape(n), summands)
        for check in (check_full_decomposition, assemble_canonical):
            with pytest.raises(InvalidDecomposition, match=exact(message)):
                check(dec)

    def test_zero_summand_beside_a_gap(self, shape3):
        # the gap's missing pair and the zero summand's missing run balance
        # the pair count, so the zero summand is refused on its own
        dec = decomposition_from_heights(
            shape3, [(1, 1, 1), (0, 2, 2), (2, 0, 3), (3, 3, 4), (4, 4, 0), (0, 0, 0)]
        )
        with pytest.raises(InvalidDecomposition, match=exact("summand (0, 0, 0) is not thin: it is zero")):
            check_full_decomposition(dec)

    @pytest.mark.parametrize("n,count", [(2, 15), (3, 2704)])
    def test_census_decompositions_pass(self, n, count):
        nodes = list(orbit_nodes(GridShape(n)))
        assert len(nodes) == count
        for node in nodes:
            assert check_full_decomposition(node.decomposition) == list(node.matchings)

    def test_mutations_agree_with_the_reference(self):
        rng = random.Random("check-full-decomposition")
        verdicts = set()
        for n in (2, 3, 4):
            shape = GridShape(n)
            per_pair = order_matchings(shape.size)
            for _ in range(800):
                base = matchings_to_decomposition(shape, [rng.choice(per_pair) for _ in range(n - 1)])
                dec = Decomposition(shape, _mutate(shape, base.summands, rng))
                full = reference_is_full(dec)
                try:
                    got = check_full_decomposition(dec)
                except InvalidDecomposition as exc:
                    assert not full, dec
                    assert str(exc) in _fault_messages(dec), (dec, str(exc))
                    verdicts.add("refused")
                else:
                    assert full, dec
                    assert got == height_matchings(shape, dec.summands)
                    verdicts.add("accepted")
        assert verdicts == {"accepted", "refused"}


def _mutate(shape, summands, rng):
    """The summands after one or two random edits, in random order: an
    entry set to any of -1..n+2, two entries of one column swapped, a
    summand dropped, split in two or lengthened or shortened by one, two
    summands added entrywise, or a zero summand added."""
    n, out = shape.n, [list(h) for h in summands]
    for _ in range(rng.randint(1, 2)):
        i, k, j = rng.randrange(len(out)), rng.randrange(len(out)), rng.randrange(n)
        edit = rng.randrange(7)
        if edit == 0:
            out[i][j] = rng.randint(-1, shape.size + 1)
        elif edit == 1 and len(out[i]) == len(out[k]) == n:
            out[i][j], out[k][j] = out[k][j], out[i][j]
        elif edit == 2 and len(out) > 1:
            del out[i]
        elif edit == 3:
            out[i:i + 1] = [out[i][:j] + [0] * (len(out[i]) - j), [0] * j + out[i][j:]]
        elif edit == 4:
            out[i] = out[i] + [rng.randint(0, 1)] if rng.random() < 0.5 else out[i][:-1]
        elif edit == 5 and i != k and len(out[i]) == len(out[k]):
            out[i] = [a + b for a, b in zip(out[i], out[k])]
            del out[k]
        elif edit == 6:
            out.append([0] * n)
    rng.shuffle(out)
    return tuple(map(tuple, out))


def _fault_messages(dec):
    """The messages a refusal of ``dec`` may carry: the column rule's for
    each column that does not see every height once (when every summand
    has n heights), and one naming each summand that is not thin."""
    shape, n = dec.shape, dec.shape.n
    expected = list(range(1, shape.size + 1))
    messages = set()
    if all(len(h) == n for h in dec.summands):
        for j in range(n):
            seen = sorted(h[j] for h in dec.summands if h[j])
            if seen != expected:
                messages.add(f"column {j + 1} sees heights {seen}, expected {expected}")
    for h in dec.summands:
        if not reference_is_thin(shape, h):
            messages.update(
                f"summand {h} is not thin: {reason}"
                for reason in (f"it has length {len(h)}, expected {n}", "it is zero",
                               "its support has a gap", "its heights decrease")
            )
    return messages


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
