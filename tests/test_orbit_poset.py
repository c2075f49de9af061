import hashlib
import itertools
import json
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

from gridorbits import (
    GridShape,
    InfeasibleSize,
    OrbitPoset,
    SWArray,
    array_leq,
    array_order,
    assemble_canonical,
    bell,
    build_poset,
    count_report,
    enumerate_orbits,
    export_dot,
    f2_census,
    f2_distinct_count,
    flat_intersections,
    make_point,
    matchings_sw_array,
    matchings_to_decomposition,
    orbit_by_id,
    orbit_count,
    orbit_nodes,
    order_matchings,
    rank_vector,
    sw_array,
    windows,
)

import gridorbits.cli as cli
import gridorbits.degeneration_lab as degeneration_lab
import gridorbits.orbit_poset as orbit_poset
from gridorbits.grid_quiver import check_full_decomposition, rook_cells, rook_point
from gridorbits.parametrizations import rook_table
from gridorbits.serialize import map_tuple_to_json

from conftest import CANONICAL_15, HASSE_EDGES_15, RANK_VECTORS_15, count_calls
from reference_array_order import reference_array_order
from reference_census import reference_census
from reference_covers import reference_covers


@pytest.fixture(scope="module")
def poset3():
    return build_poset(GridShape(3))


def as_matrix(ups):
    """Bool matrix of up-set ints: m[i, j] when bit j of ups[i] is set."""
    nn = len(ups)
    nbytes = (nn + 7) // 8
    raw = np.frombuffer(b"".join(up.to_bytes(nbytes, "little") for up in ups), dtype=np.uint8)
    return np.unpackbits(raw.reshape(nn, nbytes), axis=1, count=nn, bitorder="little").astype(bool)


def as_upsets(matrix):
    """Inverse of :func:`as_matrix`."""
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in matrix]


def strict_order(nodes):
    leq = as_matrix(array_order([node.sw for node in nodes]))
    return leq & ~leq.T


def extension(less):
    """The nodes of a strict order in a linear extension, by up-set size,
    largest first: i < j makes j's up-set a proper part of i's."""
    return np.argsort(-less.sum(axis=1), kind="stable")


def covers(less):
    """:func:`orbit_poset._covers` of a strict order given as a bool matrix:
    its nodes are relabelled into a linear extension and the covers mapped
    back into a bool matrix."""
    order = extension(less)
    found = orbit_poset._covers(as_upsets(less[order][:, order]))
    assert all(js == sorted(set(js)) and all(type(j) is int for j in js) for js in found)
    cover = np.zeros_like(less)
    for i, js in zip(order, found):
        cover[i, order[js]] = True
    return cover


@pytest.fixture(scope="module")
def less3(poset3):
    return strict_order(poset3.nodes)


def paper_index_map(poset):
    """Match poset nodes to the published numbering via their matrices."""
    out = {}
    for node in poset.nodes:
        mat = [[int(x) for x in row] for row in assemble_canonical(node.decomposition).maps[0].data]
        out[node.id] = next(k for k, m in CANONICAL_15.items() if m == mat)
    return out


class TestBell:
    def test_published_value(self):
        assert bell(4) == 15

    def test_base_case(self):
        assert bell(0) == 1

    def test_recursion_values(self):
        assert [bell(m) for m in range(7)] == [1, 1, 2, 5, 15, 52, 203]


class TestEnumeration:
    def test_matchings_counted_by_bell(self):
        # count_report's closed form rests on this at every size
        for size in (3, 4, 5, 6):
            assert len(order_matchings(size)) == bell(size + 1)

    def test_census_small(self, shape2):
        assert len(enumerate_orbits(shape2)) == 15

    def test_canonical_matrices_match_published(self, shape2):
        got = {
            tuple(tuple(int(x) for x in row) for row in assemble_canonical(dec).maps[0].data)
            for dec in enumerate_orbits(shape2)
        }
        want = {tuple(tuple(row) for row in m) for m in CANONICAL_15.values()}
        assert got == want

    def test_rank_vectors_match_published(self, paper_points):
        for idx, pt in paper_points.items():
            assert flat_intersections(rank_vector(pt)) == RANK_VECTORS_15[idx]

    def test_column_height_invariant(self, shape3):
        from gridorbits import column_heights

        for dec in enumerate_orbits(shape3)[:300]:
            for j in (1, 2, 3):
                assert column_heights(dec, j) == [1, 2, 3, 4]


class TestBijectivity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_orbits_rank_vectors_arrays_in_bijection(self, n):
        from gridorbits import GridShape, rank_vector, sw_array
        from gridorbits.decomposition import full_vector

        decs = enumerate_orbits(GridShape(n))
        points = [assemble_canonical(dec) for dec in decs]
        rvs = {full_vector(rank_vector(pt)) for pt in points}
        arrays = {sw_array(pt) for pt in points}
        assert len(decs) == len(rvs) == len(arrays)


class TestCountReport:
    def test_small_shape_all_agree(self, shape2):
        rep = count_report(shape2)
        assert (rep.enumerated, rep.f2_distinct, rep.paper_formula) == (15, 15, 15)

    def test_f2_census_small(self, shape2):
        assert f2_distinct_count(shape2) == 15

    def test_f2_census_representatives(self, shape2):
        census = f2_census(shape2)
        assert len(census) == 15 == f2_distinct_count(shape2)
        for arr, maps in census.items():
            assert all(x in (0, 1) for m in maps for row in m for x in row)
            assert sw_array(make_point(shape2, maps)) == arr
        canonical = {sw_array(assemble_canonical(dec)) for dec in enumerate_orbits(shape2)}
        assert set(census) == canonical

    @pytest.mark.parametrize("n", [2, 3])
    def test_f2_census_matches_reference(self, n):
        # the rook slice finds every array of the walk over all 0/1 tuples
        shape = GridShape(n)
        census = f2_census(shape)
        assert set(census) == set(reference_census(shape))
        size = shape.size
        rooks = set()
        for m in order_matchings(size):
            rook = [[0] * size for _ in range(size)]
            for a, b in m.items():
                rook[size - b][size - a] = 1
            rooks.add(tuple(map(tuple, rook)))
        assert len(rooks) == bell(size + 1)
        assert all(maps[0] in rooks for maps in census.values())

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_counts_the_enumeration(self, n):
        shape = GridShape(n)
        assert count_report(shape).enumerated == len(enumerate_orbits(shape))

    def test_closed_form_past_enumeration(self):
        # 203^3 decompositions at n = 4: counted, never enumerated
        rep = count_report(GridShape(4))
        assert (rep.enumerated, rep.f2_distinct, rep.paper_formula) == (8365427, None, 609)

    def test_formula_value(self, shape3):
        assert count_report(shape3).paper_formula == 2 * bell(5) == 104

    def test_larger_shape_counts_differ(self, shape3):
        # the array census strictly exceeds the decomposition census once
        # tuples can fail simultaneous reduction; acceptance criterion 6
        # accounts for all 3402 arrays, array by array (2704 + 698)
        rep = count_report(shape3)
        assert rep.enumerated == bell(5) ** 2 == 2704
        assert rep.f2_distinct == 3402


class TestF2Labels:
    # f2_census labels each 0/1 code with the rook of its B x B orbit and
    # reads the code's table off that rook; the sweep of the code's matrix
    # is the oracle
    @pytest.mark.parametrize("n,codes", [(2, 64), (3, 1024)])
    def test_propagated_tables_are_the_swept_ones(self, n, codes):
        from gridorbits.exact_linalg import Matrix
        from gridorbits.fields import GF
        from gridorbits.parametrizations import sw_table

        size = n + 1
        positions = [(i, j) for i in range(size) for j in range(i, size)]
        bit = {cell: 1 << b for b, cell in enumerate(positions)}
        cells = [rook_cells(size, m) for m in order_matchings(size)]
        rook_codes = [sum(bit[p - 1, q - 1] for p, q in rook) for rook in cells]
        label = orbit_poset._rook_labels(size, bit, rook_codes)
        assert len(label) == codes
        for code, k in enumerate(label):
            mat = [[1 if code & bit.get((i, j), 0) else 0 for j in range(size)] for i in range(size)]
            assert rook_table(size, cells[k]) == sw_table(Matrix(GF(2), mat))

    @pytest.mark.parametrize("n", [2, 3])
    def test_distinct_count_is_the_census_size(self, n):
        shape = GridShape(n)
        assert f2_distinct_count(shape) == len(f2_census(shape)) == len(reference_census(shape))

    # sha256 of the pickled census items, recorded from the census that swept
    # each code's matrix: arrays, representatives, their order and the
    # objects they share are unchanged
    PICKLE_SHA256 = {
        2: "5ba6b31ac4a5d7a392d1bb38b54a7105cd68c30291ee2c8117abc490c2311002",
        3: "31bf87fd2c3c23fe421873759ad1ee8d074bb01b95f49cacd6afad5b8cc91d0f",
    }

    @pytest.mark.parametrize("n", [2, 3])
    def test_census_pickle_unchanged(self, n):
        items = list(f2_census(GridShape(n)).items())
        assert hashlib.sha256(pickle.dumps(items, protocol=4)).hexdigest() == self.PICKLE_SHA256[n]


class TestWalk:
    # orbit_nodes walks the product of order_matchings once; each node must
    # be what the per-node builds give for its matchings
    @pytest.mark.parametrize("n", [2, 3])
    def test_nodes_are_the_per_node_builds(self, n):
        shape = GridShape(n)
        nodes = list(orbit_nodes(shape))
        combos = list(itertools.product(order_matchings(shape.size), repeat=shape.num_maps))
        assert len(nodes) == len(combos) == orbit_count(shape)
        for k, (node, combo) in enumerate(zip(nodes, combos), start=1):
            assert node.id == k and node.matchings == combo
            assert node.decomposition == matchings_to_decomposition(shape, combo)
            assert node.sw == matchings_sw_array(shape, combo)
        # the matchings are the shared dicts of one order_matchings call
        shared = {id(m) for node in nodes for m in node.matchings}
        assert len(shared) == bell(shape.size + 1)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_single_combinations_past_the_listing(self, n):
        shape = GridShape(n)
        per_pair = order_matchings(shape.size)
        rng = random.Random(n)
        for _ in range(30):
            combo = tuple(rng.choice(per_pair) for _ in range(shape.num_maps))
            (node,) = orbit_poset._walk(shape, [[m] for m in combo])
            assert node.id == 1 and all(a is b for a, b in zip(node.matchings, combo))
            assert node.decomposition == matchings_to_decomposition(shape, combo)
            assert node.sw == matchings_sw_array(shape, combo)
            # oracles that share no step with the walk: the summands chain
            # these matchings, and the dense sweep of the rook point
            check_full_decomposition(node.decomposition)
            assert matchings_of(node.decomposition) == [dict(sorted(m.items())) for m in combo]
            assert node.sw == sw_array(rook_point(shape, combo))

    def test_sub_product_in_product_order(self):
        # prefixes shared at every depth: three matchings per pair at n = 4
        shape = GridShape(4)
        rng = random.Random(4)
        choices = [rng.sample(order_matchings(5), 3) for _ in range(shape.num_maps)]
        nodes = list(orbit_poset._walk(shape, choices))
        combos = list(itertools.product(*choices))
        assert [node.id for node in nodes] == list(range(1, 28))
        for node, combo in zip(nodes, combos):
            assert node.matchings == combo
            assert node.decomposition == matchings_to_decomposition(shape, combo)
            assert node.sw == matchings_sw_array(shape, combo)


class TestPoset:
    def test_published_hasse_diagram(self, shape2):
        poset = build_poset(shape2)
        assert len(poset.nodes) == 15
        to_paper = paper_index_map(poset)
        edges = {(to_paper[u], to_paper[v]) for u, v in poset.edges}
        assert edges == set(HASSE_EDGES_15)

    def test_unique_top_and_bottom(self, shape2):
        poset = build_poset(shape2)
        to_paper = paper_index_map(poset)
        assert [to_paper[i] for i in poset.maximal()] == [1]
        assert [to_paper[i] for i in poset.minimal()] == [15]

    def test_covers_have_no_intermediate(self, shape2):
        from gridorbits import array_leq

        poset = build_poset(shape2)
        arrays = {n.id: n.sw for n in poset.nodes}
        for u, v in poset.edges:
            assert array_leq(arrays[v], arrays[u])
            for w in poset.nodes:
                if w.id in (u, v):
                    continue
                between = (
                    array_leq(arrays[w.id], arrays[u])
                    and array_leq(arrays[v], arrays[w.id])
                    and arrays[w.id] not in (arrays[u], arrays[v])
                )
                assert not between

    @pytest.mark.parametrize("n,nodes", [(4, 8365427), (5, 877 ** 4)])
    def test_refused_past_n3(self, n, nodes, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("enumerated before refusing")

        monkeypatch.setattr(orbit_poset, "order_matchings", enumerate_nothing)
        with pytest.raises(InfeasibleSize, match=f"has {nodes} orbit nodes"):
            build_poset(GridShape(n))
        with pytest.raises(InfeasibleSize, match=f"has {nodes} orbit nodes"):
            next(orbit_nodes(GridShape(n)))
        # one class, whichever module names it
        assert degeneration_lab.InfeasibleSize is InfeasibleSize

    def test_orbit_nodes_streams(self, monkeypatch):
        # the first node is built from one chaining of its columns and one
        # step per pair, not from all 2,704
        from gridorbits import grid_quiver

        calls = count_calls(monkeypatch, [
            (grid_quiver, "chained_decomposition"), (grid_quiver, "carry"), (orbit_poset, "OrbitNode"),
        ])
        first = next(orbit_nodes(GridShape(3)))
        # 52 image vectors of the per-pair pieces, then two chain columns
        # and one window (1, 2) image for the first node
        assert calls == {"chained_decomposition": 1, "carry": 52 + 3, "OrbitNode": 1}
        assert first.id == 1 and first.decomposition == enumerate_orbits(GridShape(3))[0]

    def test_listings_refuse_before_building(self, monkeypatch):
        # n = 4 would list 8,365,427 decompositions, or label 32,768
        # F_2 matrices before the census gave up
        def built(*args):
            raise AssertionError("built before refusing")

        for name in ("order_matchings", "rook_table", "_rook_labels"):
            monkeypatch.setattr(orbit_poset, name, built)
        with pytest.raises(InfeasibleSize, match="has 8365427 orbit nodes"):
            enumerate_orbits(GridShape(4))
        with pytest.raises(InfeasibleSize, match="^exhaustive F_2 census implemented for n <= 3 only$"):
            f2_census(GridShape(4))
        with pytest.raises(InfeasibleSize, match="^exhaustive F_2 census implemented for n <= 3 only$"):
            f2_distinct_count(GridShape(4))

    def test_larger_poset_extremes(self, poset3):
        poset = poset3
        assert len(poset.nodes) == 2704
        top = poset.maximal()
        bottom = poset.minimal()
        assert len(top) == 1 and len(bottom) == 1
        top_dec = next(n.decomposition for n in poset.nodes if n.id == top[0])
        bottom_dec = next(n.decomposition for n in poset.nodes if n.id == bottom[0])
        assert str(top_dec) == "U(1,1,1)+U(2,2,2)+U(3,3,3)+U(4,4,4)"
        assert all(h.count(0) == 2 for h in bottom_dec.summands)

    def test_partial_order_axioms(self, shape2):
        from gridorbits import array_leq

        arrays = [n.sw for n in build_poset(shape2).nodes]
        for a in arrays:
            assert array_leq(a, a)
        for a in arrays:
            for b in arrays:
                if array_leq(a, b) and array_leq(b, a):
                    assert a == b
                for c in arrays:
                    if array_leq(a, b) and array_leq(b, c):
                        assert array_leq(a, c)


def matchings_of(dec):
    """The per-pair height matchings a decomposition chains: summand h
    matches h_j to h_(j+1) wherever both columns carry it."""
    out = [{} for _ in range(dec.shape.num_maps)]
    for h in dec.summands:
        for j, m in enumerate(out):
            if h[j] and h[j + 1]:
                m[h[j]] = h[j + 1]
    return [dict(sorted(m.items())) for m in out]


class TestClosedFormArrays:
    def test_orbit_nodes_small(self, shape2):
        for node in orbit_nodes(shape2):
            assert node.sw == sw_array(assemble_canonical(node.decomposition))

    def test_orbit_nodes_n3(self, poset3):
        assert len(poset3.nodes) == 2704
        for node in poset3.nodes:
            assert node.sw == sw_array(assemble_canonical(node.decomposition))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_sampled_orbits_past_the_listing(self, n):
        # orbit_by_id decodes ids the listings refuse; the closed form
        # needs no listing
        shape = GridShape(n)
        rng = random.Random(n)
        ids = [1, orbit_count(shape)] + rng.sample(range(2, orbit_count(shape)), 12)
        for k in ids:
            node = orbit_by_id(shape, k)
            dec = node.decomposition
            matchings = matchings_of(dec)
            assert tuple(matchings) == node.matchings
            assert matchings_to_decomposition(shape, matchings) == dec
            assert matchings_sw_array(shape, matchings) == sw_array(assemble_canonical(dec))
            assert node.sw == sw_array(assemble_canonical(dec))

    def test_compositions_are_rooks(self, shape3, monkeypatch):
        # every window of every n = 3 orbit is one of the 52 rooks of size 4,
        # so a shared memo counts 52 tables for all 2,704 x 3 windows; the
        # memo is keyed by image vectors, entry a - 1 the height a reaches
        # (0 once dropped), one per matching; no dense rook is built
        from gridorbits import grid_quiver

        tables = {}
        combos = list(itertools.product(order_matchings(4), repeat=2))
        calls = count_calls(monkeypatch, [(grid_quiver, "rook_of_matching")])
        arrays = [matchings_sw_array(shape3, combo, tables) for combo in combos]
        assert calls == {"rook_of_matching": 0}
        assert len(tables) == 52
        assert tables == {
            tuple(m.get(a, 0) for a in range(1, 5)): rook_table(4, rook_cells(4, m))
            for m in order_matchings(4)
        }
        assert arrays == [matchings_sw_array(shape3, combo) for combo in combos]

    def test_census_commands_neither_multiply_nor_reduce(self, monkeypatch, capsys):
        from gridorbits import exact_linalg, grid_quiver, parametrizations

        calls = count_calls(monkeypatch, (
            (parametrizations, "sw_array"),
            (parametrizations, "sw_table"),
            (exact_linalg, "b_pivots"),
            (grid_quiver, "window_products"),
        ))
        for command in ("orbits", "poset", "count-report"):
            assert cli.main([command, "--n", "3"]) == 0
        assert capsys.readouterr().out
        assert calls == {"sw_array": 0, "sw_table": 0, "b_pivots": 0, "window_products": 0}

    @pytest.mark.parametrize("argv,made", [
        (["poset", "--n", "3"], 0),
        (["count-report", "--n", "3"], 0),
        (["orbits", "--n", "3", "--format", "json"], 52),  # the maps text, once per matching
    ])
    def test_dense_rooks_only_for_listed_maps(self, argv, made, monkeypatch, capsys):
        from gridorbits import grid_quiver

        calls = count_calls(monkeypatch, [(grid_quiver, "rook_of_matching")])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert calls == {"rook_of_matching": made}

    @pytest.mark.parametrize("argv", [
        ["orbits", "--n", "3", "--format", "json"],
        ["poset", "--n", "3", "--format", "dot"],
    ])
    def test_summand_texts_made_once_per_listing(self, argv, monkeypatch, capsys):
        # a label joins its summands' texts, each made once per command
        from gridorbits import grid_quiver

        made = []
        original = grid_quiver.summand_text

        def counted(summand):
            made.append(summand)
            return original(summand)

        for module in (grid_quiver, cli, orbit_poset):  # each binding by name
            if getattr(module, "summand_text", None) is original:
                monkeypatch.setattr(module, "summand_text", counted)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert made and len(made) == len(set(made))

    def test_orbits_listing_builds_no_point(self, monkeypatch, capsys):
        # each record's maps are written off its matchings' rooks
        from gridorbits import grid_quiver, serialize

        calls = count_calls(monkeypatch, (
            (grid_quiver, "assemble_canonical"),
            (grid_quiver, "make_point"),
            (serialize, "map_tuple_to_json"),
            (serialize, "scalar_to_str"),
        ))
        assert cli.main(["orbits", "--n", "3", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 2704
        assert calls == {
            "assemble_canonical": 0, "make_point": 0, "map_tuple_to_json": 0, "scalar_to_str": 0,
        }

    @pytest.mark.parametrize("n", [2, 3])
    def test_node_matchings_give_the_canonical_point(self, n, poset3):
        shape = GridShape(n)
        nodes = poset3.nodes if n == 3 else tuple(orbit_nodes(shape))
        assert len(nodes) == orbit_count(shape)
        for node in nodes:
            assert rook_point(shape, node.matchings) == assemble_canonical(node.decomposition)
            assert matchings_to_decomposition(shape, node.matchings) == node.decomposition

    @pytest.mark.parametrize("n", [2, 3])
    def test_record_maps_are_the_canonical_points(self, n):
        shape = GridShape(n)
        args = cli.build_parser().parse_args(["orbits", "--n", str(n), "--format", "json"])
        records = json.loads(cli._cmd_orbits(args))
        assert len(records) == orbit_count(shape)
        for record, dec in zip(records, enumerate_orbits(shape)):
            assert record["decomposition"] == str(dec)
            assert record["maps"] == map_tuple_to_json(assemble_canonical(dec))["maps"]


def random_closed_order(nodes, rng):
    """Transitive closure of a random DAG on ``nodes`` nodes, its
    topological order shuffled so the matrix is not triangular."""
    density = rng.uniform(0.02, 0.3)
    less = np.triu(rng.random((nodes, nodes)) < density, k=1)
    for k in range(nodes):  # Warshall: route every path through k
        less |= less[:, k:k + 1] & less[k:k + 1, :]
    perm = rng.permutation(nodes)
    return less[perm][:, perm]


class TestCovers:
    def test_orbit_orders_match_reference(self, shape2, less3):
        less2 = strict_order(tuple(orbit_nodes(shape2)))
        for less, edges in ((less2, len(HASSE_EDGES_15)), (less3, 13080)):
            cover = covers(less)
            assert np.array_equal(cover, reference_covers(less))
            assert int(cover.sum()) == edges

    @pytest.mark.parametrize("nodes", [1, 63, 64, 65, 129])
    def test_random_orders_match_reference(self, nodes):
        # 63..65 and 129 nodes put the last column on either side of a
        # 64-bit word boundary, where a word-packed order would slip
        rng = np.random.default_rng(nodes)
        for _ in range(4):
            less = random_closed_order(nodes, rng)
            assert np.array_equal(covers(less), reference_covers(less))

    @pytest.mark.parametrize("nodes", [0, 1, 70])
    def test_empty_order(self, nodes):
        less = np.zeros((nodes, nodes), dtype=bool)
        assert not covers(less).any()

    def test_chain(self):
        less = np.triu(np.ones((70, 70), dtype=bool), k=1)
        cover = covers(less)
        assert np.array_equal(cover, np.eye(70, k=1, dtype=bool))
        assert np.array_equal(cover, reference_covers(less))

    def test_traced_peak_memory(self, less3):
        # the dense float32 product peaks at 83.7 MB on the n = 3 order;
        # the walk over up-set ints peaks under 1 MB
        order = extension(less3)
        ups = as_upsets(less3[order][:, order])
        tracemalloc.start()
        try:
            orbit_poset._covers(ups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


def reference_upward_closed(arrays, flat):
    """Whether every array above a flagged one, other than itself, is
    flagged: the all-pairs loop :func:`flat_scan` ran before it read the
    order off :func:`array_order`."""
    return all(
        flat[j]
        for i in range(len(arrays))
        if flat[i]
        for j in range(len(arrays))
        if i != j and array_leq(arrays[i], arrays[j])
    )


class TestArrayOrder:
    def test_matches_array_leq(self, shape2):
        arrays = [node.sw for node in orbit_nodes(shape2)]
        leq = as_matrix(array_order(arrays))
        assert leq.tolist() == [[array_leq(a, b) for b in arrays] for a in arrays]

    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_arrays_match_reference(self, n, poset3):
        nodes = poset3.nodes if n == 3 else tuple(orbit_nodes(GridShape(n)))
        arrays = [node.sw for node in nodes]
        ups = array_order(arrays)
        assert all(type(up) is int for up in ups)
        assert np.array_equal(as_matrix(ups), reference_array_order(arrays))

    @pytest.mark.parametrize("n,count", [(3, 40), (4, 70), (5, 70)])
    def test_random_arrays_match_reference(self, n, count):
        # n = 4 and 5 have entries up to 5 and 6 and 90 and 210 entries
        # per array, more values and entries than any orbit array
        shape = GridShape(n)
        rng = np.random.default_rng(n)
        arrays = random_arrays(shape, count, rng)
        leq = as_matrix(array_order(arrays))
        assert np.array_equal(leq, reference_array_order(arrays))
        off_diagonal = leq & ~np.eye(count, dtype=bool)
        assert off_diagonal.any() and not leq.all()

    def test_equal_arrays_at_distinct_indices(self, shape3):
        rng = np.random.default_rng(7)
        arrays = random_arrays(shape3, 20, rng)
        arrays = arrays + arrays[::2]
        leq = as_matrix(array_order(arrays))
        assert np.array_equal(leq, reference_array_order(arrays))
        for k in range(10):
            assert leq[2 * k, 20 + k] and leq[20 + k, 2 * k]

    def test_zero_arrays_and_no_arrays(self, shape2):
        zero = sw_array(make_point(shape2, [[[0] * 3] * 3]))
        assert array_order([zero, zero]) == [0b11, 0b11]
        assert array_order([]) == []

    def test_traced_peak_memory(self, poset3):
        # the int16 broadcast of the reference peaks at 23.6 MB on the n = 3
        # arrays; the up-set ints peak under 3 MB
        arrays = [node.sw for node in poset3.nodes]
        tracemalloc.start()
        try:
            array_order(arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("n,sample", [(2, 15), (3, 80)])
    def test_upward_closure_matches_loop(self, n, sample):
        rng = random.Random(n)
        arrays = rng.sample([node.sw for node in orbit_nodes(GridShape(n))], sample)
        arrays += rng.sample(arrays, 5)  # equal arrays at distinct indices
        leq = as_matrix(array_order(arrays))
        outcomes = set()
        for trial in range(30):
            if trial % 3 == 0:  # a random candidate set
                density = rng.random()
                flat = [rng.random() < density for _ in arrays]
            else:  # the up-set of a few arrays, on every third trial less one member
                gens = rng.sample(arrays, rng.randint(1, 3))
                flat = [any(array_leq(g, b) for g in gens) for b in arrays]
                if trial % 3 == 2:
                    flat[rng.choice([i for i, f in enumerate(flat) if f])] = False
            mask = np.array(flat)
            closed = reference_upward_closed(arrays, flat)
            assert (not leq[mask][:, ~mask].any()) == closed
            outcomes.add(closed)
        assert outcomes == {True, False}


def random_arrays(shape, count, rng):
    """``count`` random arrays of the shape's table layout, entries 0..size,
    each after the first lowered from an earlier one in a few entries on
    every other draw, so that many pairs are comparable."""
    rows = [(w, p) for w in range(len(windows(shape))) for p in range(shape.size)]
    entries = sum(shape.size - p for _w, p in rows)
    flats = []
    for k in range(count):
        if k and k % 2:
            base = np.array(flats[rng.integers(len(flats))])
            drop = rng.random(entries) < 0.1
            flat = np.maximum(base - drop * rng.integers(1, shape.size + 1, entries), 0)
        else:
            flat = rng.integers(0, shape.size + 1, entries)
        flats.append(flat.tolist())
    out = []
    for flat in flats:
        it = iter(flat)
        tables = [[] for _ in windows(shape)]
        for w, p in rows:
            tables[w].append(tuple(next(it) for _ in range(shape.size - p)))
        out.append(SWArray(shape, tuple(tuple(t) for t in tables)))
    return out


DOT_NODE = re.compile(r'^  (o\d+) \[label="[^"]*"\];$')
DOT_EDGE = re.compile(r"^  (o\d+) -> (o\d+);$")


def parse_dot(text):
    """Tiny directed-graph DOT parser for the dialect the exporter emits."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        m = DOT_NODE.match(line)
        if m:
            nodes.append(m.group(1))
            continue
        m = DOT_EDGE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
            continue
        assert line.startswith("  ") and line.endswith(";"), f"unparsed: {line!r}"
    assert len(set(nodes)) == len(nodes)
    for u, v in edges:
        assert u in nodes and v in nodes
    return nodes, edges


class TestDot:
    def test_export_parses_and_matches(self, shape2):
        poset = build_poset(shape2)
        text = export_dot(poset)
        nodes, edges = parse_dot(text)
        assert len(nodes) == 15
        assert len(edges) == len(poset.edges) == len(HASSE_EDGES_15)

    def test_single_node_poset(self, shape2):
        poset = build_poset(shape2)
        tiny = OrbitPoset(shape2, poset.nodes[:1], ())
        nodes, edges = parse_dot(export_dot(tiny))
        assert len(nodes) == 1 and edges == []

    def test_byte_deterministic(self, shape2):
        assert export_dot(build_poset(shape2)) == export_dot(build_poset(shape2))
