"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run pytest with -s to stream them).

Criterion 6 cross-checks the two n = 3 censuses array by array.  The
direct enumeration gives one orbit per decomposition into thin summands
(tuples reducible to partial permutation form), 2704 in all, with pairwise
distinct south-west arrays.  The exhaustive F_2 census finds every array
that some 0/1 tuple realises, 3402 in all.  Each census array is either
the array of an enumerated orbit (2704) or that of a tuple whose maps
cannot be reduced simultaneously, so that `decompose` raises
`SolveFailure` (698): 3402 = 2704 + 698.  The pair (E22, E11 + E12) is a
2-line witness of the second kind (see also tests/test_decomposition.py
TestDecompose.test_no_thin_decomposition_raises).
"""

import random
import time
from contextlib import contextmanager

from gridorbits import decomposition
from gridorbits import (
    GridShape,
    SolveFailure,
    array_leq,
    assemble_canonical,
    borel_act,
    build_poset,
    count_report,
    decompose,
    enumerate_indecomposables,
    enumerate_orbits,
    euler_form,
    f2_census,
    flat_scan,
    full_dim_grid,
    hom_report,
    identity_tuple,
    independence_check,
    make_point,
    rank_vector,
    reconstruct,
    same_rank_vector,
    subrep_count,
    sw_array,
    target_dims,
    validate_array_inequalities,
)

from conftest import (
    CANONICAL_15,
    DECOMP_N3,
    HASSE_EDGES_15,
    INDECOMPOSABLE_VECTORS_12,
    RANK_VECTORS_15,
    flat_rank_vector,
    random_borel,
    random_point,
)
from test_degeneration_lab import W231, exhaustive_subrep_oracle
from test_orbit_poset import paper_index_map


@contextmanager
def criterion(num, text, budget_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL [{time.time() - start:6.2f}s] {text}")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {num:2d}: PASS [{elapsed:6.2f}s] {text}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_1_worked_example_exactness(shape2, diag011):
    with criterion(1, "worked-example rank vector and south-west table", 1.0):
        assert flat_rank_vector(diag011) == (0, 0, 1, 0, 1, 2)
        assert sw_array(diag011).tables[0] == ((0, 1, 2), (1, 2), (1,))


def test_criterion_2_orbit_census(shape2):
    with criterion(2, "15 orbits with the published matrices and rank vectors", 1.0):
        decs = enumerate_orbits(shape2)
        assert len(decs) == 15
        points = {}
        for dec in decs:
            pt = assemble_canonical(dec)
            mat = tuple(tuple(int(x) for x in row) for row in pt.maps[0].data)
            points[mat] = pt
        published = {tuple(tuple(row) for row in m): k for k, m in CANONICAL_15.items()}
        assert set(points) == set(published)
        for mat, pt in points.items():
            idx = published[mat]
            assert flat_rank_vector(pt) == RANK_VECTORS_15[idx]


def test_criterion_3_poset(shape2):
    with criterion(3, "degeneration poset matches the published diagram", 1.0):
        poset = build_poset(shape2)
        assert len(poset.nodes) == 15
        to_paper = paper_index_map(poset)
        assert {(to_paper[u], to_paper[v]) for u, v in poset.edges} == set(HASSE_EDGES_15)
        assert [to_paper[i] for i in poset.maximal()] == [1]
        assert [to_paper[i] for i in poset.minimal()] == [15]


def test_criterion_4_decomposition_roundtrip(pair_n3):
    with criterion(4, "published size-4 pair decomposes and reassembles exactly", 1.0):
        dec = decompose(pair_n3)
        assert set(dec.summands) == DECOMP_N3 and len(dec.summands) == 7
        assert assemble_canonical(dec) == pair_n3


def test_criterion_5_indecomposables(shape2):
    with criterion(5, "12 indecomposables with the published vectors; independence", 1.0):
        indecs = enumerate_indecomposables(shape2)
        assert len(indecs) == 12
        for h in indecs:
            vec = decomposition._indecomposable_vector(shape2, h)
            assert tuple(vec[:6] + decomposition.flat_entries(vec[6:], 3)) == INDECOMPOSABLE_VECTORS_12[h]
        assert independence_check(shape2) is True


def test_criterion_6_cross_oracle_count(shape3):
    with criterion(6, "n=3 orbit count: enumeration vs exhaustive F_2 census", 300.0):
        rep = count_report(shape3)
        census = f2_census(shape3)
        by_array = {sw_array(assemble_canonical(d)): d for d in enumerate_orbits(shape3)}
        # the enumerated orbits have pairwise distinct arrays, all in the census
        assert len(by_array) == rep.enumerated
        assert set(by_array) <= set(census)
        assert rep.f2_distinct == len(census)
        non_thin = set()
        for arr, maps in census.items():
            point = make_point(shape3, maps)
            # read over Q, the F_2 representative realises its own array
            assert sw_array(point) == arr
            try:
                dec = decompose(point)
            except SolveFailure:
                non_thin.add(arr)
                continue
            assert by_array.get(arr) == dec
        # the census is the enumerated arrays plus those of tuples with no
        # thin decomposition, among them the witness (E22, E11 + E12)
        assert set(by_array) == set(census) - non_thin
        f1 = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        f2 = [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        witness = make_point(shape3, [f1, f2])
        assert sw_array(witness) in non_thin
        print(
            f"  enumerated={rep.enumerated} = f2_distinct={rep.f2_distinct} "
            f"- non_thin={len(non_thin)}; formula={rep.paper_formula} "
            "(formula reported, not asserted)"
        )
        assert rep.enumerated == rep.f2_distinct - len(non_thin)


def test_criterion_7_flatness_pipeline(shape2):
    with criterion(7, "flatness pipeline on the worked permutation", 60.0):
        e = target_dims(W231)
        pt = identity_tuple(shape2)
        (row,) = [r for r in flat_scan(W231, qs=(2, 3, 4, 5, 7)).rows if r.decomposition == decompose(pt)]
        est = row.estimate
        assert est.degree == 2 and row.flat_candidate
        assert est.coefficients == (1, 2, 1)
        assert subrep_count(pt, e, 2) == exhaustive_subrep_oracle(pt, e, 2) == 9


def test_criterion_8_hom_audit(shape2):
    with criterion(8, "Hom-scheme audit reproduces all published dimensions", 120.0):
        rep = hom_report(W231, identity_tuple(shape2), qs=(2, 3, 4, 5, 7, 8, 9))
        got = (
            rep.dim_G,
            rep.dim_Gr,
            rep.dim_Hom0,
            rep.dim_V,
            rep.dim_Re,
            rep.codim,
            rep.indep_eqs,
            rep.lci,
        )
        assert got == (7, 2, 9, 17, 4, 8, 8, True)


def test_criterion_9_euler_bound(shape2):
    with criterion(9, "Euler-form bound equals 2 and floors every estimate", 60.0):
        e = target_dims(W231)
        d = full_dim_grid(shape2)
        dme = tuple(tuple(d[i][j] - e[i][j] for j in range(2)) for i in range(3))
        bound = euler_form(e, dme)
        assert bound == 2
        res = flat_scan(W231)
        assert all(row.estimate.degree >= bound for row in res.rows)


def test_criterion_10_property_suites():
    with criterion(10, "orbit-invariance, equivalence, round-trip, order properties", 300.0):
        rng = random.Random(123)
        # (a) invariance of both parametrisations under random base changes
        samples = {2: [], 3: []}
        for n in (2, 3):
            shape = GridShape(n)
            for _ in range(500):
                f = random_point(shape, rng)
                g = borel_act(f, random_borel(shape, rng))
                assert same_rank_vector(rank_vector(f), rank_vector(g))
                assert sw_array(f) == sw_array(g)
                if len(samples[n]) < 20:
                    samples[n].extend([f, g])
        # (b) the two parametrisations agree as equivalence relations
        for n in (2, 3):
            pool = samples[n]
            for a in pool:
                rva, swa = rank_vector(a), sw_array(a)
                for b in pool:
                    assert same_rank_vector(rva, rank_vector(b)) == (swa == sw_array(b))
        # (c) round trips and (d) inequality validation on every orbit
        for n in (2, 3):
            for dec in enumerate_orbits(GridShape(n)):
                pt = assemble_canonical(dec)
                arr = sw_array(pt)
                assert reconstruct(arr) == pt
                assert decompose(pt) == dec
                ok, violations = validate_array_inequalities(arr)
                assert ok, violations
        # (e) the degeneration relation is a partial order on the orbit set
        arrays = [sw_array(assemble_canonical(d)) for d in enumerate_orbits(GridShape(2))]
        for a in arrays:
            assert array_leq(a, a)
        for a in arrays:
            for b in arrays:
                if array_leq(a, b) and array_leq(b, a):
                    assert a == b
                for c in arrays:
                    if array_leq(a, b) and array_leq(b, c):
                        assert array_leq(a, c)
