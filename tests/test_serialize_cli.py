import argparse
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gridorbits
from gridorbits import (
    GridQuiverError,
    GridShape,
    SizeMismatch,
    assemble_canonical,
    enumerate_orbits,
    inter_order,
    make_point,
    rank_vector,
    sw_array,
)
from gridorbits import grid_quiver, orbit_poset
from gridorbits.cli import _orbit_by_id, build_parser, main
from gridorbits.serialize import (
    map_tuple_from_json,
    map_tuple_to_json,
    rank_vector_to_json,
    sw_array_from_json,
    sw_array_to_json,
)

from conftest import count_calls
from test_orbit_poset import parse_dot

DIAG011_JSON = {"n": 2, "maps": [[["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]}
ZERO_TABLE = [[0, 0, 0], [None, 0, 0], [None, None, 0]]


def zero_table_with(p, q, x):
    """ZERO_TABLE with its cell (p, q) replaced by the JSON value x."""
    table = [list(row) for row in ZERO_TABLE]
    table[p - 1][q - 1] = x
    return table


def with_entry(x):
    """DIAG011_JSON with its (2,2) entry replaced by the JSON value x."""
    maps = json.loads(json.dumps(DIAG011_JSON["maps"]))
    maps[0][1][1] = x
    return {"n": 2, "maps": maps}


class TestJsonRoundTrips:
    def test_map_tuple(self, shape2):
        pt = make_point(shape2, [[[Fraction(3, 2), 1, 0], [0, -1, 0], [0, 0, 7]]])
        obj = map_tuple_to_json(pt)
        assert obj["maps"][0][0][0] == "3/2"
        assert obj["maps"][0][1][1] == "-1"
        assert map_tuple_from_json(json.loads(json.dumps(obj))) == pt

    def test_rank_vector(self, diag011):
        rv = rank_vector(diag011)
        obj = rank_vector_to_json(rv)
        assert obj["flat"] == [0, 0, 1, 0, 1, 2]

    def test_sw_array_null_padding(self, diag011):
        arr = sw_array(diag011)
        obj = sw_array_to_json(arr)
        assert obj["windows"][0]["table"] == [[0, 1, 2], [None, 1, 2], [None, None, 1]]
        assert sw_array_from_json(json.loads(json.dumps(obj))) == arr

    def test_multi_window_round_trips(self, pair_n3):
        rv = rank_vector(pair_n3)
        entries = rank_vector_to_json(rv)["entries"]
        assert [(e["i"], e["j1"], e["j2"], e["k"]) for e in entries] == inter_order(pair_n3.shape)
        assert tuple(e["v"] for e in entries) == rv.inter
        arr = sw_array(pair_n3)
        assert sw_array_from_json(json.loads(json.dumps(sw_array_to_json(arr)))) == arr


def run_cli(*args, stdin=None):
    # the subprocess imports the sources the tests import
    src = str(Path(gridorbits.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridorbits.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_public_api_inventory():
    # every name the package exports; a new or removed name must be changed here
    assert sorted(gridorbits.__all__) == [
        "CountReport", "DEFAULT_BUDGET", "DEFAULT_QS", "Decomposition", "DimEstimate",
        "FitFailure", "FlatScanResult", "FlatScanRow", "GF", "GaloisField",
        "GridQuiverError", "GridShape", "HeightVectorError", "HomReport",
        "InfeasibleSize", "InvalidDecomposition", "InvalidTable", "MapTuple", "Matrix",
        "NoPointFound", "OrbitNode", "OrbitPoset", "QQ", "RankVector", "RationalField",
        "ReconstructInvalid", "SWArray", "SizeMismatch", "SolveFailure",
        "TriangularityViolation", "array_leq", "array_order", "assemble_canonical",
        "b_reduce", "bell", "borel_act", "build_poset", "column_heights",
        "contains_pattern", "count_report", "decompose", "decomposition", "degenerates",
        "degeneration_lab", "dims_of_heights", "e_grid", "enumerate_indecomposables",
        "enumerate_orbits", "estimate_dim", "euler_form", "exact_linalg", "export_dot",
        "f2_census", "f2_distinct_count", "fields", "fit_dimension",
        "flat_intersections", "flat_scan", "full_dim_grid", "full_vector",
        "grid_quiver", "heights_rank_vector", "hom_report", "identity_tuple",
        "independence_check", "inter_order", "inverse", "is_prime_power", "is_smooth",
        "is_upper_triangular", "length", "make_point", "matchings_sw_array",
        "matchings_to_decomposition", "orbit_by_id", "orbit_count", "orbit_nodes",
        "orbit_poset", "order_matchings", "parametrizations", "pivots", "point_counts",
        "r_grid", "rank", "rank_vector", "rank_vector_from_sw",
        "reconstruct", "rep_variety_count", "rook_table", "same_orbit",
        "same_rank_vector", "schubert", "subrep_count", "subspaces", "sw_array",
        "sw_table", "target_dims", "validate_array_inequalities", "validate_heights",
        "windows", "zero_tuple",
    ]


def test_engine_runs_without_numpy():
    # numpy is a test dependency only: a fresh interpreter runs the order,
    # the census and the flat scan without importing it
    script = """
import contextlib, io, sys
import gridorbits
import gridorbits.cli as cli
for argv in (["poset", "--n", "2"], ["count-report", "--n", "2"],
             ["flat-scan", "--w", "2,3,1", "--qs", "2,3,4,5,7"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    src = str(Path(gridorbits.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.fixture
def diag011_file(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(DIAG011_JSON))
    return str(path)


class TestCli:
    def test_rank_vector_flat_print(self, diag011_file):
        code, out, _ = run_cli("rank-vector", diag011_file)
        assert code == 0 and out == "(0,0,1,0,1,2)\n"

    def test_rank_vector_stdin(self):
        code, out, _ = run_cli("rank-vector", "-", stdin=json.dumps(DIAG011_JSON))
        assert code == 0 and out.strip() == "(0,0,1,0,1,2)"

    def test_zero_point(self):
        zero = {"n": 2, "maps": [[["0"] * 3 for _ in range(3)]]}
        code, out, _ = run_cli("rank-vector", "-", stdin=json.dumps(zero))
        assert code == 0 and out.strip() == "(0,0,0,0,0,0)"

    def test_malformed_json(self):
        code, out, err = run_cli("rank-vector", "-", stdin="{not json")
        assert code == 2
        assert "line" in err and "column" in err

    def test_usage_error_exit_code(self):
        code, out, err = run_cli("no-such-command")
        assert (code, out) == (1, "")
        # the usage, then argparse's reason naming the offending command
        assert err.startswith("usage: gridorbits ")
        assert "\ngridorbits: error: argument command: invalid choice: 'no-such-command'" in err

    def test_sw_array_and_validate(self, diag011_file, tmp_path):
        code, out, _ = run_cli("sw-array", diag011_file)
        assert code == 0
        arr_path = tmp_path / "arr.json"
        arr_path.write_text(out)
        code, out, _ = run_cli("validate-array", str(arr_path))
        assert code == 0
        report = json.loads(out)
        assert report["inequalities_ok"] and report["realizable"]

    def test_validate_rejects_bad_array(self, tmp_path):
        bad = {
            "n": 2,
            "windows": [{"j1": 1, "j2": 1, "table": [[2, 2, 2], [None, 0, 0], [None, None, 0]]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli("validate-array", str(path))
        assert code == 0
        report = json.loads(out)
        assert not report["inequalities_ok"]

    @pytest.mark.parametrize(
        "arr,message",
        [
            (
                {"n": 3, "windows": [{"j1": 1, "j2": 1, "table": [[0] * 4] * 4}]},
                "array of n = 3 has no table for window (1,2)",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": [[0, 1], [None, 1]]}]},
                "window (1,1): table is not 3 rows of 3 entries",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": [[0, 1, 2], [None, 1], [None, None, 1]]}]},
                "window (1,1): table is not 3 rows of 3 entries",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": zero_table_with(2, 2, None)}]},
                "window (1,1), cell (2,2) must be an integer, got null",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": zero_table_with(1, 3, 1.7)}]},
                "window (1,1), cell (1,3) must be an integer, got 1.7",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": zero_table_with(1, 3, True)}]},
                "window (1,1), cell (1,3) must be an integer, got true",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": j2, "table": ZERO_TABLE} for j2 in (1, 2)]},
                "window (1,2) is repeated or not in an array of n = 2",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": ZERO_TABLE}] * 2},
                "window (1,1) is repeated or not in an array of n = 2",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": None}]},
                "array of n = 2 has no table for window (1,1)",
            ),
            (
                {"n": 2, "windows": [{"j1": "1", "j2": 1, "table": ZERO_TABLE}]},
                'windows item 1, j1 must be an integer, got "1"',
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "table": ZERO_TABLE}]},
                "windows item 1 must be an object with key 'j2', got an object",
            ),
            ({"n": 2}, "input must be an object with key 'windows', got an object"),
            ([1, 2], "input must be an object with key 'n', got an array"),
            ({"n": 2.9, "windows": []}, "key 'n' must be an integer, got 2.9"),
            ({"n": True, "windows": []}, "key 'n' must be an integer, got true"),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": [[0, 0, 0], [5, 0, 0], ["x", [], 0]]}]},
                "window (1,1), cell (2,1) must be null, got 5",
            ),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": zero_table_with(3, 2, 0)}]},
                "window (1,1), cell (3,2) must be null, got 0",
            ),
            ({"n": 1, "windows": []}, "key 'n' must be an integer >= 2, got 1"),
            (
                {"n": 2, "windows": [{"j1": 1, "j2": 1, "table": zero_table_with(1, 2, 3.0)}]},
                "window (1,1), cell (1,2) must be an integer, got 3.0",
            ),
            ({"n": 2, "windows": {}}, "key 'windows' must be an array, got an object"),
        ],
    )
    def test_malformed_array_refused(self, arr, message, tmp_path, capsys):
        # a window or table that does not fit the shape is a SizeMismatch,
        # a value of the wrong JSON type a plain GridQuiverError
        error = GridQuiverError if " must be " in message else SizeMismatch
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            sw_array_from_json(arr)
        assert type(info.value) is error
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(arr))
        assert main(["validate-array", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "win,message",
        [
            (
                {"j1": 1, "j2": 1, "table": ZERO_TABLE},
                "window (1,1): table is not 1000001 rows of 1000001 entries",
            ),
            (
                {"j1": 2, "j2": 5, "table": ZERO_TABLE},
                "array of n = 1000000 has no table for window (1,1)",
            ),
            (
                {"j1": 5, "j2": 10 ** 6},
                "window (5,1000000) is repeated or not in an array of n = 1000000",
            ),
        ],
    )
    def test_large_n_array_refused_without_listing_windows(self, win, message, monkeypatch):
        # n = 10**6 has about 5 * 10**11 windows; a one-window input is
        # refused after a step or two, without building the shape's list
        from gridorbits import grid_quiver, serialize

        def windows(shape):
            if shape.n > 100:
                raise AssertionError(f"the reader listed the windows of n = {shape.n}")
            return grid_quiver.windows(shape)

        monkeypatch.setattr(serialize, "windows", windows)
        with pytest.raises(SizeMismatch, match=f"^{re.escape(message)}$"):
            sw_array_from_json({"n": 10 ** 6, "windows": [win]})

    @pytest.mark.parametrize(
        "point,message",
        [
            ({"n": 2}, "input must be an object with key 'maps', got an object"),
            ([1, 2], "input must be an object with key 'n', got an array"),
            ({**DIAG011_JSON, "n": 2.9}, "key 'n' must be an integer, got 2.9"),
            ({**DIAG011_JSON, "n": True}, "key 'n' must be an integer, got true"),
            ({"n": 2, "maps": "abc"}, "key 'maps' must be an array, got \"abc\""),
            ({"n": 2, "maps": [[["0"] * 3, "x", ["0"] * 3]]}, "map 1, row 2 must be an array, got \"x\""),
            (with_entry(0.1), "map 1, entry (2,2) must be an integer or a string, got 0.1"),
            (with_entry(1.0), "map 1, entry (2,2) must be an integer or a string, got 1.0"),
            (with_entry(True), "map 1, entry (2,2) must be an integer or a string, got true"),
            (with_entry(None), "map 1, entry (2,2) must be an integer or a string, got null"),
            (with_entry("abc"), "map 1, entry (2,2) must be an exact scalar string, got \"abc\""),
            (with_entry("1/0"), "map 1, entry (2,2) must be an exact scalar string, got \"1/0\""),
            ({"n": 1, "maps": []}, "key 'n' must be an integer >= 2, got 1"),
        ],
    )
    def test_malformed_point_refused(self, point, message, tmp_path, capsys):
        with pytest.raises(GridQuiverError, match=f"^{re.escape(message)}$"):
            map_tuple_from_json(point)
        path = tmp_path / "point.json"
        path.write_text(json.dumps(point))
        assert main(["sw-array", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_file_errors_are_domain_errors(self, diag011_file, tmp_path):
        # a missing input and an --out in a missing directory: exit 2 and
        # one error line naming the file, no traceback
        missing = str(tmp_path / "missing.json")
        unwritable = str(tmp_path / "nodir" / "x.json")
        for args, path in (((missing,), missing), ((diag011_file, "--out", unwritable), unwritable)):
            code, out, err = run_cli("sw-array", *args)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and path in err and err.count("\n") == 1

    def test_exact_scalars_accepted(self):
        # integers and exact strings, decimal ones included, read exactly
        point = map_tuple_from_json({"n": 2, "maps": [[[0, "1/2", "0.1"], [0, 1, "-3"], [0, 0, "2"]]]})
        assert point.maps[0].data[0] == (0, Fraction(1, 2), Fraction(1, 10))
        assert point.maps[0].data[1] == (0, 1, -3)

    def test_decompose_and_canonical(self, diag011_file):
        code, out, _ = run_cli("decompose", diag011_file)
        assert code == 0
        summands = json.loads(out)["summands"]
        assert {tuple(s["h"]) for s in summands} == {(0, 3), (1, 1), (2, 2), (3, 0)}
        code, out, _ = run_cli("canonical", diag011_file)
        assert code == 0
        assert json.loads(out) == DIAG011_JSON

    def test_canonical_of_rational_point(self):
        # same orbit as diag(0,1,1): bottom-right block invertible, top row 0
        messy = {"n": 2, "maps": [[["0", "3/2", "-1"], ["0", "2", "5"], ["0", "0", "1/3"]]]}
        code, out, _ = run_cli("canonical", "-", stdin=json.dumps(messy))
        assert code == 0
        assert json.loads(out) == DIAG011_JSON

    def test_same_orbit_and_degenerates(self, diag011_file, tmp_path):
        other = {"n": 2, "maps": [[["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]]}
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other))
        assert run_cli("same-orbit", diag011_file, diag011_file)[:2] == (0, "true\n")
        assert run_cli("same-orbit", diag011_file, str(path))[:2] == (0, "false\n")
        assert run_cli("degenerates", diag011_file, str(path))[:2] == (0, "true\n")
        assert run_cli("degenerates", str(path), diag011_file)[:2] == (0, "false\n")

    def test_orbits_census(self):
        code, out, _ = run_cli("orbits", "--n", "2")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 15
        code, out, _ = run_cli("orbits", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,decomposition,rank_vector,sw_array_hash"
        assert len(lines) == 16

    def test_orbit_records_compute_one_array_per_orbit(self, monkeypatch, capsys):
        # each array is read off the orbit's matchings by the node walk, one
        # SWArray per orbit, and none off its point
        from gridorbits import orbit_poset, parametrizations

        calls = {"SWArray": [], "sw_array": []}
        for defined, attr in ((orbit_poset, "SWArray"), (parametrizations, "sw_array")):
            original = getattr(defined, attr)

            def counted(*args, _calls=calls[attr], _original=original):
                _calls.append(args)
                return _original(*args)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "gridorbits" and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted)
        assert main(["orbits", "--n", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == len(calls["SWArray"]) == 15
        assert calls["sw_array"] == []

    def test_poset_dot(self):
        code, out, _ = run_cli("poset", "--n", "2", "--format", "dot")
        assert code == 0
        nodes, edges = parse_dot(out)
        assert len(nodes) == 15 and len(edges) == 24

    def test_orbits_dot_alias(self):
        code, out, _ = run_cli("orbits", "--n", "2", "--format", "dot")
        assert code == 0
        nodes, edges = parse_dot(out)
        assert len(nodes) == 15 and len(edges) == 24

    @pytest.mark.parametrize(
        "args",
        [
            ("poset", "--n", "4"),
            ("orbits", "--n", "4", "--format", "dot"),
            ("orbits", "--n", "4", "--format", "json"),
            ("orbits", "--n", "4", "--format", "csv"),
            ("flat-scan", "--w", "2,3,4,5,1"),
        ],
    )
    def test_poset_refused_past_n3(self, args, capsys):
        # n = 4 has 8,365,427 orbit nodes: refused before enumerating any
        start = time.perf_counter()
        code = main(list(args))
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "8365427 orbit nodes" in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("n", [65, 1000])
    @pytest.mark.parametrize("command", ["orbits", "poset", "count-report"])
    def test_counts_past_n64_refused(self, command, n, capsys):
        # b_(n+2)^(n-1) has 4,431 digits at n = 65: refused before it is
        # computed or written, not by Python's integer-to-text limit
        start = time.perf_counter()
        code = main([command, "--n", str(n)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: n = {n} has more than 10^4300 orbit nodes;" in err
        assert "digits" not in err
        assert elapsed < 1.0

    def test_count_report_answers_at_n64(self, capsys):
        assert main(["count-report", "--n", "64"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["enumerated"] == orbit_poset.bell(66) ** 63
        assert report["f2_distinct"] is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_ids_index_the_enumeration(self, n):
        shape = GridShape(n)
        decs = enumerate_orbits(shape)
        assert [_orbit_by_id(shape, str(i)) for i in range(1, len(decs) + 1)] == [
            assemble_canonical(dec) for dec in decs
        ]
        for idx in (0, len(decs) + 1):
            with pytest.raises(GridQuiverError, match=f"^orbit id {idx} out of range 1..{len(decs)}$"):
                _orbit_by_id(shape, str(idx))

    def test_orbit_id_builds_the_rook_point(self, monkeypatch, capsys):
        # the point is the rook point of the decoded matchings; no
        # decomposition is turned back into matchings
        calls = count_calls(monkeypatch, [(grid_quiver, "assemble_canonical")])
        assert main(["hom-report", "--w", "2,3,1", "--orbit", "7"]) == 0
        assert json.loads(capsys.readouterr().out)
        assert calls["assemble_canonical"] == 0

    def test_orbit_id_past_n3_enumerates_nothing(self, monkeypatch, capsys):
        # n = 4 has 8,365,427 orbits; the id is decoded, not looked up
        def enumerated(shape):
            raise AssertionError("the orbits were enumerated")

        monkeypatch.setattr(orbit_poset, "enumerate_orbits", enumerated)
        start = time.perf_counter()
        code = main(["hom-report", "--w", "2,3,4,5,1", "--orbit", "7"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"error: representation variety has q\^\d+ candidate points\n", err)
        assert elapsed < 1.0

    def test_schubert(self):
        code, out, _ = run_cli("schubert", "--w", "2,3,1")
        assert code == 0
        obj = json.loads(out)
        assert obj["length"] == 2 and obj["smooth"]
        assert obj["e_grid"] == [[0, 0], [1, 1], [1, 2]]

    def test_count_report(self):
        code, out, _ = run_cli("count-report", "--n", "2")
        assert code == 0
        assert json.loads(out) == {"enumerated": 15, "f2_distinct": 15, "paper_formula": 15}

    def test_flat_scan_csv(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            "flat-scan", "--w", "2,3,1", "--qs", "2,3,4,5,7", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("orbit_id,decomposition,count_q2,count_q3")
        assert len(lines) == 16

    def test_hom_report(self):
        code, out, _ = run_cli(
            "hom-report", "--w", "2,3,1", "--orbit", "identity", "--qs", "2,3,4,5,7,8"
        )
        assert code == 0
        obj = json.loads(out)
        assert (
            obj["dim_G"],
            obj["dim_Gr"],
            obj["dim_Hom0"],
            obj["dim_V"],
            obj["dim_Re"],
            obj["codim"],
            obj["indep_eqs"],
            obj["lci"],
        ) == (7, 2, 9, 17, 4, 8, 8, True)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("flat-scan", "--w", "2,3,1", "--qs", "2,2,3"), "field size q = 2 is repeated"),
            (("flat-scan", "--w", "2,3,1", "--qs", "2,3,6"), "q must be a prime power <= 9, got 6"),
            (("flat-scan", "--w", "2,3,1", "--budget", "0"), "budget must be positive"),
            (
                ("hom-report", "--w", "2,3,1", "--orbit", "zero", "--budget", "0"),
                "budget must be positive",
            ),
            (("flat-scan", "--w", "2,3,4,1", "--qs", "8,9"), "need at least 3 distinct field sizes"),
            (
                ("hom-report", "--w", "2,3,1", "--orbit", "abc"),
                "--orbit must be an orbit id, 'identity' or 'zero', got 'abc'",
            ),
            (
                ("hom-report", "--w", "2,x,1", "--orbit", "zero"),
                "--w must be comma-separated integers, got '2,x,1'",
            ),
            (
                ("flat-scan", "--w", "2,3,1", "--qs", "2,a"),
                "--qs must be comma-separated integers, got '2,a'",
            ),
            (("flat-scan", "--w", "2,3,1", "--qs", ""), "--qs must be comma-separated integers, got ''"),
        ],
    )
    def test_experiment_flags_checked(self, args, message):
        code, out, err = run_cli(*args)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args",
        [
            ("schubert", "--w", "2,3,1", "--threads", "2"),
            ("flat-scan", "--w", "2,3,1", "--seed", "1"),
            ("hom-report", "--w", "2,3,1", "--orbit", "zero", "--seed", "1"),
        ],
    )
    def test_removed_flags_are_usage_errors(self, args):
        code, out, err = run_cli(*args)
        assert (code, out) == (1, "")
        assert err.startswith("usage: gridorbits ")
        assert err.endswith(f"\ngridorbits: error: unrecognized arguments: {' '.join(args[-2:])}\n")

    def test_flag_inventory(self):
        # every option of every subcommand; a new flag must be added here
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        inventory = {
            name: sorted(s for action in p._actions for s in action.option_strings)
            for name, p in sub.choices.items()
        }
        point = ["--help", "--out", "-h"]
        census = ["--format", "--help", "--n", "--out", "-h"]
        assert inventory == {
            "rank-vector": point,
            "sw-array": point,
            "decompose": point,
            "canonical": point,
            "same-orbit": point,
            "degenerates": point,
            "orbits": census,
            "poset": census,
            "schubert": ["--help", "--out", "--w", "-h"],
            "flat-scan": ["--budget", "--help", "--out", "--qs", "--w", "-h"],
            "hom-report": ["--budget", "--help", "--orbit", "--out", "--qs", "--w", "-h"],
            "validate-array": point,
            "count-report": ["--help", "--n", "--out", "-h"],
        }

    def test_deterministic_output(self):
        a = run_cli("orbits", "--n", "2", "--format", "csv")
        b = run_cli("orbits", "--n", "2", "--format", "csv")
        assert a == b
