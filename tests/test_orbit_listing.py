"""The orbit listing of ``orbits --format json|csv`` against its reference:
every record built from scratch and one ``json.dumps(records, indent=2)``
pass (tests/reference_orbit_listing.py)."""

from __future__ import annotations

import io
import json
import random
import sys
import tracemalloc

import pytest

from gridorbits import GridShape, cli, decomposition
from gridorbits.decomposition import rank_vector
from gridorbits.grid_quiver import assemble_canonical
from gridorbits.orbit_poset import orbit_by_id, orbit_count, orbit_nodes
from gridorbits.parametrizations import sw_array
from gridorbits.serialize import rank_vector_to_json

from conftest import count_calls
from reference_orbit_listing import (
    reference_flat_rank_vector,
    reference_orbits_csv,
    reference_orbits_json,
    reference_rank_vector_from_sw,
    reference_sw_array_hash,
)

REFERENCE = {"json": reference_orbits_json, "csv": reference_orbits_csv}


def first_difference(got, want):
    """The first differing line of two texts, numbered from 1."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {number}: got {g!r}, want {w!r}"
    return f"line {min(len(got_lines), len(want_lines)) + 1}: one text ends ({len(got_lines)} vs {len(want_lines)} lines)"


def listing(n, fmt):
    """The text of ``orbits --n n --format fmt``, joined from the pieces the
    command hands to ``_emit``."""
    return "".join(cli._cmd_orbits(cli.build_parser().parse_args(["orbits", "--n", str(n), "--format", fmt])))


def indented_dumps(monkeypatch):
    """The objects of every indented ``json.dumps`` call from now on."""
    indented = []
    dumps = json.dumps

    def counted_dumps(obj, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", counted_dumps)
    return indented


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [2, 3])
def test_listing_text_is_the_reference(n, fmt):
    got = listing(n, fmt)
    want = REFERENCE[fmt](GridShape(n))
    assert got == want, first_difference(got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_record_hash_and_rank_vector_per_node(n):
    shape = GridShape(n)
    records = json.loads(listing(n, "json"))
    nodes = list(orbit_nodes(shape))
    assert len(records) == len(nodes) == orbit_count(shape)
    for record, node in zip(records, nodes):
        assert record["id"] == node.id
        assert record["sw_array_hash"] == reference_sw_array_hash(node.sw)
        assert record["rank_vector"] == reference_flat_rank_vector(node.sw)


def test_json_listing_reads_each_table_once(monkeypatch):
    # 52 rook tables serve all 2,704 x 3 windows at n = 3; no rank vector is
    # built whole and no encoder pass runs over the records
    calls = count_calls(monkeypatch, [
        (decomposition, "table_intersections"),
        (decomposition, "rank_vector"),
        (cli, "_dump"),
    ])
    indented = indented_dumps(monkeypatch)
    listing(3, "json")
    assert 0 < calls["table_intersections"] <= 52
    assert calls["rank_vector"] == calls["_dump"] == 0
    # the indented texts are the matchings' rows, 52 rooks of size 4
    assert 0 < len(indented) <= 52
    assert all(len(rows) == 4 and all(isinstance(x, str) for row in rows for x in row) for rows in indented)


def test_csv_listing_writes_no_json_text(monkeypatch):
    # the CSV rows are written off the row stream: one rank-vector text per
    # table and no record's JSON text
    calls = count_calls(monkeypatch, [(decomposition, "table_intersections")])
    indented = indented_dumps(monkeypatch)
    listing(3, "csv")
    assert 0 < calls["table_intersections"] <= 52
    assert indented == []


@pytest.mark.parametrize("n", [2, 3])
def test_rank_vector_per_table_on_every_node(n):
    # the rank-vector JSON, rendered from the tables, against the entries
    # read cell by cell
    for node in orbit_nodes(GridShape(n)):
        got = rank_vector_to_json(node.sw)
        assert tuple(e["v"] for e in got["entries"]) == reference_rank_vector_from_sw(node.sw)
        assert got["flat"] == reference_flat_rank_vector(node.sw)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rank_vector_per_table_on_sampled_orbits(n):
    shape = GridShape(n)
    ids = [1, orbit_count(shape)] + random.Random(n).sample(range(2, orbit_count(shape)), 12)
    for k in ids:
        point = assemble_canonical(orbit_by_id(shape, k).decomposition)
        assert rank_vector(point).inter == reference_rank_vector_from_sw(sw_array(point))


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_by_id_is_the_listed_node(n):
    shape = GridShape(n)
    for node in orbit_nodes(shape):
        decoded = orbit_by_id(shape, node.id)
        assert decoded == node
        assert decoded.matchings == node.matchings


class Discard(io.TextIOBase):
    """A text stream that keeps nothing it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_listing_memory_stays_flat(fmt, monkeypatch):
    # the 2,704 records are written one at a time, so neither the listing's
    # whole text (3.2 MB for JSON) nor a record per orbit is held: the peak
    # was 9.7 MB (JSON) and 1.4 MB (CSV) when the text was joined first
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        assert cli.main(["orbits", "--n", "3", "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
