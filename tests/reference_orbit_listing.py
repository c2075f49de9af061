"""The orbit listing that :func:`gridorbits.cli._cmd_orbits` is tested
against: every record built from scratch off its node, its rank vector read
entry by entry through :func:`table_entry`, the JSON written by one
``json.dumps(records, indent=2)`` pass and the CSV by a writer loop over the
records."""

import csv
import hashlib
import io
import json

from gridorbits.decomposition import flat_entries
from gridorbits.grid_quiver import rook_of_matching
from gridorbits.orbit_poset import orbit_nodes
from gridorbits.parametrizations import table_entry
from gridorbits.serialize import sw_array_to_json


def reference_rank_vector_from_sw(arr):
    """The intersection entries of the rank vector of the points whose
    south-west array is ``arr``, in the order of ``inter_order``."""
    shape = arr.shape
    entries = []
    for table in arr.tables:
        for i in range(1, shape.size + 1):
            full = table_entry(table, 1, i)
            for k in range(1, i):
                entries.append(full - table_entry(table, k + 1, i))
            entries.append(full)  # k = i: im is contained in C^i already
            entries.append(full)  # k = i+1: the plain rank slot
    return tuple(entries)


def reference_flat_rank_vector(arr):
    return flat_entries(reference_rank_vector_from_sw(arr), arr.shape.size)


def reference_sw_array_hash(arr):
    return hashlib.sha256(json.dumps(sw_array_to_json(arr), sort_keys=True).encode()).hexdigest()


def reference_orbit_records(shape):
    rows = {}
    records = []
    for node in orbit_nodes(shape):
        maps = []
        for m in node.matchings:
            key = tuple(sorted(m.items()))
            if key not in rows:
                rows[key] = [[str(x) for x in row] for row in rook_of_matching(shape.size, m)]
            maps.append(rows[key])
        records.append(
            {
                "id": node.id,
                "decomposition": str(node.decomposition),
                "rank_vector": reference_flat_rank_vector(node.sw),
                "sw_array_hash": reference_sw_array_hash(node.sw),
                "maps": maps,
            }
        )
    return records


def reference_orbits_json(shape):
    return json.dumps(reference_orbit_records(shape), indent=2) + "\n"


def reference_orbits_csv(shape):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "decomposition", "rank_vector", "sw_array_hash"])
    for r in reference_orbit_records(shape):
        rv = "(" + " ".join(str(x) for x in r["rank_vector"]) + ")"
        writer.writerow([r["id"], r["decomposition"], rv, r["sw_array_hash"]])
    return buf.getvalue()
