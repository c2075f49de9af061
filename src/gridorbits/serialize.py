"""JSON (de)serialization of the domain types.

Scalars travel as exact strings ("3/2", "0", "-1"); integers may omit the
denominator.  All encoders produce deterministic key order.
"""

from __future__ import annotations

from fractions import Fraction

from .decomposition import RankVector, flat_intersections, inter_order
from .exact_linalg import Matrix
from .fields import QQ
from .grid_quiver import (
    Decomposition,
    GridShape,
    SizeMismatch,
    make_point,
    validate_heights,
    windows,
)
from .parametrizations import SWArray


def scalar_to_str(x):
    return str(Fraction(x))


def scalar_from_str(s):
    return Fraction(s)


def map_tuple_to_json(point):
    return {
        "n": point.shape.n,
        "maps": [
            [[scalar_to_str(x) for x in row] for row in m.data] for m in point.maps
        ],
    }


def map_tuple_from_json(obj):
    shape = GridShape(int(obj["n"]))
    mats = [
        Matrix(QQ, [[scalar_from_str(x) for x in row] for row in rows])
        for rows in obj["maps"]
    ]
    return make_point(shape, mats)


def height_vector_to_json(hv):
    return {"h": list(hv.h)}


def height_vector_from_json(obj, shape):
    return validate_heights(shape, obj["h"])


def decomposition_to_json(dec):
    return {
        "n": dec.shape.n,
        "summands": [{"h": list(h), "mult": mult} for h, mult in dec.summands],
    }


def decomposition_from_json(obj):
    shape = GridShape(int(obj["n"]))
    heights = []
    for s in obj["summands"]:
        heights.extend([tuple(s["h"])] * int(s["mult"]))
    return Decomposition.from_heights(shape, heights)


def rank_vector_to_json(rv):
    entries = [
        {"i": i, "j1": j1, "j2": j2, "k": k, "v": v}
        for (i, j1, j2, k), v in zip(inter_order(rv.shape), rv.inter)
    ]
    return {
        "n": rv.shape.n,
        "dims": [list(row) for row in rv.dims],
        "entries": entries,
        "flat": list(flat_intersections(rv)),
    }


def rank_vector_from_json(obj):
    shape = GridShape(int(obj["n"]))
    order = inter_order(shape)
    by_key = {(e["i"], e["j1"], e["j2"], e["k"]): e["v"] for e in obj["entries"]}
    return RankVector(
        shape,
        tuple(tuple(row) for row in obj["dims"]),
        tuple(by_key[key] for key in order),
    )


def sw_array_to_json(s):
    out_windows = []
    for (j1, j2), table in zip(windows(s.shape), s.tables):
        padded = [[None] * (p - 1) + list(row) for p, row in enumerate(table, start=1)]
        out_windows.append({"j1": j1, "j2": j2, "table": padded})
    return {"n": s.shape.n, "windows": out_windows}


def sw_array_from_json(obj):
    """Inverse of :func:`sw_array_to_json`; raises SizeMismatch unless every
    window of the shape has ``size`` rows of ``size`` entries, nulls included."""
    shape = GridShape(int(obj["n"]))
    size = shape.size
    by_window = {(w["j1"], w["j2"]): w["table"] for w in obj["windows"]}
    tables = []
    for (j1, j2) in windows(shape):
        padded = by_window.get((j1, j2))
        if padded is None:
            raise SizeMismatch(f"array of n = {shape.n} has no table for window ({j1},{j2})")
        if len(padded) != size or any(len(row) != size for row in padded):
            raise SizeMismatch(f"window ({j1},{j2}): table is not {size} rows of {size} entries")
        tables.append(
            tuple(tuple(int(x) for x in row[p - 1:]) for p, row in enumerate(padded, start=1))
        )
    return SWArray(shape, tuple(tables))
