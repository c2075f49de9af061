"""JSON (de)serialization of the domain types.

Scalars travel as exact strings ("3/2", "0", "-1"); integers may omit the
denominator.  All encoders produce deterministic key order.  The two
readers, for points and for south-west arrays, refuse missing keys, missing
or extra windows and mistyped values, naming the place.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .decomposition import flat_entries, inter_order, table_intersections
from .exact_linalg import Matrix
from .fields import QQ
from .grid_quiver import GridQuiverError, GridShape, SizeMismatch, full_dim_grid, make_point, windows
from .parametrizations import SWArray


def scalar_to_str(x):
    return str(x)  # an int or a Fraction, written as str(Fraction(x)) writes it


def scalar_from_str(s):
    return Fraction(s)


def map_tuple_to_json(point):
    return {
        "n": point.shape.n,
        "maps": [
            [[scalar_to_str(x) for x in row] for row in m.data] for m in point.maps
        ],
    }


def _checked(x, ok, where, what):
    """x, or a GridQuiverError saying that ``where`` must be ``what``."""
    if not ok:
        shown = "an array" if type(x) is list else "an object" if type(x) is dict else json.dumps(x)
        raise GridQuiverError(f"{where} must be {what}, got {shown}")
    return x


def _get(obj, key, where="input"):
    return _checked(obj, type(obj) is dict and key in obj, where, f"an object with key {key!r}")[key]


def _items(x, where):
    return enumerate(_checked(x, type(x) is list, where, "an array"), start=1)


def _int(x, where):
    return _checked(x, type(x) is int, where, "an integer")  # JSON true is a bool, not an int


def _shape(obj):
    n = _int(_get(obj, "n"), "key 'n'")
    return GridShape(_checked(n, n >= 2, "key 'n'", "an integer >= 2"))


def _scalar(x, where):
    """A JSON integer, or a string that reads as an exact rational."""
    try:
        return scalar_from_str(_checked(x, type(x) in (int, str), where, "an integer or a string"))
    except (ValueError, ZeroDivisionError):
        return _checked(x, False, where, "an exact scalar string")


def map_tuple_from_json(obj):
    shape = _shape(obj)
    mats = [
        Matrix(QQ, [
            [_scalar(x, f"map {m}, entry ({r},{c})") for c, x in _items(row, f"map {m}, row {r}")]
            for r, row in _items(rows, f"map {m}")
        ])
        for m, rows in _items(_get(obj, "maps"), "key 'maps'")
    ]
    return make_point(shape, mats)


def decomposition_to_json(dec):
    # the format keeps its "mult" key: no summand of a decomposition repeats
    return {
        "n": dec.shape.n,
        "summands": [{"h": list(h), "mult": 1} for h in dec.summands],
    }


def rank_vector_to_json(arr):
    """The rank vector of the points whose south-west array is ``arr``,
    rendered from its tables (:func:`~gridorbits.decomposition.table_intersections`)."""
    shape = arr.shape
    inter = [x for table in arr.tables for x in table_intersections(table)]
    entries = [
        {"i": i, "j1": j1, "j2": j2, "k": k, "v": v}
        for (i, j1, j2, k), v in zip(inter_order(shape), inter)
    ]
    return {
        "n": shape.n,
        "dims": [list(row) for row in full_dim_grid(shape)],
        "entries": entries,
        "flat": flat_entries(inter, shape.size),
    }


def window_to_json(window, table):
    """One window of :func:`sw_array_to_json`: its table's rows padded with
    nulls to full ``size x size`` rows."""
    padded = [[None] * (p - 1) + list(row) for p, row in enumerate(table, start=1)]
    return {"j1": window[0], "j2": window[1], "table": padded}


def sw_array_to_json(s):
    return {"n": s.shape.n, "windows": list(map(window_to_json, windows(s.shape), s.tables))}


def sw_array_from_json(obj):
    """Inverse of :func:`sw_array_to_json`; raises SizeMismatch unless the windows
    are the shape's, each once as ``size`` rows of ``size`` entries, nulls included,
    and GridQuiverError unless every cell below the diagonal is null and every
    other cell an integer."""
    shape = _shape(obj)
    size, last = shape.size, shape.num_maps
    by_window = {}
    for k, win in _items(_get(obj, "windows"), "key 'windows'"):
        where = f"windows item {k}"
        key = tuple(_int(_get(win, j, where), f"{where}, {j}") for j in ("j1", "j2"))
        if not 1 <= key[0] <= key[1] <= last or key in by_window:
            raise SizeMismatch(f"window ({key[0]},{key[1]}) is repeated or not in an array of n = {shape.n}")
        by_window[key] = _get(win, "table", where)
    # the shape's windows in order, one at a time: a missing table is found
    # within len(by_window) + 1 steps, whatever n the input claims
    tables = []
    for (j1, j2) in ((j1, j2) for j1 in range(1, last + 1) for j2 in range(j1, last + 1)):
        padded = by_window.get((j1, j2))
        if padded is None:
            raise SizeMismatch(f"array of n = {shape.n} has no table for window ({j1},{j2})")
        if type(padded) is not list or len(padded) != size or any(
                type(row) is not list or len(row) != size for row in padded):
            raise SizeMismatch(f"window ({j1},{j2}): table is not {size} rows of {size} entries")
        tables.append(tuple(
            tuple(_int(x, f"window ({j1},{j2}), cell ({p},{q})") for q, x in enumerate(row[p - 1:], start=p))
            for p, row in enumerate(padded, start=1)
        ))
    # the cells below each diagonal last, so an input refused for another
    # reason keeps that reason
    for (j1, j2) in windows(shape):
        for p, row in enumerate(by_window[(j1, j2)], start=1):
            for q, x in enumerate(row[:p - 1], start=1):
                _checked(x, x is None, f"window ({j1},{j2}), cell ({p},{q})", "null")
    return SWArray(shape, tuple(tables))
