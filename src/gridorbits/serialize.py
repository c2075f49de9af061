"""JSON (de)serialization of the domain types.

Scalars travel as exact strings ("3/2", "0", "-1"); integers may omit the
denominator.  All encoders produce deterministic key order.  The readers
refuse missing keys, extra windows or entries, mistyped values and invalid
height vectors, naming the place.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .decomposition import RankVector, flat_intersections, inter_order
from .exact_linalg import Matrix
from .fields import QQ
from .grid_quiver import (
    Decomposition,
    GridQuiverError,
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


def height_vector_to_json(hv):
    return {"h": list(hv.h)}


def height_vector_from_json(obj, shape):
    return _heights(_get(obj, "h"), shape, "key 'h'")


def _heights(x, shape, where):
    """A validated height vector; a refusal keeps its class and names ``where``."""
    h = [_int(v, f"{where}, entry {k}") for k, v in _items(x, where)]
    try:
        return validate_heights(shape, h)
    except GridQuiverError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def decomposition_to_json(dec):
    return {
        "n": dec.shape.n,
        "summands": [{"h": list(h), "mult": mult} for h, mult in dec.summands],
    }


def decomposition_from_json(obj):
    shape = _shape(obj)
    heights = []
    for k, summand in _items(_get(obj, "summands"), "key 'summands'"):
        where = f"summands item {k}"
        mult = _int(_get(summand, "mult", where), f"{where}, mult")
        _checked(mult, mult > 0, f"{where}, mult", "a positive integer")
        heights.extend([_heights(_get(summand, "h", where), shape, f"{where}, h").h] * mult)
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
    """Inverse of :func:`rank_vector_to_json` (``flat`` is derived, not read);
    raises SizeMismatch unless each (i, j1, j2, k) of the shape has one entry
    and ``dims`` is size x n, and GridQuiverError unless each value is an int."""
    shape = _shape(obj)
    order = inter_order(shape)
    by_key = {}
    for e, entry in _items(_get(obj, "entries"), "key 'entries'"):
        where = f"entries item {e}"
        key = tuple(_int(_get(entry, c, where), f"{where}, {c}") for c in ("i", "j1", "j2", "k"))
        if key not in order or key in by_key:
            cell = ",".join(map(str, key))
            raise SizeMismatch(f"entry ({cell}) is repeated or not in a rank vector of n = {shape.n}")
        by_key[key] = _int(_get(entry, "v", where), f"{where}, v")
    if len(by_key) < len(order):
        missing = next(key for key in order if key not in by_key)
        raise SizeMismatch(f"rank vector of n = {shape.n} has no entry ({','.join(map(str, missing))})")
    dims = tuple(
        tuple(_int(x, f"dims row {r}, entry {c}") for c, x in _items(row, f"dims row {r}"))
        for r, row in _items(_get(obj, "dims"), "key 'dims'")
    )
    if len(dims) != shape.size or any(len(row) != shape.n for row in dims):
        raise SizeMismatch(f"dims is not {shape.size} rows of {shape.n} entries")
    return RankVector(shape, dims, tuple(by_key[key] for key in order))


def sw_array_to_json(s):
    out_windows = []
    for (j1, j2), table in zip(windows(s.shape), s.tables):
        padded = [[None] * (p - 1) + list(row) for p, row in enumerate(table, start=1)]
        out_windows.append({"j1": j1, "j2": j2, "table": padded})
    return {"n": s.shape.n, "windows": out_windows}


def sw_array_from_json(obj):
    """Inverse of :func:`sw_array_to_json`; raises SizeMismatch unless the windows
    are the shape's, each once as ``size`` rows of ``size`` entries, nulls included,
    and GridQuiverError unless every cell below the diagonal is null and every
    other cell an integer."""
    shape = _shape(obj)
    size = shape.size
    by_window = {}
    for k, win in _items(_get(obj, "windows"), "key 'windows'"):
        where = f"windows item {k}"
        key = tuple(_int(_get(win, j, where), f"{where}, {j}") for j in ("j1", "j2"))
        if key not in windows(shape) or key in by_window:
            raise SizeMismatch(f"window ({key[0]},{key[1]}) is repeated or not in an array of n = {shape.n}")
        by_window[key] = _get(win, "table", where)
    tables = []
    for (j1, j2) in windows(shape):
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
