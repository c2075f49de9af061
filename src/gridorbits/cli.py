"""Command-line front end.

Every command reads/writes JSON (CSV and DOT where noted) and is
deterministic given its flags.  Exit codes: 0 success, 1 usage error,
2 domain error (bad input data, infeasible sizes, invalid arrays, a file
that cannot be read or written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import sys

from .decomposition import decompose, flat_entries, table_intersections
from .degeneration_lab import DEFAULT_BUDGET, DEFAULT_QS, flat_scan, hom_report
from .grid_quiver import (
    GridQuiverError,
    GridShape,
    assemble_canonical,
    decomposition_text,
    identity_tuple,
    rook_of_matching,
    rook_point,
    windows,
    zero_tuple,
)
from .orbit_poset import build_poset, count_report, export_dot, orbit_by_id, orbit_rows
from .parametrizations import (
    degenerates,
    reconstruct,
    same_orbit,
    sw_array,
    validate_array_inequalities,
)
from .schubert import e_grid, is_smooth, length, r_grid
from .serialize import (
    decomposition_to_json,
    map_tuple_from_json,
    map_tuple_to_json,
    rank_vector_to_json,
    sw_array_from_json,
    sw_array_to_json,
    window_to_json,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interface reserves 2 for domain
    # errors, so usage problems exit 1 instead, with argparse's message
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise GridQuiverError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(text, out):
    """Write a command's output to the file ``out``, or to stdout when it
    is None: ``text`` is a str, or an iterable of str written piece by
    piece (the ``orbits`` JSON and CSV listings, one record at a time, and
    the ``flat-scan`` CSV, one line per row).  A
    command runs its checks before it returns, so a refused command writes
    nothing and opens no file."""
    pieces = [text] if isinstance(text, str) else text
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


class _Echo:
    """A file whose ``write`` returns its text, so the ``writerow`` of a
    ``csv.writer`` on it returns the row's line."""

    def write(self, text):
        return text


def _dump(obj):
    return json.dumps(obj, indent=2) + "\n"


def _parse_ints(flag, text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _experiment_flags(args):
    """The parsed (w, qs, budget) flags of flat-scan and hom-report.  The
    budget is checked here; the library refuses a bad qs schedule before
    it counts anything."""
    w = _parse_ints("--w", args.w)
    qs = _parse_ints("--qs", args.qs) if args.qs is not None else DEFAULT_QS
    if args.budget <= 0:
        raise ValueError("budget must be positive")
    return w, qs, args.budget


def _orbit_by_id(shape, token):
    if token == "identity":
        return identity_tuple(shape)
    if token == "zero":
        return zero_tuple(shape)
    try:
        orbit_id = int(token)
    except ValueError:
        raise ValueError(f"--orbit must be an orbit id, 'identity' or 'zero', got {token!r}") from None
    return rook_point(shape, orbit_by_id(shape, orbit_id).matchings)


def _cmd_rank_vector(args):
    arr = sw_array(map_tuple_from_json(_read_json(args.input)))
    if arr.shape.n == 2:
        flat = flat_entries(table_intersections(arr.tables[0]), arr.shape.size)
        return "(" + ",".join(str(x) for x in flat) + ")\n"
    return _dump(rank_vector_to_json(arr))


def _cmd_sw_array(args):
    point = map_tuple_from_json(_read_json(args.input))
    return _dump(sw_array_to_json(sw_array(point)))


def _cmd_decompose(args):
    point = map_tuple_from_json(_read_json(args.input))
    return _dump(decomposition_to_json(decompose(point)))


def _cmd_canonical(args):
    point = map_tuple_from_json(_read_json(args.input))
    return _dump(map_tuple_to_json(assemble_canonical(decompose(point))))


def _cmd_same_orbit(args):
    f = map_tuple_from_json(_read_json(args.first))
    g = map_tuple_from_json(_read_json(args.second))
    return ("true" if same_orbit(f, g) else "false") + "\n"


def _cmd_degenerates(args):
    f = map_tuple_from_json(_read_json(args.first))
    g = map_tuple_from_json(_read_json(args.second))
    return ("true" if degenerates(f, g) else "false") + "\n"


def _json_list(items, depth):
    """A nonempty list nested ``depth`` levels deep as ``json.dumps(...,
    indent=2)`` writes it, from the texts of its items; a text may hold
    several items already joined at their depth."""
    pad = "  " * (depth + 1)
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + "  " * depth + "]"


def _orbit_listing(shape):
    """What the JSON and CSV listings share: each orbit's id, its row
    ``(matchings, summands, tables)`` of :func:`orbit_rows`, its label
    ``str(decomposition)`` and its ``sw_array_hash``, in id order, made as
    they are read.  Refuses n >= 4 when called, before anything is built.

    The label joins the texts of its summands, each made once per listing
    (:func:`decomposition_text`).  The hash is the sha256 of
    ``json.dumps(sw_array_to_json(arr), sort_keys=True)`` for the orbit's
    array, joined from each window's part of that text, made once per
    (window, table) (156 at n = 3).
    """
    rows = orbit_rows(shape)

    @functools.cache
    def hashed_part(win, table):
        return json.dumps(window_to_json(win, table), sort_keys=True)

    head = json.dumps({"n": shape.n, "windows": []})[:-2]  # up to the windows' "["
    wins = windows(shape)

    def listing():
        summand_texts = {}
        for k, row in enumerate(rows, start=1):
            _, summands, tables = row
            hashed = head + ", ".join(map(hashed_part, wins, tables)) + "]}"
            yield (k, row, decomposition_text(summands, summand_texts),
                   hashlib.sha256(hashed.encode()).hexdigest())

    return listing()


def _cmd_orbits(args):
    """The orbit listing as JSON, CSV or DOT.

    JSON and CSV are written from :func:`_orbit_listing` one record at a
    time, as an iterable of texts for :func:`_emit`.  A record's rank
    vector joins its tables' :func:`flat_entries` in window order and its
    ``maps`` are the rooks of its matchings, written as the strings of
    their 0/1 entries, which is what :func:`map_tuple_to_json` writes for
    the canonical point.  Each table's rank-vector text, its entries joined
    as the format writes them, and each matching's ``maps`` text are made
    once per listing (52 each at n = 3), and a JSON record's text, as
    ``json.dumps(records, indent=2)`` writes it in the list, is joined from
    them.
    """
    shape = GridShape(args.n)
    if args.format == "dot":
        return export_dot(build_poset(shape))
    listing = _orbit_listing(shape)
    size = shape.size
    sep = " " if args.format == "csv" else ",\n" + "  " * 3

    @functools.cache
    def rank_vector_text(table):
        return sep.join(map(str, flat_entries(table_intersections(table), size)))

    if args.format == "csv":
        line = csv.writer(_Echo(), lineterminator="\n").writerow
        return itertools.chain(
            [line(["id", "decomposition", "rank_vector", "sw_array_hash"])],
            (line([k, label, "(" + " ".join(map(rank_vector_text, row[2])) + ")", digest])
             for k, row, label, digest in listing),
        )

    maps_texts = {}  # keyed by the id of each matching dict, which the rows share

    def maps_text(m):
        text = maps_texts.get(id(m))
        if text is None:
            rows = [[str(x) for x in row] for row in rook_of_matching(size, m)]
            text = maps_texts[id(m)] = json.dumps(rows, indent=2).replace("\n", "\n" + "  " * 3)
        return text

    def records():
        # json.dumps(records, indent=2), one record at a time
        opening = "[\n  "
        for k, (matchings, _, tables), label, digest in listing:
            rank_vector = _json_list(map(rank_vector_text, tables), 2)
            maps = _json_list(map(maps_text, matchings), 2)
            yield (
                f'{opening}{{\n    "id": {k},\n    "decomposition": {json.dumps(label)},\n'
                f'    "rank_vector": {rank_vector},\n    "sw_array_hash": "{digest}",\n'
                f'    "maps": {maps}\n  }}'
            )
            opening = ",\n  "
        yield "\n]\n"

    return records()


def _cmd_poset(args):
    poset = build_poset(GridShape(args.n))
    if args.format == "dot":
        return export_dot(poset)
    # json.dumps(..., indent=2) of the nodes, edges, maximal and minimal ids,
    # written from pieces, each summand's text made once; the ids and labels
    # are read off the poset's rows, with no node built
    summand_texts = {}
    inner, close = "\n" + "  " * 3, "\n" + "  " * 2
    nodes = [
        f'{{{inner}"id": {k},{inner}"decomposition": '
        f'{json.dumps(decomposition_text(summands, summand_texts))}{close}}}'
        for k, summands in poset.labels()
    ]
    lists = {
        "nodes": nodes,
        "edges": [f"[{inner}{u},{inner}{v}{close}]" for u, v in poset.edges],
        "maximal": [str(k) for k in poset.maximal()],
        "minimal": [str(k) for k in poset.minimal()],
    }
    body = ",\n".join(f"  {json.dumps(key)}: {_json_list(items, 1)}" for key, items in lists.items())
    return "{\n" + body + "\n}\n"


def _cmd_schubert(args):
    w = _parse_ints("--w", args.w)
    return _dump({
        "w": list(w),
        "length": length(w),
        "smooth": is_smooth(w),
        "r_grid": [list(row) for row in r_grid(w)],
        "e_grid": [list(row) for row in e_grid(w)],
    })


def _cmd_flat_scan(args):
    w, qs, budget = _experiment_flags(args)
    result = flat_scan(w, qs=qs, budget=budget)
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    lines = [line(
        ["orbit_id", "decomposition"]
        + [f"count_q{q}" for q in qs]
        + ["fitted_poly", "est_dim", "target_dim", "flat_candidate"]
    )]
    for row in result.rows:
        poly = " ".join(str(c) for c in row.estimate.coefficients)
        lines.append(line(
            [row.orbit_id, str(row.decomposition)]
            + [count for _q, count in row.counts]
            + [poly, row.estimate.degree, result.target_dim, str(row.flat_candidate).lower()]
        ))
    return lines


def _cmd_hom_report(args):
    w, qs, budget = _experiment_flags(args)
    shape = GridShape(len(w) - 1)
    point = _orbit_by_id(shape, args.orbit)
    return _dump(dataclasses.asdict(hom_report(w, point, qs=qs, budget=budget)))


def _cmd_validate_array(args):
    arr = sw_array_from_json(_read_json(args.input))
    ok, violations = validate_array_inequalities(arr)
    realizable = True
    detail = None
    try:
        reconstruct(arr)
    except GridQuiverError as exc:
        realizable = False
        detail = str(exc)
    obj = {"inequalities_ok": ok, "violations": violations, "realizable": realizable}
    if detail:
        obj["reconstruct_error"] = detail
    return _dump(obj)


def _cmd_count_report(args):
    return _dump(dataclasses.asdict(count_report(GridShape(args.n))))


def build_parser():
    parser = _Parser(prog="gridorbits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json",)):
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("rank-vector", help="rank vector of a point (JSON file or - for stdin)")
    p.add_argument("input")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_rank_vector)

    p = sub.add_parser("sw-array", help="south-west array of a point")
    p.add_argument("input")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_sw_array)

    p = sub.add_parser("decompose", help="decomposition into indecomposables")
    p.add_argument("input")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("canonical", help="canonical orbit representative")
    p.add_argument("input")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("same-orbit", help="whether two points share an orbit")
    p.add_argument("first")
    p.add_argument("second")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_same_orbit)

    p = sub.add_parser("degenerates", help="whether the first orbit degenerates to the second")
    p.add_argument("first")
    p.add_argument("second")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_degenerates)

    p = sub.add_parser("orbits", help="orbit census for a shape")
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=("json", "csv", "dot"))
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("poset", help="degeneration poset")
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=("json", "dot"))
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("schubert", help="permutation data: length, smoothness, grids")
    p.add_argument("--w", required=True)
    common(p, fmt=None)
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("flat-scan", help="flat-locus scan over all orbits (CSV)")
    p.add_argument("--w", required=True)
    p.add_argument("--qs", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p, fmt=None)
    p.set_defaults(func=_cmd_flat_scan)

    p = sub.add_parser("hom-report", help="Hom-scheme complete-intersection audit")
    p.add_argument("--w", required=True)
    p.add_argument("--orbit", required=True, help="orbit id, or 'identity' / 'zero'")
    p.add_argument("--qs", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p, fmt=None)
    p.set_defaults(func=_cmd_hom_report)

    p = sub.add_parser("validate-array", help="check a candidate south-west array")
    p.add_argument("input")
    common(p, fmt=None)
    p.set_defaults(func=_cmd_validate_array)

    p = sub.add_parser("count-report", help="orbit counts from independent oracles (n <= 64)")
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=None)
    p.set_defaults(func=_cmd_count_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args.out)
    except (GridQuiverError, ValueError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
