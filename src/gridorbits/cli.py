"""Command-line front end.

Every command reads/writes JSON (CSV and DOT where noted) and is
deterministic given its flags.  Exit codes: 0 success, 1 usage error,
2 domain error (bad input data, infeasible sizes, invalid arrays).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys

from .decomposition import decompose, flat_intersections, rank_vector, rank_vector_from_sw
from .degeneration_lab import DEFAULT_BUDGET, DEFAULT_QS, flat_scan, hom_report
from .grid_quiver import (
    GridQuiverError,
    GridShape,
    assemble_canonical,
    identity_tuple,
    rook_of_matching,
    zero_tuple,
)
from .orbit_poset import build_poset, count_report, export_dot, orbit_by_id, orbit_nodes
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
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    qs = _parse_ints("--qs", args.qs) if args.qs else DEFAULT_QS
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
    return assemble_canonical(orbit_by_id(shape, orbit_id))


def _cmd_rank_vector(args):
    point = map_tuple_from_json(_read_json(args.input))
    rv = rank_vector(point)
    if point.shape.n == 2:
        flat = flat_intersections(rv)
        return "(" + ",".join(str(x) for x in flat) + ")\n"
    return _dump(rank_vector_to_json(rv))


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


def _orbit_records(shape):
    """One record per orbit.  Its ``maps`` are the rooks of its matchings,
    written as the strings of their 0/1 entries, which is what
    :func:`map_tuple_to_json` writes for the canonical point; each
    matching's rows are made once per listing (52 at n = 3)."""
    rows = {}
    records = []
    for node in orbit_nodes(shape):
        digest = hashlib.sha256(
            json.dumps(sw_array_to_json(node.sw), sort_keys=True).encode()
        ).hexdigest()
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
                "rank_vector": list(flat_intersections(rank_vector_from_sw(node.sw))),
                "sw_array_hash": digest,
                "maps": maps,
            }
        )
    return records


def _cmd_orbits(args):
    shape = GridShape(args.n)
    if args.format == "dot":
        return export_dot(build_poset(shape))
    records = _orbit_records(shape)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "decomposition", "rank_vector", "sw_array_hash"])
        for r in records:
            rv = "(" + " ".join(str(x) for x in r["rank_vector"]) + ")"
            writer.writerow([r["id"], r["decomposition"], rv, r["sw_array_hash"]])
        return buf.getvalue()
    return _dump(records)


def _cmd_poset(args):
    poset = build_poset(GridShape(args.n))
    if args.format == "dot":
        return export_dot(poset)
    return _dump({
        "nodes": [
            {"id": node.id, "decomposition": str(node.decomposition)}
            for node in poset.nodes
        ],
        "edges": [[u, v] for u, v in poset.edges],
        "maximal": poset.maximal(),
        "minimal": poset.minimal(),
    })


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["orbit_id", "decomposition"]
        + [f"count_q{q}" for q in qs]
        + ["fitted_poly", "est_dim", "target_dim", "flat_candidate"]
    )
    for row in result.rows:
        counts = dict(row.counts)
        poly = " ".join(str(c) for c in row.estimate.coefficients)
        writer.writerow(
            [row.orbit_id, str(row.decomposition)]
            + [counts[q] for q in qs]
            + [poly, row.estimate.degree, result.target_dim, str(row.flat_candidate).lower()]
        )
    return buf.getvalue()


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

    p = sub.add_parser("count-report", help="orbit counts from independent oracles")
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=None)
    p.set_defaults(func=_cmd_count_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except (GridQuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
