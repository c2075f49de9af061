"""The three benchmark workloads: inputs, the timed operations, and the
checks on their outputs.

- ``invariants``: one op answers every single-point query (south-west
  array, rank vector, decomposition, canonical form, same orbit as the
  source, degenerates to zero) for a Borel conjugate of a canonical point.
  Sizes cycle through n = 3, 4, 5, 6; one round is one point of each size.
- ``census``: the n = 3 orbit census, poset and count report via the CLI.
- ``fibre``: the w = 231 flat scan and Hom audit via the CLI.

Engine functions are looked up on the package at call time, so a tracer
installed after import sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import gridorbits as go
import gridorbits.cli as go_cli

SIZES = (3, 4, 5, 6)
ROUNDS = 10  # rounds of SIZES per invariants job

# ``--qs 2..8`` is the shortest prefix of the default field sizes whose
# degree-4 fit still validates on a held-out size.
CLI_JOBS = {
    "census": (
        ("orbits", "--n", "3", "--format", "json"),
        ("poset", "--n", "3", "--format", "dot"),
        ("count-report", "--n", "3"),
    ),
    "fibre": (
        ("flat-scan", "--w", "2,3,1"),
        ("hom-report", "--w", "2,3,1", "--orbit", "identity", "--qs", "2,3,4,5,7,8"),
    ),
}

# sha256 of each command's standard output, recorded from the engine as it
# was when the benchmark was defined; optimisations must keep them.
EXPECTED_DIGESTS = {
    "census": (
        "104fe6082a74102bbb17dd526d70e47fb9713060e06f9432208681fdc36ab910",
        "7cd9a2bfb8189bd5afd4639b2adebe324816fc25d2508517f4cedced57f66d45",
        "9f62e2809997304ed312b7d4c40189c99b097e7507d75a019aaee11906cf4f7f",
    ),
    "fibre": (
        "51c9f662fc57598f14dc2f776c32f622f176f5bfb3d2bb6d0c50010e574bf71e",
        "ce87ef1ad55e49eea2dce8aa567527151610ea8d1c22071b87791972791b526d",
    ),
}


@dataclass(frozen=True)
class Case:
    """One invariants input with the values the op must reproduce."""

    decomposition: object
    canonical: object
    point: object
    sw: object
    rank_vector: object
    zero: object


@dataclass(frozen=True)
class OpResult:
    start: float  # perf_counter around the engine calls, checks excluded
    end: float
    error: str | None  # None when every check passed
    digest: str

    @property
    def seconds(self):
        return self.end - self.start


def _borel_matrix(size, rng):
    """Invertible upper-triangular matrix with small integer entries."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(rng.choice([1, 2, 3, -1, -2]))
        for j in range(i + 1, size):
            rows[i][j] = Fraction(rng.randint(-2, 2))
    return go.Matrix(go.QQ, rows)


def invariants_points(seed, job, rounds=ROUNDS):
    """The (decomposition, conjugate point) pairs of one job.

    The decomposition chains uniformly drawn per-pair height matchings;
    the point is its canonical representative moved by a random Borel
    base change.  Depends only on ``seed`` and ``job``.
    """
    rng = random.Random(f"gridorbits-invariants:{seed}:{job}")
    matchings = {n: go.order_matchings(n + 1) for n in SIZES}
    out = []
    for _ in range(rounds):
        for n in SIZES:
            shape = go.GridShape(n)
            dec = go.matchings_to_decomposition(
                shape, [rng.choice(matchings[n]) for _ in range(n - 1)]
            )
            hs = [_borel_matrix(shape.size, rng) for _ in range(n)]
            out.append((dec, go.borel_act(go.assemble_canonical(dec), hs)))
    return out


def setup(workload, seed, job):
    """Everything a job needs before its first timed op."""
    if workload == "invariants":
        zeros = {n: go.zero_tuple(go.GridShape(n)) for n in SIZES}
        cases = []
        for dec, point in invariants_points(seed, job):
            canon = go.assemble_canonical(dec)
            cases.append(
                Case(dec, canon, point, go.sw_array(canon), go.rank_vector(canon),
                     zeros[dec.shape.n])
            )
        return cases
    if workload == "fibre":
        for q in sorted(set(go.DEFAULT_QS) | {2, 3, 4, 5, 7, 8}):
            go.GF(q)
    return CLI_JOBS[workload]


def op_groups(workload, state, tracer=None, expected=None):
    """The job's ops as zero-argument callables returning an OpResult,
    grouped into latency samples: one round of SIZES on invariants (a
    per-point median would fall between two sizes), one command otherwise."""
    if workload == "invariants":
        ops = [partial(_invariants_op, k, case, tracer) for k, case in enumerate(state)]
        return [ops[i:i + len(SIZES)] for i in range(0, len(ops), len(SIZES))]
    digests = EXPECTED_DIGESTS[workload] if expected is None else expected
    return [[partial(_cli_op, k, argv, digests[k], tracer)] for k, argv in enumerate(state)]


def run(workload, state, tracer=None, expected=None):
    """Run every op of one job in order; returns one OpResult per op."""
    return [op() for group in op_groups(workload, state, tracer, expected) for op in group]


def _invariants_op(k, case, tracer):
    if tracer is not None:
        tracer.op = k
    t0 = time.perf_counter()
    try:
        arr = go.sw_array(case.point)
        rv = go.rank_vector(case.point)
        dec = go.decompose(case.point)
        canon = go.assemble_canonical(dec)
        same = go.same_orbit(case.point, case.canonical)
        down = go.degenerates(case.point, case.zero)
    except Exception as exc:  # a failed op is counted, not fatal
        return OpResult(t0, time.perf_counter(), f"{type(exc).__name__}: {exc}", "")
    t1 = time.perf_counter()
    checks = (
        ("decompose", dec == case.decomposition),
        ("sw_array", arr == case.sw),
        ("rank_vector", go.same_rank_vector(rv, case.rank_vector)),
        ("assemble_canonical", canon == case.canonical),
        ("same_orbit", same is True),
        ("degenerates", down is True),
    )
    failed = [name for name, ok in checks if not ok]
    text = f"{dec}|{arr.flat()}|{rv.inter}|{same}|{down}"
    return OpResult(
        t0,
        t1,
        f"op {k}: wrong {', '.join(failed)}" if failed else None,
        hashlib.sha256(text.encode()).hexdigest(),
    )


def _cli_op(k, argv, expected, tracer):
    if tracer is not None:
        tracer.op = k
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = go_cli.main(list(argv))
            else:
                code = tracer.span(f"cli.{argv[0]}", go_cli.main, list(argv))
    except Exception as exc:  # a failed op is counted, not fatal
        return OpResult(t0, time.perf_counter(), f"{type(exc).__name__}: {exc}", "")
    t1 = time.perf_counter()
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    error = None
    if code != 0:
        error = f"{argv[0]}: exit code {code}"
    elif digest != expected:
        error = f"{argv[0]}: output sha256 {digest}, expected {expected}"
    return OpResult(t0, t1, error, digest)
