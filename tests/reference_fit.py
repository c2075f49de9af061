""":func:`gridorbits.degeneration_lab.fit_dimension` is tested against:
the fit that tries every prefix, skipping a non-integer polynomial or one
whose leading coefficient is not positive, until the degree bound."""

from fractions import Fraction

from gridorbits.degeneration_lab import DimEstimate, FitFailure, _poly_eval, _poly_trim
from gridorbits.exact_linalg import solve_unique


def reference_fit(counts, max_degree):
    pts = list(counts)
    if len(pts) < 3:
        raise ValueError("need at least 3 sample points")
    for k, (q, _c) in enumerate(pts):
        if any(q == p for p, _ in pts[:k]):
            raise ValueError(f"field size q = {q} is repeated")
    for k in range(len(pts) - 1):
        sample = pts[: k + 1]
        vandermonde = [[Fraction(q) ** d for q, _c in sample] for d in range(k + 1)]
        coeffs = _poly_trim(solve_unique(vandermonde, [Fraction(c) for _q, c in sample]))
        if len(coeffs) - 1 > max_degree:
            break
        if any(c.denominator != 1 for c in coeffs):
            continue
        if all(_poly_eval(coeffs, q) == c for q, c in pts[k + 1:]):
            ints = tuple(int(c) for c in coeffs)
            if any(c for _q, c in pts) and ints[-1] <= 0:
                continue
            return DimEstimate(len(ints) - 1, ints)
    raise FitFailure(
        f"no integer polynomial of degree <= {max_degree} fits {pts} with a holdout"
    )
