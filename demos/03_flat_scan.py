"""Dimension scan of the degenerate fibres for one permutation.

For w = [231]: build the target dimension grid, compute the Euler-form
floor, count fibre points over several finite fields for every orbit, fit
the counting polynomials, and flag the orbits whose fibre dimension equals
the length of w (the candidates for the flat locus).
"""

from gridorbits import (
    GridShape,
    e_grid,
    euler_form,
    flat_scan,
    full_dim_grid,
    length,
    r_grid,
)

w = (2, 3, 1)
shape = GridShape(len(w) - 1)
print("w =", list(w), " length =", length(w))
print("rank grid:     ", r_grid(w))
print("free-subspace grid:", e_grid(w))

e = e_grid(w)
d = full_dim_grid(shape)
complement = tuple(tuple(d[i][j] - e[i][j] for j in range(shape.n)) for i in range(shape.size))
print("Euler-form floor on every fibre component:", euler_form(e, complement))

result = flat_scan(w)
print(f"\nscan over all {len(result.rows)} orbits (target dimension {result.target_dim}):")
print(f"{'id':>3} {'fibre dim':>9} {'flat?':>6}  counts (q=2,3,4,5,7,8,9)")
for row in result.rows:
    counts = [c for _q, c in row.counts]
    flag = "yes" if row.flat_candidate else "no"
    print(f"{row.orbit_id:>3} {row.estimate.degree:>9} {flag:>6}  {counts}")
print("\nflat candidates:", sum(r.flat_candidate for r in result.rows), "of", len(result.rows))
print("candidate set upward closed under degeneration:", result.upward_closed)
