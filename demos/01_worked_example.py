"""A single upper-triangular matrix, end to end.

Builds the 3x3 point diag(0,1,1), prints both complete orbit invariants,
reduces it to canonical form, decomposes it into thin summands, and
compares it with two neighbouring points in the degeneration order.
"""

from gridorbits import (
    GridShape,
    b_reduce,
    decompose,
    degenerates,
    make_point,
    pivots,
    reconstruct,
    sw_array,
    same_orbit,
)
from gridorbits.decomposition import flat_entries, table_intersections

shape = GridShape(2)  # 3x2 grid of vertices, one stored map
f = make_point(shape, [[[0, 0, 0], [0, 1, 0], [0, 0, 1]]])
arr = sw_array(f)

print("point f: diag(0,1,1)")
print("rank vector:", tuple(flat_entries(table_intersections(arr.tables[0]), shape.size)))

print("south-west table (rows p, columns q >= p):")
for p, row in enumerate(arr.tables[0], start=1):
    print("   " * (p - 1), row)
print("pivot cells:", sorted(pivots(arr.tables[0])))

print("canonical form fixed:", b_reduce(f.maps[0]) == f.maps[0])
print("decomposition:", decompose(f))
print("rebuilt from its array:", reconstruct(arr) == f)

# A rank-one point below f, and an incomparable one
g = make_point(shape, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]])
h = make_point(shape, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]])
print()
print("g has a single 1 in the top row, second column")
print("  same orbit as f?", same_orbit(f, g))
print("  f degenerates to g?", degenerates(f, g))
print("  g degenerates to f?", degenerates(g, f))
print("h has a single 1 in the corner (1,1)")
print("  comparable with f?", degenerates(f, h) or degenerates(h, f))
