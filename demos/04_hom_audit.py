"""Complete-intersection audit of the Hom scheme.

The fibre over a point can be presented as a quotient of an affine Hom
scheme cut out by bilinear equations.  The audit compares the scheme's
codimension in its ambient space against the rank of the defining system
at exact rational points; equality certifies a local complete
intersection, the property that would settle the flat-locus question.
The Hom conditions and the squares' commutativity relations form one list
of equations with terms coef·x_a·x_b; the Jacobian at each point is written
down from it by the product rule, and the same square relations count the
representation variety.

Takes about 0.5 s on a 2-core Xeon: each orbit needs two polynomial
dimension fits over seven finite fields, and the representation variety is
counted by linear fibres.
"""

import sys
import time

from gridorbits import GridShape, hom_report, identity_tuple, zero_tuple

w = (2, 3, 1)
shape = GridShape(len(w) - 1)

for name, point in [("identity", identity_tuple(shape)), ("zero", zero_tuple(shape))]:
    start = time.time()
    rep = hom_report(w, point)
    print(f"orbit of the {name} tuple")
    print(f"({name}: {time.time() - start:.1f}s)", file=sys.stderr)
    print(f"  symmetry-group dimension      {rep.dim_G}")
    print(f"  fibre dimension (counted)     {rep.dim_Gr}")
    print(f"  Hom-scheme dimension          {rep.dim_Hom0}")
    print(f"  ambient dimension             {rep.dim_V}  (relation variety part {rep.dim_Re})")
    print(f"  codimension                   {rep.codim}")
    print(f"  independent equations         {rep.indep_eqs}  (per point: {list(rep.per_point_ranks)})")
    print(f"  local complete intersection:  {rep.lci}")
    print()
