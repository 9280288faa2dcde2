"""Boundary class of the twisted pair in M_4.

C is M_2 (x) 1 and D is its conjugate by a block rotation.  The projections
P, Q generate the intersection span{P, Q}, are equivalent inside C and
inside D, but not inside the intersection: the difference [P] - [Q] shows up
as the boundary class (1, -1) of the explicit lift.
"""

import numpy as np

from approxk import boundary, scenarios

scn = scenarios.twisted_pair(angle=np.pi / 5)
pair = boundary.Pair(scn["c"], scn["d"])
print("intersection dimension:", pair.inter.alg.dim)

u, v, cert = boundary.iota_lift(scn["p"], scn["q"], pair)
print("lift residuals (D, C, intersection):",
      f"{cert.residual_d:.2e}, {cert.residual_c:.2e}, {cert.residual_int:.2e}")
print("augmentation mismatch:", cert.aug_diff)

cls = boundary.boundary_class(cert)
print("boundary class in K0(C cap D):", cls.entries)

inv_cls = boundary.boundary_class(boundary.inverse_lift(cert))
print("boundary class of the inverse lift:", inv_cls.entries)

_, _, double = boundary.boxplus([cert, cert])
print("boundary class of the block sum:",
      boundary.boundary_class(double).entries)
