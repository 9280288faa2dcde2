"""Factorizing a winding loop across two overlapping arcs.

The loop algebra over a 720-point circle is split by two arc ideals C and D
whose supports overlap near +/- pi/2.  The generator u winds once; its lift
has an exactly zero boundary class, so the sigma witness factors u into a
D-side invertible x and a C-side factor u x^-1, and the winding number of u
splits between the two factors.
"""

from approxk import boundary, scenarios
from approxk.loops import winding_k1

scn = scenarios.circle_split(grid=720, winding=1)
pair = boundary.Pair(scn["c"], scn["d"])
print("arc supports: C has", int(scn["c"].mask.sum()), "samples,",
      "D has", int(scn["d"].mask.sum()), "samples,",
      "overlap", int(pair.inter.alg.mask.sum()))

cert_ideal = boundary.check_delta_ideal_structure(scn["h"], pair, None, scn["x_basis"])
print("ideal-structure residuals:", [f"{m:.1e}" for m in cert_ideal.measured])

v, cert = boundary.build_lift_v(scn["u"], scn["h"], pair)
print("lift residual level:", f"{cert.delta_level:.2e}")
print("boundary class:", boundary.boundary_class(cert).entries,
      "(the empty class of a union of arcs)")

wit = boundary.sigma_witness(cert, eps=0.05)
print("witness residuals: x near D at", f"{wit.residual_d:.2e},",
      "u x^-1 near C at", f"{wit.residual_c:.2e}")
print("windings: u =", winding_k1(scn["u"]).entries[0],
      " x =", winding_k1(wit.x).entries[0],
      " u x^-1 =", winding_k1(wit.factor).entries[0])

wh = boundary.whitehead_split(scn["u_c"], scn["h"], pair)
print("whitehead split of the C-side ramp: product residual",
      f"{wh.product_residual:.1e},", "memberships",
      f"{wh.membership_c_upper:.1e} / {wh.membership_d_upper:.1e} over all t,",
      f"norms {wh.norm_max:.3f} sampled, {wh.norm_upper:.3f} over all t",
      f"<= {wh.norm_bound:.0f}")
