"""Rounding almost-idempotents to exact idempotents.

The central tool is holomorphic functional calculus with the indicator
function chi of the half-plane {Re z > 1/2}: applied to an almost-idempotent
e with defect ||e^2 - e|| = delta < 1/16 it yields a true idempotent at
distance at most 4 sqrt(delta) (||e|| + 2) / (1 - sqrt(delta)).

chi(e) = (1 + sign(2e - 1)) / 2, and the matrix sign is taken by the
Newton-Schulz iteration X_{j+1} = X_j (3 - X_j^2) / 2 from X_0 = 2e - 1
(Higham, *Functions of Matrices*, SIAM 2008, 5.3; Kenney & Laub, *SIAM J.
Matrix Anal. Appl.* 12, 1991).  Its residual R_j = 1 - X_j^2 is a
polynomial in X_0, so it commutes with X_j, and
R_{j+1} = R_j^2 (3 + R_j) / 4 exactly.  R_0 = 4 (e - e^2), so from
||R_0|| = 4 delta < 1/4 the norms fall at least as fast as the scalar
recurrence r_{j+1} = r_j^2 (3 + r_j) / 4, which is below the unit
roundoff after at most 5 steps for delta < 1/16: 0 steps at delta = 0, 2 at
delta = 1e-6.  The iteration converges on defective e as well, since it
reads no eigenvectors.  Written in f_j = (1 + X_j) / 2, whose defect
d_j = f_j^2 - f_j is -R_j / 4, one step is f_{j+1} = f_j + d_j - 2 f_j d_j
(two products, and no identity): f is a polynomial in e with no constant
term, so it lies in the non-unital algebra generated by e.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import matcore
from .errors import DefectTooLarge, InvalidInput, RoundingUnstable
from .matcore import Gate, as_matrix

DELTA_MAX = 1.0 / 16.0
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


@dataclasses.dataclass(frozen=True)
class RoundingCert:
    """Certificate for a Riesz rounding: the measured data and the bound."""

    delta: float
    c: float
    distance: float
    bound: float

    def gates(self) -> tuple:
        # exact idempotents give bound 0 but fp distance ~1e-15, hence the floor
        return (Gate("distance", self.distance, self.bound + 1e-12 * (1.0 + self.c)),)

    @property
    def passed(self) -> bool:
        return all(g.holds for g in self.gates())


def riesz_bound(delta: float, c: float) -> float:
    """4 sqrt(delta) (c + 2) / (1 - sqrt(delta)) for delta < 1/16."""
    if not 0 <= delta < DELTA_MAX:
        raise DefectTooLarge(f"delta = {delta:.3e} outside [0, 1/16)")
    rd = np.sqrt(delta)
    return float(4.0 * rd * (c + 2.0) / (1.0 - rd))


def sign_steps(delta: float) -> int:
    """Newton-Schulz steps after which the residual bound r_j, from
    r_0 = 4 delta by r_{j+1} = r_j^2 (3 + r_j) / 4, is at most the unit
    roundoff; at most 5 for delta < 1/16."""
    r, steps = 4.0 * delta, 0
    while r > UNIT_ROUNDOFF:
        r, steps = r * r * (3.0 + r) / 4.0, steps + 1
    return steps


def riesz_idempotent(e):
    """Round an almost-idempotent to a true idempotent.

    Returns (f, cert) where f = chi(e) for the half-plane indicator chi,
    taken by :func:`sign_steps` (delta) Newton-Schulz steps on f_0 = e, and
    cert records the measured distance against the explicit bound.  The
    norms are taken in two stacked calls: ||e^2 - e|| and ||e|| before the
    rounding, ||f^2 - f|| (the last step's residual, ||R_k|| / 4), ||f|| and
    ||f - e|| after it.
    """
    e = as_matrix(e)
    if e.shape[0] != e.shape[1]:
        raise InvalidInput("riesz_idempotent requires a square matrix")
    d = e @ e - e
    delta, c = matcore.op_norms(matcore.as_stack([d, e])).tolist()
    if delta >= DELTA_MAX:
        raise DefectTooLarge(f"defect {delta:.3e} >= 1/16")
    f = e.copy()
    for _ in range(sign_steps(delta)):
        f = f + d - 2.0 * (f @ d)
        d = f @ f - f
    idem_resid, norm_f, dist = matcore.op_norms(matcore.as_stack([d, f, f - e])).tolist()
    if idem_resid > 1e-8 * max(1.0, norm_f) ** 2:
        raise RoundingUnstable(f"rounded element has defect {idem_resid:.3e}")
    cert = RoundingCert(delta=delta, c=c, distance=dist,
                        bound=riesz_bound(delta, c))
    return f, cert
