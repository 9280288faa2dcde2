"""Rounding almost-idempotents and almost-members to exact ones.

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
from .errors import DefectTooLarge, InvalidInput, NotCloseEnough, RoundingUnstable
from .matcore import DEFAULT_TOL, Gate, Tol, as_matrix, eye, op_norm
from .subalg import Subspace
from .wedderburn import k0_class

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


def idempotent_eps_max(c: float) -> float:
    """Largest admissible membership error for rounding an almost-idempotent
    of norm at most c into a subspace: eps must lie in (0, 1/(4c + 6))."""
    return 1.0 / (4.0 * c + 6.0)


def invertible_eps_max(c: float) -> float:
    """Largest admissible membership error for rounding an invertible with
    max(||u||, ||u^-1||) <= c into a subspace."""
    return 1.0 / (4.0 * c)


def round_idempotent_in(e, alg, eps: float | None = None,
                        tol: Tol = DEFAULT_TOL):
    """Round an almost-idempotent close to (matrices over the unitization of)
    an algebra into an exact idempotent there, and compute its class.

    Returns (f, cls, cert).  The nearest point of e in the span has defect at
    most delta + (2c + eps + 1) eps where delta is the defect of e and
    c = ||e||; that point is Riesz-rounded.  The rounding stays inside the
    algebra, since chi vanishes at 0 and chi(b) lies in the non-unital
    algebra generated by b.  The class does not depend on the admissible
    eps: two roundings differ by less than 1 / ||2f - 1|| and are similar.
    """
    e = as_matrix(e)
    c = op_norm(e)
    if eps is None:
        eps = idempotent_eps_max(c) * (1.0 - 1e-9)
    if not 0 < eps < idempotent_eps_max(c):
        raise InvalidInput(
            f"eps = {eps:.3e} outside (0, 1/(4c+6)) = (0, {idempotent_eps_max(c):.3e})"
        )
    threshold = eps / 2.0
    b, resid = alg.unitization.nearest(e)
    if resid > threshold:
        raise NotCloseEnough(resid, threshold)
    f, cert = riesz_idempotent(b)
    cls = k0_class(f, alg.wedderburn, tol)
    return f, cls, cert


def round_invertible_in(u, span: Subspace, eps: float | None = None,
                        tol: Tol = DEFAULT_TOL):
    """Round an invertible close to a subspace to an exact member of the span.

    The nearest point v is certified invertible through ||1 - u^-1 v|| < 1/4,
    which also gives ||v^-1|| <= 2 max(||u||, ||u^-1||).  Returns
    (v, v_inverse, residual).
    """
    u = as_matrix(u)
    uinv = matcore.invert(u, tol)
    c = max(op_norm(u), op_norm(uinv))
    eps0 = invertible_eps_max(c)
    if eps is None:
        eps = eps0 * (1.0 - 1e-9)
    if not 0 < eps < eps0:
        raise InvalidInput(f"eps = {eps:.3e} outside (0, 1/(4c)) = (0, {eps0:.3e})")
    v, resid = span.nearest(u)
    if resid > eps:
        raise NotCloseEnough(resid, eps)
    gap = op_norm(eye(u.shape[0]) - uinv @ v)
    if gap >= 0.25:
        raise RoundingUnstable(f"||1 - u^-1 v|| = {gap:.3f} >= 1/4")
    vinv = matcore.invert(v, tol)
    if op_norm(vinv) > 2.0 * c * (1.0 + 1e-9):
        raise RoundingUnstable("inverse norm bound 2c violated")
    return v, vinv, resid

