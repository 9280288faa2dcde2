"""External K-theory products on concrete representatives.

Products are computed on Kronecker representatives (coarse factor on the
left) and checked for compatibility with boundary classes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import matcore, ops
from .boundary import LiftCert, MatrixSide, _count, certify_lift
from .errors import InvalidInput, NotAClass
from .matcore import DEFAULT_TOL, Gate, Tol, as_matrix, eye, kron, op_norm
from .wedderburn import K0Vec, WedderburnData, k0_class


def box_times(u, p):
    """u (box) p = u (x) p + 1 (x) (1 - p), the K_1 x K_0 product
    representative; invertible with inverse u^-1 (box) p."""
    p = as_matrix(p)
    if op_norm(p @ p - p) > 1e-8:
        raise NotAClass("p is not idempotent to 1e-8")
    pbar = eye(p.shape[0]) - p
    return ops.like(u, np.kron(ops.arr(u), p) + np.kron(eye(ops.side_size(u)), pbar))


def k0_product(p, q, w: WedderburnData, tol: Tol = DEFAULT_TOL) -> K0Vec:
    """Class of the product idempotent p (x) q against the given block data
    of the tensor algebra."""
    p = as_matrix(p)
    q = as_matrix(q)
    for name, mat in (("p", p), ("q", q)):
        if op_norm(mat @ mat - mat) > 1e-8:
            raise NotAClass(f"{name} is not idempotent to 1e-8")
    return k0_class(kron(p, q), w, tol)


@dataclasses.dataclass(eq=False)
class ProductCheck:
    """The two sides of the product formula over the tensored pair.

    The tensored lift is certified, and its class taken, over the lift's
    pair tensored with M_m, whose intersection is (C cap D) (x) M_m.
    intersection_gap is that tensored pair's
    :attr:`boundary.Pair.intersection_gap`: the one principal-angle
    intersection of a tensored pair, taken once per pair, so the identity
    is measured here and is 0 when it holds.
    """

    lhs_entries: tuple
    rhs_entries: tuple
    equal: bool
    tensored_cert: LiftCert
    intersection_gap: int

    def gates(self) -> tuple:
        return (Gate("lhs != rhs", float(not self.equal), 0.0),)


def boundary_product_check(cert: LiftCert, p, m: int, seed: int = 0) -> ProductCheck:
    """Compare d_v(u) x [p] with d_{v box p}(u box p) over the tensored pair,
    at the certificate's Tol, ``cert.pair.tol``.

    Both sides are computed in K_0((C cap D) (x) M_m); the left side is the
    boundary class that the input lift holds, scaled by the rank of p, the
    right side is the boundary class of the tensored lift.  Both are read
    against the algebras' own Wedderburn data: seed reaches nothing and is
    kept for callers that pass it.
    """
    m = _count(m, "m", 1)
    if not isinstance(cert.pair.c, MatrixSide):
        raise InvalidInput("product checks run over matrix carriers")
    p = as_matrix(p)
    if p.shape != (m, m):
        raise InvalidInput(f"p must be {m}x{m}")
    lhs = cert.boundary_class.scale(matcore.rank(p, cert.pair.tol)).entries

    pair2 = cert.pair.tensor(m)
    cert2 = certify_lift(box_times(cert.u, p), box_times(cert.v, p), pair2)
    rhs = cert2.boundary_class.entries
    return ProductCheck(lhs, rhs, lhs == rhs, cert2,
                        int(pair2.intersection_gap))
