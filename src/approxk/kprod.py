"""External K-theory products on concrete representatives.

Products are computed on Kronecker representatives (coarse factor on the
left) and checked for compatibility with boundary classes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import matcore, ops
from .boundary import LiftCert, MatrixSide, certify_lift
from .errors import InvalidInput, NotAClass
from .matcore import DEFAULT_TOL, Gate, Tol, as_matrix, eye, kron, op_norm
from .subalg import Subalg
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
    if not isinstance(cert.pair.c, MatrixSide):
        raise InvalidInput("product checks run over matrix carriers")
    p = as_matrix(p)
    if p.shape != (m, m):
        raise InvalidInput(f"p must be {m}x{m}")
    rank_p = matcore.rank(p, cert.pair.tol)
    base = cert.boundary_class
    lhs = tuple(entry * rank_p for entry in base.entries)

    pair2 = cert.pair.tensor(m)
    cert2 = certify_lift(box_times(cert.u, p), box_times(cert.v, p), pair2)
    rhs = cert2.boundary_class.entries
    return ProductCheck(lhs, tuple(rhs), tuple(lhs) == tuple(rhs), cert2,
                        int(pair2.intersection_gap))


def _apply_left_functional(e: np.ndarray, f: np.ndarray, n_a: int, n_b: int,
                           k: int) -> np.ndarray:
    t = e.reshape(k, n_a, n_b, k, n_a, n_b)
    return np.einsum("pq,ipajqb->iajb", f, t).reshape(k * n_b, k * n_b)


def _apply_right_functional(e: np.ndarray, f: np.ndarray, n_a: int, n_b: int,
                            k: int) -> np.ndarray:
    t = e.reshape(k, n_a, n_b, k, n_a, n_b)
    return np.einsum("pq,iapjbq->iajb", f, t).reshape(k * n_a, k * n_a)


def nonunital_class_check(e, a_alg: Subalg, b_alg: Subalg,
                          f=None, tol: Tol = DEFAULT_TOL) -> bool:
    """Whether the class of e over the tensored unitizations descends to the
    non-unital tensor product: both augmentation images must have zero class.

    With a second idempotent f, checks instead that the formal difference
    [e] - [f] descends, i.e. the augmentation images have matching ranks.
    """
    e = as_matrix(e)
    n_a = a_alg.ambient_dim
    n_b = b_alg.ambient_dim
    if e.shape[0] % (n_a * n_b):
        raise InvalidInput("element size incompatible with the tensor ambient")
    k = e.shape[0] // (n_a * n_b)
    phi_a, phi_b = a_alg.augmentation, b_alg.augmentation
    target = (matcore.rank(_apply_left_functional(e, phi_a, n_a, n_b, k), tol),
              matcore.rank(_apply_right_functional(e, phi_b, n_a, n_b, k), tol))
    if f is None:
        ref = (0, 0)
    else:
        f = as_matrix(f)
        ref = (matcore.rank(_apply_left_functional(f, phi_a, n_a, n_b, k), tol),
               matcore.rank(_apply_right_functional(f, phi_b, n_a, n_b, k), tol))
    return target == ref
