"""Finite-dimensional *-subalgebras of an ambient M_N(C).

A subalgebra is stored as an orthonormal basis under the Hilbert-Schmidt
inner product <a, b> = tr(a* b).  The nearest-point oracle projects in the
HS geometry and reports the residual in operator norm, which is a certified
upper bound for the operator-norm distance to the span.  Membership in M_k(S)
is computed block by block; intersections come from principal angles.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .errors import (
    AmbiguousIntersection,
    ClosureFailure,
    InvalidInput,
)
from .matcore import DEFAULT_TOL, Tol, adjoint, as_matrix, eye, hs_norm, kron, op_norm


def _orthonormalize(flats: np.ndarray, rel_tol: float) -> np.ndarray:
    """Rows spanning a subspace of C^(N^2) -> orthonormal rows of the same span."""
    if flats.shape[0] == 0:
        return flats
    _, s, vh = np.linalg.svd(flats, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return flats[:0]
    keep = s > s[0] * rel_tol
    return vh[keep]


class Subspace:
    """A linear subspace of M_N(C) with an HS-orthonormal basis."""

    def __init__(self, ambient_dim: int, basis, tol: Tol = DEFAULT_TOL, _orthonormal=False):
        self.ambient_dim = int(ambient_dim)
        self.tol = tol
        mats = [as_matrix(b) for b in basis]
        for b in mats:
            if b.shape != (self.ambient_dim, self.ambient_dim):
                raise InvalidInput(
                    f"basis element shape {b.shape} != ambient ({self.ambient_dim},)*2"
                )
        if mats:
            flats = np.array([b.ravel() for b in mats]).reshape(len(mats), -1)
        else:
            # the zero subspace: legal, e.g. the intersection of two corners
            # in general position
            flats = np.zeros((0, self.ambient_dim * self.ambient_dim), dtype=complex)
        if not _orthonormal:
            flats = _orthonormalize(flats, tol.rank_rel_tol)
        self._flats = flats

    @property
    def dim(self) -> int:
        return self._flats.shape[0]

    @property
    def basis(self) -> list[np.ndarray]:
        n = self.ambient_dim
        return [f.reshape(n, n) for f in self._flats]

    def project(self, x) -> np.ndarray:
        """HS-orthogonal projection onto M_k(span) for x of side k*N: the basis
        of M_k(span) is orthonormal block by block, so it acts per N x N block."""
        x = as_matrix(x)
        n = self.ambient_dim
        k = x.shape[0] // n
        if x.shape != (k * n, k * n):
            raise InvalidInput(
                f"element shape {x.shape} is not a square multiple of {n}")
        blocks = x.reshape(k, n, k, n).swapaxes(1, 2).reshape(k * k, n * n)
        p = (blocks @ np.conj(self._flats).T) @ self._flats
        return p.reshape(k, k, n, n).swapaxes(1, 2).reshape(x.shape)

    def nearest(self, x):
        """(HS projection, operator-norm residual).

        The residual certifies an upper bound on the operator-norm distance
        d(x, span), since ||.||_op <= ||.||_HS.
        """
        p = self.project(x)
        return p, op_norm(as_matrix(x) - p)

    def contains(self, x, slack: float | None = None) -> bool:
        _, r = self.nearest(x)
        return r <= (slack if slack is not None else self.tol.membership_tol) * max(
            1.0, op_norm(x)
        )

    def gram_residual(self) -> float:
        if self.dim == 0:
            return 0.0
        g = np.conj(self._flats) @ self._flats.T
        return float(np.abs(g - np.eye(self.dim)).max())


class Subalg(Subspace):
    """A *-closed, multiplicatively closed subspace of M_N(C)."""

    def __init__(self, ambient_dim, basis, tol: Tol = DEFAULT_TOL, _orthonormal=False,
                 check: bool = True):
        super().__init__(ambient_dim, basis, tol, _orthonormal=_orthonormal)
        if check:
            self._check_closure()
        one = eye(self.ambient_dim)
        self.is_unital_in_ambient = self.dim > 0 and self.contains(one)

    def _check_closure(self):
        # closure residuals measured in HS norm with mild slack for products
        slack = 64 * max(self.tol.membership_tol, 1e-12)
        for b in self.basis:
            if hs_norm(adjoint(b) - self.project(adjoint(b))) > slack * max(1.0, hs_norm(b)):
                raise ClosureFailure("span not closed under adjoint")
        for bi in self.basis:
            for bj in self.basis:
                p = bi @ bj
                if hs_norm(p - self.project(p)) > slack * max(1.0, hs_norm(p)):
                    raise ClosureFailure("span not closed under multiplication")
        if self.dim and self.gram_residual() > 1e-10:
            raise ClosureFailure("basis Gram matrix deviates from identity")


def from_basis(ambient_dim: int, generators, tol: Tol = DEFAULT_TOL) -> Subalg:
    """The *-algebra generated by the given matrices.

    Iterates closure under adjoints and pairwise products until the span
    dimension stabilizes; errors if it fails to do so within N^2 rounds.
    """
    mats = [as_matrix(g) for g in generators]
    span = Subspace(ambient_dim, mats, tol)
    cap = ambient_dim * ambient_dim
    for _ in range(cap + 1):
        cur = span.basis
        new = list(cur)
        new.extend(adjoint(b) for b in cur)
        new.extend(bi @ bj for bi in cur for bj in cur)
        grown = Subspace(ambient_dim, new, tol)
        if grown.dim == span.dim:
            return Subalg(ambient_dim, grown.basis, tol, _orthonormal=True)
        span = grown
    raise ClosureFailure(f"span dimension failed to stabilize within {cap} iterations")


def unitize(s: Subalg) -> Subalg:
    """Span of S and the ambient unit; idempotent."""
    if s.is_unital_in_ambient:
        return s
    return Subalg(s.ambient_dim, s.basis + [eye(s.ambient_dim)], s.tol)


def amplify(s: Subalg, n: int) -> Subalg:
    """M_n(S) inside M_{nN}(C), coarse block factor on the left."""
    if n < 1:
        raise InvalidInput("amplification count must be >= 1")
    basis = [
        kron(matcore.matrix_unit(n, i, j), b)
        for i in range(n)
        for j in range(n)
        for b in s.basis
    ]
    return Subalg(s.ambient_dim * n, basis, s.tol, _orthonormal=True, check=False)


def tensor_with_full(s: Subalg, m: int) -> Subalg:
    """S tensor M_m, realized with the S factor on the left."""
    if m < 1:
        raise InvalidInput("tensor factor size must be >= 1")
    basis = [
        kron(b, matcore.matrix_unit(m, i, j))
        for b in s.basis
        for i in range(m)
        for j in range(m)
    ]
    return Subalg(s.ambient_dim * m, basis, s.tol, _orthonormal=True, check=False)


def intersect(s: Subalg, t: Subalg, tol: Tol = DEFAULT_TOL) -> Subalg:
    """Subspace intersection of the two spans, verified *-closed.

    The singular values of T's basis minus its projection onto S are the
    sines of the principal angles between the spans (Bjorck & Golub, 1973);
    the left singular vectors of the zero sines combine T's basis into one
    of the intersection.  Sines within a factor 10 of the cut raise
    AmbiguousIntersection.
    """
    if s.ambient_dim != t.ambient_dim:
        raise InvalidInput("intersection requires a common ambient")
    n = s.ambient_dim
    resid = t._flats - (t._flats @ np.conj(s._flats).T) @ s._flats
    u, sines, _ = np.linalg.svd(resid, full_matrices=False)
    cut = tol.rank_rel_tol
    borderline = np.sum((sines > cut / 10) & (sines < cut * 10))
    if borderline:
        raise AmbiguousIntersection(
            f"{borderline} principal-angle sine(s) near cutoff {cut:.3e}"
        )
    null = np.conj(u[:, sines <= cut]).T @ t._flats
    return Subalg(n, [v.reshape(n, n) for v in null], tol)
