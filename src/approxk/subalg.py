"""Finite-dimensional *-subalgebras of an ambient M_N(C).

A subalgebra is stored as an orthonormal basis under the Hilbert-Schmidt
inner product <a, b> = tr(a* b).  The nearest-point oracle projects in the
HS geometry and reports the residual in operator norm, which is a certified
upper bound for the operator-norm distance to the span.  Membership in M_k(S)
is computed block by block; intersections come from principal angles.  Bases
are orthonormalized, and intersections cut, by the rank decision of
:mod:`matcore` (:func:`matcore.rank_split`, :func:`matcore.rank_cut`).

An algebra holds the structure derived from it, each built on first use
and kept: the unitization S + C1 (:attr:`Subalg.unitization`) and the
Wedderburn data (:attr:`Subalg.wedderburn`), which depend on the algebra
alone.  An algebra built by :func:`tensor_with_full` records its base S and
m, and derives its Wedderburn data from the base's instead of decomposing:
the center of S (x) M_m is Z(S) (x) 1, so its blocks are (d_i m, m_i) and its
minimal central projections z_i (x) 1_m, in the base's order.  The
unitization is read off one matrix, r = 1 - P_S(1): S is unital when
||r||_op <= membership_tol; otherwise r / ||r||_HS completes S's basis to one
of S + C1, and conj(r) / <r, 1> is the augmentation s + c1 -> c (r is
HS-orthogonal to S).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from . import matcore
from .errors import ClosureFailure, InvalidInput
from .matcore import DEFAULT_TOL, Tol, as_matrix, eye, op_norm

if TYPE_CHECKING:
    from .wedderburn import WedderburnData


def _hs_norms(a: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norms over the leading axes."""
    return np.linalg.norm(a, axis=(-2, -1))


class Subspace:
    """A linear subspace of M_N(C) with an HS-orthonormal basis."""

    def __init__(self, ambient_dim: int, basis, tol: Tol = DEFAULT_TOL, _orthonormal=False):
        self.ambient_dim = int(ambient_dim)
        self.tol = tol
        n = self.ambient_dim
        if isinstance(basis, np.ndarray) and basis.ndim == 3:
            # a (count, N, N) array is checked as one array
            mats = np.asarray(basis, dtype=complex)
            if not np.all(np.isfinite(mats)):
                raise InvalidInput("basis has non-finite entries")
            shapes = {mats.shape[1:]} if len(mats) else set()
        else:
            mats = [as_matrix(b) for b in basis]
            shapes = {b.shape for b in mats}
        bad = shapes - {(n, n)}
        if bad:
            raise InvalidInput(f"basis element shape {bad.pop()} != ambient ({n},)*2")
        # no elements is the zero subspace: legal, e.g. the intersection of
        # two corners in general position
        flats = np.asarray(mats, dtype=complex).reshape(len(mats), n * n)
        if not _orthonormal:
            flats = matcore.rank_split(flats, tol.rank_rel_tol)[0]
        self._flats = flats

    @property
    def dim(self) -> int:
        return self._flats.shape[0]

    @property
    def basis(self) -> list[np.ndarray]:
        n = self.ambient_dim
        return [f.reshape(n, n) for f in self._flats]

    def project(self, x) -> np.ndarray:
        """HS-orthogonal projection onto M_k(span) for x of side k*N, over any
        leading axes of x: the basis of M_k(span) is orthonormal block by
        block, so it acts per N x N block, and every block of every leading
        index goes through one matrix product."""
        x = np.asarray(x, dtype=complex)
        n = self.ambient_dim
        k = x.shape[-1] // n if x.ndim >= 2 else 0
        if k < 1 or x.shape[-2:] != (k * n, k * n):
            raise InvalidInput(
                f"element shape {x.shape} is not a square multiple of {n}")
        if not np.isfinite(x).all():
            raise InvalidInput("element has non-finite entries")
        lead = x.shape[:-2]
        blocks = x.reshape(lead + (k, n, k, n)).swapaxes(-3, -2).reshape(-1, n * n)
        p = (blocks @ np.conj(self._flats).T) @ self._flats
        return p.reshape(lead + (k, k, n, n)).swapaxes(-3, -2).reshape(x.shape)

    def nearest(self, x):
        """(HS projection, operator-norm residual).

        The residual certifies an upper bound on the operator-norm distance
        d(x, span), since ||.||_op <= ||.||_HS.
        """
        x = as_matrix(x)
        p = self.project(x)
        return p, op_norm(x - p)

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

    # (S, m) on the S (x) M_m that tensor_with_full builds, else None
    tensor_of: tuple[Subalg, int] | None = None

    def __init__(self, ambient_dim, basis, tol: Tol = DEFAULT_TOL, _orthonormal=False,
                 check: bool = True):
        super().__init__(ambient_dim, basis, tol, _orthonormal=_orthonormal)
        if check:
            self._check_closure()

    @functools.cached_property
    def unit_residual(self) -> np.ndarray:
        """r = 1 - P_S(1), the part of the ambient unit outside S."""
        one = eye(self.ambient_dim)
        return one - self.project(one)

    @functools.cached_property
    def is_unital_in_ambient(self) -> bool:
        return self.dim > 0 and op_norm(self.unit_residual) <= self.tol.membership_tol

    @functools.cached_property
    def augmentation(self) -> np.ndarray:
        """The augmentation as the matrix f with value sum(f * x) at x."""
        if self.is_unital_in_ambient:
            raise InvalidInput("augmentation needs a non-unital algebra")
        r = self.unit_residual
        return np.conj(r) / np.vdot(r, eye(self.ambient_dim))

    @functools.cached_property
    def unitization(self) -> Subalg:
        """Span of S and the ambient unit: S itself when S is unital, else a
        basis of S's and r / ||r||_HS, unchecked, since S + C1 is a *-algebra
        whenever S is."""
        if self.is_unital_in_ambient:
            return self
        n, r = self.ambient_dim, self.unit_residual
        basis = np.concatenate([self._flats.reshape(-1, n, n), r[None] / np.linalg.norm(r)])
        return Subalg(n, basis, self.tol, _orthonormal=True, check=False)

    @functools.cached_property
    def wedderburn(self) -> WedderburnData:
        """The Wedderburn data of S, decomposed at the default seed: the
        blocks do not depend on the seed of the random central element.

        S (x) M_m built by :func:`tensor_with_full` derives its data from its
        base's (:func:`wedderburn.tensored`), through every level of a chain
        such as (S (x) M_2) (x) M_3, and decomposes nothing.  The blocks come
        in the order :func:`wedderburn.decompose` gives: it sorts by trace,
        block dimension and the diagonal of z_i; traces and d_i scale by m,
        and the diagonal of z_i (x) 1_m repeats each entry of z_i's m times,
        which keeps the lexicographic order."""
        from .wedderburn import decompose, tensored

        if self.tensor_of is not None:
            base, m = self.tensor_of
            return tensored(base.wedderburn, m, self)
        return decompose(self)

    def _check_closure(self):
        # closure residuals measured in HS norm with mild slack for products;
        # all adjoints, then all dim^2 products, are projected in one call
        slack = 64 * max(self.tol.membership_tol, 1e-12)
        n = self.ambient_dim
        b = self._flats.reshape(-1, n, n)
        adj = np.conj(np.swapaxes(b, -1, -2))
        if np.any(_hs_norms(adj - self.project(adj))
                  > slack * np.maximum(1.0, _hs_norms(b))):
            raise ClosureFailure("span not closed under adjoint")
        for bi in b:
            prods = bi @ b
            if np.any(_hs_norms(prods - self.project(prods))
                      > slack * np.maximum(1.0, _hs_norms(prods))):
                raise ClosureFailure("span not closed under multiplication")
        if self.dim and self.gram_residual() > 1e-10:
            raise ClosureFailure("basis Gram matrix deviates from identity")


def _kron_basis(s: Subalg, m: int, s_left: bool) -> Subalg:
    """S (x) M_m with the S factor on the left, basis b (x) e_ij in b-major
    order (s_left), or M_m(S), basis e_ij (x) b in (i, j)-major order.

    The basis is written into one array.  Its entries are copies of the
    entries of S's basis, so it equals the np.kron basis bit for bit but for
    the sign of zeros (np.kron writes -0.0 where 0 meets a negative entry),
    and it is HS-orthonormal and *-closed exactly when S's basis is.
    """
    n = s.ambient_dim
    b = s._flats.reshape(-1, n, n)
    i, j = np.indices((m, m))
    if s_left:  # (b (x) e_ij)[a*m + i, c*m + j] = b[a, c]
        out = np.zeros((s.dim, m, m, n, m, n, m), dtype=complex)
        out[:, i, j, :, i, :, j] = b
    else:  # (e_ij (x) b)[i*n + a, j*n + c] = b[a, c]
        out = np.zeros((m, m, s.dim, m, n, m, n), dtype=complex)
        out[i, j, :, i, :, j, :] = b
    return Subalg(n * m, out.reshape(-1, n * m, n * m), s.tol, _orthonormal=True,
                  check=False)


def amplify(s: Subalg, n: int) -> Subalg:
    """M_n(S) inside M_{nN}(C), coarse block factor on the left."""
    if n < 1:
        raise InvalidInput("amplification count must be >= 1")
    return _kron_basis(s, n, s_left=False)


def tensor_with_full(s: Subalg, m: int) -> Subalg:
    """S tensor M_m, realized with the S factor on the left; it records S and
    m, from which it derives its Wedderburn data."""
    if m < 1:
        raise InvalidInput("tensor factor size must be >= 1")
    out = _kron_basis(s, m, s_left=True)
    out.tensor_of = (s, m)
    return out


def intersect(s: Subalg, t: Subalg, tol: Tol = DEFAULT_TOL) -> Subalg:
    """Subspace intersection of the two spans, verified *-closed.

    The singular values of T's basis minus its projection onto S are the
    sines of the principal angles between the spans (Bjorck & Golub, 1973);
    the left singular vectors of the zero sines combine T's basis into one
    of the intersection.  The cut is rank_rel_tol, absolute, and sines
    within a factor 10 of it raise AmbiguousIntersection
    (:func:`matcore.rank_cut` with its band).
    """
    if s.ambient_dim != t.ambient_dim:
        raise InvalidInput("intersection requires a common ambient")
    n = s.ambient_dim
    resid = t._flats - (t._flats @ np.conj(s._flats).T) @ s._flats
    u, sines, _ = np.linalg.svd(resid, full_matrices=False)
    cut = matcore.rank_cut(sines, 0.0, tol.rank_rel_tol, band=True)
    null = np.conj(u[:, sines <= cut]).T @ t._flats
    return Subalg(n, [v.reshape(n, n) for v in null], tol)
