"""Dense complex linear-algebra kernel.

Matrices are plain complex numpy arrays in row-major order; all tolerance
constants live in :class:`Tol` and are threaded through explicitly.  Every
numerical-rank decision (which singular values count as zero, and the
ambiguity band around that cut) is made by :func:`rank_cut`, each caller
passing its own cut; :func:`rank_split` (row space and null space from one
thin SVD) and :func:`rank` (the values alone) apply it.

Every inverse is taken by :func:`invert`, the one guarded inverse: it
returns numpy's inverse together with the exact 1-norm condition number
kappa_1 = ||a||_1 ||a^-1||_1 of that inverse, maximized over any leading
axes (loop samples, summand stacks), and raises NotInvertible when kappa_1
exceeds ``Tol.invert_cond_max`` or numpy finds the input exactly singular.
:func:`eig` takes the inverse of its eigenvector basis from the same kernel.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import AmbiguousIntersection, DefectiveMatrix, InvalidInput, NotInvertible


@dataclasses.dataclass(frozen=True)
class Tol:
    """Tolerance bundle threaded through every numerical decision."""

    membership_tol: float = 1e-9
    rank_rel_tol: float = 1e-8
    invert_cond_max: float = 1e12

    def __post_init__(self):
        for name in ("membership_tol", "rank_rel_tol", "invert_cond_max"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise InvalidInput(
                    f"{name} must be finite and strictly positive, got {val!r}")


DEFAULT_TOL = Tol()


def as_matrix(m) -> np.ndarray:
    """Coerce to a complex 2-d array, rejecting NaN/Inf and empty shapes."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInput(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    a = as_matrix(m)
    return float(np.linalg.norm(a, 2))


def cond(m) -> float:
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def _inverse_cond(a: np.ndarray):
    """(a^-1, kappa_1) over the trailing two axes of a, with kappa_1 the
    largest ||a||_1 ||a^-1||_1 over the leading axes; (None, inf) when numpy
    finds a matrix exactly singular."""
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, np.inf
    # the 1-norm is the largest absolute column sum
    kappa = (np.abs(a).sum(axis=-2).max(axis=-1)
             * np.abs(a_inv).sum(axis=-2).max(axis=-1))
    return a_inv, float(np.max(kappa, initial=0.0))


def invert(m, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of a stack over the
    leading axes; NotInvertible when kappa_1 exceeds tol.invert_cond_max."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"invert requires square matrices, got shape {a.shape}")
    a_inv, kappa = _inverse_cond(a)
    # a NaN kappa (non-finite entries) fails this comparison too
    if not kappa <= tol.invert_cond_max:
        raise NotInvertible(kappa)
    return a_inv


def eig(m, tol: Tol = DEFAULT_TOL):
    """Eigendecomposition m = V diag(lam) V^-1 with a diagonalizability guard;
    returns (lam, V, V^-1).

    Defect is detected through the 1-norm conditioning of the eigenvector
    basis and the reconstruction residual.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput("eig requires a square matrix")
    lam, v = np.linalg.eig(a)
    v_inv, cv = _inverse_cond(v)
    if not cv <= tol.invert_cond_max:
        raise DefectiveMatrix(f"eigenvector basis condition {cv:.3e}")
    resid = op_norm(v @ np.diag(lam) @ v_inv - a)
    scale = max(1.0, op_norm(a))
    if resid > 1e-8 * scale * max(1.0, cv):
        raise DefectiveMatrix(f"eigendecomposition residual {resid:.3e}")
    return lam, v, v_inv


def kron(a, b) -> np.ndarray:
    """Kronecker product; the left factor is the coarse block index."""
    return np.kron(as_matrix(a), as_matrix(b))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def zeros(n: int, m: int | None = None) -> np.ndarray:
    return np.zeros((n, m if m is not None else n), dtype=complex)


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    e = zeros(n)
    e[i, j] = 1.0
    return e


def rank_cut(s: np.ndarray, rel: float, floor: float = 0.0,
             band: bool = False) -> float:
    """The numerical-rank decision for descending singular values s: those
    above max(s_0 * rel, floor) count, the rest are zero.

    With band=True a singular value within a factor 10 of the cut raises
    AmbiguousIntersection rather than silently deciding the rank.
    """
    cut = max(s[0] * rel if s.size else 0.0, floor)
    if band:
        borderline = np.sum((s > cut / 10) & (s < cut * 10))
        if borderline:
            raise AmbiguousIntersection(
                f"{borderline} singular value(s) within 10x of rank cutoff {cut:.3e}"
            )
    return cut


def rank_split(a, rel: float, floor: float = 0.0):
    """(rows, null) of a at :func:`rank_cut` from one thin SVD: orthonormal
    rows spanning the row space, and orthonormal rows n with a @ n.T ~ 0.

    The null rows span the whole null space only when a has at least as many
    rows as columns; for a wider matrix they are just the part that a thin vh
    holds, so pass the null vectors of a wide matrix no further.
    """
    a = np.asarray(a, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > rank_cut(s, rel, floor)))
    # null vectors of a = U S V* are columns of V, i.e. conjugated rows of vh
    return vh[:r], np.conj(vh[r:])


def rank(m, tol: Tol = DEFAULT_TOL) -> int:
    """Numerical rank: :func:`rank_cut` on the singular values alone, with an
    absolute floor so near-zero matrices (top singular value at fp-noise
    level) count as rank zero instead of ranking their own noise."""
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    floor = max(a.shape) * np.finfo(float).eps * 100
    return int(np.sum(s > rank_cut(s, tol.rank_rel_tol, floor)))
