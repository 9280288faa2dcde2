"""Dense complex linear-algebra kernel.

Matrices are plain complex numpy arrays in row-major order; all tolerance
constants live in :class:`Tol` and are threaded through explicitly.
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
            if getattr(self, name) <= 0:
                raise InvalidInput(f"{name} must be strictly positive")


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


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def cond(m) -> float:
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def invert(m, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Inverse with an explicit conditioning guard."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput("invert requires a square matrix")
    c = cond(a)
    if not np.isfinite(c) or c > tol.invert_cond_max:
        raise NotInvertible(c)
    return np.linalg.inv(a)


def eig(m, tol: Tol = DEFAULT_TOL):
    """Eigendecomposition m = V diag(lam) V^-1 with a diagonalizability guard.

    Defect is detected through the conditioning of the eigenvector basis and
    the reconstruction residual.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput("eig requires a square matrix")
    lam, v = np.linalg.eig(a)
    cv = cond(v)
    if not np.isfinite(cv) or cv > tol.invert_cond_max:
        raise DefectiveMatrix(f"eigenvector basis condition {cv:.3e}")
    resid = op_norm(v @ np.diag(lam) @ np.linalg.inv(v) - a)
    scale = max(1.0, op_norm(a))
    if resid > 1e-8 * scale * max(1.0, cv):
        raise DefectiveMatrix(f"eigendecomposition residual {resid:.3e}")
    return lam, v


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


def rank(m, tol: Tol = DEFAULT_TOL, guard: bool = False) -> int:
    """Numerical rank via SVD with a cutoff relative to the top singular value.

    With guard=True, a singular value within a factor 10 of the cutoff raises
    AmbiguousIntersection rather than silently deciding the rank.
    """
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    # absolute floor so near-zero matrices (top singular value at fp-noise
    # level) count as rank zero instead of ranking their own noise
    cut = max(s[0] * tol.rank_rel_tol, max(a.shape) * np.finfo(float).eps * 100)
    if guard:
        borderline = np.sum((s > cut / 10) & (s < cut * 10))
        if borderline:
            raise AmbiguousIntersection(
                f"{borderline} singular value(s) within 10x of rank cutoff {cut:.3e}"
            )
    return int(np.sum(s > cut))
