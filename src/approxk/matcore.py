"""Dense complex linear-algebra kernel.

Matrices are plain complex numpy arrays in row-major order; all tolerance
constants live in :class:`Tol` and are threaded through explicitly.  Every
numerical-rank decision (which singular values count as zero, and the
ambiguity band around that cut) is made by :func:`rank_cut`, each caller
passing its own cut; :func:`rank_split` (row space and null space from one
thin SVD) and :func:`rank` (the values alone, by :func:`rank_of_values`)
apply it.

Every dense inverse is taken by :func:`invert`, the one guarded inverse: it
returns numpy's inverse together with the exact 1-norm condition number
kappa_1 = ||a||_1 ||a^-1||_1 of that inverse, maximized over any leading
axes (loop samples, summand stacks), and raises NotInvertible when kappa_1
exceeds ``Tol.invert_cond_max`` or numpy finds the input exactly singular.
:func:`eig` takes the inverse of its eigenvector basis from the same kernel.

Every operator norm is taken by :func:`op_norms`, over any leading axes,
and :func:`op_norm` is its one-matrix case.  The samples of loops over
small fibers are 1 x 1 or 2 x 2, where a LAPACK SVD per matrix costs far
more than the arithmetic, so those two sides have closed forms: |a| for
side 1, and for side 2 s sqrt(lam), where s is the largest entry modulus
and lam = (p + q)/2 + hypot((p - q)/2, |r|) is the top eigenvalue of the
Gram matrix [[p, r], [r*, q]] of a / s.  Its error is a few ulps at any
scale: a / s has an entry of modulus 1 and none larger, so p + q lies in
[1, 4] and nothing over- or underflows; p and q are sums of nonnegative
terms, so their relative error is O(eps), and r's absolute error is
O(eps); lam is the sum of two nonnegative terms and at least (p + q)/2, so
these absolute errors are O(eps) relative to lam, and sqrt halves them.
Other sides take one LAPACK SVD per matrix, values only, and read the top
singular value directly.  A construction that needs several norms stacks
its matrices with :func:`as_stack`, which checks the stack for non-finite
entries once, and takes all of them in one :func:`op_norms` call.
:func:`matmul` is the product over leading axes; for 2 x 2 factors it is
the sum of two broadcast outer products, with no BLAS call per matrix.

Banded matrices are :class:`Band` values in LAPACK general band storage,
over any leading axes.  The band kernels are :func:`band` (from a dense
array, refusing entries outside the band), :func:`band_block_diag` (square
blocks along the diagonal of an identity), :func:`band_scatter` (the dense
array, in a permuted order), :func:`band_blockwise` (a map
applied to the square blocks that the band touches, as one stack),
:func:`band_matmul` (band times band, or band times dense), :func:`band_norm`
(the operator norm from the top eigenvalue of the band Gram matrix, by
``scipy.linalg.eig_banded``; Golub & Van Loan, *Matrix Computations*, 8.3),
:func:`band_det` and :func:`band_invert` (from the band LU ``zgbtrf``, with
``zgbtrs`` for the inverse; ibid., 4.3).  :func:`band_invert` applies the
same kappa_1 rule as :func:`invert`.  Every call the package makes to
``scipy.linalg.lapack`` or ``eig_banded`` is made here.

scipy is imported on first use: :func:`scipy_linalg` imports and returns
``scipy.linalg`` when a band kernel or the Schur fallback of Riesz rounding
first runs, so a run that reaches neither never loads it.
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


@dataclasses.dataclass(frozen=True)
class Gate:
    """One pass/fail decision of a certificate, value against budget.  kind
    is "bound" for an upper bound or an exact measurement, and "sampled" for
    a sampled estimate of a supremum.  A strict limit is the budget
    below(limit), and holds, the one comparison, fails on a NaN."""

    name: str
    value: float
    budget: float
    kind: str = "bound"

    holds = property(lambda self: bool(self.value <= self.budget))


def below(limit: float) -> float:
    """The largest float under limit: value <= below(limit) is value < limit."""
    return float(np.nextafter(limit, -np.inf))


def scipy_linalg():
    """The ``scipy.linalg`` module, imported on the first call."""
    import scipy.linalg

    return scipy.linalg


def as_matrix(m) -> np.ndarray:
    """Coerce to a complex 2-d array, rejecting NaN/Inf and empty shapes."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInput(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    return a


def as_stack(mats) -> np.ndarray:
    """Stack equal-shaped matrices along a new leading axis as one complex
    array, rejecting NaN/Inf as :func:`as_matrix` does; a construction that
    needs several norms passes the stack to one :func:`op_norms` call."""
    a = np.array(mats, dtype=complex)
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def op_norms(a) -> np.ndarray:
    """The operator norm of every matrix over the leading axes of a.

    Side 1 is |a|.  Side 2 scales each matrix by s, its largest entry
    modulus, and reads s sqrt(lam) off the top eigenvalue lam of the Gram
    matrix [[p, r], [r*, q]] of the scaled matrix.  Any other shape takes
    one LAPACK SVD per matrix, values only, and reads the top singular value
    directly: LAPACK returns them in descending order, so this is the
    maximum that numpy's matrix 2-norm takes of the same values, without
    that wrapper's cost.  A lone matrix and a stack go through the same
    call, so a norm never depends on what it was stacked with."""
    a = np.asarray(a)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if a.shape[-2:] != (2, 2):
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    mod = np.abs(a)
    # the entrywise maximum of the four moduli: a reduction over the two
    # small matrix axes costs more than the rest of the closed form
    s = np.maximum(np.maximum(mod[..., 0, 0], mod[..., 0, 1]),
                   np.maximum(mod[..., 1, 0], mod[..., 1, 1]))
    safe = np.where(s > 0, s, 1.0)[..., None, None]
    sq = (mod / safe) ** 2
    b = a / safe
    p, q = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
    r = np.abs(np.conj(b[..., 0, 0]) * b[..., 0, 1] + np.conj(b[..., 1, 0]) * b[..., 1, 1])
    return s * np.sqrt((p + q) / 2 + np.hypot((p - q) / 2, r))


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(op_norms(as_matrix(m)))


def matmul(a, b) -> np.ndarray:
    """a @ b over broadcast leading axes; 2 x 2 factors are multiplied
    entrywise, as the sum of two outer products of a's columns and b's rows,
    with no BLAS call per matrix."""
    if a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]
    return a @ b


def _kappa_1(a: np.ndarray, a_inv: np.ndarray) -> float:
    """The largest ||a||_1 ||a^-1||_1 over the leading axes.  The 1-norm is
    the largest absolute column sum, so a may also be the storage of a
    :class:`Band`, whose columns hold exactly the band entries of a's."""
    kappa = (np.abs(a).sum(axis=-2).max(axis=-1)
             * np.abs(a_inv).sum(axis=-2).max(axis=-1))
    return float(np.max(kappa, initial=0.0))


def _check_kappa(kappa: float, tol: Tol) -> None:
    """The conditioning rule of every guarded inverse."""
    # a NaN kappa (non-finite entries) fails this comparison too
    if not kappa <= tol.invert_cond_max:
        raise NotInvertible(kappa)


def _inverse_cond(a: np.ndarray):
    """(a^-1, kappa_1) over the trailing two axes of a; (None, inf) when
    numpy finds a matrix exactly singular."""
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, np.inf
    return a_inv, _kappa_1(a, a_inv)


def invert(m, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of a stack over the
    leading axes; NotInvertible when kappa_1 exceeds tol.invert_cond_max."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"invert requires square matrices, got shape {a.shape}")
    a_inv, kappa = _inverse_cond(a)
    _check_kappa(kappa, tol)
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
    resid, norm_a = op_norms(as_stack([v @ np.diag(lam) @ v_inv - a, a])).tolist()
    scale = max(1.0, norm_a)
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
    """Numerical rank: :func:`rank_of_values` of the singular values alone."""
    a = as_matrix(m)
    return rank_of_values(np.linalg.svd(a, compute_uv=False), a.shape, tol)


def rank_of_values(s: np.ndarray, shape: tuple, tol: Tol = DEFAULT_TOL) -> int:
    """The numerical rank of a matrix of the given shape from its descending
    singular values s: :func:`rank_cut` with an absolute floor, so near-zero
    matrices (top singular value at fp-noise level) count as rank zero
    instead of ranking their own noise."""
    floor = max(shape) * np.finfo(float).eps * 100
    return int(np.sum(s > rank_cut(s, tol.rank_rel_tol, floor)))


# ---------------------------------------------------------------------------
# banded matrices


@dataclasses.dataclass(frozen=True, eq=False)
class Band:
    """A banded n x n matrix, or a stack of them over leading axes, in LAPACK
    general band storage: ab[..., ku + i - j, j] = a[..., i, j] for
    -kl <= j - i <= ku.  Slots of ab outside the matrix hold zeros."""

    ab: np.ndarray
    kl: int
    ku: int

    @property
    def size(self) -> int:
        return self.ab.shape[-1]

    def _widened(self, kl: int, ku: int) -> np.ndarray:
        pad = [(0, 0)] * (self.ab.ndim - 2) + [(ku - self.ku, kl - self.kl), (0, 0)]
        return np.pad(self.ab, pad)

    def __add__(self, other: "Band") -> "Band":
        kl, ku = max(self.kl, other.kl), max(self.ku, other.ku)
        return Band(self._widened(kl, ku) + other._widened(kl, ku), kl, ku)

    def __sub__(self, other: "Band") -> "Band":
        return self + (-1.0) * other

    def __rmul__(self, c) -> "Band":
        return Band(c * self.ab, self.kl, self.ku)

    def __matmul__(self, other):
        return band_matmul(self, other)


def _band_slots(n: int, kl: int, ku: int):
    """(rows, cols, inside): the storage slots of the in-band entries of an
    n x n matrix, and the mask of those entries."""
    i, j = np.indices((n, n))
    inside = (j - i <= ku) & (i - j <= kl)
    return (ku + i - j)[inside], j[inside], inside


def band(a, kl: int, ku: int) -> Band:
    """The band of a dense array with widths (kl, ku); InvalidInput if an
    entry outside the band is nonzero."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    kl, ku = min(kl, n - 1), min(ku, n - 1)
    rows, cols, inside = _band_slots(n, kl, ku)
    if np.any(a[..., ~inside]):
        raise InvalidInput(f"matrix has nonzero entries outside the band ({kl}, {ku})")
    ab = np.zeros(a.shape[:-2] + (kl + ku + 1, n), dtype=complex)
    ab[..., rows, cols] = a[..., inside]
    return Band(ab, kl, ku)


def band_block_diag(blocks, start: int, size: int) -> Band:
    """The identity of side `size` with the square blocks (..., k, s, s)
    placed along its diagonal from index `start` on."""
    blocks = np.asarray(blocks, dtype=complex)
    k, s = blocks.shape[-3], blocks.shape[-1]
    ab = np.zeros(blocks.shape[:-3] + (2 * s - 1, size), dtype=complex)
    ab[..., s - 1, :] = 1.0
    r, c = np.indices((s, s))
    ab[..., s - 1 + r - c, start + s * np.arange(k)[:, None, None] + c] = blocks
    return Band(ab, s - 1, s - 1)


def band_scatter(b: Band, order: np.ndarray) -> np.ndarray:
    """The dense array of a band held in a permuted order: entry (i, j) of b
    lands at (order[i], order[j]) of a zeroed array, and every entry outside
    the band stays 0."""
    n = b.size
    rows, cols, _ = _band_slots(n, b.kl, b.ku)
    out = np.zeros(b.ab.shape[:-2] + (n, n), dtype=complex)
    # the slot (ku + i - j, j) holds entry (i, j)
    out[..., order[rows - b.ku + cols], order[cols]] = b.ab[..., rows, cols]
    return out


def band_blockwise(b: Band, s: int, f) -> Band:
    """The band of b with a block map f applied to its s x s blocks.

    f takes the stack (..., count, s, s) of the blocks on the s-grid that
    b's band touches, with the entries outside the band read as 0, and
    returns a stack of the same shape.  f must act on each block alone and
    map a zero block to 0, so that the blocks the band misses stay 0: a
    linear map applied block by block does both.  The result keeps b's
    widths, and InvalidInput is raised if f puts a nonzero entry outside
    them, as :func:`band` does."""
    n, kl, ku = b.size, b.kl, b.ku
    if n % s:
        raise InvalidInput(f"side {n} is not a multiple of the block side {s}")
    k = n // s
    # block (I, J) meets the band exactly when -ceil(kl/s) <= J - I <= ceil(ku/s)
    bi, shift = np.meshgrid(np.arange(k), np.arange(-kl // s, -(-ku // s) + 1),
                            indexing="ij")
    keep = (bi + shift >= 0) & (bi + shift < k)
    r, c = np.indices((s, s))
    i = (bi[keep] * s)[:, None, None] + r
    j = ((bi + shift)[keep] * s)[:, None, None] + c
    inside = (j - i <= ku) & (i - j <= kl)
    rows, cols = (ku + i - j)[inside], j[inside]
    blocks = np.zeros(b.ab.shape[:-2] + i.shape, dtype=complex)
    blocks[..., inside] = b.ab[..., rows, cols]
    out = np.asarray(f(blocks))
    if np.any(out[..., ~inside]):
        raise InvalidInput(f"matrix has nonzero entries outside the band ({kl}, {ku})")
    ab = np.zeros_like(b.ab)
    ab[..., rows, cols] = out[..., inside]
    return Band(ab, kl, ku)


def band_matmul(x: Band, y):
    """x @ y over broadcast leading axes: a band for a band y, a dense array
    for a dense y.  Each diagonal of the factor y (or of x) is one shifted
    elementwise product."""
    n = x.size
    if not isinstance(y, Band):
        y = np.asarray(y, dtype=complex)
        out = np.zeros(np.broadcast_shapes(x.ab.shape[:-2], y.shape[:-2]) + y.shape[-2:],
                       dtype=complex)
        for r in range(x.kl + x.ku + 1):
            d = x.ku - r  # x[i, i + d] = x.ab[r, i + d]
            lo, hi = max(0, -d), min(n, n - d)
            out[..., lo:hi, :] += x.ab[..., r, lo + d:hi + d, None] * y[..., lo + d:hi + d, :]
        return out
    kl, ku = x.kl + y.kl, x.ku + y.ku
    lead = np.broadcast_shapes(x.ab.shape[:-2], y.ab.shape[:-2])
    out = np.zeros(lead + (kl + ku + 1, n), dtype=complex)
    rows = x.kl + x.ku + 1
    for r in range(y.kl + y.ku + 1):
        d = y.ku - r  # y[j, j + d] = y.ab[r, j + d]
        lo, hi = max(0, d), min(n, n + d)
        top = ku - x.ku - d
        out[..., top:top + rows, lo:hi] += x.ab[..., :, lo - d:hi - d] * y.ab[..., r, None, lo:hi]
    # widths beyond n - 1 hold only slots outside the matrix
    kl2, ku2 = min(kl, n - 1), min(ku, n - 1)
    return Band(out[..., ku - ku2:ku + kl2 + 1, :], kl2, ku2)


def _band_adjoint(b: Band) -> Band:
    n = b.size
    out = np.zeros_like(b.ab)
    for r in range(b.kl + b.ku + 1):
        d = b.ku - r  # b[i, i + d] becomes entry (i + d, i) of the adjoint
        lo, hi = max(0, -d), min(n, n - d)
        out[..., b.kl + d, lo:hi] = np.conj(b.ab[..., r, lo + d:hi + d])
    return Band(out, b.ku, b.kl)


def band_norm(b: Band) -> float:
    """The largest operator norm over the leading axes: the square root of
    the top eigenvalue of the band of b* b, from ``eig_banded``.

    The top eigenvalue of a Gram matrix is at most its 1-norm, so the
    matrices are visited by decreasing 1-norm of their Gram matrix and the
    visit stops at the first one that cannot beat the maximum found: the
    skipped matrices leave the maximum unchanged.  Each call asks for the
    whole spectrum, as bisection for the top eigenvalue alone fails to
    converge on the tight clusters of near-unitary factors.  A NaN
    eigenvalue is kept (np.maximum, unlike max, propagates it) and ends no
    visit early, so the norm is NaN."""
    g = _band_adjoint(b) @ b
    lead = g.ab.shape[:-2]
    bound = np.abs(g.ab).sum(axis=-2).max(axis=-1).reshape(-1)
    eig_banded = scipy_linalg().eig_banded
    top = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] <= top:
            break
        lam = eig_banded(g.ab[np.unravel_index(k, lead)][:g.ku + 1], eigvals_only=True)
        top = np.maximum(top, lam[-1])
    return float(np.sqrt(top))


def _band_lu(b: Band):
    """Yield (index, lu, piv, info) of ``zgbtrf`` for each matrix of b, with
    piv 0-based and U's diagonal in row kl + ku of lu."""
    work = np.zeros(b.ab.shape[:-2] + (2 * b.kl + b.ku + 1, b.size), dtype=complex)
    work[..., b.kl:, :] = b.ab
    lapack = scipy_linalg().lapack
    for idx in np.ndindex(b.ab.shape[:-2]):
        lu, piv, info = lapack.zgbtrf(work[idx], b.kl, b.ku)
        yield idx, lu, piv, info


def band_det(b: Band) -> np.ndarray:
    """Determinants over the leading axes: the product of U's diagonal times
    the sign of the row interchanges."""
    dets = np.empty(b.ab.shape[:-2], dtype=complex)
    unmoved = np.arange(b.size)
    for idx, lu, piv, _ in _band_lu(b):
        sign = -1.0 if np.count_nonzero(piv != unmoved) % 2 else 1.0
        dets[idx] = sign * np.prod(lu[b.kl + b.ku])
    return dets


def band_invert(b: Band, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """The dense inverse of each matrix of b from its band LU; NotInvertible
    under the kappa_1 rule of :func:`invert`."""
    n = b.size
    one = np.eye(n, dtype=complex)
    out = np.empty(b.ab.shape[:-2] + (n, n), dtype=complex)
    lapack = scipy_linalg().lapack
    for idx, lu, piv, info in _band_lu(b):
        if info > 0:
            raise NotInvertible(np.inf)
        out[idx] = lapack.zgbtrs(lu, b.kl, b.ku, one, piv)[0]
    _check_kappa(_kappa_1(b.ab, out), tol)
    return out
