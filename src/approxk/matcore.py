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

Every operator norm is taken by :func:`op_norms`, over any leading axes,
and :func:`op_norm` is its one-matrix case.  The samples of loops over
small fibers are 1 x 1 or 2 x 2, where a LAPACK SVD per matrix costs far
more than the arithmetic, so those two sides have closed forms: |a| for
side 1, and for side 2 sqrt(lam), with lam = h + sqrt(d^2 + |r|^2) the top
eigenvalue of the Gram matrix [[p, r], [r*, q]] of a, h = (p + q)/2 and
d = (p - q)/2.  p and q are the squared column norms and r the product
col_0* col_1, all read off the real and imaginary parts of the entries by
real products alone.  Its error is a few ulps (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 3.1): p and q are sums of
nonnegative terms, so their relative error is O(u); the absolute errors of
d and of Re r and Im r are O(u) h, since |r| <= sqrt(p q) <= h; so
sqrt(d^2 + |r|^2) has an absolute error O(u) h, and lam, the sum of two
nonnegative terms and at least h, a relative one of O(u), which sqrt
halves.  This holds while nothing over- or underflows, and the guard reads
that off the result.  The norm s of a 2 x 2 matrix lies in [m, 2 m], m its
largest entry modulus, and an underflow can only lower the computed norm,
by at most a factor sqrt 2 (p + q >= lam >= (p + q)/2).  So when the
computed s lies in [2^-200, 2^200], no square or fourth power of the form
overflows, and a term that underflows errs by less than 2^-1074, against
an h above 2^-403 and an h^2 above 2^-806.  A wider range fails at the
small end first: at s = 2^-300 every fourth power underflows.  A matrix
whose computed norm lies outside the range (a zero, tiny, huge or
non-finite one) is computed again through the same form after scaling by
2^-e, m = f 2^e with f in [1/2, 1), which is exact, as on the Gram path,
and its norm is scaled back by 2^e.  The guard reads each matrix alone, so
a norm never depends on what it was stacked with.  Stacks are taken a
block of :data:`_PLANE_CHUNK` matrices at a time, which keeps the
temporaries of a long stack small.

A matrix whose smaller side n is at least :data:`GRAM_SIDE` (12) takes
sigma_1 = sqrt(lam_max(G)), G the n x n Gram matrix of that side, and a
stack takes all of its lam_max from one batched ``np.linalg.eigvalsh``: on
stacks of 50 at sides 12 to 18 that is about 1.4 times as fast as an SVD
per matrix, and the residual stacks of the ideal structures and the draws
of the uniformity probe are such stacks.  Its error comes from the product
and the eigensolve.  The computed G differs from the exact one by at most
gamma_m |a|* |a| entrywise, m the larger side and gamma_m = m u / (1 - m u)
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.5),
which is at most n gamma_m sigma_1^2 in the 2-norm; the eigensolver is
backward stable, adding p(n) u ||G||; by Weyl's inequality lam_max moves by
no more than the sum, and sqrt halves the relative error, so
|sigma_1^ - sigma_1| <~ (n gamma_m + p(n) u) sigma_1 / 2.  The bound is
relative to sigma_1, as the SVD's p(n) u sigma_1 is: squaring costs
accuracy only on singular values far below sigma_1, which are not read.
On random, near-unitary, rank-one and graded stacks the two differ by at
most 1.5e-15 relative at n = 64.  A G formed as it is would overflow
for entries near 1e154 and lose precision to subnormals near 1e-154, so a
matrix whose largest entry lies far from 1 is first scaled by a power of
two, which is exact, and its norm scaled back.

Every other shape, square sides 3 up to :data:`GRAM_SIDE` among them,
takes one LAPACK SVD per matrix, values only, and reads the top singular
value directly: on a lone matrix of those sides the Gram path's range
guard and products cost more than the SVD saves, and the lone 8 x 8 norms
of the lifts are frequent.  The path is chosen by the side alone, never by
the stack, so a norm never depends on what it was stacked with.  A
construction that needs several norms stacks its matrices with
:func:`as_stack`, which checks the stack for non-finite entries once, and
takes all of them in one :func:`op_norms` call.

A supremum of norms over leading axes is taken by :func:`sup_norm`.  A
stack of at least two matrices on the Gram path (the same rule by shape)
forms its Gram matrices once and takes as its candidate the matrix with the
largest column norm, whose largest diagonal entry of G bounds its lam_max
from below; its norm top comes from a lone :func:`op_norms` call, so the
result is that call's value.  One batched Cholesky of top^2 (1 + gamma) 1 - G
then certifies every matrix.  A Cholesky factorization runs to completion
only on a matrix that is positive definite up to its backward error: the
computed factor R has R* R = A + dA with |dA| <= gamma_(n+1) |R*| |R|
(Higham, ch. 10; Rump, *BIT* 46, 2006, makes this a rigorous test), so a
success shows lam_max(G) <= top^2 (1 + gamma) up to an error of order
n u top^2.  The norms of a stack often tie in exact arithmetic (the probes
r (x) C of a tensored ideal structure have ||r (x) C|| = ||r|| ||C||), and
the computed top eigenvalues of tied matrices differ by rounding, so with
gamma = 0 a tied matrix fails the test about half the time.  gamma is
:func:`fp_slack` (1, k) = gamma_k with k = 4 (n + 1), which covers the
factorization's gamma_(n+1) and the eigensolver's error of the same order;
ties at sides 12 to 194 certify with shifts of 8 u to 32 u, and gamma is at
most 1e-12 up to side 2250.  The result s is then one op_norms value, at
most their maximum, and every op_norms value of the stack is at most
s sqrt(1 + gamma) up to that rounding: the supremum is within gamma / 2 +
O(n u) relative of the maximum, on top of op_norms' own error.  When a
factorization fails, the result is the maximum of op_norms over the stack.
:func:`matmul` is the product over leading axes; for 2 x 2 factors it is
the sum of two broadcast outer products, with no BLAS call per matrix.

Banded matrices are :class:`Band` values in LAPACK general band storage,
over any leading axes.  The band kernels are :func:`band_block_diag`
(square blocks along the diagonal of an identity), :func:`band_scatter`
(the dense array, in a permuted order), :func:`band_blockwise` (a map
applied to the square blocks that the band touches, as one stack),
:func:`band_matmul` (band times band), :func:`band_norm`
(an upper bound on the operator norm, up to rounding, from banded Cholesky
tests on the Gram band), :func:`band_det` (from
the band LU ``zgbtrf``; Golub & Van Loan, *Matrix Computations*, 4.3) and
:func:`band_invert`.

:func:`band_norm` takes no spectrum.  Of each Gram band G = b* b it forms
only the rows on and above the diagonal, which the banded Cholesky
``zpbtrf`` reads.  The factorization of level 1 - G runs to completion only
if that matrix is positive definite up to its backward error (Higham,
ch. 10), so by Sylvester's law of inertia the test tells the levels above
G's top eigenvalue from those below it, and bisection on it finds the top
however tightly the spectrum clusters below it (Parlett, *The Symmetric
Eigenvalue Problem*, 3.3).  The bisection that fails to converge on the
tight clusters of near-unitary factors is LAPACK's selection of one
eigenvalue of the tridiagonal reduction, not this test.  The matrices are
visited by decreasing 1-norm of G, which bounds its top eigenvalue; one
test of top (1 + gamma) 1 - G, top the largest level found so far and
gamma the slack of :func:`sup_norm` at the band's side, certifies a
matrix, and any other is bisected from max(top, its largest diagonal
entry of G), a lower bound, up to its 1-norm times 1 + gamma, until the
ends lie within a factor 1 + gamma: top is the upper end, the lowest level
at which the factorization succeeded, after about 45 halvings at side 194.
sqrt(top) bounds the bisected matrix's norm from above up to the
factorization's backward error, every other norm is at most
sqrt(top (1 + gamma)), as in sup_norm, and sqrt(top) is at most about
gamma / 2 above the largest norm, where an eigensolver's value can sit a
few ulps below it.  The stack is scaled by one power of two as sup_norm's
is, which also keeps the levels off subnormals.

:func:`band_invert` returns a banded inverse X with its residual.  Its
columns are solved in blocks, each on a window of the band around its
block, and the band is padded with the identity so that every window has
one shape and one batched ``np.linalg.solve`` takes them all.  The windows
start at half-width kl + ku and double until the residual R = b X - 1 has
||R||_1 <= n u ||b||_1 ||X||_1 (u the unit roundoff), or until solving
them would cost as much as solving the whole matrix, which then is the one
window, with X its exact inverse; a singular window widens too.  The
inverses of well-conditioned bands decay away from the diagonal (Demko,
Moss & Smith, *Math. Comp.* 43, 1984), so the first window is usually the
last.  A banded X is a certificate: when ||R|| < 1, b is invertible by the
Neumann series, with ||b^-1|| <= ||X|| / (1 - ||R||) (Higham, ch. 14), so
the R that ended the widening is returned with X and no caller forms it
again.  :func:`band_invert` applies the same kappa_1 rule as
:func:`invert`, on the two band storages.  Every call the package makes to
``scipy.linalg.lapack`` is made here.

scipy is imported on first use: :func:`scipy_linalg` imports and returns
``scipy.linalg`` when a band kernel first runs, so a run that reaches none
never loads it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import AmbiguousIntersection, InvalidInput, NotInvertible


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


# the smallest side whose norms op_norms reads off the Gram matrix, and from
# which sup_norm certifies a stack by one batched Cholesky: on stacks of 50
# the eigensolve beats the SVD from side 3 on, but on a lone matrix its
# range guard and products cost more than the SVD saves at every side to
# 24; at 12 the 12 x 12 and 18 x 18 residual and probe stacks take it, and
# the frequent lone 8 x 8 norms of the lifts keep the SVD
GRAM_SIDE = 12
# a matrix with m rows whose largest entry modulus lies in _GRAM_RANGE has
# a Gram matrix whose largest entry lies in [2^-256, m 2^256], inside the
# range where LAPACK's Hermitian eigensolver applies no scaling of its own;
# any other matrix is first scaled by 2^-e, with that modulus f 2^e and f
# in [1/2, 1), which is exact
_GRAM_RANGE = (2.0 ** -128, 2.0 ** 128)
# a 2 x 2 matrix whose computed norm lies in _PLANE_RANGE keeps every
# square and fourth power of the closed form clear of over- and underflow;
# any other is computed again after the exact scaling of the Gram path
_PLANE_RANGE = (2.0 ** -200, 2.0 ** 200)
# the 2 x 2 matrices whose closed form one block of products takes, 128 KB
# per temporary: a Whitehead row stack of 7920 matrices taken whole, with
# temporaries of 500 KB, took twice as long as in blocks of this size
_PLANE_CHUNK = 2048


def _exponent_scaled(a, top, keep=False):
    """(a 2^-e, e, finite) over the matrices of a, each scaled exactly: top
    is its largest entry modulus f 2^e, f in [1/2, 1), and e is 0 where
    keep holds.  frexp gives a zero matrix e = 0; a subnormal one is scaled
    by 2^1021 at most, a finite scale; a matrix with an inf or a NaN, whose
    top is not finite, is zeroed, and its norm is to be NaN."""
    finite = np.isfinite(top)
    e = np.where(keep | ~finite, 0, np.maximum(np.frexp(top)[1], -1021))
    return np.where(finite[..., None, None], a, 0) * np.ldexp(1.0, -e)[..., None, None], e, finite


def _plane_form(x):
    """The 2 x 2 closed form of op_norms on the real planes x: each row i
    of the matrices on axis 0, and Re a_i0, Im a_i0, Re a_i1, Im a_i1 on
    axis 1."""
    sq = x * x
    s = sq[0] + sq[1]
    p, q = s[0] + s[1], s[2] + s[3]
    # the products of (Re, Im) of a_i0 and of a_i1, summed over the rows
    g = x[:, :2, None] * x[:, None, 2:]
    g = g[0] + g[1]
    re, im = g[0, 0] + g[1, 1], g[0, 1] - g[1, 0]
    d = (p - q) * 0.5
    return np.sqrt((p + q) * 0.5 + np.sqrt(d * d + re * re + im * im))


def _plane_norms(a) -> np.ndarray:
    """The closed form of every 2 x 2 matrix over the leading axes of a,
    unguarded: a lone matrix is read in place, and a stack a block of
    _PLANE_CHUNK matrices at a time, each copied with the stack on its last
    axis so that every product runs along it."""
    x = np.ascontiguousarray(a, dtype=complex).view(float)
    if x.ndim == 2:
        return _plane_form(x)
    x = x.reshape(-1, 8)
    out = np.empty(len(x))
    for k in range(0, len(x), _PLANE_CHUNK):
        out[k:k + _PLANE_CHUNK] = _plane_form(x[k:k + _PLANE_CHUNK].T.reshape(2, 4, -1).copy())
    return out.reshape(a.shape[:-2])


def op_norms(a) -> np.ndarray:
    """The operator norm of every matrix over the leading axes of a.

    Side 1 is |a|.  Side 2 reads sqrt(lam) off the top eigenvalue lam of
    the Gram matrix [[p, r], [r*, q]], p, q and r formed by real products
    of the real and imaginary parts of the entries; a matrix whose computed
    norm lies outside [2^-200, 2^200] is computed again after the exact
    scaling by 2^-e of the Gram path.  A matrix whose smaller side is at
    least :data:`GRAM_SIDE` reads sqrt(lam_max) off the Gram matrix of that
    side, a* a (a a* when a is wide), all of a stack's from one batched
    ``eigvalsh``; one whose largest entry modulus f 2^e, f in [1/2, 1),
    lies outside [2^-128, 2^128] is first scaled by 2^-e and its norm by
    2^e, so no Gram entry over- or underflows.  On these paths a zero
    matrix has norm exactly 0, a matrix with an inf or a NaN entry has
    norm NaN, and a norm beyond the largest float is inf, with no
    RuntimeWarning.  Every other shape takes one LAPACK SVD per matrix,
    values only, and reads the top singular value directly: LAPACK returns
    them in descending order, so this is the maximum that numpy's matrix
    2-norm takes of the same values, without that wrapper's cost.  The
    path depends on the shape of a matrix alone, and a lone matrix and a
    stack go through the same call, so a norm never depends on what it was
    stacked with.  The module docstring gives the error of each path: on
    side 2, the sums of squares are nonnegative, the guard's range keeps
    every fourth power of the form normal, and the scaling by a power of
    two is exact."""
    a = np.asarray(a)
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if min(a.shape[-2:]) >= GRAM_SIDE:
        if a.shape[-2] < a.shape[-1]:
            a = np.swapaxes(a, -1, -2)
        top = np.abs(a).max(axis=(-2, -1), initial=0.0)
        if not top.any():
            # all zero: LAPACK's SVD returns at once on a zero matrix too,
            # and the boundary classes take many lone zero residuals
            return top
        inside = (top >= _GRAM_RANGE[0]) & (top <= _GRAM_RANGE[1])
        rescale = not inside.all()
        if rescale:
            a, e, finite = _exponent_scaled(a, top, inside)
        gram = np.conj(np.swapaxes(a, -1, -2)) @ a
        norms = np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
        if not rescale:
            return norms
        # a norm beyond the largest float is inf, as the SVD's is, unwarned
        with np.errstate(over="ignore"):
            return np.where(finite, np.ldexp(norms, e), np.nan)
    if a.shape[-2:] != (2, 2):
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    # an inf or a NaN entry, or a square beyond the largest float, puts the
    # computed norm outside the range; the recomputed norm of a matrix with
    # such an entry is NaN, and one beyond the largest float is inf, as the
    # SVD's are: all unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _plane_norms(a)
        inside = (norms >= _PLANE_RANGE[0]) & (norms <= _PLANE_RANGE[1])
        if inside.all():
            return norms
        redo = ~inside
        b = a[redo]
        b, e, finite = _exponent_scaled(b, np.abs(b).max(axis=(-2, -1)))
        norms = np.array(norms)
        norms[redo] = np.where(finite, np.ldexp(_plane_norms(b), e), np.nan)
        return norms


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(op_norms(as_matrix(m)))


def fp_slack(scale, k: int) -> float:
    """gamma_k scale, with gamma_k = k u / (1 - k u) and u the unit roundoff
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1): the
    relative error bound of k rounded operations in a row, times scale."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1 - ku) * scale


def _level_slack(n: int) -> float:
    """The relative slack of a Cholesky level test of an n x n Gram matrix
    against a top eigenvalue computed from another: gamma_k with
    k = 4 (n + 1), at most 1e-12 for n up to 2250 (see the module
    docstring)."""
    return fp_slack(1.0, 4 * (n + 1))


def sup_norm(a) -> float:
    """The largest operator norm over the leading axes of a; 0 when they are
    empty, and always one matrix's :func:`op_norms` value.

    A stack of at least two matrices on the Gram path takes the norm top of
    the matrix with the largest column from a lone :func:`op_norms` call,
    and certifies every matrix by one batched Cholesky of
    top^2 (1 + gamma) 1 - G, gamma = :func:`_level_slack` (n) (see the
    module docstring); when a factorization fails, and on every other
    shape, it is the maximum of :func:`op_norms`.  The stack is scaled by
    one power of two when its largest entry modulus lies outside the range
    op_norms keeps Gram entries in.  A stack with an inf or a NaN entry
    takes op_norms' NaN, since LAPACK's Cholesky can succeed on a NaN."""
    a = np.asarray(a)
    n = min(a.shape[-2:])
    if n < GRAM_SIDE or a.size < 2 * a.shape[-2] * a.shape[-1]:
        return float(np.max(op_norms(a), initial=0.0))
    a = a.reshape((-1,) + a.shape[-2:])
    tall = np.swapaxes(a, -1, -2) if a.shape[-2] < a.shape[-1] else a
    peak = np.abs(tall).max()
    if not np.isfinite(peak):
        return float(np.max(op_norms(a)))
    if peak == 0:
        return 0.0
    e = 0
    if not _GRAM_RANGE[0] <= peak <= _GRAM_RANGE[1]:
        # as in op_norms, but one exponent for the whole stack
        e = max(int(np.frexp(peak)[1]), -1021)
        tall = tall * np.ldexp(1.0, -e)
    gram = np.conj(np.swapaxes(tall, -1, -2)) @ tall
    cols = np.diagonal(gram, axis1=-2, axis2=-1).real
    top = float(op_norms(a[np.argmax(cols.max(axis=-1))]))
    # top 2^-e lies in [2^-53, sqrt(n m)], so its square neither over- nor
    # underflows: it is at least the largest column norm of the scaled
    # stack, and that at least its largest entry modulus
    level = np.ldexp(top, -e) ** 2 * (1 + _level_slack(n))
    try:
        np.linalg.cholesky(level * np.eye(n) - gram)
    except np.linalg.LinAlgError:
        return float(np.max(op_norms(a)))
    return top


def matmul(a, b) -> np.ndarray:
    """a @ b over broadcast leading axes; 2 x 2 factors are multiplied
    entrywise, as the sum of two outer products of a's columns and b's rows,
    with no BLAS call per matrix."""
    if a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]
    return a @ b


def _norm_1(a: np.ndarray) -> np.ndarray:
    """The 1-norm of every matrix over the leading axes of a: the largest
    absolute column sum.  a may also be the storage of a :class:`Band`,
    whose columns hold exactly the band entries of the matrix's."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _kappa_1(a: np.ndarray, a_inv: np.ndarray) -> float:
    """The largest ||a||_1 ||a^-1||_1 over the leading axes, of dense arrays
    or of band storages."""
    return float(np.max(_norm_1(a) * _norm_1(a_inv), initial=0.0))


def _check_kappa(kappa: float, tol: Tol) -> None:
    """The conditioning rule of every guarded inverse."""
    # a NaN kappa (non-finite entries) fails this comparison too
    if not kappa <= tol.invert_cond_max:
        raise NotInvertible(kappa)


def invert(m, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of a stack over the
    leading axes; NotInvertible when kappa_1 exceeds tol.invert_cond_max."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"invert requires square matrices, got shape {a.shape}")
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # numpy finds a matrix exactly singular
        raise NotInvertible(np.inf) from None
    _check_kappa(_kappa_1(a, a_inv), tol)
    return a_inv


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
    them."""
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


def band_matmul(x: Band, y: Band) -> Band:
    """x @ y over broadcast leading axes.  Each diagonal of the factor y is
    one shifted elementwise product."""
    n = x.size
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


def _norm_inf(b: Band) -> np.ndarray:
    """The infinity norm of every matrix over the leading axes of b: the
    largest absolute row sum, read off the storage as :func:`_norm_1` reads
    the columns; slot (r, j) holds entry (j + r - ku, j)."""
    n = b.size
    mod = np.abs(b.ab)
    rows = np.zeros(mod.shape[:-2] + (n,))
    for r in range(mod.shape[-2]):
        d = r - b.ku
        lo, hi = max(0, -d), min(n, n - d)
        rows[..., lo + d:hi + d] += mod[..., r, lo:hi]
    return rows.max(axis=-1)


def band_norm(b: Band) -> float:
    """The largest operator norm over the leading axes, from above: sqrt(top),
    with top at least the top eigenvalue of the Gram band G = b* b of the
    bisected matrix, at least that of every other over 1 + gamma, and at
    most the largest times 1 + gamma, up to rounding.

    Only the kd + 1 storage rows of G on and above its diagonal are formed,
    kd = min(kl + ku, n - 1).  The matrices are visited by decreasing
    1-norm of G, the column sums of those rows and of their conjugate
    mirror, until one is at most top; each is certified by one banded
    Cholesky test of top (1 + gamma) 1 - G or bisected on that test,
    gamma = :func:`_level_slack` (n) (see the module docstring).  A stack whose
    largest entry modulus lies outside [2^-128, 2^128] is scaled by one
    power of two, as in :func:`sup_norm`; an all-zero stack has 1-norm 0
    and norm exactly 0, with no factorization.  zpbtrf tests its pivots by
    ajj <= 0, which a NaN passes, so an inf or a NaN entry makes the norm
    NaN before any factorization, and so does a factor whose last pivot
    is NaN, as any NaN in the band makes it."""
    n = b.size
    ab = b.ab.reshape((-1,) + b.ab.shape[-2:])
    peak = np.abs(ab).max(initial=0.0)
    if not np.isfinite(peak):
        return float("nan")
    e = 0
    if not _GRAM_RANGE[0] <= peak <= _GRAM_RANGE[1]:
        # frexp gives an all-zero stack e = 0
        e = max(int(np.frexp(peak)[1]), -1021)
        ab = ab * np.ldexp(1.0, -e)
    # upper[kd - d, j] = G[j - d, j] = sum_r conj(ab[r + d, j - d]) ab[r, j],
    # the storage zpbtrf reads; ab may have more than kd + 1 rows
    kd, rows = min(b.kl + b.ku, n - 1), ab.shape[-2]
    upper = np.zeros((len(ab), kd + 1, n), dtype=complex)
    for d in range(kd + 1):
        upper[:, kd - d, d:] = (np.conj(ab[:, d:, :n - d]) * ab[:, :rows - d, d:]).sum(axis=-2)
    mod = np.abs(upper)
    cols = mod.sum(axis=-2)
    for d in range(1, kd + 1):
        cols[:, :n - d] += mod[:, kd - d, d:]
    bound = cols.max(axis=-1)
    diag = upper[:, kd].real.max(axis=-1)
    slack = _level_slack(n)
    zpbtrf = scipy_linalg().lapack.zpbtrf
    nan = False

    def fits(k, level):
        # whether G_k <= level 1, up to rounding: the banded Cholesky of
        # level 1 - G_k runs to its end
        nonlocal nan
        shifted = -upper[k]
        shifted[kd] += level
        factor, info = zpbtrf(shifted)
        nan |= bool(np.isnan(factor[kd, -1]))
        return info == 0

    top = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] <= top:
            break
        if top > 0 and fits(k, top * (1 + slack)):
            continue
        lo, hi = max(top, diag[k]), bound[k] * (1 + slack)
        while hi > lo * (1 + slack):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if fits(k, mid):
                hi = mid
            else:
                lo = mid
        top = hi
    if nan:
        return float("nan")
    # a norm beyond the largest float is inf, unwarned, as in op_norms
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(top), e))


def band_det(b: Band) -> np.ndarray:
    """Determinants over the leading axes, from the band LU ``zgbtrf``: the
    product of U's diagonal times the sign of the row interchanges."""
    work = np.zeros(b.ab.shape[:-2] + (2 * b.kl + b.ku + 1, b.size), dtype=complex)
    work[..., b.kl:, :] = b.ab
    dets = np.empty(b.ab.shape[:-2], dtype=complex)
    unmoved = np.arange(b.size)
    zgbtrf = scipy_linalg().lapack.zgbtrf
    for idx in np.ndindex(dets.shape):
        # piv is 0-based, and U's diagonal is row kl + ku of lu
        lu, piv, _ = zgbtrf(work[idx], b.kl, b.ku)
        sign = -1.0 if np.count_nonzero(piv != unmoved) % 2 else 1.0
        dets[idx] = sign * np.prod(lu[b.kl + b.ku])
    return dets


def _windowed_inverse(b: Band, s: int, w: int):
    """The inverse of each matrix of b from its columns in blocks of s, each
    solved on the window of half-width w around its block, as one batched
    ``np.linalg.solve``; None when numpy finds a window singular.

    b is read as padded with the identity, w before and enough after, so
    that every window is a principal submatrix of side s + 2w.  Block q
    holds columns q s .. q s + s - 1, and its window rows and columns
    q s - w .. q s + s + w - 1; a window that covers the matrix solves it
    exactly.
    The result has widths s + w - 1, at most n - 1, and keeps no entry of
    the padding."""
    n = b.size
    k, m = -(-n // s), s + 2 * w
    q, r, c = np.indices((k, m, m))
    i, j = q * s + r - w, q * s + c - w
    pad = (i < 0) | (i >= n)
    inside = ~pad & (j >= 0) & (j < n) & (j - i <= b.ku) & (i - j <= b.kl)
    win = np.zeros(b.ab.shape[:-2] + (k, m, m), dtype=complex)
    win[..., pad & (i == j)] = 1.0
    win[..., inside] = b.ab[..., (b.ku + i - j)[inside], j[inside]]
    rhs = np.zeros((m, s), dtype=complex)
    rhs[w + np.arange(s), np.arange(s)] = 1.0
    try:
        z = np.linalg.solve(win, np.broadcast_to(rhs, win.shape[:-1] + (s,)))
    except np.linalg.LinAlgError:
        return None
    q, r, c = np.indices((k, m, s))
    i, j = q * s + r - w, q * s + c
    keep = (i >= 0) & (i < n) & (j < n)
    kx = min(s + w - 1, n - 1)
    ab = np.zeros(b.ab.shape[:-2] + (2 * kx + 1, n), dtype=complex)
    ab[..., (kx + i - j)[keep], j[keep]] = z[..., keep]
    return Band(ab, kx, kx)


def _residual(b: Band, x: Band) -> Band:
    """R = b x - 1, the identity subtracted on the storage's diagonal row."""
    resid = b @ x
    resid.ab[..., resid.ku, :] -= 1.0
    return resid


def band_invert(b: Band, tol: Tol = DEFAULT_TOL) -> tuple[Band, Band]:
    """(X, R): a banded inverse X of each matrix of b and its residual
    R = b X - 1, which certifies it; NotInvertible under the kappa_1 rule
    of :func:`invert`.

    The windows of :func:`_windowed_inverse` start at half-width kl + ku,
    with blocks as wide, and double until ||R||_1 <= n u ||b||_1 ||X||_1
    on every matrix (u the unit roundoff), or until their LU factors would
    cost at least that of the whole matrix, ceil(n / w) (3w)^3 >= n^3, as
    they do once a window is as wide as the matrix: then the one window is
    the whole matrix, X is its exact inverse, and a singular matrix raises
    NotInvertible(inf).  A singular window widens too.  R is the residual
    that ended the widening, or, for the whole matrix, formed once there."""
    n = b.size
    bound = n * np.finfo(float).eps / 2 * _norm_1(b.ab)
    w = max(b.kl + b.ku, 1)
    while -(-n // w) * (3 * w) ** 3 < n ** 3:
        x = _windowed_inverse(b, w, w)
        if x is not None:
            resid = _residual(b, x)
            if np.all(_norm_1(resid.ab) <= bound * _norm_1(x.ab)):
                break
        w *= 2
    else:
        x = _windowed_inverse(b, n, 0)
        if x is None:
            raise NotInvertible(np.inf)
        resid = _residual(b, x)
    _check_kappa(_kappa_1(b.ab, x.ab), tol)
    return x, resid
