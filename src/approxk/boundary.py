"""Approximate ideal structures, lifts, and boundary classes.

The engine runs over two carriers (dense matrices and sampled loops) and
never hard-codes smallness thresholds: every operation measures residuals
and records them in certificates, so "how small is delta" stays an
empirical, auditable question.

The constructions are written once, over :mod:`approxk.ops`.  What differs
between the carriers lives in the two membership sides, :class:`MatrixSide`
and :class:`LoopSide`, which implement the same methods.  A side is built at
one Tol, ``side.tol``, which every method that decides a rank or inverts
reads; a new carrier implements exactly these:

- ``project(x, unitized)``: the witness of membership alone, at any
  amplification (a matrix side projects block by block, a loop side masks);
- ``nearest(x, unitized)``: the witness of ``project`` and the residual of
  membership, the residual of a stack being the max over its summands;
- ``intersect(other)``: the side of the intersection algebra (a matrix
  side reads it off principal angles);
- ``tensor(m)``: the side of the algebra tensored with M_m;
- ``random_elements(m, count, rng)``: a stack of count random ambient
  elements at fiber amplification m, with standard complex Gaussian
  entries and no scaling (the uniformity probe scales their projections);
- ``aug_diff(e, half)``: scalar-rank mismatch of e against
  1_half (+) 0, the scalar part read by the augmentation of the unitized
  algebra;
- ``trivialize(e)``: the carrier's one step on a boundary idempotent e
  (a matrix side rounds its nearest point by Riesz, a loop side runs
  arc_k0_trivialize); a lift holds the result t, which these two read:
- ``boundary_class(t, half)``: the class [e] - [1_half (+) 0], read
  against the algebra's own Wedderburn data;
- ``trivializer(t, half, seed)``: an invertible w with
  w e w^-1 ~ 1_half (+) 0, or NoWitness;
- ``k1(u)``: the K_1 class of an invertible, ``()`` when K_1 is zero.

The constructions run over a :class:`Pair`, the two sides of a
decomposition (C, D) over one carrier, at one Tol, ``pair.tol``, which its
sides are built at.  The pair takes C cap D once, as ``pair.inter``, and
holds its tensored pairs, one per m, whose intersections are the tensored
``inter``.  Every public entry point that takes (c, d) builds its pair by
:func:`make_pair`, which also takes a held ``Pair`` in c's slot, and the
certificates hold the pair they were measured over: ``cert.pair.tol`` is
the one Tol of everything derived from a certificate.  A certificate that
holds arrays compares by identity: the == of two arrays has no truth value.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator

import numpy as np

from . import funcalc, matcore, ops, subalg
from .errors import (
    DefectTooLarge,
    ExactnessViolation,
    InvalidInput,
    IotaNotZero,
    NotAClass,
    NotAContraction,
    NotEquivalent,
    NoWitness,
    PairNotUniform,
    PathTooCoarse,
    ReconstructionFailed,
    RoundingUnstable,
)
from .loops import (LoopAlg, LoopElem, arc_k0_trivialize, det_winding, loop_membership,
                    loop_project, winding_k1)
from .matcore import DEFAULT_TOL, Gate, Tol, as_matrix, below, eye
from .subalg import Subalg, Subspace
from .wedderburn import K0Vec, k0_class, similarity_witness


# ---------------------------------------------------------------------------
# positive-contraction multipliers
#
# A multiplier is a (..., n, n) stack acting blockwise on the element's fiber
# index.  For matrix carriers h is an ambient hermitian matrix; for loop
# carriers it is a real per-sample profile (a scalar function on the circle),
# read as a (G, 1, 1) stack.


def _multiplier(h) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim == 1:
        if not np.all(np.isreal(h)):
            raise NotAContraction("profile multiplier must be real")
        h = h[:, None, None]
    if h.ndim == 3 and h.shape[1] == h.shape[2]:
        if not np.isfinite(h).all():
            raise InvalidInput("multiplier has non-finite entries")
        return h
    return as_matrix(h)


def check_contraction(h):
    slack = 1e-9
    hm = _multiplier(h)
    hm_adj = np.conj(np.swapaxes(hm, -1, -2))
    if matcore.sup_norm(hm - hm_adj) > slack * max(1.0, matcore.sup_norm(hm)):
        raise NotAContraction("multiplier is not hermitian")
    w = np.linalg.eigvalsh((hm + hm_adj) / 2)
    if w.min() < -slack or w.max() > 1.0 + slack:
        raise NotAContraction(
            f"spectrum [{w.min():.3e}, {w.max():.3e}] outside [0, 1]"
        )


def h_one_minus(h):
    hm = _multiplier(h)
    return np.eye(hm.shape[-1]) - hm


def h_prod(h1, h2):
    return _multiplier(h1) @ _multiplier(h2)


def _acting(hm: np.ndarray, xa: np.ndarray, stacked: bool) -> np.ndarray:
    """The multiplier array hm as it acts on the array xa of an element (of
    a stack's summands when stacked): hm itself for a scalar per sample, and
    its amplification 1_k (x) hm on an element of side k n otherwise."""
    lead = xa.shape[:-3] if stacked else xa.shape[:-2]
    if hm.shape[:-2] != lead:
        raise InvalidInput(
            "multiplier and element live on different sample grids "
            "(loop elements take profile multipliers)"
        )
    if stacked:
        hm = hm[..., None, :, :]
    n = hm.shape[-1]
    k = xa.shape[-1] // n
    if k * n != xa.shape[-1]:
        raise InvalidInput("element size is not a multiple of the multiplier size")
    return np.kron(eye(k), hm) if n > 1 and k > 1 else hm


def _times(amp: np.ndarray, xa: np.ndarray, side: str) -> np.ndarray:
    """xa multiplied by an :func:`_acting` multiplier on the given side."""
    if amp.shape[-1] == 1:
        # a scalar per sample: both sides agree
        return amp * xa
    return amp @ xa if side == "left" else xa @ amp


def h_apply(h, x, side: str = "left"):
    """Multiply x by (an amplification of) h on the given side; on a stack,
    the same h acts on every summand."""
    hm = _multiplier(h)
    xa = ops.arr(x)
    return ops.like(x, _times(_acting(hm, xa, isinstance(x, ops.Stack)), xa, side))


# ---------------------------------------------------------------------------
# membership sides: one oracle interface over both carriers


class MatrixSide:
    """Membership oracle for a matrix *-subalgebra at any amplification,
    deciding ranks and inverting at tol."""

    def __init__(self, alg: Subalg, tol: Tol = DEFAULT_TOL):
        self.alg = alg
        self.tol = tol

    @property
    def ambient_dim(self) -> int:
        return self.alg.ambient_dim

    def project(self, x, unitized: bool = True):
        alg = self.alg.unitization if unitized else self.alg
        return ops.like(x, alg.project(ops.arr(x)))

    def nearest(self, x, unitized: bool = True):
        w = self.project(x, unitized)
        return w, matcore.sup_norm(ops.arr(x) - ops.arr(w))

    def intersect(self, other: "MatrixSide") -> "MatrixSide":
        return MatrixSide(subalg.intersect(self.alg, other.alg, self.tol), self.tol)

    def tensor(self, m: int) -> "MatrixSide":
        return MatrixSide(subalg.tensor_with_full(self.alg, m), self.tol)

    def random_elements(self, m: int, count: int, rng) -> ops.Stack:
        n = self.ambient_dim * m
        g = rng.standard_normal((count, 2, n, n))
        return ops.Stack(g[:, 0] + 1j * g[:, 1])

    def aug_diff(self, e, half: int) -> int:
        if self.alg.is_unital_in_ambient:
            return 0
        n = self.ambient_dim
        k = len(e) // n
        scalars = np.einsum("pq,ipjq->ij", self.alg.augmentation, e.reshape(k, n, k, n))
        return matcore.rank(scalars, self.tol) - half // n

    def trivialize(self, e) -> np.ndarray:
        """The Riesz rounding of the nearest point of e in the unitized
        algebra; RoundingUnstable when the rounding breaks its certified bound."""
        f, cert = funcalc.riesz_idempotent(self.project(e))
        if not cert.passed:
            raise RoundingUnstable(
                f"rounding moved e by {cert.distance:.3e}, beyond its bound "
                f"{cert.bound:.3e}")
        return f

    def boundary_class(self, f, half: int) -> K0Vec:
        # [1_half (+) 0] is half / N copies of the ambient unit, which has
        # rank d_i m_i in block i: class half / N * d_i there
        w = self.alg.wedderburn
        copies, rest = divmod(half, self.ambient_dim)
        if rest:
            raise InvalidInput(f"half {half} is not a multiple of the ambient "
                               f"dimension {self.ambient_dim}")
        unit = K0Vec(tuple(copies * d for d, _ in w.blocks), w.signature)
        return k0_class(f, w, self.tol) - unit

    def trivializer(self, f, half: int, seed: int = 0):
        try:
            return similarity_witness(f, _top_projection(eye(half)), self.alg,
                                      self.tol, seed=seed)
        except NotEquivalent as err:
            raise NoWitness(f"boundary class nonzero: {err}") from err

    def k1(self, u) -> tuple:
        return ()


class LoopSide:
    """Membership oracle for a loop arc ideal, deciding ranks and inverting
    at tol."""

    def __init__(self, alg: LoopAlg, tol: Tol = DEFAULT_TOL):
        self.alg = alg
        self.tol = tol

    def project(self, x: LoopElem, unitized: bool = True):
        return loop_project(x, self.alg, unitized)

    def nearest(self, x: LoopElem, unitized: bool = True):
        return loop_membership(x, self.alg, unitized)

    def intersect(self, other: "LoopSide") -> "LoopSide":
        return LoopSide(self.alg.intersect(other.alg), self.tol)

    def tensor(self, m: int) -> "LoopSide":
        old = self.alg
        return LoopSide(LoopAlg(old.grid_size, old.fiber_dim * m, old.support_mask), self.tol)

    def random_elements(self, m: int, count: int, rng) -> ops.Stack:
        shape = (count, 2, self.alg.grid_size) + (self.alg.fiber_dim * m,) * 2
        g = rng.standard_normal(shape)
        return ops.Stack(np.moveaxis(g[:, 0] + 1j * g[:, 1], 0, -3))

    def aug_diff(self, e: LoopElem, half: int) -> int:
        off = e.samples[~self.alg.mask]
        if off.size == 0:
            return 0
        return matcore.rank(off.mean(axis=0), self.tol) - half

    def trivialize(self, e: LoopElem):
        """arc_k0_trivialize(e, self.alg, self.tol): (rank, conjugator,
        constant)."""
        return arc_k0_trivialize(e, self.alg, self.tol)

    def boundary_class(self, t, half: int) -> K0Vec:
        r, _conj, _const = t
        if r != half:
            raise ExactnessViolation(
                f"off-support rank {r} != {half}: class escapes the trivial group"
            )
        # K0 of a union of open arcs is trivial; the successful rank-matched
        # trivialization is the constructive witness that the class is zero.
        return K0Vec((), ())

    def trivializer(self, t, half: int, seed: int = 0) -> LoopElem:
        r, conj, _const = t
        if r != half:
            raise NoWitness(f"boundary class nonzero: off-support rank {r} != {half}")
        return conj

    def k1(self, u: LoopElem) -> tuple:
        return winding_k1(u).entries


def make_side(obj, tol: Tol = DEFAULT_TOL):
    """The membership side of an algebra, or of a side's algebra, at tol."""
    if isinstance(obj, (MatrixSide, LoopSide)):
        obj = obj.alg
    if isinstance(obj, Subalg):
        return MatrixSide(obj, tol)
    if isinstance(obj, LoopAlg):
        return LoopSide(obj, tol)
    raise InvalidInput(f"cannot build a membership side from {type(obj).__name__}")


class Pair:
    """The pair (C, D): its two membership sides over one carrier, both
    built at the pair's Tol, and C cap D taken once.

    ``inter`` is the side of C cap D, read off the two sides on first use.
    ``tensor(m)`` is the pair (C (x) M_m, D (x) M_m), built once per m and
    held here.  Tensoring keeps intersections,

        (C (x) M_m) cap (D (x) M_m) = (C cap D) (x) M_m,

    so the ``inter`` of a tensored pair is this pair's ``inter`` tensored,
    and no intersection is computed for it.  That is exact: the principal
    angles of the tensored pair are the base angles, each m^2 times, so the
    rank cut and its ambiguity band decide as on the base, and
    (C cap D) (x) M_m is closed exactly when C cap D is.

    ``intersection_gap`` measures that identity on a matrix pair: the
    dimension of the pair's own principal-angle intersection minus that of
    its ``inter``, 0 when the identity holds.  It takes one intersection,
    once per pair.  A loop pair has no principal angles: InvalidInput.
    """

    def __init__(self, c, d, tol: Tol = DEFAULT_TOL):
        self.c, self.d = make_side(c, tol), make_side(d, tol)
        if type(self.c) is not type(self.d):
            raise InvalidInput("cannot pair sides over different carriers")
        self.tol = tol
        self._tensors = {}

    @functools.cached_property
    def inter(self):
        return self.c.intersect(self.d)

    def tensor(self, m: int) -> "Pair":
        if m not in self._tensors:
            pair = Pair(self.c.tensor(m), self.d.tensor(m), self.tol)
            # the tensoring identity: the held inter, not an intersection
            pair.inter = self.inter.tensor(m)
            self._tensors[m] = pair
        return self._tensors[m]

    @functools.cached_property
    def intersection_gap(self) -> int:
        if not isinstance(self.c, MatrixSide):
            raise InvalidInput("intersection gaps are measured over matrix carriers")
        return self.c.intersect(self.d).alg.dim - self.inter.alg.dim


def make_pair(c, d, tol: Tol | None = None) -> Pair:
    """The pair of an entry point: a Pair given in c's slot, with d None, as
    it is, at its own Tol; otherwise the pair of the sides or algebras c and
    d, at tol or DEFAULT_TOL.  A tol other than a given Pair's is
    InvalidInput."""
    if not isinstance(c, Pair):
        return Pair(c, d, DEFAULT_TOL if tol is None else tol)
    if d is not None:
        raise InvalidInput("a Pair takes no second side")
    if tol is not None and tol != c.tol:
        raise InvalidInput("the Pair was built at another Tol")
    return c


# ---------------------------------------------------------------------------
# delta-ideal structures


@dataclasses.dataclass(eq=False)
class IdealCert:
    """Measured residuals of an approximate ideal structure.

    measured = (commutator, C-membership, D-membership, and the two
    intersection-membership residuals), each normalized by the operator norm
    of the probed element and maximized over the probe set, over the pair
    (C, D), at its Tol: ``pair.tol``, which tensor_scale_ideal_structure
    reads too.  Their maximum, ``delta_level``, is a sampled estimate.
    """

    h: object
    pair: Pair
    x_basis: list
    measured: tuple
    seed: int

    @property
    def delta_level(self) -> float:
        # np.max keeps a NaN, which then fails valid_at
        return float(np.max(self.measured))

    def gates(self, delta: float) -> tuple:
        return (Gate("delta_level", self.delta_level, delta, "sampled"),)

    def valid_at(self, delta: float) -> bool:
        return all(g.holds for g in self.gates(delta))


def check_delta_ideal_structure(h, c, d, x_basis, tol: Tol | None = None,
                                seed: int = 0, random_probes: int = 50) -> IdealCert:
    """Measure how well (h, C, D) splits the subspace spanned by x_basis.

    The probes are the basis elements and random_probes random complex
    combinations of them, each scaled to unit norm, as the summands of one
    stack; a probe of norm below 1e-12 is dropped.  (c, d) and tol make the
    pair as :func:`make_pair` does.
    """
    check_contraction(h)
    pair = make_pair(c, d, tol)
    basis = list(x_basis.basis) if isinstance(x_basis, Subspace) else list(x_basis)
    if not basis:
        raise InvalidInput("empty probe subspace")
    if random_probes < 0:
        raise InvalidInput(f"random_probes must be >= 0, got {random_probes}")
    b = ops.arr(ops.stack(basis))
    g = np.random.default_rng(seed).standard_normal((random_probes, 2, len(basis)))
    coeffs = g[:, 0] + 1j * g[:, 1]
    # one basis element at a time, so each probe is rounded as c_0 b_0 + c_1 b_1 + ...
    mixed = sum(coeffs[:, j, None, None] * b[..., j, None, :, :] for j in range(len(basis)))
    x = ops.unit_summands(ops.Stack(np.concatenate([b, mixed], axis=-3)), 1e-12)
    if x.summands.shape[-3] == 0:
        raise InvalidInput("every probe has norm below 1e-12")
    hbar = h_one_minus(h)
    h_hbar = h_prod(h, hbar)
    h2_hbar = h_prod(h, h_hbar)
    measured = (ops.norm(h_apply(h, x, "left") - h_apply(h, x, "right")),
                pair.c.nearest(h_apply(h, x), unitized=False)[1],
                pair.d.nearest(h_apply(hbar, x), unitized=False)[1],
                pair.inter.nearest(h_apply(h_hbar, x), unitized=False)[1],
                pair.inter.nearest(h_apply(h2_hbar, x), unitized=False)[1])
    measured = tuple(map(float, measured))
    return IdealCert(h, pair, basis, measured, seed)


def _dual_constant(x_basis, tol: Tol = DEFAULT_TOL) -> float:
    """n * M for the probe subspace: n = dim, M = max norm of the HS-realized
    dual functionals as functionals on the operator-norm space.

    For loop bases the functional norm is bounded by the sum of per-sample
    nuclear norms of the dual vector, which is what this returns.
    """
    n = len(x_basis)
    unit = [ops.arr(ops.scal(1.0 / ops.norm(x), x)) for x in x_basis]
    flats = np.array([x.ravel() for x in unit])
    if matcore.rank(flats, tol) < n:
        raise InvalidInput("probe basis is linearly dependent")
    gram = np.conj(flats) @ flats.T
    duals = np.linalg.solve(gram, np.conj(flats))
    slices = np.conj(duals).reshape((n, -1) + unit[0].shape[-2:])
    nuclear = np.linalg.svd(slices, compute_uv=False).sum(axis=(-2, -1))
    return n * float(nuclear.max())


def tensor_scale_ideal_structure(cert: IdealCert, m: int):
    """Tensor an ideal structure with a full matrix factor M_m and recheck
    at the certificate's Tol, ``cert.pair.tol``.

    Returns (new_cert, m_x) and asserts the new residuals stay within
    m_x * delta of the input level, where m_x = n * M is computed from a
    dual basis of the probe subspace.

    The check runs over the certificate's pair tensored with M_m, whose
    C cap D is the base intersection tensored (see :class:`Pair`), so no
    intersection is computed here.
    """
    m_x = _dual_constant(cert.x_basis, cert.pair.tol)
    h2 = np.kron(_multiplier(cert.h), eye(m))
    units = [matcore.matrix_unit(m, i, j) for i in range(m) for j in range(m)]
    basis2 = [ops.like(x, np.kron(ops.arr(x), u)) for x in cert.x_basis for u in units]
    cert2 = check_delta_ideal_structure(h2, cert.pair.tensor(m), None, basis2,
                                        seed=cert.seed)
    gate, = cert2.gates(m_x * cert.delta_level + 1e-9)
    if not gate.holds:
        raise ExactnessViolation(
            f"tensored residual {gate.value:.3e} exceeds "
            f"m_x * delta = {gate.budget:.3e}"
        )
    return cert2, m_x


# ---------------------------------------------------------------------------
# lifts


@dataclasses.dataclass(eq=False)
class LiftCert:
    """Measured residuals for the five lift conditions.

    residual_d, residual_c, residual_int are the membership defects of v in
    the matrices over unitized D, of v * diag(u^-1, u) in unitized C, and of
    the boundary idempotent e = v * diag(1, 0) * v^-1 in the unitized
    intersection.  aug_diff is the scalar-rank mismatch that must vanish for
    the boundary class to live in the non-unitized K_0 group.  pair is the
    pair (C, D) they were measured over, at its Tol, ``pair.tol``:
    everything derived from the certificate reads both, and the certificate
    holds no Tol of its own.

    The certificate holds what is derived from it, as cached properties
    that are not in the repr (dataclasses.replace gives a fresh holder):
    ``trivialization``, the intersection side's trivialize of e, which the
    boundary class and the sigma witness share, and ``boundary_class``.
    Neither is read from a lift whose e has no class:
    DefectTooLarge unless delta_level is below the Riesz domain
    funcalc.DELTA_MAX = 1/16, and NotAClass unless aug_diff is 0.
    """

    u: object
    v: object
    v_inv: object
    e: object
    c: float
    residual_d: float
    residual_c: float
    residual_int: float
    aug_diff: int
    pair: Pair

    @property
    def delta_level(self) -> float:
        # np.max keeps a NaN, which then fails valid_at
        return float(np.max([self.residual_d, self.residual_c, self.residual_int]))

    def gates(self, delta: float) -> tuple:
        return (Gate("delta_level", self.delta_level, delta),
                Gate("aug_diff", abs(self.aug_diff), 0))

    def valid_at(self, delta: float) -> bool:
        return all(g.holds for g in self.gates(delta))

    @functools.cached_property
    def trivialization(self):
        level, aug = self.gates(below(funcalc.DELTA_MAX))
        if not level.holds:
            raise DefectTooLarge(f"lift level {self.delta_level:.3e} >= {funcalc.DELTA_MAX}")
        if not aug.holds:
            raise NotAClass(f"scalar-rank mismatch {self.aug_diff}: e has no class")
        return self.pair.inter.trivialize(self.e)

    @functools.cached_property
    def boundary_class(self) -> K0Vec:
        """[e] - [1 (+) 0] in K_0(C cap D), with the exactness assertion that
        its pushforwards into K_0(C) and K_0(D) vanish."""
        half = ops.side_size(self.u)
        out = self.pair.inter.boundary_class(self.trivialization, half)
        if not out.blocks:
            # a class in the zero group has zero pushforwards
            return out
        for side in (self.pair.c, self.pair.d):
            push = side.boundary_class(side.trivialize(self.e), half)
            if any(push.entries):
                raise ExactnessViolation(f"pushforward {push.entries} is nonzero")
        return out


def _top_projection(u):
    one = ops.eye_like(u)
    zero = ops.zero_like(u)
    return ops.block2(one, zero, zero, zero)


def certify_lift(u, v, c, d=None, tol: Tol | None = None) -> LiftCert:
    """Measure the lift conditions for v against u over the pair (C, D),
    made from (c, d) and tol as :func:`make_pair` does, at its Tol."""
    pair = make_pair(c, d, tol)
    v_inv = ops.inv(v, pair.tol)
    u_inv = ops.inv(u, pair.tol)
    norm_c = max(ops.norm(v), ops.norm(v_inv), ops.norm(u), ops.norm(u_inv))
    _, r_d = pair.d.nearest(v)
    _, r_c = pair.c.nearest(v @ ops.oplus(u_inv, u))
    e = v @ _top_projection(u) @ v_inv
    _, r_int = pair.inter.nearest(e)
    # the scalar-rank mismatch decides whether the boundary class lands in
    # the non-unitized subgroup
    aug = pair.inter.aug_diff(e, ops.side_size(u))
    return LiftCert(u, v, v_inv, e, float(norm_c), float(r_d), float(r_c),
                    float(r_int), int(aug), pair)


def build_lift_v(u, h, c, d=None, tol: Tol | None = None):
    """The explicit lift v from an almost-splitting multiplier h.

    With a = h + (1-h)u and b = h + u^-1 (1-h), v is the four-factor
    elementary product X(a) Y(-b) X(a) J, evaluated in closed form as
    [[a(2-ba), ab-1], [1-ba, b]].  Degenerations: h = 1 gives v = 1 and
    h = 0 gives the Whitehead block diag(u, u^-1).  (c, d) and tol make the
    pair as :func:`make_pair` does.
    """
    check_contraction(h)
    pair = make_pair(c, d, tol)
    one = ops.eye_like(u)
    y = u - one
    u_inv = ops.inv(u, pair.tol)
    z = u_inv - one
    a = one + h_apply(h_one_minus(h), y, "left")
    b = one + h_apply(h_one_minus(h), z, "right")
    ab = a @ b
    ba = b @ a
    two = ops.scal(2.0, one)
    v = ops.block2(a @ (two - ba), ab - one, one - ba, b)
    return v, certify_lift(u, v, pair)


def check_inv_cut(u, h):
    """Measured deviation of ab - 1 and ba - 1 from (y + z) h (1 - h), with
    the certified bound 2 (c^2 + c) delta_comm.  Returns (measured, bound).

    u is validated once, by :func:`ops.arr`, and h once, by
    :func:`_multiplier`; h, 1 - h and h (1 - h) are each amplified to act on
    u once, by the helper :func:`h_apply` calls.  The products are those of
    :func:`h_apply` and of u's carrier, so the result is bit for bit what the
    same formulas give over the carrier's elements.  The six norms
    (ab - 1 - target, ba - 1 - target, y, z and the commutators of h with y
    and with z) are taken in one :func:`ops.summand_norms` call; an
    intermediate that overflows makes a norm inf or NaN, and measured <=
    bound then fails."""
    ua = ops.arr(u)
    hm = _multiplier(h)
    stacked = isinstance(u, ops.Stack)
    mul = ops.product(u)
    one = eye(ua.shape[-1])
    y = ua - one
    z = matcore.invert(ua) - one
    hbar = np.eye(hm.shape[-1]) - hm
    on_h, on_hbar, on_h_hbar = (_acting(m, ua, stacked) for m in (hm, hbar, hm @ hbar))
    a = one + _times(on_hbar, y, "left")
    b = one + _times(on_hbar, z, "right")
    target = _times(on_h_hbar, y + z, "right")
    comms = [_times(on_h, w, "left") - _times(on_h, w, "right") for w in (y, z)]
    norms = ops.summand_norms(ops.Stack(np.stack(
        [mul(a, b) - one - target, mul(b, a) - one - target, y, z, *comms], axis=-3)))
    # the maxima keep a NaN, so that measured <= bound fails
    measured, cc = norms[:2].max(), norms[2:4].max()
    moved = norms[2:4] > 1e-14
    comm = np.max(norms[4:][moved] / norms[2:4][moved], initial=0.0)
    # a zero commutator bounds by 0 even where c^2 overflows, which would
    # make inf * 0; a NaN c still gives NaN
    bound = 2.0 * (cc * cc + cc) * comm if comm else 0.0 * cc
    return float(measured), float(bound)


# ---------------------------------------------------------------------------
# boundary classes


def boundary_class(cert: LiftCert, seed: int = 0) -> K0Vec:
    """The boundary class that a certified lift holds,
    :attr:`LiftCert.boundary_class`.  It is read against the algebras' own
    Wedderburn data: seed reaches nothing and is kept for callers that pass
    it."""
    return cert.boundary_class


def iota_lift(p, q, c, d=None, tol: Tol | None = None, seed: int = 0):
    """Exact lift data for a K_0 difference [p] - [q] that dies in both
    K_0(C) and K_0(D).

    Returns (u, v, cert) with u = (1-p) u_C^-1 + p u_D^-1 and the closed-form
    block v; the boundary class of the result is [p] - [q].  (c, d) and tol
    make the pair as :func:`make_pair` does.
    """
    pair = make_pair(c, d, tol)
    tol = pair.tol
    p = as_matrix(p)
    q = as_matrix(q)
    try:
        u_c = similarity_witness(p, q, pair.c.alg, tol, seed=seed)
        u_d = similarity_witness(p, q, pair.d.alg, tol, seed=seed)
    except NotEquivalent as err:
        raise IotaNotZero(f"no similarity witness: {err}") from err
    one = eye(p.shape[0])
    u_c_inv = matcore.invert(u_c, tol)
    u_d_inv = matcore.invert(u_d, tol)
    u = (one - p) @ u_c_inv + p @ u_d_inv
    v = ops.block2(p @ u_d_inv, p - one, one - q, u_d @ p)
    return u, v, certify_lift(u, v, pair)


def boxplus_permutation(sizes: list[int]) -> np.ndarray:
    """Index permutation p regrouping interleaved (top_1, bot_1, ..., top_m,
    bot_m) blocks into (top_1, ..., top_m, bot_1, ..., bot_m): row i of the
    regrouped frame is row p[i] of the interleaved one."""
    starts = np.cumsum([0] + [2 * n_i for n_i in sizes[:-1]])
    tops = [np.arange(n_i) + o for n_i, o in zip(sizes, starts)]
    return np.concatenate(tops + [t + n_i for t, n_i in zip(tops, sizes)])


def boxplus(lifts):
    """Block sum of lifts: u = (+) u_i, v = (+) v_i with rows and columns
    regrouped by the permutation p, certified at the lifts' common Tol over
    the first lift's pair.  Returns (u, v, cert).

    The lifts must share C and D, compared as algebras: lifts built by
    separate calls on one (C, D) hold distinct Pair objects, and equal C, D
    and Tol fix C cap D."""
    if not lifts:
        raise InvalidInput("empty lift list")
    if not all(isinstance(lf, LiftCert) for lf in lifts):
        raise InvalidInput("boxplus expects LiftCert inputs")
    first = lifts[0]
    if any(lf.pair.tol != first.pair.tol for lf in lifts):
        raise InvalidInput("boxplus expects lifts certified at one Tol")
    if any(lf.pair.c.alg is not first.pair.c.alg or lf.pair.d.alg is not first.pair.d.alg
           for lf in lifts):
        raise InvalidInput("boxplus expects lifts over one pair (C, D)")
    u = functools.reduce(ops.oplus, [lf.u for lf in lifts])
    v_sum = functools.reduce(ops.oplus, [lf.v for lf in lifts])
    p = boxplus_permutation([ops.side_size(lf.u) for lf in lifts])
    v = ops.like(v_sum, ops.arr(v_sum)[..., p[:, None], p])
    return u, v, certify_lift(u, v, first.pair)


def inverse_lift(cert: LiftCert) -> LiftCert:
    """Certificate for v^-1 as a lift of u^-1, at the certificate's Tol."""
    return certify_lift(ops.inv(cert.u, cert.pair.tol), cert.v_inv, cert.pair)


# ---------------------------------------------------------------------------
# sigma: splitting a boundary-trivial class between C and D


@dataclasses.dataclass(eq=False)
class SigmaWitness:
    x: object
    factor: object  # u x^-1
    residual_d: float
    residual_c: float
    offdiag: float
    windings: tuple  # the K_1 classes of u, x and factor; () when K_1 is zero

    def gates(self, eps: float) -> tuple:
        return (Gate("residual_d", self.residual_d, eps),
                Gate("residual_c", self.residual_c, eps),
                Gate("windings", max((abs(f + x - u) for u, x, f in zip(*self.windings)),
                                     default=0), 0))


def sigma_witness(cert: LiftCert, eps: float, seed: int = 0) -> SigmaWitness:
    """Factorization witness for a lift with vanishing boundary class.

    Produces invertible x with x in_eps (matrices over) unitized D and
    u x^-1 in_eps unitized C, following the trivialize-then-cut-corners
    construction on the lift's held trivialization, at its Tol.
    """
    n = ops.side_size(cert.u)
    w = cert.pair.inter.trivializer(cert.trivialization, n, seed)
    wv = w @ cert.v
    x, top_right, bot_left, _y = ops.corner_blocks(wv, n)
    offdiag = max(ops.norm(top_right), ops.norm(bot_left))
    x_inv = ops.inv(x, cert.pair.tol)
    factor = cert.u @ x_inv
    _, r_d = cert.pair.d.nearest(x)
    _, r_c = cert.pair.c.nearest(factor)
    k1 = cert.pair.inter.k1
    wu, wx, wf = windings = k1(cert.u), k1(x), k1(factor)
    wit = SigmaWitness(x, factor, float(r_d), float(r_c), float(offdiag), windings)
    gate_d, gate_c, gate_w = wit.gates(eps)
    if not (gate_d.holds and gate_c.holds):
        raise ReconstructionFailed((wit.residual_d, wit.residual_c))
    if not gate_w.holds:
        raise ReconstructionFailed((wf, wx, wu), f"winding bookkeeping {wf} + {wx} != {wu}")
    return wit


# ---------------------------------------------------------------------------
# homotopy discretization and Whitehead splittings


def _homotopy_stacks(u_path, tol: Tol = DEFAULT_TOL):
    """Stacks (a, b, defect) behind discretize_homotopy: a holds the
    summands path_i^-1 (i >= 1), inverted at tol, and b the summands
    path_i."""
    max_step = 0.5
    if len(u_path) < 2:
        raise InvalidInput("need at least two path samples")
    b = ops.stack(u_path)
    p = ops.arr(b)
    one = np.eye(p.shape[-1])
    if matcore.sup_norm(p[..., -1, :, :] - one) > 1e-9:
        raise InvalidInput("path must end at the identity")
    m = p.shape[-3] - 1
    steps = ops.summand_norms(ops.Stack(p[..., 1:, :, :] - p[..., :-1, :, :]))
    coarse = np.flatnonzero(steps >= max_step)
    if coarse.size:
        i = int(coarse[0])
        raise PathTooCoarse(i, f"step {steps[i]:.3e} >= {max_step:.3e}")
    q = matcore.invert(p, tol)
    # u_0 (+) 1 - (1_n (+) a (+) a^-1 (+) 1_n)(b (+) b^-1) is block diagonal:
    # 0, then 1 - q_i p_i, 1 - p_i q_(i-1) for i = 1..m, and 1 - q_m
    blocks = np.concatenate([q[..., 1:, :, :] @ p[..., 1:, :, :],
                             p[..., 1:, :, :] @ q[..., :-1, :, :],
                             q[..., -1:, :, :]], axis=-3)
    defect = matcore.sup_norm(one - blocks)
    c_bound = max(matcore.sup_norm(q[..., :-1, :, :]), matcore.sup_norm(p[..., 0, :, :]))
    if defect > max_step * c_bound + 1e-9:
        raise PathTooCoarse(m - 1,
                            f"defect {defect:.3e} exceeds {max_step * c_bound:.3e}")
    return ops.Stack(q[..., 1:, :, :]), b, defect


def discretize_homotopy(u_path):
    """Block-diagonal witnesses (a, b) that an invertible homotopic to the
    identity is a product of elementary-style blocks, up to a small defect.

    The path must end at the identity; returns (a, b, defect) with
    a = (+) path_i^-1 (i >= 1) of size m*n, b = (+) path_i of size (m+1)*n,
    and defect the norm of u_0 (+) 1 - (1_n (+) a (+) a^-1 (+) 1_n)(b (+) b^-1),
    certified against 0.5 * c, where 0.5 also bounds every step.  Steps,
    inverses and the defect are taken summand by summand.
    """
    path = list(u_path)
    a, b, defect = _homotopy_stacks(path)
    return (ops.like(path[0], ops.direct_sum(a)),
            ops.like(path[0], ops.direct_sum(b)), defect)


@dataclasses.dataclass(eq=False)
class WhiteheadCert:
    """Certificates of a Whitehead split and its homotopies over t in [0, 1].

    Bounds over every t in [0, 1]: ``norm_upper``, ``membership_c_upper``
    and ``membership_d_upper``.  With s = 1 - t both factors are matrix
    polynomials of degree at most 5 in s, each the convex combination
    sum_j B_j(s) b_j of its 6 Bernstein coefficients b_j, with weights
    B_j(s) >= 0 that sum to 1.  So a seminorm of a factor v, or of v - 1
    (whose coefficients are the b_j - 1), is at most its largest value over
    the coefficients: the operator norm of v and the membership residual of
    v - 1 alike (Farouki & Rajan, *CAGD* 4(3), 1987).  The maxima run over
    the samples too, which in exact arithmetic never exceed that value, so
    each bound is at least its sampled estimate.  They bound the polynomials
    of the computed coefficients: the rounding of the coefficient build, a
    few ulps of the factor norms, is not added.

    Sampled lower estimates: ``norm_max``, ``membership_c`` and
    ``membership_d``, maxima over the t_steps + 1 equispaced t.

    Endpoints: ``product_residual`` measures the t = 0 product against
    diag(a, a^-1), and ``endpoint_residual`` the t = 1 factors against 1.

    The four memberships are derived on first read and then kept (a cached
    property, not in the repr): one projection per side of the factors'
    power coefficients ``coefs`` onto the matrices over C and over D of
    ``pair``.  :attr:`certified` reads none of them, and neither
    does :func:`sigma_reconstruct`, so it projects no factor.
    """

    vc_path: list
    vd_path: list
    t_steps: int
    product_residual: float
    endpoint_residual: float
    norm_max: float
    norm_bound: float
    norm_upper: float
    pair: Pair
    coefs: tuple  # the power coefficients in s of vc and of vd

    def gates(self, eps: float | None = None) -> tuple:
        """The guarantees that need no eps: the t = 0 product recovers
        diag(a, a^-1), the t = 1 factors are the identity, and the norms stay
        within (3 + c)^5 over all of [0, 1].  With an eps, the two membership
        bounds over all of [0, 1] are judged against it too."""
        out = (Gate("product_residual", self.product_residual, 1e-9),
               Gate("endpoint_residual", self.endpoint_residual, 1e-12),
               Gate("norm_upper", self.norm_upper, self.norm_bound))
        return out if eps is None else out + (
            Gate("membership_c_upper", self.membership_c_upper, eps),
            Gate("membership_d_upper", self.membership_d_upper, eps))

    certified = property(lambda self: all(g.holds for g in self.gates()))

    @functools.cached_property
    def _memberships(self) -> tuple:
        """(sampled, upper) residuals of vc - 1 in C and of vd - 1 in D on
        the rows of the norms: the residual is linear, so one projection of
        the coefficients gives it at every row."""
        weights = _row_weights(self.t_steps)
        out = []
        for side, coefs in zip((self.pair.c, self.pair.d), self.coefs):
            lead = coefs.ndim - 4  # a loop's sample axis leads its stacks
            off = coefs.copy()
            off[0] -= eye(coefs.shape[-1])
            w = side.project(ops.Stack(np.moveaxis(off, 0, lead)), unitized=False)
            out.append(_maxima(_row_norms(weights, off - np.moveaxis(ops.arr(w), lead, 0))))
        return tuple(out)

    membership_c = property(lambda self: self._memberships[0][0])
    membership_c_upper = property(lambda self: self._memberships[0][1])
    membership_d = property(lambda self: self._memberships[1][0])
    membership_d_upper = property(lambda self: self._memberships[1][1])


# the Bernstein coefficients on [0, 1] of a polynomial of degree 5 from its
# power coefficients: b_j = sum_(k <= j) C(j, k) / C(5, k) c_k, so b_0 = c_0
# is its value at s = 0 and b_5 = sum_k c_k its value at s = 1
_BERNSTEIN = np.array([[math.comb(j, k) / math.comb(5, k) for k in range(6)]
                       for j in range(6)])


def _add_times_affine(p: np.ndarray, col: np.ndarray, z0: float,
                      z1: np.ndarray) -> np.ndarray:
    """p + col (z0 + s z1) for polynomials p and col (coefficients on axis
    0), a scalar z0 and an element z1: col_k enters coefficient k times z0
    and coefficient k + 1 times z1."""
    out = np.zeros((max(len(p), len(col) + 1),) + col.shape[1:], dtype=complex)
    out[:len(p)] = p
    out[:len(col)] += z0 * col
    out[1:len(col) + 1] += matcore.matmul(col, z1)
    return out


def _factor_coefficients(steps, one: np.ndarray) -> np.ndarray:
    """The 6 power coefficients in s of a product of 2 x 2 block factors:
    ("U", z0, z1) is [[1, z], [0, 1]] and ("L", z0, z1) is [[1, 0], [z, 1]]
    with z = z0 + s z1, and ("J", sign, None) is sign * [[0, -1], [1, 0]].

    The product is built from the identity by right multiplications on its
    block columns c1 and c2, each a polynomial over the stacked blocks
    (top, bottom): U(z) adds c1 z to c2, L(z) adds c2 z to c1, and sign * J
    takes (c1, c2) to sign * (c2, -c1).  A step costs one n x n product per
    block and coefficient of the column it reads; at most 5 factors are
    affine, so no coefficient beyond s^5 arises.  Every z0 is 0 or +-1, so
    the s^0 coefficient, sums of 0 and +-1 blocks alone, is exact."""
    zero = np.zeros_like(one)
    c1, c2 = np.stack([one, zero])[None], np.stack([zero, one])[None]
    for kind, z0, z1 in steps:
        if kind == "U":
            c2 = _add_times_affine(c2, c1, z0, z1)
        elif kind == "L":
            c1 = _add_times_affine(c1, c2, z0, z1)
        else:
            c1, c2 = z0 * c2, -z0 * c1
    n = one.shape[-1]
    out = np.zeros((6,) + one.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    for col, cols in ((c1, slice(None, n)), (c2, slice(n, None))):
        out[:len(col), ..., :n, cols] = col[:, 0]
        out[:len(col), ..., n:, cols] = col[:, 1]
    return out


def _whitehead_coefficients(x, y, h) -> tuple[np.ndarray, np.ndarray]:
    """The power coefficients in s = 1 - t of the Whitehead factors

        vc = U(xd) U(xc) L(-yc) U(xc) J U(-xd),
        vd = U(xd) (-J) U(-xc) L(-yd) U(xc) U(xd) J,

    with xc = 1 + s h x, xd = s (1 - h) x, yc = 1 + s h y and
    yd = s (1 - h) y, as two arrays (6, ..., 2n, 2n) over the stacks x and
    y, the coefficient of s^k at index k."""
    hbar = h_one_minus(h)
    hx, hbx, hy, hby = (ops.arr(h_apply(m, v)) for v in (x, y) for m in (h, hbar))
    one = ops.arr(ops.eye_like(x))
    vc = (("U", 0, hbx), ("U", 1, hx), ("L", -1, -hy), ("U", 1, hx),
          ("J", 1, None), ("U", 0, -hbx))
    vd = (("U", 0, hbx), ("J", -1, None), ("U", -1, -hx), ("L", 0, -hby),
          ("U", 1, hx), ("U", 0, hbx), ("J", 1, None))
    return _factor_coefficients(vc, one), _factor_coefficients(vd, one)


# entries of the rows that one product and one norm call of _row_norms take
_ROW_CHUNK = 2 ** 15


def _row_norms(weights: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """For each row w of weights, the largest operator norm of
    sum_k w_k coefs_k over its samples and summands.  The rows are taken a
    few at a time, about _ROW_CHUNK entries per product and norm call, so
    that the rows of a long loop never fill memory at once.  Coefficients
    that are all zero, as the membership residuals of an exact split are,
    give zero rows without a norm call."""
    if not coefs.any():
        return np.zeros(len(weights))
    step = max(1, _ROW_CHUNK // coefs[0].size)
    return np.concatenate([
        np.max(matcore.op_norms(np.tensordot(w, coefs, 1)).reshape(len(w), -1), axis=1)
        for w in np.split(weights, range(step, len(weights), step))])


def _row_weights(t_steps: int) -> np.ndarray:
    """The rows that _row_norms weighs a factor's power coefficients by: its
    Bernstein coefficients b_0, ..., b_5, then s^k at the t_steps - 1 inner
    samples s = 1 - j / t_steps of the equispaced t-grid."""
    inner = 1.0 - np.arange(1, t_steps) / t_steps
    return np.concatenate([_BERNSTEIN, inner[:, None] ** np.arange(6)])


def _maxima(rows: np.ndarray) -> tuple[float, float]:
    """(sampled, upper) from per-row maxima laid out as b_0, ..., b_5 and
    then the inner samples, b_0 and b_5 being the samples at t = 1 and
    t = 0.  np.max keeps a NaN, so that a gate on either fails."""
    return float(np.max(np.delete(rows, np.s_[1:5]))), float(np.max(rows))


def _step_count(t_steps, name: str) -> int:
    """A count of t-steps as an int: InvalidInput for a bool, a non-integer
    or a count below 1."""
    try:
        if isinstance(t_steps, bool):
            raise TypeError("a bool is not a count")
        t_steps = operator.index(t_steps)
    except TypeError as err:
        raise InvalidInput(f"{name} must be an integer: {err}") from None
    if t_steps < 1:
        raise InvalidInput(f"{name} must be >= 1, got {t_steps}")
    return t_steps


def whitehead_split(a, h, c, d=None, tol: Tol | None = None,
                    t_steps: int = 32) -> WhiteheadCert:
    """Split diag(a, a^-1) as a product of a near-C and a near-D invertible,
    with polynomial homotopies of both factors to the identity.

    Endpoints are exact: the t = 0 product recovers diag(a, a^-1) and the
    t = 1 factors are the identity.  Each factor is built once, as its power
    coefficients in s = 1 - t (:func:`_whitehead_coefficients`).  One
    product with those gives its 6 Bernstein coefficients and its values at
    the t_steps - 1 inner samples of the equispaced t-grid; the coefficients
    b_0 and b_5 are its values at t = 1 and t = 0.  The Bernstein
    coefficients bound the norms over all of [0, 1] (see
    :class:`WhiteheadCert`), and the norms are certified against
    (3 + c)^5.  The memberships, bounded the same way, are taken only when
    the certificate is read for them.  The paths hold only the t = 0 and
    t = 1 factors, so memory stays flat on large loops.

    The split runs on summand stacks; a lone element is a stack of one
    summand and gets paths in its own carrier.  An internal
    :class:`ops.Stack` a = (+) a_i is split summand by summand: the factors
    of a direct sum are the interleaved direct sums of the summands' 2n x 2n
    factors (regrouped by :func:`boxplus_permutation`), so its paths hold
    stacks of those factors, and every certificate field, a norm or a
    membership residual of a block-diagonal element, is the max over the
    summands.  (c, d) and tol make the pair as :func:`make_pair` does, and
    a^-1 is taken at its Tol.
    """
    t_steps = _step_count(t_steps, "t_steps")
    check_contraction(h)
    pair = make_pair(c, d, tol)
    lone = not isinstance(a, ops.Stack)
    # a lone element runs as a stack of one: results held on a Stack skip the
    # input validation that LoopElem and as_matrix repeat on every operation
    s = ops.Stack(ops.arr(a)[..., None, :, :]) if lone else a
    one = ops.eye_like(s)
    s_inv = ops.inv(s, pair.tol)
    c_norm = max(ops.norm(s), ops.norm(s_inv))
    bound = (3.0 + c_norm) ** 5
    target = ops.arr(ops.oplus(s, s_inv))
    weights = _row_weights(t_steps)
    factors = _whitehead_coefficients(s - one, s_inv - one, h)
    (vc0, vc1), (vd0, vd1) = (np.tensordot(_BERNSTEIN[[5, 0]], coefs, 1)
                              for coefs in factors)
    norms = [_maxima(_row_norms(weights, coefs)) for coefs in factors]
    norm_max, norm_upper = (float(np.max(v)) for v in zip(*norms))
    prod_resid = matcore.sup_norm(matcore.matmul(vc0, vd0) - target)
    end_resid = np.max([matcore.sup_norm(v - eye(target.shape[-1])) for v in (vc1, vd1)])
    def path(*factors):
        return [ops.like(a, v[..., 0, :, :]) if lone else ops.Stack(v) for v in factors]

    return WhiteheadCert(path(vc0, vc1), path(vd0, vd1), t_steps,
                         float(prod_resid), float(end_resid), norm_max,
                         float(bound), norm_upper, pair, factors)


# ---------------------------------------------------------------------------
# sigma reconstruction


@dataclasses.dataclass(eq=False)
class SigmaReconstruct:
    """The class x = 1 + y of :func:`sigma_reconstruct`, with its gates.

    y is held as the band it was projected on, in path order: ``band``,
    with ``order``, the frame index of each path position, and ``carrier``,
    the element whose carrier x and y take (the path's first).  x and y are
    dense in the frame's own order, and each is made at its first read: y
    is scattered from the band once (:func:`matcore.band_scatter`), and x
    is 1 + y.  A caller that reads neither forms no frame-sized array.
    """
    band: matcore.Band  # y in path order
    order: np.ndarray  # the frame index of each path position
    carrier: object  # the element whose carrier x and y take
    achieved: float
    gap: float
    windings: tuple | None
    defect: float | None = None  # of the homotopy discretization
    enforced: tuple = ()  # the gates that sigma_reconstruct passed

    def gates(self) -> tuple:
        return self.enforced

    @functools.cached_property
    def _scattered(self) -> np.ndarray:
        return matcore.band_scatter(self.band, self.order)

    @functools.cached_property
    def x(self):
        return ops.like(self.carrier, np.eye(self.band.size) + self._scattered)

    @functools.cached_property
    def y(self):
        return ops.like(self.carrier, self._scattered)


def _path_order(n: int, m: int) -> np.ndarray:
    """The indices of the 2(m+1)n frame in path order: its n-blocks taken
    as 0, m+1, 1, m+2, ..., m, 2m+1."""
    blocks = np.stack([np.arange(m + 1), np.arange(m + 1) + m + 1], axis=1)
    return (blocks.reshape(-1, 1) * n + np.arange(n)).ravel()


def _path_band(factors: ops.Stack, start: int, size: int) -> matcore.Band:
    """The Whitehead factor of a direct sum as a band in path order, from the
    stack of its summands' 2n x 2n factors.

    Summand i of b pairs n-blocks i and m+1+i, which sit at path positions
    2i and 2i+1, so b's factors are block diagonal on 2n-blocks from index
    0.  Summand i of a pairs n-blocks i+1 and m+1+i of the frame
    1_n (+) a (+) a^-1 (+) 1_n, at path positions 2i+2 and 2i+1: a's factors
    are block diagonal from index n, with each summand's halves swapped.
    """
    fa = ops.arr(factors)
    if start:
        half = np.roll(np.arange(fa.shape[-1]), start)
        fa = fa[..., half[:, None], half]
    return matcore.band_block_diag(fa, start, size)


def _band_project(side, b: matcore.Band, n: int) -> matcore.Band:
    """The projection of a band onto the matrices over side's algebra, not
    unitized.  It acts on each n-block alone, for n a multiple of the
    ambient side (a loop side masks whole samples at any n), so it runs on
    the stack of the n-blocks that the band touches; InvalidInput if it puts
    a nonzero entry outside the band."""
    def project(blocks):
        return ops.arr(side.project(ops.Stack(blocks), unitized=False))

    return matcore.band_blockwise(b, n, project)


def sigma_reconstruct(u_path, u_c, u_d, h, c, d=None, tol: Tol | None = None,
                      seed: int = 0, uniform_constant: float = 3.0,
                      whitehead_t_steps: int = 8) -> SigmaReconstruct:
    """Reconstruct a class over the intersection inducing (u_C, u_D).

    Composes homotopy discretization with two Whitehead splittings and the
    uniform-pair extraction: the output x = 1 + y has y in the matrices over
    C cap D, with x close to both v_C^-1 u_C and v_D u_D^-1.  A split that
    fails :attr:`WhiteheadCert.certified` raises ReconstructionFailed.

    The homotopy and both splittings run on summand stacks.  The composition
    lives in the 2(m+1)n frame, taken in path order (its n-blocks as 0, m+1,
    1, m+2, ..., m, 2m+1), where every factor is banded: the comparison
    elements, their norms, the inverse of x and the winding determinants
    are band computations (:class:`matcore.Band`), and y stays a band from
    its projection until it returns.  The membership projection acts on
    each n-block alone, so it runs on the stack of the n-blocks that the
    band touches (:func:`_band_project`) and takes no membership residual;
    a projected entry outside the band raises InvalidInput.  The result
    holds y as that band: x and y are dense in the frame's own order only
    when first read, y scattered from its band (:func:`matcore.band_scatter`)
    and x = 1 + y (see :class:`SigmaReconstruct`), so the call itself forms
    no frame-sized array.
    The stability check of x reads the residual R = x X - 1 of the banded
    inverse X that :func:`matcore.band_invert` returns with it (the kappa_1
    rule applied there): sqrt(||R||_1 ||R||_inf) is at least ||R||_2, so
    its gate at 1e-6 proves x invertible by the Neumann series.  It runs
    only on the samples where x differs from the identity: elsewhere
    x^-1 = 1 exactly, so the maxima and every raise are those of the whole
    frame.

    (c, d) and tol make the pair as :func:`make_pair` does, and every
    inverse, the path's included, is taken at its Tol.  seed reaches
    nothing: no step of the reconstruction is random.  It is kept for
    callers that pass it.  A whitehead_t_steps that :func:`whitehead_split`
    refuses, and a uniform_constant that is not finite and > 0, are
    InvalidInput before any work.
    """
    whitehead_t_steps = _step_count(whitehead_t_steps, "whitehead_t_steps")
    try:
        usable = math.isfinite(uniform_constant) and uniform_constant > 0
    except TypeError:
        usable = False
    if not usable:
        raise InvalidInput(f"uniform_constant must be finite and > 0, got {uniform_constant!r}")
    pair = make_pair(c, d, tol)
    tol = pair.tol
    a, b, defect = _homotopy_stacks(u_path, tol)
    u0 = u_path[0]
    n = ops.side_size(u0)
    m = ops.arr(a).shape[-3]
    size = 2 * (m + 1) * n
    enforced = []

    def require(gate, error):
        if not gate.holds:
            raise error()
        enforced.append(gate)

    def bands(name, s, start):
        # the certificate, and the coefficients it holds, die with this call:
        # its gates are kept, and its t = 0 factors and their inverses as bands
        wc = whitehead_split(s, h, pair, t_steps=whitehead_t_steps)
        for g in wc.gates():
            require(dataclasses.replace(g, name=f"{name}.{g.name}"), lambda: ReconstructionFailed(
                (wc.product_residual, wc.endpoint_residual, wc.norm_upper),
                f"Whitehead split of {name} fails its certificate: product "
                f"{wc.product_residual:.3e}, endpoint {wc.endpoint_residual:.3e}, "
                f"norm bound {wc.norm_upper:.3e} against {wc.norm_bound:.3e}",
            ))
        vc, vd = wc.vc_path[0], wc.vd_path[0]
        return [_path_band(f, start, size) for f in (vc, vd, ops.inv(vc, tol), ops.inv(vd, tol))]

    ca, da, ca_inv, da_inv = bands("a", a, n)
    cb, db, cb_inv, db_inv = bands("b", b, 0)

    def embed(u):
        # the top-left embedding u (+) 1: n-block 0 leads the path order too
        return matcore.band_block_diag(ops.arr(u)[..., None, :, :], 0, size)

    # the comparison elements t = 1 + r: t_C = v_C^-1 u_C with
    # v_C^-1 = da cb^-1 da^-1 ca^-1, and t_D = v_D u_D^-1 with v_D = da db
    t_c = da @ cb_inv @ da_inv @ ca_inv @ embed(u_c)
    t_d = da @ db @ embed(ops.inv(u_d, tol))
    one = matcore.Band(np.ones((1, size), dtype=complex), 0, 0)
    gap = matcore.band_norm(t_c - t_d)
    mid = 0.5 * (t_c + t_d) - one
    y = _band_project(pair.inter, mid, n)
    x = y + one
    drift_c, drift_d = matcore.band_norm(x - t_c), matcore.band_norm(x - t_d)
    # np.max keeps a NaN, which then fails its gate
    achieved = float(np.max([drift_c, drift_d]))
    require(Gate("achieved", achieved, max(uniform_constant * gap, 1e-6)),
            lambda: PairNotUniform(f"joint approximation {achieved:.3e} exceeds "
                                   f"{uniform_constant:.1f} * {gap:.3e}"))
    # where x is exactly the identity, x^-1 = 1, R = 0 and kappa_1 = 1: the
    # stability check runs on the samples where x moves
    eye_ab = np.zeros(x.ab.shape[-2:])
    eye_ab[x.ku] = 1.0
    moved = matcore.Band(x.ab[np.any(x.ab != eye_ab, axis=(-2, -1))], x.kl, x.ku)
    _, resid = matcore.band_invert(moved, tol)
    # sqrt(||R||_1 ||R||_inf) >= ||R||_2
    norm_1, norm_inf = matcore._norm_1(resid.ab), matcore._norm_inf(resid)
    unstable = float(np.max(np.sqrt(norm_1 * norm_inf), initial=0.0))
    require(Gate("unstable", unstable, 1e-6), lambda: ReconstructionFailed(
        unstable, f"unstable inverse for x = 1 + y: residual {unstable:.3e}"))
    windings = None
    if pair.inter.k1(ops.eye_like(u_c)):
        # k1 is () exactly when K_1 is the zero group and there are no
        # windings to book.  The truncation concentrates the winding of x
        # on narrow arcs where sampled determinants alias; read it off the
        # smooth comparison elements t = 1 + r instead, after certifying that
        # x shares their invertible component via the 1/||t^-1|| margin
        # (the drifts of `achieved` are ||x - t||), with t_C^-1 = u_C^-1 v_C
        # and t_D^-1 = u_D db^-1 da^-1
        t_inv_c = embed(ops.inv(u_c, tol)) @ ca @ da @ cb @ da_inv
        t_inv_d = embed(u_d) @ db_inv @ da_inv
        for name, t_inv, drift in (("C", t_inv_c, drift_c), ("D", t_inv_d, drift_d)):
            margin = 1.0 / matcore.band_norm(t_inv)
            require(Gate(f"margin_{name}", drift, below(margin)), lambda: ReconstructionFailed(
                (drift, margin),
                f"x is {drift:.3e} from the {name}-side comparison "
                f"element, beyond the homotopy margin {margin:.3e}"))
        # the embedding u (+) 1 keeps the determinant of u
        wx, wx_d = (det_winding(matcore.band_det(t)).entries[0] for t in (t_c, t_d))
        wuc, wud = (pair.inter.k1(u)[0] for u in (u_c, u_d))
        require(Gate("windings", max(abs(wx - wx_d), abs(wx - wuc), abs(wx + wud)), 0),
                lambda: ReconstructionFailed(
                    (wx, wx_d, wuc, wud),
                    f"winding mismatch: x {wx}/{wx_d}, u_C {wuc}, u_D {wud}"))
        windings = (wx, wuc, wud)
    return SigmaReconstruct(y, _path_order(n, m), u0, achieved, float(gap), windings,
                            float(defect), tuple(enforced))


# ---------------------------------------------------------------------------
# uniformity probing


@dataclasses.dataclass
class UniformityReport:
    samples: list  # (delta_in, achieved) pairs
    ratios: list
    ratio_sup: float  # a sampled estimate of the pair's uniform constant
    b_dims: tuple
    seed: int

    def gates(self, ratio_max: float) -> tuple:
        # a probe that measured nothing certifies nothing: its supremum is NaN
        sup = self.ratio_sup if self.ratios else math.nan
        return (Gate("ratio_sup", sup, ratio_max, "sampled"),)


def uniformity_probe(c, d=None, sample_count: int = 50, b_dims=(1, 2, 3),
                     seed: int = 0, tol: Tol | None = None) -> UniformityReport:
    """Empirical f-uniformity data for the pair (C, D).

    Draws c in C (tensor M_m), its projection d in D, and measures how well
    the HS midpoint projection into the intersection approximates both.  A
    draw whose projection into C has norm below 1e-9 of the draw's HS norm
    (over a loop, the sup over its samples) is dropped, so the ratios do not
    depend on the scale of the draws.

    The intersection is the pair's, taken once, and for each m > 1 the
    tensored pair's, which is the base intersection tensored (see
    :class:`Pair`).  (c, d) and tol make the pair as :func:`make_pair` does.
    A sample_count or an entry of b_dims that is not an integer is
    InvalidInput, as are a negative count and an m below 1.
    """
    pair = make_pair(c, d, tol)
    try:
        sample_count = operator.index(sample_count)
        b_dims = tuple(operator.index(m) for m in b_dims)
    except TypeError as err:
        raise InvalidInput(f"sample_count and b_dims must be integers: {err}") from None
    if sample_count < 0:
        raise InvalidInput(f"sample_count must be >= 0, got {sample_count}")
    rng = np.random.default_rng(seed)
    samples = []
    ratios = []
    for m in b_dims:
        pm = pair if m == 1 else pair.tensor(m)
        draws = pair.c.random_elements(m, sample_count, rng)
        # a projection below 1e-9 of its draw's HS norm, the sup over the
        # samples of a loop's, is dropped: the floor scales with the draw
        hs = np.linalg.norm(draws.summands, axis=(-2, -1))
        floor = 1e-9 * np.max(hs, axis=tuple(range(hs.ndim - 1)))
        cc = ops.unit_summands(pm.c.project(draws, unitized=False), floor)
        dd = pm.d.project(cc, unitized=False)
        delta_in = ops.summand_norms(cc - dd)
        x = pm.inter.project(ops.scal(0.5, cc + dd), unitized=False)
        achieved = np.maximum(ops.summand_norms(x - cc), ops.summand_norms(x - dd))
        ratio = np.where(achieved > 1e-9, np.inf, 0.0)
        np.divide(achieved, delta_in, out=ratio, where=delta_in > 1e-12)
        samples.extend(zip(delta_in.tolist(), achieved.tolist()))
        ratios.extend(ratio.tolist())
    sup = max(ratios) if ratios else 0.0
    return UniformityReport(samples, ratios, float(sup), b_dims, seed)
