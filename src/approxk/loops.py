"""Sampled model of C(S^1) (x) M_k and its arc ideals.

Elements are samples on a uniform angle grid with no interpolation; the
norm is the max of the per-sample operator norms, so every sup-norm
inequality from the abstract theory becomes finitely checkable.  Arc
ideals have exact (zero-residual) membership distances: the distance to
the ideal is the sup over masked-out samples.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import matcore, ops
from .errors import (
    GridTooCoarse,
    InvalidInput,
    NotQuantized,
    NoWitness,
    PathTooCoarse,
)
from .matcore import DEFAULT_TOL, Tol
from .wedderburn import K1Vec


def _circular_runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start, length) pairs."""
    m = len(flags)
    if flags.all():
        return [(0, m)]
    if not flags.any():
        return []
    # rotate so position 0 is False; a run then starts after each rise of
    # the rotated mask and ends after each fall, or at its end
    start0 = int(np.argmin(flags))
    steps = np.diff(np.roll(flags, -start0).astype(np.int8), append=0)
    starts = np.flatnonzero(steps == 1) + 1
    ends = np.flatnonzero(steps == -1) + 1
    return [(int(a + start0) % m, int(b - a)) for a, b in zip(starts, ends)]


@dataclasses.dataclass(frozen=True)
class LoopAlg:
    """C(S^1) (x) M_k on a uniform grid, optionally cut down to an arc ideal."""

    grid_size: int
    fiber_dim: int
    support_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.grid_size < 16:
            raise InvalidInput("grid_size must be >= 16")
        if self.fiber_dim < 1:
            raise InvalidInput("fiber_dim must be >= 1")
        if self.support_mask is not None:
            mask = np.asarray(self.support_mask, dtype=bool)
            object.__setattr__(self, "support_mask", mask)
            if mask.shape != (self.grid_size,):
                raise InvalidInput("support mask length must equal grid_size")
            runs = _circular_runs(mask)
            if len(runs) > 2:
                raise InvalidInput("support mask must be a union of at most 2 arcs")
            if len(runs) == 2:
                gaps = _circular_runs(~mask)
                if any(length < 2 for _, length in gaps):
                    raise InvalidInput("arcs must be separated by >= 2 masked samples")

    @property
    def thetas(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.grid_size) / self.grid_size

    @property
    def mask(self) -> np.ndarray:
        if self.support_mask is None:
            return np.ones(self.grid_size, dtype=bool)
        return self.support_mask

    def intersect(self, other: "LoopAlg") -> "LoopAlg":
        if self.grid_size != other.grid_size or self.fiber_dim != other.fiber_dim:
            raise InvalidInput("loop algebras live on different grids")
        both = self.mask & other.mask
        if both.all():
            return LoopAlg(self.grid_size, self.fiber_dim)
        return LoopAlg(self.grid_size, self.fiber_dim, both)


class LoopElem:
    """A sampled function S^1 -> M_d, stored as an (m, d, d) array."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        s = np.asarray(samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise InvalidInput(f"expected (m, d, d) samples, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise InvalidInput("non-finite loop samples")
        self.samples = s

    @classmethod
    def constant(cls, mat, grid_size: int) -> "LoopElem":
        m = matcore.as_matrix(mat)
        return cls(np.tile(m, (grid_size, 1, 1)))

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def side(self) -> int:
        return self.samples.shape[1]

    def norm(self) -> float:
        return ops.norm(self)

    def __matmul__(self, other):
        return LoopElem(matcore.matmul(self.samples, other.samples))

    def __add__(self, other):
        if isinstance(other, LoopElem):
            return LoopElem(self.samples + other.samples)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, LoopElem):
            return LoopElem(self.samples - other.samples)
        return NotImplemented

    def __rmul__(self, c):
        if np.isscalar(c):
            return ops.scal(c, self)
        return NotImplemented

    def __neg__(self):
        return ops.scal(-1.0, self)


def power_z(alg: LoopAlg, n: int, amp: int = 1) -> LoopElem:
    """The loop theta -> e^(i n theta) embedded in the top-left fiber corner
    of an identity of total side amp * fiber_dim."""
    d = amp * alg.fiber_dim
    out = np.tile(np.eye(d, dtype=complex), (alg.grid_size, 1, 1))
    out[:, 0, 0] = np.exp(1j * n * alg.thetas)
    return LoopElem(out)


def winding_k1(u: LoopElem) -> K1Vec:
    """Determinant winding number of a loop of invertibles.  The phases and
    log-moduli of the determinants come from ``np.linalg.slogdet``, so a
    determinant beyond the range of a float still winds."""
    phases, logabs = np.linalg.slogdet(u.samples)
    return _winding(phases, logabs)


def det_winding(dets: np.ndarray) -> K1Vec:
    """Winding number of a loop's sampled determinants, which must stay away
    from 0 and turn by less than pi/2 between neighbouring samples."""
    # a zero determinant has log-modulus -inf, which the floor refuses
    with np.errstate(divide="ignore"):
        logabs = np.log(np.abs(dets))
    return _winding(dets, logabs)


def _winding(phases: np.ndarray, logabs: np.ndarray) -> K1Vec:
    """The winding of sampled determinants from their log-moduli and any
    nonzero multiples of their phases (the determinants, or unit phases):
    each modulus must be at least 1e-12, and each phase step below pi/2."""
    # a NaN log-modulus fails the comparison too
    if not (np.isfinite(phases).all() and np.all(logabs < np.inf)):
        raise InvalidInput("loop has a non-finite determinant")
    if np.min(logabs) < np.log(1e-12):
        raise InvalidInput("loop has a non-invertible sample")
    steps = np.angle(np.roll(phases, -1) / phases)
    if np.max(np.abs(steps)) >= np.pi / 2:
        raise GridTooCoarse(
            f"determinant phase step {np.max(np.abs(steps)):.3f} >= pi/2"
        )
    total = float(np.sum(steps) / (2 * np.pi))
    w = int(round(total))
    if abs(total - w) > 1e-3:
        raise NotQuantized(f"winding {total:.6f} not within 1e-3 of an integer")
    return K1Vec((w,))


def arc_ideal(alg: LoopAlg, arc: tuple[float, float]) -> LoopAlg:
    """Ideal of loops supported strictly inside the open arc (theta_a, theta_b)."""
    a, b = float(arc[0]), float(arc[1])
    length = b - a
    if length >= 2 * np.pi:
        return LoopAlg(alg.grid_size, alg.fiber_dim)
    if length <= 0:
        return LoopAlg(alg.grid_size, alg.fiber_dim,
                       np.zeros(alg.grid_size, dtype=bool))
    rel = np.mod(alg.thetas - a, 2 * np.pi)
    mask = (rel > 0) & (rel < length)
    return LoopAlg(alg.grid_size, alg.fiber_dim, mask)


def bump(alg: LoopAlg, plateau: tuple[float, float], ramp: float) -> np.ndarray:
    """Scalar positive-contraction profile: 1 on the plateau, 0 outside the
    plateau widened by `ramp`, linear in between.  Returned as a real array
    of per-sample values in [0, 1]."""
    a, b = float(plateau[0]), float(plateau[1])
    length = b - a
    if length >= 2 * np.pi:
        return np.ones(alg.grid_size)
    ramp = float(ramp)
    rel = np.mod(alg.thetas - a, 2 * np.pi)
    vals = np.zeros(alg.grid_size)
    on = (rel >= 0) & (rel <= length)
    vals[on] = 1.0
    if ramp > 0:
        # rising ramp before the plateau, falling ramp after
        before = np.mod(a - alg.thetas, 2 * np.pi)
        rising = (before > 0) & (before < ramp)
        vals[rising] = np.maximum(vals[rising], 1.0 - before[rising] / ramp)
        after = np.mod(alg.thetas - b, 2 * np.pi)
        falling = (after > 0) & (after < ramp)
        vals[falling] = np.maximum(vals[falling], 1.0 - after[falling] / ramp)
    return np.clip(vals, 0.0, 1.0)


def loop_project(x, ideal: LoopAlg, unitized: bool):
    """The witness of membership of x in the (unitized) arc ideal, at any
    matrix amplification of the fiber: x on the support and, off it, 0 or
    (unitized) the mean scalar part of the off-support samples."""
    xa = ops.arr(x)
    mask = ideal.mask
    if mask.all():
        return x
    on = mask.reshape(mask.shape + (1,) * (xa.ndim - 1))
    if not unitized:
        return ops.like(x, np.where(on, xa, 0.0))
    # scalar part: a constant coarse matrix tensored with the fiber identity
    k = ideal.fiber_dim
    d = xa.shape[-1]
    if d % k:
        raise InvalidInput("element side is not a multiple of the fiber dimension")
    n = d // k
    off = xa[~mask]
    traced = off.reshape(off.shape[:-2] + (n, k, n, k))
    coarse = np.trace(traced, axis1=-3, axis2=-1) / k
    scal = coarse.mean(axis=0)
    const = np.kron(scal, np.eye(k, dtype=complex))
    return ops.like(x, np.where(on, xa, const))


def loop_membership(x, ideal: LoopAlg, unitized: bool):
    """(witness, residual) for membership of x in the (unitized) arc ideal:
    the witness of :func:`loop_project` and its distance from x, taken on
    the off-support samples, where the two differ.  For a stack of summands
    the residual is the max over the summands."""
    w = loop_project(x, ideal, unitized)
    off = ~ideal.mask
    return w, matcore.sup_norm(ops.arr(x)[off] - ops.arr(w)[off])


def _constant_frame(e: LoopElem, mask: np.ndarray, tol: Tol):
    """(r, g) for an idempotent loop over the unitized arc ideal of mask: the
    scalar rank r of f_inf, e's value off the support, and a constant g with
    g f_inf g^-1 = diag(1_r, 0).  NoWitness when the off-support samples vary
    or f_inf is not idempotent."""
    if mask.all():
        raise NoWitness("not a proper arc ideal: no off-support samples")
    off = e.samples[~mask]
    f_inf = off.mean(axis=0)
    dev = matcore.sup_norm(off - f_inf)
    if dev > 1e-6:
        raise NoWitness(f"off-support samples vary by {dev:.3e}; not in the unitized ideal")
    d = e.side
    u_r, s, vh_k = np.linalg.svd(f_inf)
    r = matcore.rank_of_values(s, f_inf.shape, tol)
    if matcore.op_norm(f_inf @ f_inf - f_inf) > 1e-6:
        raise NoWitness("off-support value is not idempotent")
    if r in (0, d):
        return r, np.eye(d, dtype=complex)
    # range columns (f_inf acts as identity there) and kernel columns
    rng_basis = f_inf @ u_r[:, :r]
    ker_basis = vh_k[r:].conj().T
    return r, matcore.invert(np.concatenate([rng_basis, ker_basis], axis=1), tol)


def _prefix_products(f: np.ndarray) -> np.ndarray:
    """f_0, f_0 f_1, ..., f_0 f_1 ... f_(L-1) over the leading axis of a
    stack, by doubling: log2(L) batched products, each taking the earlier
    partial product on the left."""
    z = f.copy()
    k = 1
    while k < len(z):
        z[k:] = matcore.matmul(z[:-k], z[k:])
        k *= 2
    return z


def arc_k0_trivialize(e: LoopElem, ideal: LoopAlg, tol: Tol = DEFAULT_TOL):
    """Trivialization data for an idempotent loop over the unitized arc ideal.

    Returns (scalar_rank, conjugator, const) where conjugator w satisfies
    w e w^-1 ~ const, and const is the constant scalar idempotent
    diag(1_r, 0) matching e off the support arcs.

    A constant g first takes f_inf, the off-support value, to const; let
    E = g e g^-1.  Then each support run is retracted onto its anchor, the
    sample just before it: the run's sample j walks through E_j, E_(j-1),
    ..., E_0, with E_0 the anchor.  Telescoping the similarity of close
    idempotents along that walk gives the conjugator Z_j = S_1 S_2 ... S_j
    with S_i = ((2 E_(i-1) - 1)(2 E_i - 1) + 1) / 2, so Z_j E_j Z_j^-1 = E_0.
    That is a prefix product, Z_j = Z_(j-1) S_j, taken once per run from one
    batch of its L factors.  The conjugator is Z g, with Z = 1 off the runs.
    Four gates guard it:

    - every neighbour step ||E_i - E_(i-1)|| stays below
      1 / (2 max ||2 E - 1||), the maximum over all samples of E;
    - a neighbour pair that is equal entry for entry contributes an exact
      identity factor, so a sample whose walk never moves keeps Z = 1;
    - the composed residual ||Z_j E_j Z_j^-1 - E_0|| is at most 1e-6 on
      every run sample;
    - each Z_j is inverted under :func:`matcore.invert`'s kappa_1 guard.

    A failing step or residual raises PathTooCoarse, whose ``index`` is the
    grid sample of the first failure in the run: the sample E_i of the first
    failing neighbour pair, or the first sample whose residual fails.  Every
    call does this work anew: a lift's class and sigma witness share the
    result, held by the lift (:attr:`boundary.LiftCert.trivialization`).
    """
    mask = ideal.mask
    r, g = _constant_frame(e, mask, tol)
    d = e.side
    ident = np.eye(d, dtype=complex)
    e1 = matcore.matmul(matcore.matmul(g, e.samples), matcore.invert(g, tol))
    sym = 2.0 * e1 - ident
    limit = 1.0 / (2.0 * max(matcore.sup_norm(sym), 1e-12))
    m = e.grid_size
    z = np.broadcast_to(ident, e1.shape).copy()
    for start, length in _circular_runs(mask):
        # the anchor, then the run: pair i joins sample at[i - 1] to at[i]
        at = (start - 1 + np.arange(length + 1)) % m
        run = e1[at]
        steps = matcore.op_norms(run[1:] - run[:-1])
        # both gates are written so that a NaN fails them
        bad = np.flatnonzero(~(steps < limit))
        if bad.size:
            i = bad[0]
            raise PathTooCoarse(int(at[i + 1]),
                                f"step {steps[i]:.3e} >= {limit:.3e} at sample {at[i + 1]}")
        factors = 0.5 * (matcore.matmul(sym[at[:-1]], sym[at[1:]]) + ident)
        factors[np.all(run[1:] == run[:-1], axis=(-2, -1))] = ident
        zr = _prefix_products(factors)
        conj = matcore.matmul(matcore.matmul(zr, run[1:]), matcore.invert(zr, tol))
        resid = matcore.op_norms(conj - run[0])
        bad = np.flatnonzero(~(resid <= 1e-6))
        if bad.size:
            i = bad[0]
            raise PathTooCoarse(int(at[i + 1]), f"telescoped conjugation residual "
                                f"{resid[i]:.3e} > 1e-6 at sample {at[i + 1]}")
        z[at[1:]] = zr
    const_mat = np.zeros((d, d), dtype=complex)
    const_mat[:r, :r] = np.eye(r)
    return r, LoopElem(matcore.matmul(z, g)), LoopElem.constant(const_mat, e.grid_size)
