"""Numerical Artin-Wedderburn decomposition and K_0 bookkeeping.

The K_0 group of a finite-dimensional *-subalgebra of M_N(C) is the free
abelian group on its Wedderburn blocks; classes are integer vectors of
normalized ranks (raw rank divided by the block multiplicity).  K_1 is the
zero group throughout this module.  Centers, compressed block dimensions and
intertwiners are read off singular values through the rank decision of
:mod:`matcore` (:func:`matcore.rank_split`, :func:`matcore.rank`), each with
the cut it names.

An algebra is decomposed at most once: :attr:`Subalg.wedderburn` runs
:func:`decompose` on first read and keeps the result, and every class in
this package is read against it.  The decomposition's rank decisions read
the algebra's own ``s.tol``.  An algebra S (x) M_m built by
:func:`subalg.tensor_with_full` is not decomposed: the center of S (x) M_m is
Z(S) (x) 1, so :func:`tensored` reads its data off S's, blocks (d_i m, m_i)
and projections z_i (x) 1_m.  That is the block order :func:`decompose`
would give, since traces and d_i scale by m and the diagonal of z_i (x) 1_m
repeats each entry of z_i's m times, which keeps the lexicographic order of
the fingerprint.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import matcore
from .errors import DecompositionFailure, InvalidInput, NotAClass, NotEquivalent, NotInvertible
from .matcore import DEFAULT_TOL, Tol, adjoint, as_matrix, eye, kron, op_norm
from .subalg import Subalg, Subspace, amplify


@dataclasses.dataclass(frozen=True)
class K0Vec:
    """Normalized-rank-per-block class vector."""

    entries: tuple
    blocks: tuple  # ((d_i, m_i), ...) signature of the owning decomposition

    def __post_init__(self):
        if len(self.entries) != len(self.blocks):
            raise InvalidInput("K0Vec entry/block length mismatch")

    def _check(self, other):
        if self.blocks != other.blocks:
            raise InvalidInput("K0Vec block signatures differ")

    def __add__(self, other):
        self._check(other)
        return K0Vec(tuple(a + b for a, b in zip(self.entries, other.entries)), self.blocks)

    def __sub__(self, other):
        self._check(other)
        return K0Vec(tuple(a - b for a, b in zip(self.entries, other.entries)), self.blocks)

    def __neg__(self):
        return K0Vec(tuple(-a for a in self.entries), self.blocks)

    def scale(self, k: int) -> "K0Vec":
        return K0Vec(tuple(k * a for a in self.entries), self.blocks)


@dataclasses.dataclass(frozen=True)
class K1Vec:
    """Per-block winding integers; empty for finite-dimensional algebras."""

    entries: tuple = ()


@dataclasses.dataclass
class WedderburnData:
    """Block structure of a *-subalgebra: minimal central projections z_i,
    block matrix dimensions d_i and multiplicities m_i."""

    algebra: Subalg
    blocks: list  # [(d_i, m_i)]
    central_projections: list  # [z_i] as ambient matrices

    @property
    def signature(self) -> tuple:
        return tuple(self.blocks)


def _center_basis(s: Subalg) -> list[np.ndarray]:
    """Basis of the center of S, via the null space of the commutator map.

    The commutator matrix A, with the N^2 x d block [vec([b_k, b])]_k for
    each basis element b, is never built: a tall matrix has the singular
    values and right singular vectors of its R factor, so the blocks are
    folded in one at a time, R <- R of [R; block] (QR updating, Golub & Van
    Loan, *Matrix Computations*), and the rank is cut on the d x d R.  Peak
    memory is one block and R, where A holds d^2 N^2 entries."""
    d = s.dim
    b = s._flats.reshape(d, s.ambient_dim, s.ambient_dim)
    r = np.zeros((0, d), dtype=complex)
    for bk in b:
        r = np.linalg.qr(np.concatenate([r, (b @ bk - bk @ b).reshape(d, -1).T]), mode="r")
    # cut at max(1, s_0) * rank_rel_tol
    rel = s.tol.rank_rel_tol
    _, null = matcore.rank_split(r, rel, floor=rel)
    return list(np.tensordot(null, b, 1))


def _cluster(values: np.ndarray, gap: float) -> list[np.ndarray]:
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def decompose(s: Subalg, seed: int = 0) -> WedderburnData:
    """Wedderburn data of S via eigenspace splitting of a random self-adjoint
    central element; reseeded on near-degenerate spectra.  The seed picks
    the central element only: the blocks and their order do not depend on
    it, nor, up to rounding, the central projections.  Callers read
    :attr:`Subalg.wedderburn`, which runs this once per algebra, except on
    S (x) M_m built by :func:`subalg.tensor_with_full` (see :func:`tensored`)."""
    if s.dim == 0:
        raise InvalidInput("cannot decompose the zero algebra")
    zc = _center_basis(s)
    if not zc:
        raise DecompositionFailure("empty center")
    rng = np.random.default_rng(seed)
    last_err = None
    for _ in range(5):
        coeffs = rng.standard_normal(len(zc)) + 1j * rng.standard_normal(len(zc))
        t = sum(c * z for c, z in zip(coeffs, zc))
        t = (t + adjoint(t)) / 2
        t = s.project(t)
        t = (t + adjoint(t)) / 2
        scale = max(op_norm(t), 1e-12)
        w, v = np.linalg.eigh(t / scale)
        try:
            groups = _cluster(w, 1e-6)
            projs = []
            blocks = []
            for g in groups:
                z = v[:, g] @ adjoint(v[:, g])
                if abs(np.mean(w[g])) < 1e-6 and not s.contains(z, slack=1e-7):
                    # kernel cluster of the ambient action; genuine central
                    # projections carry a random nonzero eigenvalue a.s.
                    continue
                if not s.contains(z, slack=1e-7):
                    raise DecompositionFailure("eigenprojection escapes the algebra")
                comp_dim = matcore.rank(np.array([(z @ b @ z).ravel() for b in s.basis]),
                                        s.tol)
                d = int(round(np.sqrt(comp_dim)))
                if d * d != comp_dim:
                    raise DecompositionFailure("compressed block dimension not a square")
                r = int(round(np.trace(z).real))
                if r % d:
                    raise DecompositionFailure("block rank not divisible by block dim")
                projs.append(z)
                blocks.append((d, r // d))
            if not projs:
                raise DecompositionFailure("no blocks found")
            total = sum(d * d for d, _ in blocks)
            if total != s.dim:
                raise DecompositionFailure(
                    f"sum of d_i^2 = {total} does not match dim(S) = {s.dim}"
                )
            # deterministic block order: by trace of z_i, then by d_i
            key = sorted(range(len(projs)),
                         key=lambda i: (-round(np.trace(projs[i]).real), -blocks[i][0],
                                        _fingerprint(projs[i])))
            return WedderburnData(s, [blocks[i] for i in key], [projs[i] for i in key])
        except DecompositionFailure as err:
            last_err = err
            continue
    raise DecompositionFailure(f"unresolved after 5 reseeds: {last_err}")


def tensored(w: WedderburnData, m: int, algebra: Subalg) -> WedderburnData:
    """The Wedderburn data of algebra = S (x) M_m, from the data w of S: blocks
    (d_i m, m_i) and minimal central projections z_i (x) 1_m, in w's order."""
    return WedderburnData(algebra, [(d * m, k) for d, k in w.blocks],
                          [np.kron(z, eye(m)) for z in w.central_projections])


def _fingerprint(z: np.ndarray) -> tuple:
    # earlier-supported projections sort first (twisted-pair convention: P, Q)
    d = np.real(np.diag(z))
    return tuple(np.round(-d, 6))


def k0_class(e, w: WedderburnData, tol: Tol = DEFAULT_TOL) -> K0Vec:
    """Class of an idempotent over an amplification of (the unitization of)
    the algebra, as normalized ranks against the minimal central projections."""
    e = as_matrix(e)
    if op_norm(e @ e - e) > 1e-6:
        raise NotAClass("input is not idempotent to tolerance 1e-6")
    n_amb = w.algebra.ambient_dim
    if e.shape[0] % n_amb:
        raise InvalidInput("idempotent size is not a multiple of the ambient dimension")
    k = e.shape[0] // n_amb
    entries = []
    for z, (d, m) in zip(w.central_projections, w.blocks):
        za = kron(eye(k), z)
        comp = za @ e @ za
        r = matcore.rank(comp, tol)
        if r % m:
            raise NotAClass(
                f"rank {r} of block compression not divisible by multiplicity {m}"
            )
        entries.append(r // m)
    return K0Vec(tuple(entries), w.signature)


def algebra_conjugator(e, f, span: Subspace, tol: Tol = DEFAULT_TOL, seed: int = 0):
    """(w, w^-1) for an invertible w in span with w e w^-1 ~ f, found from the
    null space of w -> w e - f w: the first random intertwiner that the
    guarded inverse :func:`matcore.invert` accepts.  Raises NotEquivalent when
    no invertible solution is found."""
    e = as_matrix(e)
    f = as_matrix(f)
    basis = span.basis
    if not basis:
        raise NotEquivalent("empty algebra span")
    cols = [((b @ e) - (f @ b)).ravel() for b in basis]
    a = np.array(cols).T
    _, null = matcore.rank_split(a, 1e-9)
    if null.shape[0] == 0:
        raise NotEquivalent("no intertwiner in the algebra")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        c = rng.standard_normal(null.shape[0]) + 1j * rng.standard_normal(null.shape[0])
        coeffs = c @ null
        wmat = sum(coeffs[j] * basis[j] for j in range(len(basis)))
        try:
            return wmat, matcore.invert(wmat, tol)
        except NotInvertible:
            continue
    raise NotEquivalent("no invertible intertwiner found in the null space")


def similarity_witness(e, f, s: Subalg, tol: Tol = DEFAULT_TOL, seed: int = 0):
    """(w, w^-1) for an invertible w in the amplified unitized algebra
    conjugating e to f.

    K_0 classes must agree; in the finite-dimensional setting equality of
    classes already forces similarity within the algebra itself (l = 0).
    """
    e = as_matrix(e)
    f = as_matrix(f)
    if e.shape != f.shape:
        raise InvalidInput("idempotent shapes differ")
    w = s.wedderburn
    ce = k0_class(e, w, tol)
    cf = k0_class(f, w, tol)
    if ce.entries != cf.entries:
        raise NotEquivalent(f"K0 classes differ: {ce.entries} vs {cf.entries}")
    k = e.shape[0] // s.ambient_dim
    span = amplify(s.unitization, k)
    wmat, wmat_inv = algebra_conjugator(e, f, span, tol, seed=seed)
    resid = op_norm(wmat @ e @ wmat_inv - f)
    if resid > 1e-8:
        raise NotEquivalent(f"conjugation residual {resid:.3e} exceeds 1e-8")
    return wmat, wmat_inv
