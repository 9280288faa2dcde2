"""Element operations written once for both carriers.

An element is an array whose last two axes are the matrix axes: a dense
matrix is a ``(d, d)`` array and a sampled loop is a :class:`LoopElem`
around a ``(G, d, d)`` stack, one matrix per grid point.  Every helper here
is numpy on the trailing two axes, so leading axes broadcast and the lift
formulas read the same over both carriers.

A direct sum can also be kept as its summands: a :class:`Stack` carries a
summand axis just before the two matrix axes, ``(m, n, n)`` over matrices
and ``(G, m, n, n)`` over loops.  Block-diagonal algebra acts summand by
summand, so the helpers here compute the direct sum's products, inverses and
2x2 block forms summand by summand, and its norm as the max over summands.
:func:`summand_norms` gives the norm of each summand, and
:func:`unit_summands` scales the summands to unit norm.

Norms come from the kernels :func:`matcore.op_norms` and, for the sup over
samples and summands, :func:`matcore.sup_norm`; products of loops and
stacks come from :func:`matcore.matmul`.  Norms and products have closed
forms for the 1x1 and 2x2 samples that loops over small fibers consist of,
where a LAPACK or BLAS call per sample would cost most of the time; see
:mod:`matcore` for their error argument.

:func:`inv` is the one guarded inverse :func:`matcore.invert` on every
carrier: it raises NotInvertible when the 1-norm condition number
||a||_1 ||a^-1||_1, maximized over loop samples and summands, exceeds
``Tol.invert_cond_max``.

The only place that knows about the carriers is the trio :func:`arr` /
:func:`like` / :func:`product`: ``arr`` unwraps an element to its array,
``like`` wraps a result back into the carrier of an exemplar, and
``product`` is the product that the exemplar's carrier takes of two arrays,
for code that works on the arrays once they are unwrapped.
"""

from __future__ import annotations

import numpy as np

from . import loops, matcore
from .errors import InvalidInput


class Stack:
    """The summands of a direct sum, on the axis just before the matrix axes.

    Only internal code builds stacks: a raw array with an extra axis that
    reaches a public entry point is still rejected by :func:`arr`.
    """

    __slots__ = ("summands",)

    def __init__(self, summands: np.ndarray):
        self.summands = summands

    def __matmul__(self, other):
        return Stack(matcore.matmul(self.summands, other.summands))

    def __add__(self, other):
        return Stack(self.summands + other.summands)

    def __sub__(self, other):
        return Stack(self.summands - other.summands)


def arr(x) -> np.ndarray:
    """The array of x: ``(G, d, d)`` samples for a loop, the summand array of
    a stack, ``(d, d)`` otherwise."""
    if isinstance(x, loops.LoopElem):
        return x.samples
    if isinstance(x, Stack):
        return x.summands
    return matcore.as_matrix(x)


def like(x, a):
    """Wrap the array a in the carrier of x."""
    if isinstance(x, loops.LoopElem):
        return loops.LoopElem(a)
    return Stack(a) if isinstance(x, Stack) else a


def product(x):
    """The product of two arrays of x's carrier, as that carrier's @ forms
    it: :func:`matcore.matmul` over a loop's samples and a stack's summands,
    numpy's @ over a matrix."""
    return matcore.matmul if isinstance(x, (loops.LoopElem, Stack)) else np.matmul


def stack(elements) -> Stack:
    """The stack of the summands of the direct sum of elements, which must
    share a carrier and a size."""
    arrays = [arr(e) for e in elements]
    if len({a.shape for a in arrays}) > 1:
        raise InvalidInput("summands differ in carrier or size")
    return Stack(np.stack(arrays, axis=-3))


def direct_sum(s: Stack) -> np.ndarray:
    """The block-diagonal array of a stack's summands, in summand order."""
    a = s.summands
    m, n = a.shape[-3], a.shape[-1]
    out = np.zeros(a.shape[:-3] + (m * n, m * n), dtype=complex)
    for i in range(m):
        out[..., i * n:(i + 1) * n, i * n:(i + 1) * n] = a[..., i, :, :]
    return out


def _eye(lead: tuple, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n, dtype=complex), lead + (n, n)).copy()


def norm(x) -> float:
    """Operator norm; for a loop or a stack, the sup over its samples and
    summands, by :func:`matcore.sup_norm`."""
    return matcore.sup_norm(arr(x))


def summand_norms(s: Stack) -> np.ndarray:
    """The operator norm of each summand of a stack; over loops, the sup over
    the samples."""
    norms = matcore.op_norms(s.summands)
    return np.max(norms, axis=tuple(range(norms.ndim - 1)))


def unit_summands(s: Stack, floor) -> Stack:
    """The summands of norm at least floor, each scaled to unit norm; floor
    is one number, or one per summand."""
    norms = summand_norms(s)
    keep = norms >= floor
    return Stack(s.summands[..., keep, :, :] * (1.0 / norms[keep])[:, None, None])


def inv(x, tol: matcore.Tol = matcore.DEFAULT_TOL):
    """Inverse through the guarded kernel :func:`matcore.invert`: sample by
    sample for a loop, summand by summand for a stack."""
    return like(x, matcore.invert(arr(x), tol))


def eye_like(x):
    a = arr(x)
    return like(x, _eye(a.shape[:-2], a.shape[-1]))


def zero_like(x):
    return like(x, np.zeros_like(arr(x)))


def scal(c, x):
    return like(x, c * arr(x))


def block2(a, b, c, d):
    """2x2 block matrix [[a, b], [c, d]] over the carrier."""
    top = np.concatenate([arr(a), arr(b)], axis=-1)
    bottom = np.concatenate([arr(c), arr(d)], axis=-1)
    return like(a, np.concatenate([top, bottom], axis=-2))


def oplus(a, b):
    """Block-diagonal sum; the summands may have different sizes."""
    am, bm = arr(a), arr(b)
    na, nb = am.shape[-1], bm.shape[-1]
    out = np.zeros(am.shape[:-2] + (na + nb, na + nb), dtype=complex)
    out[..., :na, :na] = am
    out[..., na:, na:] = bm
    return like(a, out)


def corner_blocks(x, n_top: int):
    """Split a square element into 2x2 corner blocks with top-left size n_top."""
    a = arr(x)
    return (
        like(x, a[..., :n_top, :n_top]),
        like(x, a[..., :n_top, n_top:]),
        like(x, a[..., n_top:, :n_top]),
        like(x, a[..., n_top:, n_top:]),
    )


def side_size(x) -> int:
    return arr(x).shape[-1]

