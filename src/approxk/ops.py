"""Element operations written once for both carriers.

An element is an array whose last two axes are the matrix axes: a dense
matrix is a ``(d, d)`` array and a sampled loop is a :class:`LoopElem`
around a ``(G, d, d)`` stack, one matrix per grid point.  Every helper here
is numpy on the trailing two axes, so leading axes broadcast and the lift
formulas read the same over both carriers.

The only place that knows about the carriers is the pair :func:`arr` /
:func:`like`: ``arr`` unwraps an element to its array and ``like`` wraps a
result back into the carrier of an exemplar.
"""

from __future__ import annotations

import numpy as np

from . import loops, matcore


def arr(x) -> np.ndarray:
    """The array of x: ``(G, d, d)`` samples for a loop, ``(d, d)`` otherwise."""
    if isinstance(x, loops.LoopElem):
        return x.samples
    return matcore.as_matrix(x)


def like(x, a):
    """Wrap the array a in the carrier of x."""
    return loops.LoopElem(a) if isinstance(x, loops.LoopElem) else a


def _eye(lead: tuple, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n, dtype=complex), lead + (n, n)).copy()


def norm(x) -> float:
    """Operator norm; for a loop, the sup over its samples."""
    return float(np.max(np.linalg.norm(arr(x), 2, axis=(-2, -1))))


def inv(x):
    return like(x, np.linalg.inv(arr(x)))


def adj(x):
    return like(x, np.conj(np.swapaxes(arr(x), -1, -2)))


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


def upper_unipotent(z):
    """X(z) = [[1, z], [0, 1]]."""
    one = eye_like(z)
    return block2(one, z, zero_like(z), one)


def lower_unipotent(z):
    """Y(z) = [[1, 0], [z, 1]]."""
    one = eye_like(z)
    return block2(one, zero_like(z), z, one)


def rotation_j(x):
    """J = [[0, -1], [1, 0]] sized to match x's 2x2 block structure."""
    one = eye_like(x)
    zero = zero_like(x)
    return block2(zero, scal(-1.0, one), one, zero)


def side_size(x) -> int:
    return arr(x).shape[-1]


def embed_top_left(x, total: int):
    """Top-left corner embedding of x into a size-`total` identity."""
    a = arr(x)
    n = a.shape[-1]
    if n == total:
        return x
    if n > total:
        raise ValueError("cannot embed into a smaller size")
    out = _eye(a.shape[:-2], total)
    out[..., :n, :n] = a
    return like(x, out)
