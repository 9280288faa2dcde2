import numpy as np
import pytest

from approxk import matcore, ops
from approxk.errors import InvalidInput, PathTooCoarse
from approxk.matcore import matrix_unit
from approxk.subalg import Subalg


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *owners) wraps the function `name` of each owner (a
    module, a class or a namespace dict) for the test and returns one list
    that gets the positional arguments of every call, in call order."""
    def install(name, *owners):
        calls = []
        for owner in owners:
            real = owner[name] if isinstance(owner, dict) else getattr(owner, name)

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            if isinstance(owner, dict):
                monkeypatch.setitem(owner, name, counted)
            else:
                monkeypatch.setattr(owner, name, counted)
        return calls
    return install


def random_invertible(rng, n, spread=0.5):
    """Invertible close-ish to the identity with controllable conditioning."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + spread * g / np.linalg.norm(g, 2)


def random_idempotent(rng, n, spread=0.5):
    lam = rng.integers(0, 2, n).astype(complex)
    s = random_invertible(rng, n, spread)
    return s @ np.diag(lam) @ np.linalg.inv(s)


def embed_top_left(x, total):
    """Top-left corner embedding of x into a size-`total` identity, on any
    carrier: the dense reference for composing on a larger frame."""
    a = ops.arr(x)
    n = a.shape[-1]
    out = np.broadcast_to(np.eye(total, dtype=complex),
                          a.shape[:-2] + (total, total)).copy()
    out[..., :n, :n] = a
    return ops.like(x, out)


def upper_unipotent(z):
    """X(z) = [[1, z], [0, 1]], on any carrier: the unipotent factors of
    the Whitehead identity, multiplied out as a reference."""
    one = ops.eye_like(z)
    return ops.block2(one, z, ops.zero_like(z), one)


def lower_unipotent(z):
    """Y(z) = [[1, 0], [z, 1]]."""
    one = ops.eye_like(z)
    return ops.block2(one, ops.zero_like(z), z, one)


def rotation_j(x):
    """J = [[0, -1], [1, 0]] sized to match x's 2x2 block structure."""
    one = ops.eye_like(x)
    zero = ops.zero_like(x)
    return ops.block2(zero, ops.scal(-1.0, one), one, zero)


def corner_pair(theta):
    """Rank-2 corners of M_4 sharing e_0; their second directions e_1 and
    cos(theta) e_1 + sin(theta) e_2 meet at principal angle theta."""
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    w = np.array([0.0, np.cos(theta), np.sin(theta), 0.0])
    q = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex) + np.outer(w, w)
    units = [matrix_unit(4, i, j) for i in range(4) for j in range(4)]
    return (Subalg(4, [p @ e @ p for e in units]),
            Subalg(4, [q @ e @ q for e in units]))


def schur_projector(a) -> np.ndarray:
    """Spectral projector of a onto {Re z > 1/2} from an ordered Schur form
    and a Sylvester solve, defective a included: the dense reference for
    Riesz rounding."""
    import scipy.linalg
    t, q, k = scipy.linalg.schur(np.asarray(a, dtype=complex), output="complex",
                                 sort=lambda z: z.real > 0.5)
    p = np.zeros_like(t)
    p[:k, :k] = np.eye(k)
    if 0 < k < len(t):
        p[:k, k:] = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], t[:k, k:])
    return q @ p @ q.conj().T


def band_dense(b: matcore.Band) -> np.ndarray:
    """The dense array of a band, in its own order."""
    return matcore.band_scatter(b, np.arange(b.size))


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(ops.arr(x)).view(np.uint64)


def moved_samples(prev, cur) -> np.ndarray:
    """Where cur's matrix differs from prev's in some bit, per sample of a
    loop; a 0-d flag for a lone matrix."""
    return np.any(bits(prev) != bits(cur), axis=(-2, -1))


def dense_path_to_similarity(e_path):
    """Telescoping conjugator along a discrete path of idempotents, with
    full sup-norms and products: the reference for the arc trivialization.

    Each step uses z_i = ((2 e_{i+1} - 1)(2 e_i - 1) + 1) / 2, which is
    invertible when the step size beats 1 / (2 max ||2 e_i - 1||).  A step
    multiplies z by z_i on the samples it moves, where e_{i+1} differs from
    e_i in some bit, and keeps z on the others.
    """
    path = list(e_path)
    if len(path) < 1:
        raise InvalidInput("empty idempotent path")
    bound = max(ops.norm(ops.scal(2.0, e) - ops.eye_like(e)) for e in path)
    limit = 1.0 / (2.0 * max(bound, 1e-12))
    z = ops.eye_like(path[0])
    for i in range(len(path) - 1):
        step = ops.norm(path[i + 1] - path[i])
        if step >= limit:
            raise PathTooCoarse(i, f"step {step:.3e} >= {limit:.3e} at index {i}")
        sym_next = ops.scal(2.0, path[i + 1]) - ops.eye_like(path[i + 1])
        sym_cur = ops.scal(2.0, path[i]) - ops.eye_like(path[i])
        zi = ops.scal(0.5, sym_next @ sym_cur + ops.eye_like(path[i]))
        moved = moved_samples(path[i], path[i + 1])[..., None, None]
        z = ops.like(z, np.where(moved, ops.arr(zi @ z), ops.arr(z)))
    resid = ops.norm(z @ path[0] @ ops.inv(z) - path[-1])
    if resid > 1e-6:
        raise PathTooCoarse(len(path) - 1,
                            f"telescoped conjugation residual {resid:.3e} > 1e-6")
    return z
