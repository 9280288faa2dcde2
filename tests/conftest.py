import numpy as np
import pytest

from approxk import ops
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
