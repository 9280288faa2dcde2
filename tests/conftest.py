import numpy as np
import pytest

from approxk import ops


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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
