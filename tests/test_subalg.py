import numpy as np
import pytest

from approxk import matcore, subalg
from approxk.errors import ClosureFailure
from approxk.matcore import matrix_unit
from approxk.subalg import Subalg, Subspace, from_basis, intersect, unitize


def block_alg(n, blocks):
    """Subalgebra of M_n spanned by full matrix units of the listed blocks."""
    basis = []
    for (lo, hi) in blocks:
        for i in range(lo, hi):
            for j in range(lo, hi):
                basis.append(matrix_unit(n, i, j))
    return Subalg(n, basis)


def test_projection_is_idempotent_and_contractive(rng):
    s = block_alg(4, [(0, 2)])
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p, r = s.nearest(x)
    p2, r2 = s.nearest(p)
    assert np.allclose(p, p2)
    assert r2 < 1e-12
    assert matcore.hs_norm(p) <= matcore.hs_norm(x) + 1e-12


def test_membership_residual_certifies_distance():
    s = block_alg(4, [(0, 2)])
    x = matrix_unit(4, 2, 2)
    _, r = s.nearest(x)
    assert r == pytest.approx(1.0)
    assert not s.nearest(x)[1] <= 0.5


def test_zero_subspace_is_legal():
    z = Subspace(3, [])
    assert z.dim == 0
    _, r = z.nearest(np.eye(3))
    assert r == pytest.approx(1.0)


def test_closure_check_rejects_non_algebra():
    with pytest.raises(ClosureFailure):
        Subalg(2, [matrix_unit(2, 0, 1)])


def test_from_basis_generates_full_block(rng):
    gen = matrix_unit(3, 0, 1) + matrix_unit(3, 1, 2)
    s = from_basis(3, [gen])
    assert s.dim == 9


def test_unitize_adds_ambient_unit():
    s = block_alg(4, [(0, 2)])
    su = unitize(s)
    assert su.dim == s.dim + 1
    assert su.contains(np.eye(4))
    assert unitize(su) is su


def test_amplify_and_tensor_dims():
    s = block_alg(2, [(0, 2)])
    assert subalg.amplify(s, 3).dim == 9 * s.dim
    assert subalg.tensor_with_full(s, 2).dim == 4 * s.dim


def test_intersect_recovers_common_block():
    c = block_alg(6, [(0, 2), (2, 4)])
    d = block_alg(6, [(2, 4), (4, 6)])
    i = intersect(c, d)
    assert i.dim == 4
    assert i.contains(matrix_unit(6, 2, 3))


def test_intersect_complex_span_is_closed(rng):
    # intersections through a non-real unitary must stay *-closed
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    c = Subalg(4, [u @ b @ u.conj().T
                   for b in block_alg(4, [(0, 2), (2, 4)]).basis])
    i = intersect(c, c)
    assert i.dim == c.dim
