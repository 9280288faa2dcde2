import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import matcore, subalg, wedderburn
from approxk.errors import AmbiguousIntersection, ClosureFailure, InvalidInput
from approxk.matcore import DEFAULT_TOL, matrix_unit
from approxk import scenarios
from approxk.subalg import Subalg, Subspace, intersect

from conftest import corner_pair


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
    assert subalg._hs_norms(p) <= subalg._hs_norms(x) + 1e-12


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
    # closed under adjoint, but E01 E10 = E00 leaves the span
    with pytest.raises(ClosureFailure, match="multiplication"):
        Subalg(2, [matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)])


def test_unitize_adds_ambient_unit():
    s = block_alg(4, [(0, 2)])
    su = s.unitization
    assert su.dim == s.dim + 1
    assert su.contains(np.eye(4))
    assert su.unitization is su


AUGMENTED = {
    "block_pair C": lambda: scenarios.block_ideal_pair()["c"],
    "block_pair D": lambda: scenarios.block_ideal_pair()["d"],
    "block_pair C cap D": lambda: intersect(*(scenarios.block_ideal_pair()[k]
                                              for k in ("c", "d"))),
    "hereditary_pair C": lambda: scenarios.hereditary_pair(0.3)["c"],
    "hereditary_pair D": lambda: scenarios.hereditary_pair(0.3)["d"],
}


@pytest.mark.parametrize("case", list(AUGMENTED))
def test_augmentation_is_one_on_the_unit_and_zero_on_the_algebra(case):
    s = AUGMENTED[case]()
    f = s.augmentation
    assert not s.is_unital_in_ambient
    assert abs(np.sum(f * np.eye(s.ambient_dim)) - 1.0) < 1e-12
    for b in s.basis:
        assert abs(np.sum(f * b)) < 1e-12
    # the unitization's basis is S's, then the normalized unit residual
    su = s.unitization
    assert su.gram_residual() < 1e-12
    assert su.nearest(np.eye(s.ambient_dim))[1] < 1e-12


def test_augmentation_needs_a_non_unital_algebra():
    with pytest.raises(InvalidInput):
        block_alg(4, [(0, 2)]).unitization.augmentation


def test_tensored_algebras_and_unitization_skip_repeated_work(count_calls):
    # S (x) M_m and M_m(S) are unital exactly when S is, and S + C1 is a
    # *-algebra whenever S is: neither question is asked again on building
    s = scenarios.block_ideal_pair()["c"]
    norms = count_calls("op_norms", matcore)
    closures = count_calls("_check_closure", Subalg)
    for m in (1, 2, 3):
        subalg.tensor_with_full(s, m)
        subalg.amplify(s, m)
    assert norms == []
    su = s.unitization
    assert closures == []
    assert su.dim == s.dim + 1


def test_derived_structure_is_held_on_the_algebra(count_calls):
    # the unitization and the Wedderburn data are built on the first read and
    # kept: a second read builds no algebra and decomposes nothing
    s = scenarios.block_ideal_pair()["c"]
    decomposed = count_calls("decompose", wedderburn)
    built = count_calls("__init__", Subalg)
    su, w = s.unitization, s.wedderburn
    assert (len(built), len(decomposed)) == (1, 1)
    assert s.unitization is su and s.wedderburn is w
    assert (len(built), len(decomposed)) == (1, 1)


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


# ---------------------------------------------------------------------------
# blockwise projection and principal-angle intersection


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugate(alg, u):
    return Subalg(alg.ambient_dim, [u @ b @ u.conj().T for b in alg.basis])


def projector(alg):
    """The N^2 x N^2 matrix of the HS projection onto the span."""
    return alg._flats.T @ np.conj(alg._flats)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_blockwise_projection_matches_amplified_basis(rng, k):
    s = conjugate(block_alg(4, [(0, 2), (2, 3)]), random_unitary(rng, 4))
    for alg in (s, s.unitization):
        x = rng.standard_normal((4 * k, 4 * k)) + 1j * rng.standard_normal((4 * k, 4 * k))
        want = subalg.amplify(alg, k).project(x)
        np.testing.assert_allclose(alg.project(x), want, rtol=0, atol=1e-12)


def test_projection_rejects_side_not_a_multiple():
    s = block_alg(4, [(0, 2)])
    for side in (3, 6, 9):
        with pytest.raises(InvalidInput):
            s.project(np.eye(side))


def stacked_svd_intersect(s, t, tol=DEFAULT_TOL):
    """Reference intersection: the joint null space of the stacked
    complement projectors, from one SVD of a 2N^2 x N^2 matrix."""
    n2 = s.ambient_dim * s.ambient_dim
    stacked = np.vstack([np.eye(n2) - projector(s), np.eye(n2) - projector(t)])
    _, sv, vh = np.linalg.svd(stacked)
    cut = max(sv[0], 1.0) * tol.rank_rel_tol
    assert not np.any((sv > cut / 10) & (sv < cut * 10))
    n = s.ambient_dim
    return Subalg(n, [v.reshape(n, n) for v in np.conj(vh[sv <= cut])], tol)


def assert_same_intersection(s, t):
    got = intersect(s, t)
    want = stacked_svd_intersect(s, t)
    assert got.dim == want.dim
    assert np.abs(projector(got) - projector(want)).max() <= 1e-10


@st.composite
def block_pairs(draw):
    """Block subalgebras S, T of M_n (n <= 5) over two partitions, moved by a
    common random unitary; T is sometimes moved by a second one as well.
    The zero T is covered by test_intersect_with_zero_algebra."""
    n = draw(st.integers(2, 5))

    def blocks():
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
        edges = [0, *cuts, n]
        intervals = list(zip(edges, edges[1:]))
        return draw(st.lists(st.sampled_from(intervals), unique=True,
                             min_size=1))

    s_blocks, t_blocks = blocks(), blocks()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, n)
    v = u @ random_unitary(rng, n) if draw(st.booleans()) else u
    return (conjugate(block_alg(n, s_blocks), u),
            conjugate(block_alg(n, t_blocks), v))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(block_pairs())
def test_intersect_matches_stacked_svd(pair):
    s, t = pair
    assert_same_intersection(s, t)
    assert_same_intersection(t, s)


def test_intersect_with_zero_algebra(rng):
    s = conjugate(block_alg(4, [(0, 2), (2, 4)]), random_unitary(rng, 4))
    zero = Subalg(4, [])
    assert intersect(s, zero).dim == 0
    assert_same_intersection(s, zero)


def test_intersect_ambiguity_band():
    with pytest.raises(AmbiguousIntersection):
        intersect(*corner_pair(1e-8))
    assert intersect(*corner_pair(1e-6)).dim == 1
    assert intersect(*corner_pair(0.0)).dim == 4


KRON_CASES = {
    "block_pair C": lambda: scenarios.block_ideal_pair()["c"],
    "block_pair D": lambda: scenarios.block_ideal_pair()["d"],
    "twisted_pair C": lambda: scenarios.twisted_pair()["c"],
    # np.kron writes -0.0 where a zero meets a negative entry, a copy 0.0
    "conjugated twisted_pair C": lambda: scenarios.twisted_pair(
        conj=scenarios.random_unitary(4, np.random.default_rng(3)))["c"],
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("case", list(KRON_CASES))
def test_kron_bases_are_the_kron_list(case, m):
    # both bases are written into one array; they must be the kron list they
    # replace, bit for bit and in basis order
    s = KRON_CASES[case]()
    units = [matrix_unit(m, i, j) for i in range(m) for j in range(m)]
    for build, old in ((subalg.tensor_with_full, [np.kron(b, u) for b in s.basis for u in units]),
                       (subalg.amplify, [np.kron(u, b) for u in units for b in s.basis])):
        got = build(s, m)
        want = Subalg(s.ambient_dim * m, old, s.tol, _orthonormal=True, check=False)
        got_bytes, old_bytes = (np.array(a).tobytes() for a in (got.basis, old))
        if case.startswith("conjugated"):
            got_bytes, old_bytes = ((np.array(a) + 0.0).tobytes() for a in (got.basis, old))
        assert got_bytes == old_bytes
        assert got.dim == want.dim == m * m * s.dim
        assert got.is_unital_in_ambient == want.is_unital_in_ambient
