import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import matcore
from approxk.errors import (
    AmbiguousIntersection,
    DefectiveMatrix,
    InvalidInput,
    NotInvertible,
)
from approxk.matcore import DEFAULT_TOL, Tol


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidInput):
        matcore.as_matrix(np.zeros(3))
    with pytest.raises(InvalidInput):
        matcore.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_op_norm_matches_largest_singular_value(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert matcore.op_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def test_invert_guards_conditioning():
    with pytest.raises(NotInvertible):
        matcore.invert(np.diag([1.0, 0.0]))
    a = np.diag([1.0, 2.0]).astype(complex)
    assert np.allclose(matcore.invert(a) @ a, np.eye(2))
    with pytest.raises(NotInvertible):
        matcore.invert(np.diag([1.0, 1e-6]), Tol(invert_cond_max=1e5))
    # a (G, m, n, n) stack of loop samples and summands: one bad matrix
    # anywhere decides, and kappa_1 is exact
    stack = np.broadcast_to(a, (16, 3, 2, 2)).copy()
    assert np.allclose(matcore.invert(stack) @ stack, np.eye(2))
    stack[5, 1] = np.diag([1.0, 1e-13])
    with pytest.raises(NotInvertible) as err:
        matcore.invert(stack)
    assert err.value.cond_estimate == pytest.approx(1e13)
    with pytest.raises(InvalidInput):
        matcore.invert(np.ones((3, 2, 4)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lead=st.sampled_from([(), (16,), (16, 3)]), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_invert_matches_numpy_bits(lead, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    a = np.eye(n) + 0.5 * z / np.linalg.norm(z, 2, axis=(-2, -1), keepdims=True)
    np.testing.assert_array_equal(matcore.invert(a), np.linalg.inv(a))


def test_eig_rejects_defective_matrix():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DefectiveMatrix):
        matcore.eig(jordan)


def test_eig_reconstructs(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam, v, v_inv = matcore.eig(a)
    np.testing.assert_array_equal(v_inv, np.linalg.inv(v))
    assert np.allclose(v @ np.diag(lam) @ v_inv, a, atol=1e-8)


def test_rank_basic_and_zero_floor():
    assert matcore.rank(np.diag([1.0, 1.0, 0.0])) == 2
    # numerically-zero matrices must rank 0, not rank their own noise
    noise = 1e-16 * np.ones((4, 4))
    assert matcore.rank(noise) == 0


def test_rank_guard_flags_borderline():
    a = np.diag([1.0, 1e-8])
    rel = DEFAULT_TOL.rank_rel_tol
    with pytest.raises(AmbiguousIntersection):
        matcore.rank_cut(np.linalg.svd(a, compute_uv=False), rel, band=True)
    # without the band the same value is decided: zero, as it is not above the cut
    rows, null = matcore.rank_split(a, rel)
    assert rows.shape[0] == 1 and null.shape[0] == 1


def reference_null_projector(a, rel):
    """Projector onto the null space of a from a full SVD, singular values
    padded with zeros to the column count and cut at s_0 * rel."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    padded = np.concatenate([s, np.zeros(a.shape[1] - s.size)])
    v = np.conj(vh[padded <= s[0] * rel])
    return v.T @ np.conj(v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_rank_split_on_matrices_of_known_rank(rows, cols, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, min(rows, cols) + 1))

    def gaussian(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    a = gaussian(rows, r) @ gaussian(r, cols)
    rel = DEFAULT_TOL.rank_rel_tol
    kept, _ = matcore.rank_split(a, rel)
    assert kept.shape == (r, cols)
    assert np.allclose(kept @ np.conj(kept).T, np.eye(r), atol=1e-12)
    assert r == matcore.rank(a)
    # the null vectors are complete only for a tall matrix: take a wide one's
    # adjoint, which has the same rank
    t = a if rows >= cols else np.conj(a).T
    kept, null = matcore.rank_split(t, rel)
    n = t.shape[1]
    assert kept.shape[0] + null.shape[0] == n and null.shape[0] == n - r
    for q in (kept, null):
        assert np.allclose(q @ np.conj(q).T, np.eye(q.shape[0]), atol=1e-12)
    assert np.allclose(kept @ null.T, 0.0, atol=1e-12)
    assert np.linalg.norm(t @ null.T) <= 1e-12 * np.linalg.norm(t)
    want = reference_null_projector(t, rel)
    assert np.allclose(null.T @ np.conj(null), want, atol=1e-10)


def test_tol_rejects_nonpositive():
    for name in ("membership_tol", "rank_rel_tol", "invert_cond_max"):
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput):
                Tol(**{name: bad})
