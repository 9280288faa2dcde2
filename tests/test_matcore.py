import numpy as np
import pytest

from approxk import matcore
from approxk.errors import (
    AmbiguousIntersection,
    DefectiveMatrix,
    InvalidInput,
    NotInvertible,
)
from approxk.matcore import Tol


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


def test_eig_rejects_defective_matrix():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DefectiveMatrix):
        matcore.eig(jordan)


def test_eig_reconstructs(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam, v = matcore.eig(a)
    assert np.allclose(v @ np.diag(lam) @ np.linalg.inv(v), a, atol=1e-8)


def test_rank_basic_and_zero_floor():
    assert matcore.rank(np.diag([1.0, 1.0, 0.0])) == 2
    # numerically-zero matrices must rank 0, not rank their own noise
    noise = 1e-16 * np.ones((4, 4))
    assert matcore.rank(noise) == 0


def test_rank_guard_flags_borderline():
    a = np.diag([1.0, 1e-8])
    with pytest.raises(AmbiguousIntersection):
        matcore.rank(a, guard=True)


def test_tol_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        Tol(membership_tol=0.0)
