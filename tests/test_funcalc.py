import numpy as np
import pytest

from approxk import funcalc, scenarios
from approxk.errors import (
    DefectTooLarge,
    InvalidInput,
    NotCloseEnough,
    SpectralAmbiguity,
)
from approxk.matcore import DEFAULT_TOL, matrix_unit, op_norm

from conftest import random_idempotent


def test_riesz_bound_formula():
    delta, c = 1e-4, 2.0
    rd = np.sqrt(delta)
    assert funcalc.riesz_bound(delta, c) == pytest.approx(
        4 * rd * (c + 2) / (1 - rd))
    assert funcalc.riesz_bound(0.0, 10.0) == 0.0
    for bad in (1.0 / 16.0, 0.5, -1e-3):
        with pytest.raises(DefectTooLarge):
            funcalc.riesz_bound(bad, 1.0)


def test_riesz_idempotent_rounds_and_certifies(rng):
    for _ in range(20):
        e0 = random_idempotent(rng, 4)
        pert = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e = e0 + 1e-4 * pert / np.linalg.norm(pert, 2)
        f, cert = funcalc.riesz_idempotent(e)
        assert np.linalg.norm(f @ f - f, 2) < 1e-8
        assert cert.passed
        assert cert.distance <= cert.bound + 1e-12 * (1 + cert.c)


def test_riesz_rejects_large_defect():
    with pytest.raises(DefectTooLarge):
        funcalc.riesz_idempotent(0.5 * np.eye(2))


def test_riesz_spectral_ambiguity_guard():
    # the critical-line check sits below the defect gate, so probe it directly
    with pytest.raises(SpectralAmbiguity):
        funcalc._chi_by_eig(np.diag([0.5, 1.0]).astype(complex), DEFAULT_TOL)


def test_riesz_schur_fallback_on_defective_input():
    # nilpotent almost-idempotent: eigendecomposition is defective
    e = np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex)
    f, cert = funcalc.riesz_idempotent(e)
    assert cert.method == "schur"
    assert np.allclose(f, 0.0)
    assert cert.passed


def test_riesz_schur_mixed_spectrum():
    e = np.zeros((3, 3), dtype=complex)
    e[0, 0] = 1.0
    e[1, 2] = 1e-2
    f, cert = funcalc.riesz_idempotent(e)
    assert cert.method == "schur"
    assert np.linalg.norm(f @ f - f, 2) < 1e-10
    assert np.linalg.norm(f - np.diag([1.0, 0.0, 0.0]), 2) <= cert.bound + 1e-2


def test_round_idempotent_in_algebra():
    scn = scenarios.twisted_pair()
    e = scn["p"] + 1e-4 * scn["c"].basis[1]
    f, cls, cert = funcalc.round_idempotent_in(e, scn["c"])
    assert np.linalg.norm(f @ f - f, 2) < 1e-8
    assert scn["c"].unitization.nearest(f)[1] <= 1e-6
    assert cls.entries == (1,)


def test_round_idempotent_rejects_far_element():
    scn = scenarios.block_ideal_pair()
    e = np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)
    e += 0.3 * (matrix_unit(6, 0, 5) + matrix_unit(6, 5, 0))
    with pytest.raises(NotCloseEnough):
        funcalc.round_idempotent_in(e, scn["c"])


def test_round_idempotent_eps_window():
    scn = scenarios.twisted_pair()
    with pytest.raises(InvalidInput):
        funcalc.round_idempotent_in(scn["p"], scn["c"], eps=10.0)


def test_round_invertible_in_span(rng):
    scn = scenarios.block_ideal_pair()
    span = scn["c"].unitization
    base, _ = span.nearest(np.diag([1.1, 0.9, 1.2, 1.0, 1.0, 1.0]))
    noise = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u = base + 1e-4 * noise / np.linalg.norm(noise, 2)
    v, vinv, resid = funcalc.round_invertible_in(u, span)
    assert span.nearest(v)[1] <= 1e-9
    assert np.allclose(v @ vinv, np.eye(6))
    assert resid < 2e-4


def test_round_invertible_rejects_far_element():
    scn = scenarios.block_ideal_pair()
    span = scn["c"].unitization
    u = np.eye(6) + 0.9 * (matrix_unit(6, 0, 5) + matrix_unit(6, 5, 0))
    with pytest.raises(NotCloseEnough):
        funcalc.round_invertible_in(u, span)


def idempotent_similarity_step(f, f2):
    """One-step conjugator between idempotents with ||f - f2|| < 1/||2f - 1||:
    an invertible z with z f z^-1 = f2 up to numerics."""
    one = np.eye(f.shape[0])
    sym = 2.0 * f - one
    gap = op_norm(f - f2)
    limit = 1.0 / op_norm(sym)
    if gap >= limit:
        raise NotCloseEnough(gap, limit)
    return ((2.0 * f2 - one) @ sym + one) / 2.0


def test_idempotent_similarity_step():
    f = np.diag([1.0, 0.0]).astype(complex)
    th = 0.05
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                 dtype=complex)
    f2 = u @ f @ u.conj().T
    z = idempotent_similarity_step(f, f2)
    assert np.linalg.norm(z @ f @ np.linalg.inv(z) - f2, 2) < 1e-12
    with pytest.raises(NotCloseEnough):
        idempotent_similarity_step(f, np.diag([0.0, 1.0]).astype(complex))


def test_eps_max_helpers():
    assert funcalc.idempotent_eps_max(1.0) == pytest.approx(0.1)
    assert funcalc.invertible_eps_max(2.0) == pytest.approx(0.125)
