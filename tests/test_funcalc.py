import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approxk import funcalc, matcore
from approxk.errors import DefectTooLarge, InvalidInput, RoundingUnstable
from approxk.matcore import op_norm

from conftest import random_idempotent, schur_projector


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


def _almost_idempotent(rng, n, target):
    e0 = random_idempotent(rng, n)
    pert = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return e0 + target * pert / np.linalg.norm(pert, 2)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 6), exponent=st.floats(-6.0, -2.0),
       seed=st.integers(0, 2**32 - 1))
def test_riesz_certificate_matches_one_norm_at_a_time(n, exponent, seed):
    # the stacked norms give the floats that one op_norm per matrix gives
    e = _almost_idempotent(np.random.default_rng(seed), n, 10.0 ** exponent)
    f, cert = funcalc.riesz_idempotent(e)
    delta, c = op_norm(e @ e - e), op_norm(e)
    assert cert == funcalc.RoundingCert(
        delta=delta, c=c, distance=op_norm(f - e),
        bound=funcalc.riesz_bound(delta, c))
    assert all(type(v) is float for v in (cert.delta, cert.c, cert.distance))


def test_riesz_takes_its_norms_in_two_calls(rng, count_calls):
    # ||e^2 - e|| and ||e||; ||f^2 - f||, ||f|| and ||f - e||
    calls = count_calls("op_norms", matcore)
    funcalc.riesz_idempotent(_almost_idempotent(rng, 4, 1e-4))
    assert len(calls) == 2


def _jordan_or_skewed(n, rank, jordan, eps, skew, seed):
    """S T S^-1 with T = diag(1_rank, 0) plus eps times either the
    superdiagonal inside each eigenvalue's run (Jordan blocks) or a random
    matrix, and S = 1 + skew G / ||G||, a non-normal similarity."""
    rng = np.random.default_rng(seed)
    t = np.diag([1.0] * rank + [0.0] * (n - rank)).astype(complex)
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    if jordan:
        same = np.diag(t)[:-1] == np.diag(t)[1:]
        t += eps * np.diag(same.astype(complex), 1)
    else:
        t += eps * g[0] / np.linalg.norm(g[0], 2)
    s = np.eye(n) + skew * g[1] / np.linalg.norm(g[1], 2)
    return s @ t @ np.linalg.inv(s)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(n=st.integers(2, 8), rank=st.integers(0, 8), jordan=st.booleans(),
       eps=st.one_of(st.just(0.0), st.floats(1e-9, 0.06)),
       skew=st.floats(0.0, 0.8), seed=st.integers(0, 2**32 - 1))
def test_riesz_matches_the_spectral_projector(n, rank, jordan, eps, skew, seed):
    # Newton-Schulz on Jordan blocks and non-normal inputs gives the
    # spectral projector of the ordered Schur form, and an idempotent to
    # rounding level
    e = _jordan_or_skewed(n, min(rank, n), jordan, eps, skew, seed)
    delta, c = op_norm(e @ e - e), op_norm(e)
    assume(delta <= 0.06 and c <= 5.0)
    f, cert = funcalc.riesz_idempotent(e)
    assert op_norm(f - schur_projector(e)) <= 1e-12 * (1.0 + c)
    assert op_norm(f @ f - f) <= 1e-14 * (1.0 + c) ** 2
    assert cert.passed


def test_riesz_step_count(rng):
    # 0 steps on an exact idempotent, which comes back as it is; 2 at 1e-6
    # and at most 5 below 1/16; and exactly the steps that the residual
    # recurrence r -> r^2 (3 + r) / 4 from r = 4 delta needs to reach the
    # unit roundoff, after which f is idempotent to rounding level
    e = np.diag([1.0, 0.0, 1.0])
    f, cert = funcalc.riesz_idempotent(e)
    assert cert.delta == 0.0 and funcalc.sign_steps(0.0) == 0
    assert np.array_equal(f, e)
    assert funcalc.sign_steps(1e-6) == 2
    assert funcalc.sign_steps(np.nextafter(funcalc.DELTA_MAX, 0.0)) == 5

    def step(r):
        return r * r * (3.0 + r) / 4.0

    for delta in np.geomspace(1e-16, funcalc.DELTA_MAX, 80, endpoint=False):
        r = 4.0 * delta
        for _ in range(funcalc.sign_steps(delta) - 1):
            r = step(r)
        assert r > funcalc.UNIT_ROUNDOFF >= step(r), delta
    for target in (1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 3e-2):
        f, cert = funcalc.riesz_idempotent(_almost_idempotent(rng, 5, target))
        assert op_norm(f @ f - f) <= 1e-14 * (1.0 + cert.c) ** 2


def test_riesz_refuses_an_unconverged_rounding(rng, monkeypatch):
    # the idempotency check reads the last step's residual: with no steps
    # taken, an element of defect about 1e-3 is refused
    monkeypatch.setattr(funcalc, "sign_steps", lambda delta: 0)
    with pytest.raises(RoundingUnstable):
        funcalc.riesz_idempotent(_almost_idempotent(rng, 4, 1e-3))


def test_riesz_rejects_an_overflowing_defect():
    # e^2 - e overflows; the stacked norms refuse it as as_matrix does
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="matrix has non-finite entries"):
            funcalc.riesz_idempotent(np.full((3, 3), 1e200))


def test_riesz_rejects_large_defect():
    with pytest.raises(DefectTooLarge):
        funcalc.riesz_idempotent(0.5 * np.eye(2))


def test_riesz_rounds_a_defective_input():
    # nilpotent almost-idempotent: e has no eigenvector basis
    e = np.array([[0.0, 1e-3], [0.0, 0.0]], dtype=complex)
    f, cert = funcalc.riesz_idempotent(e)
    assert np.allclose(f, 0.0)
    assert cert.passed


def test_riesz_rounds_a_defective_mixed_spectrum():
    e = np.zeros((3, 3), dtype=complex)
    e[0, 0] = 1.0
    e[1, 2] = 1e-2
    f, cert = funcalc.riesz_idempotent(e)
    assert np.linalg.norm(f @ f - f, 2) < 1e-10
    assert np.linalg.norm(f - np.diag([1.0, 0.0, 0.0]), 2) <= cert.bound + 1e-2
    assert op_norm(f - schur_projector(e)) <= 1e-15


class TooFarApart(Exception):
    pass


def idempotent_similarity_step(f, f2):
    """One-step conjugator between idempotents with ||f - f2|| < 1/||2f - 1||:
    an invertible z with z f z^-1 = f2 up to numerics."""
    one = np.eye(f.shape[0])
    sym = 2.0 * f - one
    gap = op_norm(f - f2)
    limit = 1.0 / op_norm(sym)
    if gap >= limit:
        raise TooFarApart(f"||f - f2|| = {gap:.3e} >= 1/||2f - 1|| = {limit:.3e}")
    return ((2.0 * f2 - one) @ sym + one) / 2.0


def test_idempotent_similarity_step():
    f = np.diag([1.0, 0.0]).astype(complex)
    th = 0.05
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                 dtype=complex)
    f2 = u @ f @ u.conj().T
    z = idempotent_similarity_step(f, f2)
    assert np.linalg.norm(z @ f @ np.linalg.inv(z) - f2, 2) < 1e-12
    with pytest.raises(TooFarApart):
        idempotent_similarity_step(f, np.diag([0.0, 1.0]).astype(complex))
