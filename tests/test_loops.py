import numpy as np
import pytest

from approxk.errors import GridTooCoarse, InvalidInput
from approxk.loops import (
    LoopAlg,
    LoopElem,
    arc_ideal,
    arc_k0_trivialize,
    bump,
    loop_membership,
    power_z,
    winding_k1,
)


def test_loop_alg_validates_grid():
    with pytest.raises(InvalidInput):
        LoopAlg(8, 1)


def test_power_z_winding():
    alg = LoopAlg(64, 1)
    for n in (-2, -1, 0, 1, 3):
        assert winding_k1(power_z(alg, n)).entries == (n,)


def test_winding_detects_coarse_grid():
    alg = LoopAlg(16, 1)
    with pytest.raises(GridTooCoarse):
        winding_k1(power_z(alg, 5))


def test_winding_of_amplified_loop():
    alg = LoopAlg(64, 2)
    # the phase sits in one corner of the amplified identity, so the
    # determinant winding is unchanged by the amplification
    assert winding_k1(power_z(alg, 2, amp=2)).entries == (2,)


def test_loop_elem_algebra(rng):
    alg = LoopAlg(32, 2)
    u = power_z(alg, 1, amp=2)
    assert u.norm() == pytest.approx(1.0)
    assert (u @ u.inv() - u.eye_like()).norm() < 1e-12
    assert (2.0 * u - u - u).norm() < 1e-12
    assert (u.adj() @ u - u.eye_like()).norm() < 1e-12


def test_arc_ideal_membership():
    alg = LoopAlg(360, 1)
    ideal = arc_ideal(alg, (-0.5 * np.pi, 0.5 * np.pi))
    prof = bump(alg, (-0.25 * np.pi, 0.25 * np.pi), 0.1 * np.pi)
    x = LoopElem(prof[:, None, None].astype(complex))
    _, resid = loop_membership(x, ideal, unitized=False)
    assert resid == 0.0
    one = x.eye_like()
    _, resid_raw = loop_membership(one, ideal, unitized=False)
    assert resid_raw == pytest.approx(1.0)
    _, resid_unit = loop_membership(one, ideal, unitized=True)
    assert resid_unit < 1e-12


def test_bump_profile_shape():
    alg = LoopAlg(360, 1)
    prof = bump(alg, (-0.4 * np.pi, 0.4 * np.pi), 0.2 * np.pi)
    # measure angles from the left plateau edge; thetas live in [0, 2 pi)
    rel = np.mod(alg.thetas + 0.4 * np.pi, 2 * np.pi)
    plateau = rel <= 0.8 * np.pi + 1e-9
    assert np.all(prof[plateau] == 1.0)
    far = (rel >= np.pi + 1e-9) & (rel <= 1.8 * np.pi - 1e-9)
    assert np.all(prof[far] == 0.0)
    assert prof.min() >= 0.0 and prof.max() <= 1.0


def test_arc_ideal_intersection_masks():
    alg = LoopAlg(720, 1)
    c = arc_ideal(alg, (-0.6 * np.pi, 0.6 * np.pi))
    d = arc_ideal(alg, (0.4 * np.pi, 1.6 * np.pi))
    inter = c.intersect(d)
    assert int(c.mask.sum()) == 431
    assert int(inter.mask.sum()) == int((c.mask & d.mask).sum())


def test_arc_k0_trivialize_constant_idempotent():
    alg = LoopAlg(96, 2)
    ideal = arc_ideal(alg, (-0.5 * np.pi, 0.5 * np.pi))
    e = LoopElem.constant(np.diag([1.0, 0.0]).astype(complex), 96)
    r, conj, const = arc_k0_trivialize(e, ideal)
    assert r == 1
    resid = (conj @ e @ conj.inv() - const).norm()
    assert resid < 1e-6


def test_arc_k0_trivialize_moving_idempotent():
    # rank-1 idempotent rotating inside the arc, constant off it
    alg = LoopAlg(360, 2)
    ideal = arc_ideal(alg, (-0.5 * np.pi, 0.5 * np.pi))
    prof = bump(alg, (-0.1 * np.pi, 0.1 * np.pi), 0.3 * np.pi)
    samples = np.zeros((360, 2, 2), dtype=complex)
    for j, t in enumerate(prof):
        th = 0.45 * np.pi * t
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        samples[j] = u @ np.diag([1.0, 0.0]) @ u.T
    e = LoopElem(samples)
    r, conj, const = arc_k0_trivialize(e, ideal)
    assert r == 1
    resid = (conj @ e @ conj.inv() - const).norm()
    assert resid < 1e-5
