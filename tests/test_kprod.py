import numpy as np
import pytest

from approxk import boundary, kprod, scenarios, subalg
from approxk.errors import InvalidInput, NotAClass
from approxk.loops import LoopAlg, power_z
from approxk.matcore import matrix_unit
from approxk.subalg import Subalg
from approxk.wedderburn import decompose

from conftest import random_invertible


def full_alg(n):
    return Subalg(n, [matrix_unit(n, i, j) for i in range(n)
                      for j in range(n)])


def test_box_times_degenerate_factors(rng):
    u = random_invertible(rng, 3)
    assert np.allclose(kprod.box_times(u, np.eye(2)), np.kron(u, np.eye(2)))
    assert np.allclose(kprod.box_times(u, np.zeros((2, 2))), np.eye(6))


def test_box_times_inverse_and_multiplicativity(rng):
    p = np.diag([1.0, 0.0]).astype(complex)
    u1 = random_invertible(rng, 3)
    u2 = random_invertible(rng, 3)
    lhs = kprod.box_times(u1 @ u2, p)
    rhs = kprod.box_times(u1, p) @ kprod.box_times(u2, p)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-10
    inv = kprod.box_times(np.linalg.inv(u1), p)
    assert np.linalg.norm(kprod.box_times(u1, p) @ inv - np.eye(6), 2) < 1e-10


def test_box_times_loop_carrier():
    alg = LoopAlg(64, 1)
    u = power_z(alg, 1)
    p = np.diag([1.0, 0.0]).astype(complex)
    w = kprod.box_times(u, p)
    assert w.side == 2
    assert (w @ kprod.box_times(power_z(alg, -1), p) - w.eye_like()).norm() < 1e-12


def test_box_times_rejects_non_idempotent(rng):
    u = random_invertible(rng, 2)
    with pytest.raises(NotAClass):
        kprod.box_times(u, 0.5 * np.eye(2))


def test_k0_product_multiplies_ranks():
    w = decompose(full_alg(4))
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([1.0, 1.0]).astype(complex)
    assert kprod.k0_product(p, p, w).entries == (1,)
    assert kprod.k0_product(p, q, w).entries == (2,)
    with pytest.raises(NotAClass):
        kprod.k0_product(0.3 * p, p, w)


def test_boundary_product_check_corpus():
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    expect = {
        "zero": (np.zeros((2, 2), dtype=complex), (0, 0)),
        "rank1": (np.diag([1.0, 0.0]).astype(complex), (1, -1)),
        "full": (np.eye(2, dtype=complex), (2, -2)),
    }
    for _label, (p, lhs) in expect.items():
        pc = kprod.boundary_product_check(cert, p, 2)
        assert pc.equal
        assert pc.lhs_entries == lhs
        assert pc.intersection_gap == 0


def test_boundary_product_check_conjugated_rank_one(rng):
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    s = random_invertible(rng, 2)
    p = s @ np.diag([1.0, 0.0]) @ np.linalg.inv(s)
    pc = kprod.boundary_product_check(cert, p, 2)
    assert pc.equal and pc.lhs_entries == (1, -1)


def test_boundary_product_check_validates_input():
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    with pytest.raises(InvalidInput):
        kprod.boundary_product_check(cert, np.eye(3), 2)


def corner_alg():
    return Subalg(2, [matrix_unit(2, 0, 0)])


def test_nonunital_class_check():
    a = corner_alg()
    b = corner_alg()
    e = np.kron(matrix_unit(2, 0, 0), matrix_unit(2, 0, 0))
    assert kprod.nonunital_class_check(e, a, b)
    one = np.eye(4, dtype=complex)
    assert not kprod.nonunital_class_check(one, a, b)
    # formal differences with matching augmentation ranks do descend
    assert kprod.nonunital_class_check(one, a, b, f=one)


def test_nonunital_check_needs_nonunital_algebras():
    with pytest.raises(InvalidInput):
        kprod.nonunital_class_check(np.eye(4), full_alg(2), corner_alg())


def test_tensored_pairs_take_one_principal_angle_intersection(count_calls):
    # tensored pairs reuse their base intersection; the product check keeps
    # one principal-angle intersection, which measures intersection_gap
    blk = scenarios.block_ideal_pair()
    h = np.diag([1.0, 1.0, 0.5, 0.5, 0.0, 0.0]).astype(complex)
    ideal = boundary.check_delta_ideal_structure(
        h, blk["c"], blk["d"], [np.eye(6)], random_probes=2)
    scn = scenarios.twisted_pair()
    _, _, lift = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    calls = count_calls("intersect", subalg)
    boundary.uniformity_probe(blk["c"], blk["d"], sample_count=5, b_dims=(1, 2, 3))
    assert len(calls) == 1
    boundary.tensor_scale_ideal_structure(ideal, 2)
    assert len(calls) == 1
    pc = kprod.boundary_product_check(lift, np.diag([1.0, 0.0]).astype(complex), 2)
    assert len(calls) == 2
    assert pc.equal and pc.intersection_gap == 0
