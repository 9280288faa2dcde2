import tracemalloc

import numpy as np
import pytest

from approxk import scenarios
from approxk.errors import InvalidInput, NotEquivalent, PathTooCoarse
from approxk.matcore import matrix_unit
from approxk.subalg import Subalg, tensor_with_full
from approxk.wedderburn import (
    K0Vec,
    decompose,
    k0_class,
    path_to_similarity,
    similarity_witness,
)


def two_block_alg():
    basis = [np.kron(matrix_unit(2, i, j), np.eye(2)) for i in range(2)
             for j in range(2)]
    return Subalg(4, basis)


def test_decompose_matrix_factor():
    w = decompose(two_block_alg())
    assert w.blocks == [(2, 2)]


def test_decompose_two_point_center():
    scn = scenarios.twisted_pair()
    w = decompose(scn["inter"])
    assert sorted(w.blocks) == [(1, 2), (1, 2)]
    # central projections sum to the unit of the algebra
    total = sum(w.central_projections)
    assert np.allclose(total, np.eye(4))


def test_decompose_tensored_block_pair_in_bounded_memory():
    # the center comes from a thin SVD of the dim * N^2 x dim commutator
    # matrix; a full one would build a U of side dim * N^2 (over 300 MB here)
    c2 = tensor_with_full(scenarios.block_ideal_pair()["c"], 2)
    tracemalloc.start()
    try:
        w = decompose(c2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.blocks == [(4, 1), (4, 1)]
    assert peak < 50e6


def test_decompose_invariant_under_conjugation(rng):
    base = scenarios.twisted_pair()
    for i in range(20):
        u = scenarios.random_unitary(4, rng)
        scn = scenarios.twisted_pair(conj=u)
        assert sorted(decompose(scn["c"], seed=i).blocks) == [(2, 2)]
        assert sorted(decompose(scn["inter"], seed=i).blocks) == [(1, 2), (1, 2)]
    assert sorted(decompose(base["d"]).blocks) == [(2, 2)]


def test_k0_class_counts_normalized_ranks():
    scn = scenarios.twisted_pair()
    w = decompose(scn["inter"])
    cls_p = k0_class(scn["p"], w)
    cls_q = k0_class(scn["q"], w)
    assert sorted((cls_p.entries, cls_q.entries)) == [(0, 1), (1, 0)]
    assert (cls_p - cls_q).entries in ((1, -1), (-1, 1))


def test_k0_vec_arithmetic():
    a = K0Vec((1, 2), ((1, 1), (1, 1)))
    b = K0Vec((0, 1), ((1, 1), (1, 1)))
    assert (a + b).entries == (1, 3)
    assert (-a).entries == (-1, -2)
    assert a.scale(3).entries == (3, 6)
    with pytest.raises(InvalidInput):
        a + K0Vec((1,), ((1, 1),))


def test_similarity_witness_conjugates(rng):
    scn = scenarios.twisted_pair()
    w = similarity_witness(scn["p"], scn["q"], scn["c"])
    resid = np.linalg.norm(w @ scn["p"] @ np.linalg.inv(w) - scn["q"], 2)
    assert resid < 1e-8


def test_similarity_witness_rejects_distinct_classes():
    scn = scenarios.twisted_pair()
    with pytest.raises(NotEquivalent):
        similarity_witness(scn["p"], np.zeros((4, 4), dtype=complex), scn["c"])


def test_path_to_similarity_telescopes(rng):
    # rotate a projection through a discrete path and conjugate it back
    p0 = np.diag([1.0, 0.0]).astype(complex)
    steps = 24
    path = []
    for k in range(steps + 1):
        th = 0.4 * np.pi * k / steps
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                     dtype=complex)
        path.append(u @ p0 @ u.conj().T)
    z = path_to_similarity(path)
    assert np.linalg.norm(z @ path[0] @ np.linalg.inv(z) - path[-1], 2) < 1e-8


def test_path_to_similarity_rejects_coarse_path():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(PathTooCoarse):
        path_to_similarity([p0, u @ p0 @ u.conj().T])
