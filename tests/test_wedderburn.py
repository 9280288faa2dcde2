import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, kprod, matcore, scenarios, wedderburn
from approxk.errors import InvalidInput, NotEquivalent, PathTooCoarse
from approxk.loops import LoopElem
from approxk.matcore import matrix_unit
from approxk.subalg import Subalg, tensor_with_full
from approxk.wedderburn import K0Vec, decompose, k0_class, similarity_witness

from conftest import bits, dense_path_to_similarity


def two_block_alg():
    basis = [np.kron(matrix_unit(2, i, j), np.eye(2)) for i in range(2)
             for j in range(2)]
    return Subalg(4, basis)


def test_decompose_matrix_factor():
    w = decompose(two_block_alg())
    assert w.blocks == [(2, 2)]


def test_decompose_two_point_center():
    scn = scenarios.twisted_pair()
    w = decompose(boundary.Pair(scn["c"], scn["d"]).inter.alg)
    assert sorted(w.blocks) == [(1, 2), (1, 2)]
    # central projections sum to the unit of the algebra
    total = sum(w.central_projections)
    assert np.allclose(total, np.eye(4))


def test_decompose_tensored_block_pair_in_bounded_memory():
    # the center's QR fold never builds the dim * N^2 x dim commutator
    # matrix; a full SVD of it would build a U of side dim * N^2 (over 300 MB)
    c2 = tensor_with_full(scenarios.block_ideal_pair()["c"], 2)
    tracemalloc.start()
    try:
        w = decompose(c2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.blocks == [(4, 1), (4, 1)]
    assert peak < 50e6


def test_decompose_chained_tensor_in_a_few_megabytes():
    # the N = 24, dim 72 chain (C cap D (x) M_2) (x) M_3 of twisted_pair: its
    # commutator matrix holds 72^2 24^2 entries (48 MB), which the center's
    # QR fold never builds
    scn = scenarios.twisted_pair()
    chained = tensor_with_full(tensor_with_full(boundary.Pair(scn["c"], scn["d"]).inter.alg,
                                                2), 3)
    tracemalloc.start()
    try:
        w = decompose(chained)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.blocks == [(6, 2), (6, 2)]
    assert peak < 10e6


def dense_commutator(s):
    """The dim N^2 x dim commutator matrix of S, column k holding [b_k, b]
    for every basis element b: the matrix that the center's QR fold takes
    the R factor of."""
    basis = s.basis
    return np.array([np.concatenate([(bk @ b - b @ bk).ravel() for b in basis])
                     for bk in basis]).T


def dense_center_basis(s):
    """The center of S from the null space of the dense commutator matrix:
    the reference for wedderburn._center_basis."""
    rel = s.tol.rank_rel_tol
    _, null = matcore.rank_split(dense_commutator(s), rel, floor=rel)
    return [sum(ci * bi for ci, bi in zip(c, s.basis)) for c in null]


def block_algebra(n, blocks, u):
    """The algebra of M_n that holds M_d (x) 1_k for each (d, k) of blocks,
    on consecutive diagonal corners, conjugated by the unitary u."""
    basis, at = [], 0
    for d, k in blocks:
        for i in range(d):
            for j in range(d):
                b = np.zeros((n, n), dtype=complex)
                b[at:at + d * k, at:at + d * k] = np.kron(matrix_unit(d, i, j), np.eye(k))
                basis.append(u @ b @ u.conj().T)
        at += d * k
    return Subalg(n, basis)


@st.composite
def block_algebras(draw):
    """Block algebras of M_n (n <= 6), possibly non-unital, moved by a
    random unitary."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1,
                           max_size=3).filter(lambda bs: sum(d * k for d, k in bs) <= 6))
    n = draw(st.integers(sum(d * k for d, k in blocks), 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return block_algebra(n, blocks, scenarios.random_unitary(n, rng))


def assert_center_matches_dense(s):
    """The center from the QR fold has the dense null space's dimension, its
    R the dense matrix's singular values, and decompose gives the same data
    from either."""
    real, folds = matcore.rank_split, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "rank_split", lambda a, *args, **kw: folds.append(a) or real(
            a, *args, **kw))
        center = wedderburn._center_basis(s)
    assert folds[0].shape == (s.dim, s.dim)
    assert len(center) == len(dense_center_basis(s))
    got = np.linalg.svd(folds[0], compute_uv=False)
    want = np.linalg.svd(dense_commutator(s), compute_uv=False)
    assert np.abs(got - want).max() <= 1e-12 * max(want[0], 1.0)
    w = decompose(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wedderburn, "_center_basis", dense_center_basis)
        assert_same_data(w, decompose(s))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["twisted_pair", "block_pair"])
def test_center_from_the_qr_fold_matches_the_dense_null_space(kind, m):
    # C, D and C cap D, and their tensors with M_2
    for alg in _pair_algebras(kind):
        assert_center_matches_dense(alg if m == 1 else tensor_with_full(alg, m))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(s=block_algebras())
def test_center_of_block_algebras_matches_the_dense_null_space(s):
    assert_center_matches_dense(s)


def test_decompose_invariant_under_conjugation(rng):
    base = scenarios.twisted_pair()
    for i in range(20):
        u = scenarios.random_unitary(4, rng)
        scn = scenarios.twisted_pair(conj=u)
        assert sorted(decompose(scn["c"], seed=i).blocks) == [(2, 2)]
        inter = boundary.Pair(scn["c"], scn["d"]).inter.alg
        assert sorted(decompose(inter, seed=i).blocks) == [(1, 2), (1, 2)]
    assert sorted(decompose(base["d"]).blocks) == [(2, 2)]


def _pair_algebras(kind):
    """C, D and C cap D of a bundled matrix pair."""
    scn = scenarios.twisted_pair() if kind == "twisted_pair" else scenarios.block_ideal_pair()
    return scn["c"], scn["d"], boundary.Pair(scn["c"], scn["d"]).inter.alg


def assert_same_data(got, want):
    assert got.blocks == want.blocks
    assert len(got.central_projections) == len(want.central_projections)
    for z, z_want in zip(got.central_projections, want.central_projections):
        assert np.abs(z - z_want).max() < 1e-12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["twisted_pair", "block_pair"])
def test_tensored_data_derive_from_the_base(kind, m, count_calls):
    # S (x) M_m reads its blocks (d_i m, m_i) and projections z_i (x) 1_m off
    # S's data, in the order that decomposing S (x) M_m gives
    algs = _pair_algebras(kind)
    bases = [alg.wedderburn for alg in algs]
    calls = count_calls("decompose", wedderburn)
    for alg, base in zip(algs, bases):
        tensored = tensor_with_full(alg, m)
        derived = tensored.wedderburn
        assert derived.algebra is tensored
        assert derived.blocks == [(d * m, k) for d, k in base.blocks]
        assert_same_data(derived, decompose(tensor_with_full(alg, m)))
    assert calls == []


def test_chained_tensored_data_derive_through_each_base():
    # (S (x) M_2) (x) M_3 derives through S (x) M_2.  S = span{e_11, e_22 +
    # e_33} has two blocks of unequal trace; decomposing its chain (ambient
    # 18, dim 72) takes about 0.2 s and peaks near 1 MB
    s = Subalg(3, [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
    inner = tensor_with_full(s, 2)
    chained = tensor_with_full(inner, 3)
    assert chained.tensor_of == (inner, 3) and inner.tensor_of == (s, 2)
    assert chained.wedderburn.blocks == [(6, 2), (6, 1)]
    assert_same_data(chained.wedderburn, decompose(chained))


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from(["rank1", "full"]))
def test_tensored_lift_class_reads_the_same_against_derived_data(seed, p):
    # the tensored lift of a product row, over a twisted_pair conjugate,
    # takes its boundary class against the derived data; against each
    # algebra's decomposition it reads the same, exactness check included
    cert = _scenario_lift("twisted_pair", np.random.default_rng(seed))
    proj = np.diag([1.0, 1.0 if p == "full" else 0.0]).astype(complex)
    cert2 = kprod.boundary_product_check(cert, proj, 2).tensored_cert
    derived = boundary.boundary_class(dataclasses.replace(cert2))
    for side in (cert2.pair.c, cert2.pair.d, cert2.pair.inter):
        assert side.alg.tensor_of is not None
        side.alg.wedderburn = decompose(side.alg)
    assert boundary.boundary_class(dataclasses.replace(cert2)) == derived


def _scenario_lift(kind, rng):
    """A lift over a twisted_pair conjugate, or an exact block_pair lift."""
    if kind == "twisted_pair":
        scn = scenarios.twisted_pair(conj=scenarios.random_unitary(4, rng))
        return boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])[2]
    scn = scenarios.block_ideal_pair()
    u = np.zeros((6, 6), dtype=complex)
    for b in range(3):
        u[2 * b:2 * b + 2, 2 * b:2 * b + 2] = scenarios.random_unitary(2, rng)
    h = np.diag([1.0, 1.0, 0.5, 0.5, 0.0, 0.0]).astype(complex)
    return boundary.build_lift_v(u, h, scn["c"], scn["d"])[1]


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(kind=st.sampled_from(["twisted_pair", "block_pair"]),
       seed=st.integers(0, 2**32 - 1))
def test_held_wedderburn_data_do_not_depend_on_the_seed(kind, seed):
    # Subalg.wedderburn decomposes at one seed; every seed gives the same
    # blocks in the same order, and the lift's boundary class, exactness
    # check included, reads the same against the data of any seed.  The lift
    # holds its class, so each class is taken from a fresh holder, which
    # reads the data again
    cert = _scenario_lift(kind, np.random.default_rng(seed))
    held = boundary.boundary_class(dataclasses.replace(cert))
    algs = [side.alg for side in (cert.pair.c, cert.pair.d, cert.pair.inter)]
    held_data = [alg.wedderburn for alg in algs]
    for k in range(5):
        for alg, held_w in zip(algs, held_data):
            w = decompose(alg, seed=k)
            assert w.blocks == held_w.blocks
            for z, z_held in zip(w.central_projections, held_w.central_projections):
                assert np.linalg.norm(z - z_held, 2) < 1e-8
            # the instance's own attribute overrides the cached property
            alg.wedderburn = w
        assert boundary.boundary_class(dataclasses.replace(cert)) == held


def test_k0_class_counts_normalized_ranks():
    scn = scenarios.twisted_pair()
    w = decompose(boundary.Pair(scn["c"], scn["d"]).inter.alg)
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
    w, w_inv = similarity_witness(scn["p"], scn["q"], scn["c"])
    assert np.linalg.norm(w @ w_inv - np.eye(4), 2) < 1e-12
    resid = np.linalg.norm(w @ scn["p"] @ w_inv - scn["q"], 2)
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
    z = dense_path_to_similarity(path)
    assert np.linalg.norm(z @ path[0] @ np.linalg.inv(z) - path[-1], 2) < 1e-8


def test_path_to_similarity_rejects_coarse_path():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(PathTooCoarse):
        dense_path_to_similarity([p0, u @ p0 @ u.conj().T])


def plane_rotation(i, j, th, n=3):
    u = np.eye(n, dtype=complex)
    u[i, i] = u[j, j] = np.cos(th)
    u[i, j], u[j, i] = -np.sin(th), np.sin(th)
    return u


def test_path_to_similarity_telescopes_in_path_order():
    # a turn in the (0, 1) plane, then one in the (1, 2) plane: the step
    # factors do not commute, so z = z_n ... z_1 conjugates e_0 to e_n and
    # the product taken the other way round leaves a residual of about 0.04
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    path = [plane_rotation(0, 1, th) @ p0 @ plane_rotation(0, 1, th).T
            for th in np.linspace(0.0, 0.5, 13)]
    path += [plane_rotation(1, 2, th) @ path[-1] @ plane_rotation(1, 2, th).T
             for th in np.linspace(0.0, 0.5, 13)[1:]]
    z = dense_path_to_similarity(path)
    assert np.linalg.norm(z @ p0 @ np.linalg.inv(z) - path[-1], 2) < 1e-8


def test_path_to_similarity_multiplies_only_moved_samples():
    # samples 1 and 2 of a loop of non-orthogonal idempotents turn, the
    # others never move: z is exactly 1 on those (a step factor there would
    # only round near 1), and a repeated element leaves z bit-identical
    rng = np.random.default_rng(3)
    sim = np.eye(2) + 0.3 * rng.standard_normal((5, 2, 2))
    samples = sim @ np.diag([1.0, 0.0]) @ np.linalg.inv(sim)
    moving = np.array([False, True, True, False, False])
    turn = np.array([[1.0, -0.05], [0.05, 1.0]])
    path = [LoopElem(samples)]
    for _ in range(8):
        samples = samples.copy()
        samples[moving] = turn @ samples[moving] @ np.linalg.inv(turn)
        path.append(LoopElem(samples))
    z = dense_path_to_similarity(path)
    still = z.samples[~moving]
    assert np.array_equal(still, np.broadcast_to(np.eye(2), still.shape))
    longer = path[:4] + [LoopElem(path[3].samples.copy())] + path[4:]
    assert np.array_equal(bits(dense_path_to_similarity(longer)), bits(z))
