import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, kprod, matcore, ops, scenarios, wedderburn
from approxk.errors import InvalidInput, NotEquivalent, PathTooCoarse
from approxk.loops import LoopElem
from approxk.matcore import DEFAULT_TOL, Tol, matrix_unit
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


def test_path_to_similarity_rejects_mixed_sizes():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(InvalidInput):
        path_to_similarity([p0, np.diag([1.0, 0.0, 0.0])])
    with pytest.raises(InvalidInput):
        path_to_similarity([LoopElem.constant(p0, 4), LoopElem.constant(p0, 5)])


# ---------------------------------------------------------------------------
# path_to_similarity against the full sup-norms and products it replaced


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(ops.arr(x)).view(np.uint64)


def moved_samples(prev, cur) -> np.ndarray:
    """Where cur's matrix differs from prev's in some bit, per sample of a
    loop; a 0-d flag for a lone matrix."""
    return np.any(bits(prev) != bits(cur), axis=(-2, -1))


def dense_path_to_similarity(e_path, tol: Tol = DEFAULT_TOL):
    """Telescoping conjugator along a discrete path of idempotents.

    Each step uses z_i = ((2 e_{i+1} - 1)(2 e_i - 1) + 1) / 2, which is
    invertible when the step size beats 1 / (2 max ||2 e_i - 1||).  A step
    multiplies z by z_i on the samples it moves, where e_{i+1} differs from
    e_i in some bit, and keeps z on the others.
    """
    path = list(e_path)
    if len(path) < 1:
        raise InvalidInput("empty idempotent path")
    bound = max(ops.norm(ops.scal(2.0, e) - ops.eye_like(e)) for e in path)
    limit = 1.0 / (2.0 * max(bound, 1e-12))
    z = ops.eye_like(path[0])
    for i in range(len(path) - 1):
        step = ops.norm(path[i + 1] - path[i])
        if step >= limit:
            raise PathTooCoarse(i, f"step {step:.3e} >= {limit:.3e} at index {i}")
        sym_next = ops.scal(2.0, path[i + 1]) - ops.eye_like(path[i + 1])
        sym_cur = ops.scal(2.0, path[i]) - ops.eye_like(path[i])
        zi = ops.scal(0.5, sym_next @ sym_cur + ops.eye_like(path[i]))
        moved = moved_samples(path[i], path[i + 1])[..., None, None]
        z = ops.like(z, np.where(moved, ops.arr(zi @ z), ops.arr(z)))
    resid = ops.norm(z @ path[0] @ ops.inv(z) - path[-1])
    if resid > 1e-6:
        raise PathTooCoarse(len(path) - 1,
                            f"telescoped conjugation residual {resid:.3e} > 1e-6")
    return z


# how each element of a drawn path comes from the one before it
MOVES = ("stay", "turn", "jump", "nudge", "retract", "restart")


@st.composite
def idempotent_paths(draw):
    """A path of idempotents on the matrix carrier or on a loop carrier of a
    few samples.  Each element keeps the previous one's samples except where
    its move changes them: a small similarity of some samples, which changes
    their ||2e - 1||; a rotation large enough to fail the step check; a
    change of one entry only; copying one sample onto others (the arc
    retraction's repeated samples); or a return to the first element."""
    loop = draw(st.booleans())
    grid = draw(st.integers(1, 6)) if loop else 1
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sim = np.eye(d) + 0.3 * rng.standard_normal((grid, d, d))
    lam = np.diag(rng.integers(0, 2, d)).astype(complex)
    first = sim @ lam @ np.linalg.inv(sim)
    if not draw(st.booleans()):
        # no longer idempotent: the telescoped residual check may fail
        first = first + 0.05 * rng.standard_normal(first.shape)
    gen = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gen = gen / np.linalg.norm(gen, 2)
    w, v = np.linalg.eigh(1.5 * (gen + gen.conj().T))
    big_turn = (v * np.exp(1j * w)) @ v.conj().T
    samples, path = first, [first]
    for move in draw(st.lists(st.sampled_from(MOVES), max_size=10)):
        samples = samples.copy()
        which = np.array(draw(st.lists(st.booleans(), min_size=grid, max_size=grid)))
        if move == "turn":
            u = np.eye(d) + draw(st.floats(0.01, 0.2)) * gen
            samples[which] = u @ samples[which] @ np.linalg.inv(u)
        elif move == "jump":
            samples[which] = big_turn @ samples[which] @ big_turn.conj().T
        elif move == "nudge":
            samples[which, -1, -1] += draw(st.floats(0.01, 2.0))
        elif move == "retract":
            samples[which] = samples[draw(st.integers(0, grid - 1))]
        elif move == "restart":
            samples = first.copy()
        path.append(samples)
    if loop:
        return [LoopElem(a) for a in path]
    return [a[0] for a in path]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(idempotent_paths())
def test_path_to_similarity_matches_dense_reference(path):
    # z bit for bit, or the same PathTooCoarse: same index, same message
    def outcome(fn):
        try:
            return fn(path)
        except PathTooCoarse as err:
            return err.index, str(err)

    got, want = outcome(path_to_similarity), outcome(dense_path_to_similarity)
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    assert np.array_equal(bits(got), bits(want))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(idempotent_paths(), st.data())
def test_path_to_similarity_multiplies_only_moved_samples(path, data):
    # a repeated element moves no sample, so it leaves z bit-identical; a
    # sample that no step moves gets exactly the identity
    at = data.draw(st.integers(0, len(path) - 1))
    again = ops.like(path[at], ops.arr(path[at]).copy())
    longer = path[:at + 1] + [again] + path[at + 1:]
    try:
        want = path_to_similarity(path)
    except PathTooCoarse:
        with pytest.raises(PathTooCoarse):
            path_to_similarity(longer)
        return
    assert np.array_equal(bits(path_to_similarity(longer)), bits(want))
    z = ops.arr(want)
    still = np.ones(z.shape[:-2], dtype=bool)
    for a, b in zip(path, path[1:]):
        still &= ~moved_samples(a, b)
    assert np.array_equal(z[still], np.broadcast_to(np.eye(z.shape[-1]), z[still].shape))
