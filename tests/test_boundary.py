import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, funcalc, ops, scenarios
from approxk.errors import (
    ApproxKError,
    InvalidInput,
    IotaNotZero,
    NoWitness,
    NotAContraction,
    NotInvertible,
    PairNotUniform,
    PathTooCoarse,
    RoundingUnstable,
)
from approxk.loops import LoopAlg, LoopElem
from approxk.matcore import matrix_unit
from approxk.subalg import Subalg, Subspace
from approxk.wedderburn import K0Vec

from conftest import random_invertible


def block_h(middle: float = 0.5) -> np.ndarray:
    h = np.zeros((6, 6), dtype=complex)
    h[:2, :2] = np.eye(2)
    h[2:4, 2:4] = middle * np.eye(2)
    return h


def full_alg(n):
    return Subalg(n, [matrix_unit(n, i, j) for i in range(n)
                      for j in range(n)])


# ---------------------------------------------------------------------------
# contractions and ideal certificates


def test_check_contraction_guards():
    boundary.check_contraction(np.diag([0.0, 0.5, 1.0]))
    boundary.check_contraction(np.linspace(0.0, 1.0, 8))
    with pytest.raises(NotAContraction):
        boundary.check_contraction(np.diag([0.0, 1.5]))
    with pytest.raises(NotAContraction):
        boundary.check_contraction(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(NotAContraction):
        boundary.check_contraction(np.array([-0.2, 0.5]))
    with pytest.raises(NotAContraction):
        boundary.check_contraction(np.array([0.5 + 1e-12j, 0.2]))
    # a multiplier acts only on elements of its own carrier
    loop = LoopElem(np.ones((4, 2, 2)))
    with pytest.raises(InvalidInput):
        boundary.h_apply(np.eye(2), loop)
    with pytest.raises(InvalidInput):
        boundary.h_apply(np.full(4, 0.5), np.eye(2))


def test_ideal_cert_block_pair_is_exact():
    scn = scenarios.block_ideal_pair()
    cert = boundary.check_delta_ideal_structure(
        block_h(), scn["c"], scn["d"], [np.eye(6, dtype=complex)])
    assert cert.delta_level < 1e-12
    assert cert.valid_at(1e-9)


def test_ideal_cert_circle_split_is_exact():
    scn = scenarios.circle_split(grid=180)
    cert = boundary.check_delta_ideal_structure(
        scn["h"], scn["c"], scn["d"], scn["x_basis"])
    assert cert.delta_level < 1e-12


def test_ideal_cert_sees_noisy_multiplier(rng):
    scn = scenarios.block_ideal_pair()
    noise = rng.standard_normal((6, 6))
    noise = (noise + noise.T) / 2
    h = block_h().real + 1e-3 * noise / np.linalg.norm(noise, 2)
    w, vv = np.linalg.eigh(h)
    h = (vv @ np.diag(np.clip(w, 0.0, 1.0)) @ vv.conj().T).astype(complex)
    cert = boundary.check_delta_ideal_structure(
        h, scn["c"], scn["d"], [np.eye(6, dtype=complex)])
    assert 0 < cert.delta_level < 1e-2
    cert2, m_x = boundary.tensor_scale_ideal_structure(cert, 2)
    assert cert2.delta_level <= m_x * cert.delta_level + 1e-9


def test_tensor_scale_rejects_dependent_probe_basis():
    # the dual basis of [x, 2x] does not exist: its Gram matrix is singular
    scn = scenarios.block_ideal_pair()
    x = scn["c"].basis[0]
    cert = boundary.check_delta_ideal_structure(block_h(), scn["c"], scn["d"],
                                                [x, 2 * x])
    with pytest.raises(ApproxKError):
        boundary.tensor_scale_ideal_structure(cert, 2)


@pytest.mark.parametrize("basis, probes", [
    ([np.zeros((6, 6))], 50),           # no probe survives: nothing measured
    ([1e-13 * np.eye(6)], 50),
    ([np.eye(6), np.eye(12)], 50),      # summands of different sizes
    ([np.eye(6)], -1),
])
def test_ideal_cert_rejects_degenerate_probe_sets(basis, probes):
    scn = scenarios.block_ideal_pair()
    with pytest.raises(InvalidInput):
        boundary.check_delta_ideal_structure(block_h(), scn["c"], scn["d"], basis,
                                             random_probes=probes)


def test_uniformity_probe_sample_counts():
    scn = scenarios.block_ideal_pair()
    rep = boundary.uniformity_probe(scn["c"], scn["d"], sample_count=0)
    assert rep.samples == rep.ratios == [] and rep.ratio_sup == 0.0
    with pytest.raises(InvalidInput):
        boundary.uniformity_probe(scn["c"], scn["d"], sample_count=-1)


# ---------------------------------------------------------------------------
# membership sides


def membership_side(carrier, which):
    """The side of C, D or C cap D of block_pair or of circle_split's grid-16
    carrier."""
    if carrier == "matrix":
        scn = scenarios.block_ideal_pair()
    else:
        scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
    c, d = boundary.make_side(scn["c"]), boundary.make_side(scn["d"])
    return {"c": c, "d": d, "int": boundary.intersect_sides(c, d)}[which]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(carrier=st.sampled_from(["matrix", "loop"]),
       which=st.sampled_from(["c", "d", "int"]), amp=st.integers(1, 2),
       k=st.integers(1, 2), lone=st.booleans(), unitized=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_project_is_the_witness_of_nearest(carrier, which, amp, k, lone,
                                           unitized, seed):
    # over a side tensored with M_amp, on elements amplified k times more
    side = membership_side(carrier, which)
    if amp > 1:
        side = side.tensor(amp)
    x = side.random_elements(k, 3, np.random.default_rng(seed))
    if lone:
        first = ops.arr(x)[..., 0, :, :]
        x = first if carrier == "matrix" else LoopElem(first)
    got = side.project(x, unitized)
    want, _ = side.nearest(x, unitized)
    assert type(got) is type(want)
    assert ops.arr(got).shape == ops.arr(want).shape
    assert ops.arr(got).tobytes() == ops.arr(want).tobytes()


def test_rounding_that_breaks_its_bound_raises(monkeypatch):
    # e = (1 + 1e-6) (1 (+) 0) rounds to 1 (+) 0, 1e-6 away: inside the
    # Riesz bound, beyond a planted bound of 0
    side = boundary.make_side(scenarios.block_ideal_pair()["c"])
    e = (1.0 + 1e-6) * np.diag([1.0] * 6 + [0.0] * 6).astype(complex)
    assert not any(side.boundary_class(e, 6).entries)
    monkeypatch.setattr(funcalc, "riesz_bound", lambda delta, c: 0.0)
    for call in (side.boundary_class, side.trivializer):
        with pytest.raises(RoundingUnstable, match="beyond its bound"):
            call(e, 6)


# ---------------------------------------------------------------------------
# lifts


def test_build_lift_v_degenerations(rng):
    scn = scenarios.block_ideal_pair()
    u = random_invertible(rng, 6, spread=0.3)
    v1, _ = boundary.build_lift_v(u, np.eye(6, dtype=complex),
                                  scn["c"], scn["d"])
    assert np.linalg.norm(v1 - np.eye(12), 2) < 1e-12
    v0, _ = boundary.build_lift_v(u, np.zeros((6, 6), dtype=complex),
                                  scn["c"], scn["d"])
    target = ops.oplus(u, np.linalg.inv(u))
    assert np.linalg.norm(v0 - target, 2) < 1e-12


def test_check_inv_cut_bound(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        u = random_invertible(rng, n, spread=0.4)
        h = np.diag(rng.uniform(0.0, 1.0, n)).astype(complex)
        measured, bound = boundary.check_inv_cut(u, h)
        assert measured <= bound + 1e-12


def test_loop_lift_is_exact_and_boundary_trivial():
    scn = scenarios.circle_split(grid=180)
    v, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    assert cert.delta_level < 1e-12
    assert cert.aug_diff == 0
    assert boundary.boundary_class(cert).entries == ()


# ---------------------------------------------------------------------------
# boundary classes over the twisted pair


def test_iota_lift_boundary_class():
    scn = scenarios.twisted_pair()
    u, v, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    assert cert.valid_at(1e-9)
    cls = boundary.boundary_class(cert)
    assert cls.entries == (1, -1)
    inv = boundary.boundary_class(boundary.inverse_lift(cert))
    assert inv.entries == (-1, 1)


def test_iota_lift_requires_vanishing_pushforwards():
    scn = scenarios.twisted_pair()
    zero = np.zeros((4, 4), dtype=complex)
    with pytest.raises(IotaNotZero):
        boundary.iota_lift(scn["p"], zero, scn["c"], scn["d"])


def test_boxplus_adds_classes():
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    u2, v2, cert2 = boundary.boxplus([cert, cert])
    assert cert2.valid_at(1e-9)
    assert boundary.boundary_class(cert2).entries == (2, -2)
    p = boundary.boxplus_permutation([4, 4])
    # the tops of both lifts first, then their bottoms
    assert p.tolist() == [0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15]
    s = np.eye(16)[p]
    assert np.array_equal(v2, s @ ops.oplus(cert.v, cert.v) @ s.T)


# ---------------------------------------------------------------------------
# sigma witnesses


def test_sigma_witness_circle_split():
    scn = scenarios.circle_split(grid=360)
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    wit = boundary.sigma_witness(cert, eps=0.05)
    assert max(wit.residual_c, wit.residual_d) <= 0.05
    assert wit.offdiag < 1e-9


def test_sigma_witness_refuses_nontrivial_class():
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    with pytest.raises(NoWitness):
        boundary.sigma_witness(cert, eps=0.5)


# ---------------------------------------------------------------------------
# homotopy discretization and Whitehead splittings


def test_discretize_homotopy_exponential_path(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    z = 0.5 * z / np.linalg.norm(z, 2)
    import scipy.linalg

    path = [scipy.linalg.expm((1.0 - t) * z) for t in np.linspace(0, 1, 51)]
    a, b, defect = boundary.discretize_homotopy(path)
    assert defect <= 0.5 * max(np.linalg.norm(np.linalg.inv(p), 2)
                               for p in path)
    assert a.shape[0] == 50 * 3
    assert b.shape[0] == 51 * 3


def test_discretize_homotopy_rejects_coarse_path():
    u = np.diag([-1.0, 1.0]).astype(complex)
    with pytest.raises(PathTooCoarse):
        boundary.discretize_homotopy([u, np.eye(2, dtype=complex)])


def test_whitehead_split_full_algebra(rng):
    alg = full_alg(3)
    a = random_invertible(rng, 3, spread=0.4)
    cert = boundary.whitehead_split(a, np.eye(3, dtype=complex), alg, alg)
    assert cert.product_residual < 1e-10
    assert cert.endpoint_residual == 0.0
    assert cert.membership_c < 1e-12 and cert.membership_d < 1e-12
    assert cert.norm_max <= cert.norm_bound


def test_whitehead_split_circle(rng):
    scn = scenarios.circle_split(grid=360)
    cert = boundary.whitehead_split(scn["u_c"], scn["h"], scn["c"], scn["d"])
    assert cert.product_residual < 1e-10
    assert cert.endpoint_residual == 0.0
    assert max(cert.membership_c, cert.membership_d) <= 0.1
    assert cert.norm_max <= cert.norm_bound


def test_whitehead_split_memory_lean_mode(rng):
    alg = full_alg(2)
    a = random_invertible(rng, 2, spread=0.3)
    cert = boundary.whitehead_split(a, np.eye(2, dtype=complex), alg, alg,
                                    keep_paths=False, t_steps=16)
    assert len(cert.vc_path) == 2 and len(cert.vd_path) == 2
    assert cert.product_residual < 1e-10


# ---------------------------------------------------------------------------
# sigma reconstruction


def test_sigma_reconstruct_trivial_matrix_case():
    scn = scenarios.block_ideal_pair()
    one = np.eye(6, dtype=complex)
    rec = boundary.sigma_reconstruct([one, one, one], one, one, block_h(),
                                     scn["c"], scn["d"])
    assert rec.achieved == 0.0
    assert np.linalg.norm(np.asarray(rec.x) - np.eye(rec.x.shape[0]), 2) == 0.0


def test_sigma_reconstruct_flags_strictly_nonuniform_pair():
    hp = scenarios.hereditary_pair(0.3)
    th = 0.3
    qv = np.zeros((4, 2), dtype=complex)
    qv[:, 0] = [np.cos(th), 0, np.sin(th), 0]
    qv[:, 1] = [0, np.cos(th), 0, np.sin(th)]
    q = qv @ qv.conj().T
    u_c = np.eye(4) + 0.05 * np.diag([1.0, 0, 0, 0])
    u_d = np.eye(4) + 0.05 * (q @ np.diag([1.0, 0, 0, 0]) @ q)
    u = u_c @ u_d
    h = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    path = [(1 - t) * u + t * np.eye(4) for t in np.linspace(0, 1, 5)]
    # the trivial intersection cannot jointly approximate both residuals at
    # constant 1; the default constant 3 would let this pair through
    with pytest.raises(PairNotUniform):
        boundary.sigma_reconstruct(path, u_c, u_d, h, hp["c"], hp["d"],
                                   uniform_constant=1.0)


def test_sigma_reconstruct_circle_heavy():
    # full pipeline on the loop carrier; the wide overlap gives the
    # intersection enough room and the fine path keeps the homotopy margin
    scn = scenarios.circle_split(grid=48, overlap=0.25 * np.pi)
    path = scenarios.circle_split_homotopy(scn, steps=128)
    rec = boundary.sigma_reconstruct(path, scn["u_c"], scn["u_d"], scn["h"],
                                     scn["c"], scn["d"], whitehead_t_steps=1)
    assert rec.windings == (1, 1, -1)
    assert rec.achieved <= 3.0 * rec.gap + 1e-6


# ---------------------------------------------------------------------------
# uniformity probing


def test_uniformity_probe_ideal_pair():
    scn = scenarios.block_ideal_pair()
    rep = boundary.uniformity_probe(scn["c"], scn["d"], sample_count=20)
    assert len(rep.samples) == 20 * 3
    assert rep.b_dims == (1, 2, 3)
    assert rep.ratio_sup <= 1.5


def test_uniformity_probe_separates_hereditary_angles():
    sups = []
    for theta in (0.3, 0.1, 0.03):
        scn = scenarios.hereditary_pair(theta)
        rep = boundary.uniformity_probe(scn["c"], scn["d"], sample_count=20)
        sups.append(rep.ratio_sup)
    assert sups[0] < sups[1] < sups[2]
    assert sups[2] > 3.0


# ---------------------------------------------------------------------------
# the inverse guard: near-singular inputs on every carrier


def near_singular(rng, n, s):
    """U diag(1, ..., 1, s) V* with random unitaries U, V: kappa_2 = 1/s."""
    def unitary():
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]
    d = np.ones(n)
    d[-1] = s
    return (unitary() * d) @ np.conj(unitary()).T


def near_singular_element(carrier, rng, n, s):
    """(u, h, c, d): a matrix, a grid-16 loop or an (m, n, n) stack over
    matrices with one near-singular matrix, and a multiplier and algebras
    on its carrier."""
    if carrier == "loop":
        z = rng.standard_normal((16, n, n)) + 1j * rng.standard_normal((16, n, n))
        z /= np.linalg.norm(z, 2, axis=(1, 2), keepdims=True)
        samples = np.eye(n) + 0.3 * z
        samples[rng.integers(16)] = near_singular(rng, n, s)
        alg = LoopAlg(16, n)
        return LoopElem(samples), np.full(16, 0.5), alg, alg
    alg = Subalg(n, [np.eye(n)])
    h = 0.5 * np.eye(n)
    if carrier == "matrix":
        return near_singular(rng, n, s), h, alg, alg
    summands = np.stack([random_invertible(rng, n, 0.3) for _ in range(3)])
    summands[rng.integers(3)] = near_singular(rng, n, s)
    return ops.Stack(summands), h, alg, alg


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(carrier=st.sampled_from(["matrix", "loop", "stack"]), n=st.integers(2, 6),
       s=st.sampled_from([0.0, 1e-14, 1e-17]), seed=st.integers(0, 2**32 - 1))
def test_near_singular_inputs_raise_not_invertible(carrier, n, s, seed):
    """Every inverse is guarded: a near-singular input raises NotInvertible
    from ops.inv, and an ApproxKError (never numpy's LinAlgError) from the
    constructions that invert it."""
    u, h, c, d = near_singular_element(carrier, np.random.default_rng(seed), n, s)
    with pytest.raises(NotInvertible):
        ops.inv(u)
    calls = [lambda: boundary.whitehead_split(u, h, c, d)]
    if carrier != "stack":
        one = ops.eye_like(u)
        path = [ops.scal(1.0 - t, u) + ops.scal(t, one)
                for t in np.linspace(0.0, 1.0, 6)]
        calls += [
            lambda: boundary.check_inv_cut(u, h),
            lambda: boundary.build_lift_v(u, h, c, d),
            lambda: boundary.certify_lift(one, ops.oplus(u, one), c, d),
            lambda: boundary.discretize_homotopy(path),
        ]
    if carrier == "matrix":
        calls.append(lambda: funcalc.round_invertible_in(u, Subspace(n, [np.eye(n)])))
    if carrier == "loop":
        calls.append(u.inv)
    for call in calls:
        with pytest.raises(ApproxKError):
            call()
