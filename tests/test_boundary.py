import dataclasses
import inspect
import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, cli, funcalc, kprod, matcore, ops, scenarios, subalg, wedderburn
from approxk.errors import (
    AmbiguousIntersection,
    ApproxKError,
    DefectTooLarge,
    ExactnessViolation,
    InvalidInput,
    IotaNotZero,
    NotAClass,
    NoWitness,
    NotAContraction,
    NotInvertible,
    PairNotUniform,
    PathTooCoarse,
    ReconstructionFailed,
    RoundingUnstable,
)
from approxk.loops import LoopAlg, LoopElem
from approxk.matcore import Tol, matrix_unit
from approxk.subalg import Subalg
from approxk.wedderburn import K0Vec

from conftest import band, corner_pair, random_invertible


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
    # a profile or a stack is checked for non-finite entries, as a matrix is
    for bad in (np.full(16, np.nan), np.r_[0.5, np.inf], np.full((3, 2, 2), np.nan)):
        with pytest.raises(InvalidInput, match="non-finite"):
            boundary.check_contraction(bad)
    # a multiplier acts only on elements of its own carrier
    loop = LoopElem(np.ones((4, 2, 2)))
    with pytest.raises(InvalidInput):
        boundary.h_apply(np.eye(2), loop)
    with pytest.raises(InvalidInput):
        boundary.h_apply(np.full(4, 0.5), np.eye(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [1e308, -1e308, np.finfo(float).max])
def test_check_contraction_reads_a_huge_spectrum(big):
    # h + h* overflows to inf for |h| above half the largest float; the
    # Hermitian part h / 2 + h* / 2 does not, so the spectrum is read
    for h in (np.diag([0.5, big]), np.array([0.5, big])):
        with pytest.raises(NotAContraction, match="spectrum"):
            boundary.check_contraction(h)


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


def test_tensor_scaling_takes_no_svd_at_gram_sides(rng, count_calls):
    # the perfbench matrix_corpus recipe: a noisy multiplier, one random
    # near-identity probe and 5 random probes, tensored with M_2; its
    # residual stacks are 12 x 12, at the Gram crossover
    assert matcore.GRAM_SIDE <= 12
    noise = rng.standard_normal((6, 6))
    noise = (noise + noise.T) / 2
    h = block_h().real + 1e-3 * noise / np.linalg.norm(noise, 2)
    w, vv = np.linalg.eigh(h)
    h = (vv @ np.diag(np.clip(w, 0.0, 1.0)) @ vv.conj().T).astype(complex)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = np.eye(6) + 0.2 * g / np.linalg.norm(g, 2)
    scn = scenarios.block_ideal_pair()
    cert = boundary.check_delta_ideal_structure(h, scn["c"], scn["d"], [x], seed=1,
                                                random_probes=5)
    svds = count_calls("svd", np.linalg)
    eigs = count_calls("eigvalsh", np.linalg)
    cert2, m_x = boundary.tensor_scale_ideal_structure(cert, 2)
    assert cert2.delta_level <= m_x * cert.delta_level + 1e-9
    assert svds and all(min(np.shape(a)[-2:]) < matcore.GRAM_SIDE for a, *_ in svds)
    assert any(np.shape(a)[:-2] == (54,) and np.shape(a)[-1] == 12 for a, *_ in eigs)


def test_tensored_suprema_eigensolve_one_matrix(rng, count_calls, monkeypatch):
    # the matrix_corpus recipe tensored with M_2: each of the five suprema
    # over the 54 probes of side 12 eigensolves its candidate alone, and one
    # Cholesky certifies the other 53, whose norms tie with it by
    # construction (eigensolving all of them took 54 per supremum)
    noise = rng.standard_normal((6, 6))
    noise = (noise + noise.T) / 2
    h = block_h().real + 1e-3 * noise / np.linalg.norm(noise, 2)
    w, vv = np.linalg.eigh(h)
    h = (vv @ np.diag(np.clip(w, 0.0, 1.0)) @ vv.conj().T).astype(complex)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    x = np.eye(6) + 0.2 * g / np.linalg.norm(g, 2)
    scn = scenarios.block_ideal_pair()
    cert = boundary.check_delta_ideal_structure(h, scn["c"], scn["d"], [x], seed=1,
                                                random_probes=5)
    eigs = count_calls("eigvalsh", np.linalg)
    real = matcore.sup_norm
    solved = []

    def counted(a):
        before = len(eigs)
        out = real(a)
        solved.append((np.shape(a), sum(np.prod(np.shape(e)[:-2]) for e, *_ in eigs[before:])))
        return out

    monkeypatch.setattr(matcore, "sup_norm", counted)
    cert2 = boundary.check_delta_ideal_structure(
        np.kron(h, np.eye(2)), cert.pair.tensor(2), None,
        [np.kron(x, matrix_unit(2, i, j)) for i in range(2) for j in range(2)], seed=1)
    assert 0 < cert2.delta_level
    assert [n for shape, n in solved if shape == (54, 12, 12)] == [1] * 5
    assert all(n <= 1 for _, n in solved)


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
    for bad in (dict(sample_count=-1), dict(sample_count=2.5), dict(b_dims=(0,)),
                dict(b_dims=(1.5,))):
        with pytest.raises(InvalidInput):
            boundary.uniformity_probe(scn["c"], scn["d"], **bad)


# ---------------------------------------------------------------------------
# membership sides


def membership_side(carrier, which):
    """The side of C, D or C cap D of block_pair or of circle_split's grid-16
    carrier."""
    if carrier == "matrix":
        scn = scenarios.block_ideal_pair()
    else:
        scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
    pair = boundary.Pair(scn["c"], scn["d"])
    return {"c": pair.c, "d": pair.d, "int": pair.inter}[which]


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
    assert not any(side.boundary_class(side.trivialize(e), 6).entries)
    monkeypatch.setattr(funcalc, "riesz_bound", lambda delta, c: 0.0)
    with pytest.raises(RoundingUnstable, match="beyond its bound"):
        side.trivialize(e)


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


def _inv_cut_one_norm_at_a_time(u, h):
    # check_inv_cut as it read with one ops.norm per matrix
    one = ops.eye_like(u)
    y, z = u - one, ops.inv(u) - one
    hbar = boundary.h_one_minus(h)
    a = one + boundary.h_apply(hbar, y, "left")
    b = one + boundary.h_apply(hbar, z, "right")
    target = boundary.h_apply(boundary.h_prod(h, hbar), y + z, "right")
    measured = max(ops.norm(a @ b - one - target), ops.norm(b @ a - one - target))
    cc = max(ops.norm(y), ops.norm(z))
    comm = max([ops.norm(boundary.h_apply(h, w, "left") - boundary.h_apply(h, w, "right"))
                / ops.norm(w) for w in (y, z) if ops.norm(w) > 1e-14], default=0.0)
    return measured, 2.0 * (cc * cc + cc) * comm


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_inv_cut_matches_one_norm_at_a_time(n, seed):
    rng = np.random.default_rng(seed)
    u = random_invertible(rng, n, spread=0.4)
    h = np.diag(rng.uniform(0.0, 1.0, n)).astype(complex)
    assert boundary.check_inv_cut(u, h) == _inv_cut_one_norm_at_a_time(u, h)


@pytest.mark.parametrize("fiber", [1, 2])
def test_loop_inv_cut_matches_one_norm_at_a_time(fiber):
    # the sup over samples of each stacked norm, from the 1 x 1 and the
    # 2 x 2 closed form
    scn = scenarios.circle_split(grid=64, fiber=fiber)
    assert (boundary.check_inv_cut(scn["u"], scn["h"])
            == _inv_cut_one_norm_at_a_time(scn["u"], scn["h"]))


def test_generic_loop_inv_cut_matches_one_norm_at_a_time(rng):
    # a loop of generic 2 x 2 samples, whose products by matcore.matmul and
    # by numpy's @ differ in the last bits: check_inv_cut takes the loop
    # carrier's product, as LoopElem's @ does
    g = rng.standard_normal((32, 2, 2)) + 1j * rng.standard_normal((32, 2, 2))
    u = LoopElem(np.eye(2) + 0.3 * g / np.linalg.norm(g, 2, axis=(-2, -1), keepdims=True))
    h = rng.uniform(0.0, 1.0, 32)
    assert boundary.check_inv_cut(u, h) == _inv_cut_one_norm_at_a_time(u, h)


def test_inv_cut_takes_its_norms_in_one_call(rng, count_calls):
    calls = count_calls("op_norms", matcore)
    boundary.check_inv_cut(random_invertible(rng, 4, spread=0.4), block_h()[:4, :4])
    assert len(calls) == 1


def test_inv_cut_validates_its_inputs_once(rng, count_calls):
    # u by ops.arr, the one matcore.as_matrix call, and h by _multiplier,
    # whose as_matrix is boundary's
    arr_calls = count_calls("as_matrix", matcore)
    own_calls = count_calls("as_matrix", boundary)
    mult_calls = count_calls("_multiplier", boundary)
    boundary.check_inv_cut(random_invertible(rng, 4, spread=0.4), block_h()[:4, :4])
    assert (len(arr_calls), len(mult_calls), len(own_calls)) == (1, 1, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inv_cut_bound_of_a_large_u_that_commutes_with_h_is_zero():
    # c^2 overflows and the commutator is 0; the bound is 0, not inf * 0
    assert boundary.check_inv_cut(1e200 * np.eye(3), 0.5 * np.eye(3)) == (0.0, 0.0)


def test_loop_lift_is_exact_and_boundary_trivial():
    scn = scenarios.circle_split(grid=180)
    v, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    assert cert.delta_level < 1e-12
    assert cert.aug_diff == 0
    assert boundary.boundary_class(cert).entries == ()


def test_block_pair_exact_lift_has_no_augmentation_mismatch():
    # u is block diagonal on M_2 (+) M_2 (+) M_2, so the lift is exact; the
    # augmentation of the middle block, not trace / N, reads its scalar part
    scn = scenarios.block_ideal_pair()
    rng = np.random.default_rng(0)
    for _ in range(6):
        u = np.zeros((6, 6), dtype=complex)
        for b in range(3):
            u[2 * b:2 * b + 2, 2 * b:2 * b + 2] = scenarios.random_unitary(2, rng)
        _, cert = boundary.build_lift_v(u, block_h(), scn["c"], scn["d"])
        assert cert.delta_level < 1e-12
        assert cert.aug_diff == 0
        assert cert.valid_at(1e-9)


def test_inverses_use_the_callers_tol(rng):
    # kappa_1 is 2.44 for circle_split's lift v: a Tol that allows no
    # conditioning must stop it, and likewise the Whitehead split's a^-1
    tight = Tol(invert_cond_max=1.0 + 1e-9)
    scn = scenarios.circle_split(grid=64)
    with pytest.raises(NotInvertible):
        boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"], tight)
    blk = scenarios.block_ideal_pair()
    a = random_invertible(rng, 6, spread=0.3)
    with pytest.raises(NotInvertible):
        boundary.whitehead_split(a, block_h(), blk["c"], blk["d"], tight)


COARSE = Tol(rank_rel_tol=1e-4)


def _matrix_aug_diffs():
    # the augmentation of block_pair's middle block is 1 on the unit, so the
    # scalar part of diag(1, 1e-6) (x) 1_6 is diag(1, 1e-6)
    blk = scenarios.block_ideal_pair()
    e = np.kron(np.diag([1.0, 1e-6]), np.eye(6)).astype(complex)
    return tuple(boundary.Pair(blk["c"], blk["d"], tol).inter.aug_diff(e, 6)
                 for tol in (Tol(), COARSE))


def _loop_aug_diffs():
    scn = scenarios.circle_split(grid=16, fiber=2)
    e = LoopElem(np.tile(np.diag([1.0, 1e-6]).astype(complex), (16, 1, 1)))
    return tuple(boundary.Pair(scn["c"], scn["d"], tol).inter.aug_diff(e, 1)
                 for tol in (Tol(), COARSE))


AUG_SITES = {"MatrixSide.aug_diff": _matrix_aug_diffs, "LoopSide.aug_diff": _loop_aug_diffs}


@pytest.mark.parametrize("site", list(AUG_SITES))
def test_aug_diff_uses_the_callers_tol(site):
    # the scalar part's singular values are (1, 1e-6): rank 2 at the default
    # rank_rel_tol 1e-8, and rank 1 over a pair built at 1e-4
    assert AUG_SITES[site]() == (1, 0)


def test_tensor_scale_uses_the_certificates_tol():
    # the unit-scaled probes x and x + 1e-6 y are independent at the default
    # cut only; dependent probes have no dual basis
    blk = scenarios.block_ideal_pair()
    x, y = matrix_unit(6, 0, 0), matrix_unit(6, 1, 1)
    cert = boundary.check_delta_ideal_structure(block_h(), blk["c"], blk["d"],
                                                [x, x + 1e-6 * y])
    boundary.tensor_scale_ideal_structure(cert, 2)
    coarse = dataclasses.replace(cert, pair=boundary.Pair(blk["c"], blk["d"], COARSE))
    with pytest.raises(InvalidInput):
        boundary.tensor_scale_ideal_structure(coarse, 2)


@pytest.mark.parametrize("fn", [
    boundary.boundary_class, boundary.sigma_witness, boundary.inverse_lift,
    boundary.boxplus, kprod.boundary_product_check,
    boundary.tensor_scale_ideal_structure])
def test_derived_from_a_certificate_reads_its_tol(fn):
    # a certificate records the Tol it was measured at; what is derived
    # from it takes no second one
    assert "tol" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("carrier", ["matrix", "loop"])
def test_pair_holds_its_intersection_and_tensored_pairs(carrier, count_calls):
    # C cap D is taken once per pair; a tensored pair is built once per m,
    # and its C cap D is the base's tensored, with no intersection
    if carrier == "matrix":
        scn, owner = scenarios.twisted_pair(), subalg
    else:
        scn, owner = scenarios.circle_split(grid=16), LoopAlg
    calls = count_calls("intersect", owner)
    pair = boundary.Pair(scn["c"], scn["d"])
    assert calls == []
    assert pair.inter is pair.inter and len(calls) == 1
    two = pair.tensor(2)
    assert two is pair.tensor(2) and two is not pair.tensor(3)
    assert two.tol == pair.tol
    inter = two.inter
    assert len(calls) == 1
    if carrier == "matrix":
        assert [s.alg.tensor_of for s in (two.c, two.d, inter)] == [
            (pair.c.alg, 2), (pair.d.alg, 2), (pair.inter.alg, 2)]
        assert two.intersection_gap == 0 and len(calls) == 2
        # held: a second read takes no intersection
        assert two.intersection_gap == 0 and len(calls) == 2
    else:
        assert inter.alg.fiber_dim == 2
        assert np.array_equal(inter.alg.mask, pair.inter.alg.mask)
        # a loop pair has no principal angles to measure the identity by
        with pytest.raises(InvalidInput, match="matrix carrier"):
            pair.intersection_gap
        assert len(calls) == 1


def test_make_pair_takes_a_pair_or_two_sides():
    scn = scenarios.twisted_pair()
    pair = boundary.make_pair(scn["c"], scn["d"], Tol())
    assert isinstance(pair, boundary.Pair) and pair.tol == Tol()
    assert boundary.make_pair(pair, None, Tol()) is pair
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], pair)
    assert cert.pair is pair
    with pytest.raises(InvalidInput, match="second side"):
        boundary.make_pair(pair, scn["d"], Tol())
    with pytest.raises(InvalidInput, match="another Tol"):
        boundary.make_pair(pair, None, COARSE)
    with pytest.raises(InvalidInput, match="another Tol"):
        boundary.iota_lift(scn["p"], scn["q"], pair, tol=COARSE)
    loop = scenarios.circle_split(grid=16)
    with pytest.raises(InvalidInput, match="different carriers"):
        boundary.make_pair(scn["c"], loop["d"], Tol())
    with pytest.raises(InvalidInput, match="different carriers"):
        boundary.Pair(boundary.make_side(loop["c"]), scn["d"])
    with pytest.raises(InvalidInput):
        boundary.make_pair(scn["c"], None, Tol())


# a Tol that differs from DEFAULT_TOL in the fields the inverses and the
# membership residuals read, at which every bundled construction still runs
FINE = Tol(membership_tol=1e-10, invert_cond_max=1e11)


def test_a_held_pair_brings_its_tol():
    # a held pair needs no restated tol, and what is derived from a lift over
    # it is recertified at its Tol: the certificate holds no Tol of its own
    scn = scenarios.twisted_pair()
    pair = boundary.Pair(scn["c"], scn["d"], FINE)
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], pair)
    assert cert.pair is pair and cert.pair.tol == FINE
    assert boundary.iota_lift(scn["p"], scn["q"], pair, tol=FINE)[2].pair is pair
    inv, double = boundary.inverse_lift(cert), boundary.boxplus([cert, cert])[2]
    for derived in (inv, double):
        assert derived.pair is pair and derived.valid_at(1e-9)
    assert boundary.boundary_class(inv).entries == (-1, 1)
    assert boundary.boundary_class(double).entries == (2, -2)
    blk = scenarios.block_ideal_pair()
    ideal = boundary.check_delta_ideal_structure(
        block_h(), boundary.Pair(blk["c"], blk["d"], FINE), None, [np.eye(6, dtype=complex)])
    assert ideal.pair.tol == FINE
    assert boundary.tensor_scale_ideal_structure(ideal, 2)[0].pair.tol == FINE
    for held in (cert, ideal):
        with pytest.raises(TypeError):
            dataclasses.replace(held, tol=FINE)


def _bundled_pair(carrier, tol):
    """(scn, pair): block_pair, or circle_split's grid-16 carrier with a
    homotopy of u_C, and its pair at tol."""
    if carrier == "matrix":
        scn = scenarios.block_ideal_pair()
    else:
        scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
        scn["path"] = scenarios.circle_split_homotopy(scn, steps=96)
    return scn, boundary.Pair(scn["c"], scn["d"], tol)


def _entry_point_calls(scn, pair):
    """call(tol) for each entry point that makes a pair, called on the held
    pair with its other arguments from scn."""
    one = np.eye(6, dtype=complex)
    if isinstance(pair.c, boundary.LoopSide):
        return [
            lambda tol: boundary.build_lift_v(scn["u"], scn["h"], pair, tol=tol),
            lambda tol: boundary.sigma_reconstruct(scn["path"], scn["u_c"], scn["u_d"],
                                                   scn["h"], pair, tol=tol, whitehead_t_steps=1),
        ]
    return [
        lambda tol: boundary.check_delta_ideal_structure(block_h(), pair, None, [one], tol),
        lambda tol: boundary.certify_lift(one, np.eye(12), pair, tol=tol),
        lambda tol: boundary.build_lift_v(one, block_h(), pair, tol=tol),
        lambda tol: boundary.whitehead_split(1.1 * one, block_h(), pair, tol=tol),
        lambda tol: boundary.uniformity_probe(pair, sample_count=2, tol=tol),
    ]


@pytest.mark.parametrize("carrier", ["matrix", "loop"])
def test_entry_points_refuse_a_tol_other_than_the_pairs(carrier):
    # a held pair brings its Tol: no tol, or the pair's own, is accepted, and
    # an explicit other one is refused
    for call in _entry_point_calls(*_bundled_pair(carrier, FINE)):
        call(None)
        call(FINE)
        with pytest.raises(InvalidInput, match="another Tol"):
            call(Tol())


# the steps that read a Tol to invert, trivialize or take a class, with the
# owner each is looked up on; tensor_scale_ideal_structure reads its Tol in
# _dual_constant, the rank of its unit-scaled probes.  Riesz rounding reads
# none: its step count comes from the measured defect
TOL_STEPS = ((matcore, "invert"), (matcore, "band_invert"), (boundary, "k0_class"),
             (boundary, "arc_k0_trivialize"), (boundary, "_dual_constant"))


def _tols_reaching_steps(monkeypatch, run):
    """{step: [the Tol of each call]} over the steps of TOL_STEPS, for run()."""
    seen = {name: [] for _, name in TOL_STEPS}
    for owner, name in TOL_STEPS:
        real = getattr(owner, name)
        sig = inspect.signature(real)

        def recorded(*args, real=real, sig=sig, name=name, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen[name].append(bound.arguments["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    run()
    monkeypatch.undo()
    return seen


def _twisted_lift():
    scn = scenarios.twisted_pair()
    return boundary.iota_lift(scn["p"], scn["q"], boundary.Pair(scn["c"], scn["d"], FINE))[2]


def _loop_lift():
    scn = scenarios.circle_split(grid=64)
    return boundary.build_lift_v(scn["u"], scn["h"], boundary.Pair(scn["c"], scn["d"], FINE))[1]


def _ideal_cert():
    scn = scenarios.block_ideal_pair()
    return boundary.check_delta_ideal_structure(
        block_h(), boundary.Pair(scn["c"], scn["d"], FINE), None,
        [matrix_unit(6, 0, 0), matrix_unit(6, 2, 2)])


def _reconstruct():
    scn, pair = _bundled_pair("loop", FINE)
    return boundary.sigma_reconstruct(scn["path"], scn["u_c"], scn["u_d"], scn["h"], pair,
                                      whitehead_t_steps=1)


# each construction over a pair at FINE: what it makes (build), and what it
# then runs (run), which takes the built object
PER_STEP = {
    "iota_lift": (lambda: None, lambda _: _twisted_lift()),
    "build_lift_v": (lambda: None, lambda _: _loop_lift()),
    "boundary_class.matrix": (_twisted_lift, lambda c: c.boundary_class),
    "boundary_class.loop": (_loop_lift, lambda c: c.boundary_class),
    "inverse_lift": (_twisted_lift, boundary.inverse_lift),
    "boxplus": (_twisted_lift, lambda c: boundary.boxplus([c, c])),
    "sigma_witness": (_loop_lift, lambda c: boundary.sigma_witness(c, eps=0.05)),
    "boundary_product_check": (_twisted_lift,
                               lambda c: kprod.boundary_product_check(c, np.eye(2), 2)),
    "tensor_scale_ideal_structure": (_ideal_cert,
                                     lambda c: boundary.tensor_scale_ideal_structure(c, 2)),
    "sigma_reconstruct": (lambda: None, lambda _: _reconstruct()),
}


@pytest.mark.parametrize("name", list(PER_STEP))
def test_every_step_reads_the_pairs_tol(monkeypatch, name):
    # a pair at FINE: every inverse, trivialization and class that the
    # construction runs, and the probe rank of the tensored ideal check,
    # reads FINE, and at least one of them runs
    build, run = PER_STEP[name]
    built = build()
    seen = _tols_reaching_steps(monkeypatch, lambda: run(built))
    tols = [tol for step in seen.values() for tol in step]
    assert tols, name
    # per step: (calls at FINE, calls)
    assert all(tol == FINE for tol in tols), {k: (v.count(FINE), len(v)) for k, v in seen.items()}


def test_no_class_from_a_failing_lift():
    # the 0.2 pi twisted_pair lift, certified over the 0.3 pi pair, misses
    # D by 0.67, beyond the Riesz domain 1/16: its e has no class.  A lift
    # whose scalar ranks do not match has none either
    scn = scenarios.twisted_pair(angle=0.2 * np.pi)
    other = scenarios.twisted_pair(angle=0.3 * np.pi)
    _, _, good = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    bad = boundary.certify_lift(good.u, good.v, other["c"], other["d"])
    assert bad.residual_d > funcalc.DELTA_MAX and not bad.valid_at(1e-9)
    with pytest.raises(DefectTooLarge):
        boundary.boundary_class(bad)
    with pytest.raises(DefectTooLarge):
        boundary.sigma_witness(bad, eps=0.5)
    mismatched = dataclasses.replace(good, aug_diff=1)
    with pytest.raises(NotAClass):
        boundary.boundary_class(mismatched)
    with pytest.raises(NotAClass):
        boundary.sigma_witness(mismatched, eps=0.5)
    assert boundary.boundary_class(good).entries == (1, -1)


def test_boxplus_refuses_lifts_at_different_tols():
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    boundary.boxplus([cert, dataclasses.replace(cert)])
    coarse = dataclasses.replace(cert, pair=boundary.Pair(scn["c"], scn["d"], COARSE))
    with pytest.raises(InvalidInput, match="one Tol"):
        boundary.boxplus([cert, coarse])


def test_boxplus_refuses_lifts_over_different_algebras():
    # two twisted pairs at different angles: the block sum would be
    # certified over the first pair only.  Lifts built by separate
    # iota_lift calls on one (C, D) hold distinct Pair objects and add
    scn = scenarios.twisted_pair()
    other = scenarios.twisted_pair(angle=0.3 * np.pi)
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    _, _, again = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    _, _, apart = boundary.iota_lift(other["p"], other["q"], other["c"], other["d"])
    assert again.pair is not cert.pair
    _, _, total = boundary.boxplus([cert, again, boundary.inverse_lift(cert)])
    assert total.valid_at(1e-9)
    assert boundary.boundary_class(total).entries == (1, -1)
    with pytest.raises(InvalidInput, match="one pair"):
        boundary.boxplus([cert, apart])
    with pytest.raises(InvalidInput, match="one pair"):
        boundary.boxplus([apart, cert, cert])


def _nan_at(call, fn):
    """fn whose call-th call, counted from 1, returns NaN for its result;
    call None plants nothing."""
    count = itertools.count(1)

    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return np.nan if next(count) == call else out
    return planted


class _NaNResidualSide:
    """A membership side whose call-th membership residual is NaN."""

    def __init__(self, side, call):
        self._side = side
        self._residual = _nan_at(call, lambda r: r)

    def __getattr__(self, name):
        return getattr(self._side, name)

    def nearest(self, x, unitized=True):
        w, r = self._side.nearest(x, unitized)
        return w, self._residual(r)


def _whitehead_passes(monkeypatch, plant, call, row, field):
    # block_pair's bundled whitehead check.  _row_norms runs on vc's values
    # and vd's values in the split, then on vc's and vd's membership
    # residuals when the check first reads a membership; its rows are
    # b_0, ..., b_5 (b_0 and b_5 the samples at t = 1 and t = 0), then the
    # 31 inner samples.  The NaN lands on one row of one call, and reaches
    # the record's field that the site is named for.
    if plant:
        real = boundary._row_norms
        count = itertools.count(1)

        def planted(weights, coefs):
            rows = real(weights, coefs)
            if next(count) == call:
                rows[row] = np.nan
            return rows
        monkeypatch.setattr(boundary, "_row_norms", planted)
    scn = cli.build_scenario({"kind": "block_pair", "params": {}})
    scn["pair"] = boundary.Pair(scn["c"], scn["d"])
    rec = cli.check_whitehead(scn, 0, {"eps": 0.1})
    assert np.isnan(rec[field]) == plant
    return rec["passed"]


def _inv_cut_passes(monkeypatch, entry):
    # check_inv_cut takes its norms in one stacked call; the NaN lands on one
    # entry of it
    u = random_invertible(np.random.default_rng(5), 6, spread=0.4)
    if entry is not None:
        real = ops.summand_norms

        def planted(s):
            norms = real(s)
            norms[entry] = np.nan
            return norms
        monkeypatch.setattr(ops, "summand_norms", planted)
    measured, bound = boundary.check_inv_cut(u, block_h())
    return measured <= bound


def _band_norm_passes(monkeypatch, plant):
    # the bidiagonal band 1 + N has Gram 1-norm 4 above its top eigenvalue
    # 3.62, so its one matrix is bisected.  Planted, every factorization
    # reports a NaN factor with LAPACK's own info, as zpbtrf does on a band
    # holding a NaN, whose pivot test ajj <= 0 a NaN passes: a bisection
    # that read the info alone would return a finite top
    if plant:
        real = matcore.scipy_linalg().lapack.zpbtrf

        def planted(ab):
            factor, info = real(ab)
            return np.nan * factor, info
        monkeypatch.setattr(matcore, "scipy_linalg", lambda: types.SimpleNamespace(
            lapack=types.SimpleNamespace(zpbtrf=planted)))
    x = np.eye(4) + np.eye(4, k=1)
    return matcore.band_norm(band(x, 1, 1)) <= 1e300


def _band_norm_skip_passes(plant):
    # a stack of 1 and 1/2: the Cholesky test of 1 - G certifies the second
    # sample below the first.  Planted, the second sample holds a NaN: its
    # bound is NaN, so it is sorted after the first and never cut by that
    # bound, and zpbtrf, which may succeed on a NaN band, would drop it
    x = np.stack([np.eye(4, dtype=complex), 0.5 * np.eye(4, dtype=complex)])
    if plant:
        x[1, 2, 1] = np.nan
    return matcore.band_norm(band(x, 1, 1)) <= 1e300


def _sigma_witness_passes(plant):
    # circle_split's lift has a zero boundary class; the NaN lands on the
    # C-side residual, the second argument of the gate's maximum
    scn = scenarios.circle_split(grid=90)
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    cert.pair.c = _NaNResidualSide(cert.pair.c, 1 if plant else None)
    try:
        boundary.sigma_witness(cert, eps=0.05)
    except ReconstructionFailed:
        return False
    return True


def _class_reads(plant):
    # the NaN lands on residual_int, the last argument of delta_level's
    # maximum, which the trivialization's level gate reads
    scn = scenarios.twisted_pair()
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    if plant:
        cert = dataclasses.replace(cert, residual_int=np.nan)
    try:
        boundary.boundary_class(cert)
    except DefectTooLarge:
        return False
    return True


def _tensor_scale_passes(plant):
    # the NaN lands on the input level, which the tensored gate's budget reads
    scn = scenarios.block_ideal_pair()
    cert = boundary.check_delta_ideal_structure(block_h(), scn["c"], scn["d"],
                                                [np.eye(6, dtype=complex)])
    if plant:
        cert = dataclasses.replace(cert, measured=(0.0, np.nan, 0.0, 0.0, 0.0))
    try:
        boundary.tensor_scale_ideal_structure(cert, 2)
    except ExactnessViolation:
        return False
    return True


def _reconstruct_passes(monkeypatch, plant, site):
    # a trivial matrix reconstruction, where x = 1 and nothing else can
    # fail, for the drifts; the grid-16 loop reconstruction, where x moves,
    # for the stability of x^-1 and the winding margins.  band_norm runs for
    # the gap, then for the drifts of x from t_C and from t_D, then, on a
    # loop, for ||t_C^-1|| and ||t_D^-1||.  For the drifts the NaN lands on
    # the second argument of achieved's maximum; for the margins, on the
    # D-side margin, after the C-side margin passed
    if site == "achieved":
        one = np.eye(6, dtype=complex)
        blk = scenarios.block_ideal_pair()
        args = ([one, one, one], one, one, block_h(), blk["c"], blk["d"])
        kwargs = {}
        if plant:
            monkeypatch.setattr(matcore, "band_norm", _nan_at(3, matcore.band_norm))
    else:
        scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
        args = (scenarios.circle_split_homotopy(scn, steps=96), scn["u_c"],
                scn["u_d"], scn["h"], scn["c"], scn["d"])
        kwargs = {"whitehead_t_steps": 1}
        if plant and site == "margin":
            monkeypatch.setattr(matcore, "band_norm", _nan_at(5, matcore.band_norm))
        elif plant:
            real = matcore.band_invert

            def planted(*a, **k):
                x, resid = real(*a, **k)
                return x, np.nan * resid
            monkeypatch.setattr(matcore, "band_invert", planted)
    try:
        boundary.sigma_reconstruct(*args, **kwargs)
    except (PairNotUniform, ReconstructionFailed):
        return False
    return True


NAN_SITES = {
    "LiftCert.delta_level": lambda mp, plant: boundary.LiftCert(
        None, None, None, None, 1.0, 0.0, np.nan if plant else 0.0, 0.0, 0,
        None).valid_at(1e-9),
    "IdealCert.delta_level": lambda mp, plant: boundary.IdealCert(
        None, None, [], (0.0, np.nan if plant else 0.0, 0.0, 0.0, 0.0),
        0).valid_at(1e-9),
    # a sampled row also enters its bound, so a NaN on a sample fails the
    # gate that reads the bound
    "whitehead_split.norm_max":
        lambda mp, plant: _whitehead_passes(mp, plant, 1, 6, "norm_max"),
    "whitehead_split.norm_upper":
        lambda mp, plant: _whitehead_passes(mp, plant, 2, 2, "norm_upper"),
    "whitehead_split.mem_c":
        lambda mp, plant: _whitehead_passes(mp, plant, 3, 7, "membership_c"),
    "whitehead_split.mem_c_upper":
        lambda mp, plant: _whitehead_passes(mp, plant, 3, 3, "membership_c_upper"),
    "whitehead_split.mem_d":
        lambda mp, plant: _whitehead_passes(mp, plant, 4, 5, "membership_d"),
    "whitehead_split.mem_d_upper":
        lambda mp, plant: _whitehead_passes(mp, plant, 4, 1, "membership_d_upper"),
    # the stacked norms of check_inv_cut: ab - 1 - target and ba - 1 - target
    # for measured, ||y|| and ||z||, then the commutators of h with y and
    # with z; the NaN lands on ba - 1 - target and on the commutator with z
    "check_inv_cut.measured": lambda mp, plant: _inv_cut_passes(mp, 1 if plant else None),
    "check_inv_cut.comm": lambda mp, plant: _inv_cut_passes(mp, 5 if plant else None),
    "band_norm.top": _band_norm_passes,
    "band_norm.skip": lambda mp, plant: _band_norm_skip_passes(plant),
    "sigma_witness.residual": lambda mp, plant: _sigma_witness_passes(plant),
    "LiftCert.trivialization": lambda mp, plant: _class_reads(plant),
    "sigma_reconstruct.achieved":
        lambda mp, plant: _reconstruct_passes(mp, plant, "achieved"),
    "sigma_reconstruct.unstable":
        lambda mp, plant: _reconstruct_passes(mp, plant, "unstable"),
    "sigma_reconstruct.margin":
        lambda mp, plant: _reconstruct_passes(mp, plant, "margin"),
    "tensor_scale_ideal_structure.budget": lambda mp, plant: _tensor_scale_passes(plant),
}


@pytest.mark.parametrize("site", list(NAN_SITES))
def test_planted_nan_fails_its_gate(monkeypatch, site):
    # Python's max drops a NaN that is not its first argument, and a gate
    # x > limit passes one; each maximum keeps it, and each gate is a
    # matcore.Gate, which fails on it.  Unplanted, every site passes.
    assert NAN_SITES[site](monkeypatch, False)
    assert not NAN_SITES[site](monkeypatch, True)


# ---------------------------------------------------------------------------
# boundary classes over the twisted pair


@pytest.mark.parametrize("name", ["twisted_pair", "block_ideal_pair"])
def test_boundary_class_reads_the_unit_off_the_blocks(name):
    # the reference class [1_half (+) 0] is half / N d_i per block: it is
    # the k0_class of that projection on C, D and C cap D, tensored or not
    scn = getattr(scenarios, name)()
    base = boundary.Pair(scn["c"], scn["d"])
    for pair in (base, base.tensor(2)):
        for side in (pair.c, pair.d, pair.inter):
            n = side.ambient_dim
            for half in (n, 2 * n, 3 * n):
                top = np.diag([1.0] * half + [0.0] * half)
                unit = wedderburn.k0_class(top, side.alg.wedderburn, side.tol)
                assert side.boundary_class(np.zeros_like(top), half) == -unit
            with pytest.raises(InvalidInput, match="not a multiple"):
                side.boundary_class(np.zeros((n, n)), n // 2)


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


def test_loop_side_trivializes_each_idempotent_once_per_lift(count_calls):
    # a lift holds its trivialization: its boundary class and sigma witness
    # share one trivialization of its e.  The inverse lift shares the pair
    # but is another lift, and a fresh holder of the same lift, here over a
    # pair at another Tol, trivializes again, at that Tol
    scn = scenarios.circle_split(grid=64)
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    calls = count_calls("arc_k0_trivialize", boundary)
    assert boundary.boundary_class(cert).entries == ()
    boundary.sigma_witness(cert, eps=0.05)
    boundary.sigma_witness(cert, eps=0.05)
    assert len(calls) == 1 and calls[0][0] is cert.e
    inv = boundary.inverse_lift(cert)
    assert inv.pair is cert.pair
    assert boundary.boundary_class(inv).entries == ()
    assert len(calls) == 2 and calls[1][0] is inv.e
    fine = boundary.Pair(scn["c"], scn["d"], Tol(membership_tol=1e-10))
    fresh = dataclasses.replace(cert, pair=fine)
    assert boundary.boundary_class(fresh).entries == ()
    assert len(calls) == 3 and calls[2][0] is cert.e
    assert calls[2][2] == Tol(membership_tol=1e-10)


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
    assert cert.norm_max <= cert.norm_upper <= cert.norm_bound
    with pytest.raises(InvalidInput):
        boundary.whitehead_split(a, np.eye(3, dtype=complex), alg, alg, t_steps=0)


def _trivial_block_case():
    one = np.eye(6, dtype=complex)
    blk = scenarios.block_ideal_pair()
    return dict(u_path=[one, one, one], u_c=one, u_d=one, h=block_h(), c=blk["c"], d=blk["d"])


@pytest.mark.parametrize("t_steps", [1.5, 2.0, True, "2"])
def test_t_steps_must_be_an_integer(t_steps, rng):
    # whitehead_split and sigma_reconstruct refuse them alike, and a numpy
    # integer is recorded as an int
    alg = full_alg(2)
    a = random_invertible(rng, 2, spread=0.3)
    one = np.eye(2, dtype=complex)
    with pytest.raises(InvalidInput, match="t_steps must be an integer"):
        boundary.whitehead_split(a, one, alg, alg, t_steps=t_steps)
    case = _trivial_block_case()
    with pytest.raises(InvalidInput, match="whitehead_t_steps must be an integer"):
        boundary.sigma_reconstruct(**case, whitehead_t_steps=t_steps)
    cert = boundary.whitehead_split(a, one, alg, alg, t_steps=np.int64(2))
    assert type(cert.t_steps) is int and cert.t_steps == 2


# each count that a public entry point takes: the name its error gives, and a
# call with the count n
COUNTS = {
    "t_steps": ("t_steps", lambda n: boundary.whitehead_split(
        np.eye(2, dtype=complex), np.eye(2, dtype=complex), full_alg(2), full_alg(2), t_steps=n)),
    "whitehead_t_steps": ("whitehead_t_steps", lambda n: boundary.sigma_reconstruct(
        **_trivial_block_case(), whitehead_t_steps=n)),
    "random_probes": ("random_probes", lambda n: boundary.check_delta_ideal_structure(
        block_h(), *_block_sides(), [matrix_unit(6, 0, 0)], random_probes=n)),
    "tensor_scale_ideal_structure": ("m", lambda n: boundary.tensor_scale_ideal_structure(
        _ideal_cert(), n)),
    "boundary_product_check": ("m", lambda n: kprod.boundary_product_check(
        _twisted_lift(), np.eye(2), n)),
    "sample_count": ("sample_count", lambda n: boundary.uniformity_probe(
        *_block_sides(), sample_count=n)),
    "b_dims": ("each entry of b_dims", lambda n: boundary.uniformity_probe(
        *_block_sides(), sample_count=2, b_dims=(1, n))),
}


def _block_sides():
    blk = scenarios.block_ideal_pair()
    return blk["c"], blk["d"]


@pytest.mark.parametrize("value", [2.0, 2.5, True, "3", -1])
@pytest.mark.parametrize("entry", list(COUNTS))
def test_counts_are_refused_on_entry(entry, value):
    # a float, even an integral one, a bool, a string and a count below the
    # least are InvalidInput, where a float reached numpy as a raw TypeError
    name, call = COUNTS[entry]
    with pytest.raises(InvalidInput, match=f"^{name} must be (an integer|>= [01], got -1)"):
        call(value)


@pytest.mark.parametrize("constant", [-1.0, 0.0, np.inf, np.nan])
def test_sigma_reconstruct_refuses_an_unusable_uniform_constant(constant, count_calls):
    # refused before any work: a constant <= 0 gave a budget of 1e-6, and on
    # this exact input (gap 0) inf and NaN gave a NaN budget
    homotopies = count_calls("_homotopy_stacks", boundary)
    with pytest.raises(InvalidInput, match="uniform_constant must be finite and > 0"):
        boundary.sigma_reconstruct(**_trivial_block_case(), uniform_constant=constant)
    assert homotopies == []
    assert boundary.sigma_reconstruct(**_trivial_block_case()).gap == 0.0


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
                                    t_steps=16)
    assert len(cert.vc_path) == 2 and len(cert.vd_path) == 2
    assert cert.product_residual < 1e-10


def test_whitehead_split_keeps_the_end_factors():
    # by default, on a lone loop and on a stack of loops
    scn = scenarios.circle_split(grid=64)
    u_c = scn["u_c"]
    for a in (u_c, ops.stack([u_c, u_c])):
        cert = boundary.whitehead_split(a, scn["h"], scn["c"], scn["d"])
        assert cert.t_steps == 32
        assert len(cert.vc_path) == 2 and len(cert.vd_path) == 2
        assert cert.endpoint_residual == 0.0
    assert isinstance(cert.vc_path[0], ops.Stack)


WHITEHEAD_FIELDS = ("t_steps", "product_residual", "endpoint_residual", "membership_c",
                    "membership_d", "norm_max", "norm_bound", "norm_upper",
                    "membership_c_upper", "membership_d_upper", "certified")


def _block_whitehead():
    # a random a off the block structure: both memberships are nonzero
    blk = scenarios.block_ideal_pair()
    a = random_invertible(np.random.default_rng(3), 6, spread=0.3)
    return boundary.whitehead_split(a, block_h(), blk["c"], blk["d"], t_steps=4)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(order=st.permutations(WHITEHEAD_FIELDS))
def test_whitehead_fields_read_the_same_in_any_order(order):
    # the memberships are derived on first read; whichever field is read
    # first, each value equals that of a fresh certificate
    want = _block_whitehead()
    cert = _block_whitehead()
    got = {name: getattr(cert, name) for name in order}
    assert got == {name: getattr(want, name) for name in WHITEHEAD_FIELDS}
    assert want.membership_c > 0.0 and want.membership_d_upper > 0.0


def test_whitehead_memberships_project_once_per_side(count_calls):
    cert = _block_whitehead()
    calls = count_calls("project", boundary.MatrixSide)
    first = [cert.membership_c, cert.membership_d_upper]
    assert [cert.membership_c, cert.membership_d_upper] == first
    assert [call[0] for call in calls] == [cert.pair.c, cert.pair.d]


def test_real_weighted_rows_match_the_complex_product():
    # the rows of _row_norms and the Bernstein endpoints of whitehead_split
    # are real products on the float view of the coefficients; on the
    # factors of circle_split's loop stack and of a block_pair matrix
    # stack, and on a transposed view of each, they match the complex
    # tensordot with the weights to 1e-15 relative
    scn = scenarios.circle_split()
    loop = boundary.whitehead_split(scn["u_c"], scn["h"], scn["c"], scn["d"])
    weights = boundary._row_weights(loop.t_steps)
    ends = boundary._BERNSTEIN[[5, 0]]
    for coefs in loop.coefs + _block_whitehead().coefs:
        assert coefs.imag.any()
        for c in (coefs, np.swapaxes(coefs, -1, -2)):
            want = np.tensordot(weights, c, 1)
            want = np.max(matcore.op_norms(want).reshape(len(weights), -1), axis=1)
            np.testing.assert_allclose(boundary._row_norms(weights, c), want, rtol=1e-15)
            want = np.tensordot(ends, c, 1)
            got = boundary._weighted(ends, c)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_certificates_holding_arrays_compare_by_identity():
    # two certificates of the same computation hold equal arrays, whose ==
    # has no truth value: they compare by identity, and == gives a bool
    blk = scenarios.block_ideal_pair()
    one = np.eye(6, dtype=complex)

    def lift():
        return boundary.build_lift_v(one, 0.5 * one, blk["c"], blk["d"])[1]

    makers = {
        "LiftCert": lift,
        "IdealCert": lambda: boundary.check_delta_ideal_structure(
            block_h(), blk["c"], blk["d"], [one], random_probes=2),
        "SigmaWitness": lambda: boundary.sigma_witness(lift(), eps=0.1),
        "WhiteheadCert": _block_whitehead,
        "SigmaReconstruct": lambda: boundary.sigma_reconstruct(
            [one, one, one], one, one, block_h(), blk["c"], blk["d"]),
        "ProductCheck": lambda: kprod.boundary_product_check(_twisted_lift(), np.eye(2), 2),
    }
    for name, make in makers.items():
        a, b = make(), make()
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True and (a == a) is True
    # a rounding certificate holds floats and a label, and keeps value equality
    e = np.diag([1.0, 0.0]).astype(complex)
    (_, r1), (_, r2) = funcalc.riesz_idempotent(e), funcalc.riesz_idempotent(e)
    assert r1 == r2 and r1 is not r2


# every gate of every certificate class, with its kind: a "sampled" value is
# an estimate of a supremum that can sit below it, a "bound" is not
_SPLIT = {"product_residual": "bound", "endpoint_residual": "bound", "norm_upper": "bound"}
GATE_KINDS = {
    "RoundingCert": {"distance": "bound"},
    "IdealCert": {"delta_level": "sampled"},
    "LiftCert": {"delta_level": "bound", "aug_diff": "bound"},
    "WhiteheadCert": dict(_SPLIT, membership_c_upper="bound", membership_d_upper="bound"),
    "SigmaWitness": {"residual_d": "bound", "residual_c": "bound", "windings": "bound"},
    "SigmaReconstruct": {**{f"{s}.{k}": v for s in "ab" for k, v in _SPLIT.items()},
                         "achieved": "bound", "unstable": "bound", "margin_C": "bound",
                         "margin_D": "bound", "windings": "bound"},
    "ProductCheck": {"lhs != rhs": "bound"},
    "UniformityReport": {"ratio_sup": "sampled"},
}


def test_every_certificate_gate_has_a_kind():
    # each certificate class with gates, built on a small input and read at
    # a budget; its pass/fail property is all of its gates
    blk = scenarios.block_ideal_pair()
    loop = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
    e = np.diag([1.0, 0.0]).astype(complex)
    made = {
        "RoundingCert": (funcalc.riesz_idempotent(e)[1], (), "passed"),
        "IdealCert": (_ideal_cert(), (1e-9,), "valid_at"),
        "LiftCert": (_twisted_lift(), (1e-9,), "valid_at"),
        "WhiteheadCert": (_block_whitehead(), (0.1,), None),
        "SigmaWitness": (boundary.sigma_witness(_loop_lift(), eps=0.05), (0.05,), None),
        "SigmaReconstruct": (boundary.sigma_reconstruct(
            scenarios.circle_split_homotopy(loop, steps=96), loop["u_c"], loop["u_d"],
            loop["h"], loop["c"], loop["d"], whitehead_t_steps=1), (), None),
        "ProductCheck": (kprod.boundary_product_check(_twisted_lift(), np.eye(2), 2), (), None),
        "UniformityReport": (boundary.uniformity_probe(blk["c"], blk["d"], sample_count=4),
                             (3.0,), None),
    }
    gated = {name for mod in (funcalc, boundary, kprod) for name, obj in vars(mod).items()
             if inspect.isclass(obj) and obj.__module__ == mod.__name__ and hasattr(obj, "gates")}
    assert gated == set(made) == set(GATE_KINDS)
    for name, (cert, budget, verdict) in made.items():
        assert type(cert).__name__ == name
        gates = cert.gates(*budget)
        assert {g.name: g.kind for g in gates} == GATE_KINDS[name], name
        assert all(isinstance(g, matcore.Gate) and g.kind in ("bound", "sampled")
                   for g in gates)
        if verdict is not None:
            read = getattr(cert, verdict)
            assert (read(*budget) if callable(read) else read) == all(g.holds for g in gates)
    whitehead = made["WhiteheadCert"][0]
    assert whitehead.certified == all(g.holds for g in whitehead.gates())
    assert len(whitehead.gates()) == 3


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


def test_sigma_reconstruct_takes_no_whitehead_membership(count_calls):
    # the splits' gate reads certified and the t = 0 factors: the one side
    # projection is y's onto C cap D, and _row_norms runs on the factors'
    # values alone, two calls per split
    scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
    path = scenarios.circle_split_homotopy(scn, steps=96)
    projections = count_calls("project", boundary.LoopSide)
    rows = count_calls("_row_norms", boundary)
    boundary.sigma_reconstruct(path, scn["u_c"], scn["u_d"], scn["h"], scn["c"],
                               scn["d"], whitehead_t_steps=1)
    assert len(projections) == 1 and len(rows) == 4


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


@pytest.mark.parametrize("name", ["block_pair", "circle_split"])
def test_uniformity_floor_scales_with_the_draws(monkeypatch, name):
    # draws scaled by 2^-40 project far below an absolute 1e-9; the floor is
    # 1e-9 of each draw's HS norm, so every sample is kept, and the unit
    # projections and the ratios are those of the unscaled draws
    scn = (scenarios.circle_split(grid=32, fiber=2) if name == "circle_split"
           else cli.build_scenario({"kind": name, "params": {}}))
    want = boundary.uniformity_probe(scn["c"], scn["d"], sample_count=5, seed=3)
    side = boundary.LoopSide if name == "circle_split" else boundary.MatrixSide
    real = side.random_elements
    monkeypatch.setattr(side, "random_elements", lambda self, m, count, rng: ops.Stack(
        2.0 ** -40 * real(self, m, count, rng).summands))
    got = boundary.uniformity_probe(scn["c"], scn["d"], sample_count=5, seed=3)
    assert len(got.ratios) == len(want.ratios) == 5 * 3
    np.testing.assert_allclose(got.ratios, want.ratios, rtol=1e-12, atol=0)
    assert all(g.holds for g in got.gates(3.0))


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
    for call in calls:
        with pytest.raises(ApproxKError):
            call()


TENSOR_PAIRS = {
    "block_pair": scenarios.block_ideal_pair,
    "twisted_pair": scenarios.twisted_pair,
    "twisted_pair_conj": lambda: scenarios.twisted_pair(
        conj=scenarios.random_unitary(4, np.random.default_rng(13))),
    "circle_split": lambda: scenarios.circle_split(grid=64, fiber=1),
}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_tensored_intersection_is_the_tensored_base(name, m):
    # (C (x) M_m) cap (D (x) M_m) = (C cap D) (x) M_m on both carriers: a
    # tensored pair's inter is its base's tensored
    scn = TENSOR_PAIRS[name]()
    pair = boundary.Pair(scn["c"], scn["d"])
    c, d, base = pair.c, pair.d, pair.inter
    tensored = pair.tensor(m).inter
    direct = c.tensor(m).intersect(d.tensor(m))
    if isinstance(c, boundary.MatrixSide):
        assert tensored.alg.dim == direct.alg.dim == m * m * base.alg.dim > 0
    else:
        assert tensored.alg.fiber_dim == direct.alg.fiber_dim == m
        assert np.array_equal(tensored.alg.mask, base.alg.mask)
        assert np.array_equal(direct.alg.mask, base.alg.mask)
        assert not base.alg.mask.all()
    x = c.random_elements(m, 8, np.random.default_rng(m))
    for unitized in (False, True):
        gap = ops.arr(tensored.project(x, unitized)) - ops.arr(direct.project(x, unitized))
        assert np.abs(gap).max() <= 1e-12


@pytest.mark.parametrize("b_dims", [(1, 2), (2, 3)])
def test_uniformity_probe_keeps_the_ambiguity_band(b_dims):
    # the tensored intersections are the base one tensored, so the base's
    # ambiguity band must still raise
    c, d = corner_pair(1e-8)
    with pytest.raises(AmbiguousIntersection):
        boundary.uniformity_probe(c, d, sample_count=3, b_dims=b_dims)
