"""Direct sums kept as summand stacks.

The homotopy discretization and the Whitehead splittings of the sigma
reconstruction run summand by summand.  These tests hold them to the dense
constructions on the materialized direct sum, kept here as the reference.
sigma_reconstruct composes its result on a banded frame; these tests hold
it to outputs pinned from the dense implementation and to the dense
composition, also kept here as the reference.  The probe sets of
check_delta_ideal_structure and uniformity_probe are stacks too; these tests
hold them to the per-probe loops, kept here as the reference.
"""

import functools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, cli, matcore, ops, scenarios
from approxk.errors import InvalidInput, PairNotUniform, ReconstructionFailed
from approxk.loops import LoopElem, power_z
from approxk.wedderburn import K1Vec

from conftest import band_dense, embed_top_left, lower_unipotent, rotation_j, upper_unipotent
from test_boundary import block_h
from test_cli import assert_report_matches

DATA = pathlib.Path(__file__).parent / "data"
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


def close(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(1.0, abs(got), abs(want))


# ---------------------------------------------------------------------------
# dense references: the constructions on the materialized direct sum


def dense_factors(a, h, s):
    """The Whitehead factors vc and vd of the dense element a as stacks, one
    summand per column of s (5, count): summand k multiplies out the
    unipotents of

        vc = U(xd) U(xc) L(-yc) U(xc) J U(-xd),
        vd = U(xd) (-J) U(-xc) L(-yd) U(xc) U(xd) J,

    the i-th affine unipotent of each taken at s = s[i, k]."""
    one = ops.eye_like(a)
    zero = ops.zero_like(a)
    x = a - one
    y = ops.inv(a) - one
    hbar = boundary.h_one_minus(h)

    def ramp(i, z0, z):
        # the summands z0 + s[i, k] z
        sk = s[i][:, None, None]
        return ops.Stack(ops.arr(z0)[..., None, :, :] + sk * ops.arr(z)[..., None, :, :])

    hx, hbx = boundary.h_apply(h, x), boundary.h_apply(hbar, x)
    hy, hby = boundary.h_apply(h, y), boundary.h_apply(hbar, y)
    up, low, neg = upper_unipotent, lower_unipotent, lambda v: ops.scal(-1.0, v)
    j = rotation_j(ramp(0, one, hx))
    vc = (up(ramp(0, zero, hbx)) @ up(ramp(1, one, hx)) @ low(neg(ramp(2, one, hy)))
          @ up(ramp(3, one, hx)) @ j @ up(neg(ramp(4, zero, hbx))))
    vd = (up(ramp(0, zero, hbx)) @ neg(j) @ up(neg(ramp(1, one, hx)))
          @ low(neg(ramp(2, zero, hby))) @ up(ramp(3, one, hx)) @ up(ramp(4, zero, hbx))
          @ j)
    return vc, vd


def dense_whitehead(a, h, c, d, t_steps):
    """Whitehead split of diag(a, a^-1) on the dense element a, the factors
    at each t of the grid multiplied out from their unipotents.  The grid is
    the summand axis of one stack, so every t is computed at once."""
    c_side, d_side = boundary.make_side(c), boundary.make_side(d)
    a_inv = ops.inv(a)
    target = ops.oplus(a, a_inv)
    big_one = ops.eye_like(target)
    s = np.broadcast_to(1.0 - np.arange(t_steps + 1) / t_steps, (5, t_steps + 1))
    vc, vd = dense_factors(a, h, s)
    vc_path, vd_path = ([ops.like(a, ops.arr(v)[..., i, :, :]) for i in range(t_steps + 1)]
                        for v in (vc, vd))
    grid_one = ops.eye_like(vc)
    fields = {
        "t_steps": t_steps,
        "product_residual": ops.norm(vc_path[0] @ vd_path[0] - target),
        "endpoint_residual": max(ops.norm(vc_path[-1] - big_one),
                                 ops.norm(vd_path[-1] - big_one)),
        "membership_c": c_side.nearest(vc - grid_one, unitized=False)[1],
        "membership_d": d_side.nearest(vd - grid_one, unitized=False)[1],
        "norm_max": max(ops.norm(vc), ops.norm(vd)),
        "norm_bound": (3.0 + max(ops.norm(a), ops.norm(a_inv))) ** 5,
    }
    return vc_path, vd_path, fields


def dense_bernstein_bounds(a, h, c, d):
    """The Bernstein bounds of the Whitehead factors in s = 1 - t, from their
    blossoms: a product p(s) of 5 affine factors has j-th Bernstein
    coefficient b_j, the mean of the C(5, j) products with j of the factors
    at s = 1 and the others at s = 0 (Ramshaw, "Blossoms are polar forms",
    CAGD 6(4), 1989)."""
    c_side, d_side = boundary.make_side(c), boundary.make_side(d)
    subsets = (np.arange(32)[None, :] >> np.arange(5)[:, None]) & 1
    vc, vd = dense_factors(a, h, subsets.astype(float))
    size = subsets.sum(axis=0)
    mean = (size[None, :] == np.arange(6)[:, None]) / np.bincount(size)[:, None]

    def bernstein(v):
        return ops.Stack(np.einsum("jk,...kab->...jab", mean, ops.arr(v)))

    bc, bd = bernstein(vc), bernstein(vd)
    return {
        "norm_upper": max(ops.norm(bc), ops.norm(bd)),
        "membership_c_upper": c_side.nearest(bc - ops.eye_like(bc), unitized=False)[1],
        "membership_d_upper": d_side.nearest(bd - ops.eye_like(bd), unitized=False)[1],
    }


def dense_defect(path, a, b):
    """The defect of discretize_homotopy on the dense 2(m+1)n frame."""
    n = ops.side_size(path[0])
    total = 2 * ops.side_size(b)
    one_n = ops.eye_like(path[0])
    middle = ops.oplus(ops.oplus(one_n, a), ops.oplus(ops.inv(a), one_n))
    prod = middle @ ops.oplus(b, ops.inv(b))
    assert ops.side_size(prod) == total == 2 * len(path) * n
    return ops.norm(embed_top_left(path[0], total) - prod)


def dense_sigma_reconstruct(u_path, u_c, u_d, h, c, d, uniform_constant=3.0,
                            eps_floor=1e-6, whitehead_t_steps=8):
    """sigma_reconstruct's composition on the dense 2(m+1)n frame, in the
    frame's own order: the factors are embedded, multiplied, inverted and
    normed as dense elements, and windings come from dense determinants."""
    pair = boundary.Pair(c, d)
    c_side, d_side, int_side = pair.c, pair.d, pair.inter
    a, b, defect = boundary._homotopy_stacks(u_path)
    n = ops.side_size(u_path[0])
    m = ops.arr(a).shape[-3]
    total = 2 * (m + 1) * n
    wc_a, wc_b = (boundary.whitehead_split(s, h, c_side, d_side,
                                           t_steps=whitehead_t_steps)
                  for s in (a, b))
    for name, wc in (("a", wc_a), ("b", wc_b)):
        if not wc.certified:
            raise ReconstructionFailed(wc.product_residual,
                                       f"Whitehead split of {name}")
    u0 = u_path[0]

    def shuffle_embed(v_small):
        # diag(a, a^-1) (+) 1_2n into the 1_n (+) a (+) a^-1 (+) 1_n layout
        mn2 = 2 * m * n
        p = np.r_[mn2:mn2 + n, :mn2, mn2 + n:total]
        big = embed_top_left(v_small, total)
        return ops.like(big, ops.arr(big)[..., p[:, None], p])

    ca, da, da_inv = (shuffle_embed(regroup(f, u0)) for f in (
        wc_a.vc_path[0], wc_a.vd_path[0], ops.inv(wc_a.vd_path[0])))
    cb, db = regroup(wc_b.vc_path[0], u0), regroup(wc_b.vd_path[0], u0)
    v_c = ca @ (da @ cb @ da_inv)
    v_d = da @ db
    one = ops.eye_like(v_c)
    r_c = ops.inv(v_c) @ embed_top_left(u_c, total) - one
    r_d = v_d @ embed_top_left(ops.inv(u_d), total) - one
    gap = ops.norm(r_c - r_d)
    y, _ = int_side.nearest(ops.scal(0.5, r_c + r_d), unitized=False)
    drift_c, drift_d = ops.norm(y - r_c), ops.norm(y - r_d)
    achieved = max(drift_c, drift_d)
    if achieved > max(uniform_constant * gap, eps_floor):
        raise PairNotUniform(f"joint approximation {achieved:.3e}")
    x = one + y
    resid = ops.norm(x @ ops.inv(x) - one)
    if resid > 1e-6:
        raise ReconstructionFailed(resid, "unstable inverse")
    windings = None
    if int_side.k1(one):
        t_c, t_d = one + r_c, one + r_d
        for t_el, drift in ((t_c, drift_c), (t_d, drift_d)):
            margin = 1.0 / ops.norm(ops.inv(t_el))
            if drift >= margin:
                raise ReconstructionFailed((drift, margin), "homotopy margin")
        wx, wx_d, wuc, wud = (int_side.k1(t)[0] for t in (t_c, t_d, u_c, u_d))
        if wx != wx_d or wx != wuc or wx != -wud:
            raise ReconstructionFailed((wx, wx_d, wuc, wud), "winding mismatch")
        windings = (wx, wuc, wud)
    return boundary.SigmaReconstruct(x, y, float(achieved), float(gap),
                                     windings, float(defect))


# ---------------------------------------------------------------------------
# inputs: a few summands on each carrier


def matrix_summands(rng, m):
    """m invertibles of M_6 near 1, with the block pair and its multiplier."""
    blk = scenarios.block_ideal_pair()
    out = []
    for _ in range(m):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out.append(np.eye(6) + 0.4 * z / np.linalg.norm(z, 2))
    return out, block_h(), blk["c"], blk["d"]


def loop_summands(rng, m):
    """m invertible loops near 1 on circle_split's grid-16 carrier."""
    scn = scenarios.circle_split(grid=16, fiber=2, overlap=0.25 * np.pi)
    out = []
    for _ in range(m):
        z = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
        z /= np.linalg.norm(z, 2, axis=(1, 2), keepdims=True)
        out.append(LoopElem(np.eye(2) + 0.4 * z))
    return out, scn["h"], scn["c"], scn["d"]


CARRIERS = {"matrix": matrix_summands, "loop": loop_summands}


def regroup(factors, exemplar):
    """Dense factor of a direct sum from the stack of its summands' factors."""
    fa = ops.arr(factors)
    p = boundary.boxplus_permutation([fa.shape[-1] // 2] * fa.shape[-3])
    return ops.like(exemplar, ops.direct_sum(factors)[..., p[:, None], p])


@PROPERTY
@given(carrier=st.sampled_from(sorted(CARRIERS)), m=st.integers(1, 3),
       t_steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_stacked_whitehead_matches_dense_split(carrier, m, t_steps, seed):
    summands, h, c, d = CARRIERS[carrier](np.random.default_rng(seed), m)
    dense = ops.like(summands[0], ops.direct_sum(ops.stack(summands)))
    ref_c, ref_d, ref = dense_whitehead(dense, h, c, d, t_steps)
    stacked = boundary.whitehead_split(ops.stack(summands), h, c, d,
                                       t_steps=t_steps)
    lone = boundary.whitehead_split(dense, h, c, d, t_steps=t_steps)
    for cert, as_dense in ((stacked, lambda v: regroup(v, dense)),
                           (lone, lambda v: v)):
        for name, want in ref.items():
            assert close(getattr(cert, name), want), (name, carrier)
        # the paths keep the t = 0 and t = 1 factors; the fields above cover
        # every t
        for got_path, want_path in ((cert.vc_path, ref_c), (cert.vd_path, ref_d)):
            assert len(got_path) == 2
            for got, want in zip(got_path, (want_path[0], want_path[-1])):
                assert type(as_dense(got)) is type(want)
                np.testing.assert_allclose(ops.arr(as_dense(got)), ops.arr(want),
                                           rtol=0, atol=1e-12)


WHITEHEAD_BOUNDS = (("norm_upper", "norm_max"), ("membership_c_upper", "membership_c"),
                    ("membership_d_upper", "membership_d"))


def whitehead_case(kind, middle, spread, seed):
    """(a, h, C, D): a random invertible near 1 with a block_pair multiplier
    h = 1 (+) middle (+) 0, a random loop near 1, or circle_split's u_C or
    u_D on a 16-point grid; the multiplier perturbed by spread.  Off the
    block structure the memberships are nonzero, and on circle_split's
    elements a middle Bernstein coefficient can carry the norm bound."""
    rng = np.random.default_rng(seed)
    if kind == "block_pair":
        (a,), _, c, d = matrix_summands(rng, 1)
        h = block_h(middle)
        return a, perturbed(h, rng, spread) if spread else h, c, d
    if kind == "loop":
        (a,), h, c, d = loop_summands(rng, 1)
    else:
        scn = scenarios.circle_split(grid=16)
        a, h, c, d = scn[kind.rsplit(".", 1)[1]], scn["h"], scn["c"], scn["d"]
    return a, np.clip(h + spread * rng.uniform(-1.0, 1.0, h.shape), 0.0, 1.0), c, d


@PROPERTY
@given(kind=st.sampled_from(["block_pair", "loop", "circle_split.u_c", "circle_split.u_d"]),
       middle=st.floats(0.0, 1.0), spread=st.sampled_from([0.0, 1e-3, 0.2]),
       t_steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_whitehead_bounds_enclose_every_t(kind, middle, spread, t_steps, seed):
    a, h, c, d = whitehead_case(kind, middle, spread, seed)
    cert = boundary.whitehead_split(a, h, c, d, t_steps=t_steps)
    sampled = dense_whitehead(a, h, c, d, t_steps)[2]
    fine = dense_whitehead(a, h, c, d, 256)[2]
    bounds = dense_bernstein_bounds(a, h, c, d)
    for upper, name in WHITEHEAD_BOUNDS:
        got = getattr(cert, upper)
        assert close(getattr(cert, name), sampled[name]), name
        # an end value, computed here in another order, may differ in its
        # last bits
        assert got >= fine[name] or close(got, fine[name]), (upper, got, fine[name])
        assert close(got, bounds[upper]), (upper, got, bounds[upper])


@PROPERTY
@given(carrier=st.sampled_from(sorted(CARRIERS)), m=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_discretize_defect_matches_dense_frame(carrier, m, seed):
    # a path of m + 1 samples from a random invertible down to 1
    (z,), _, _, _ = CARRIERS[carrier](np.random.default_rng(seed), 1)
    one = ops.eye_like(z)
    path = [ops.scal(1.0 - t, z) + ops.scal(t, one)
            for t in np.linspace(0.0, 1.0, m + 1)]
    a, b, defect = boundary.discretize_homotopy(path)
    want_a = functools.reduce(ops.oplus, [ops.inv(p) for p in path[1:]])
    want_b = functools.reduce(ops.oplus, path)
    for got, want in ((a, want_a), (b, want_b)):
        assert type(got) is type(want)
        np.testing.assert_allclose(ops.arr(got), ops.arr(want), rtol=0, atol=1e-12)
    assert close(defect, dense_defect(path, a, b))


# ---------------------------------------------------------------------------
# sigma_reconstruct against outputs pinned from the dense implementation


def digest(el):
    """Shape, Frobenius norm, entry sum and a phase-weighted entry sum."""
    a = ops.arr(el)
    w = np.exp(0.61803j * np.arange(a.size)).reshape(a.shape)
    s, ws = a.sum(), (a * w).sum()
    return {"shape": list(a.shape), "fro": float(np.linalg.norm(a)),
            "sum": [float(s.real), float(s.imag)],
            "weighted": [float(ws.real), float(ws.imag)]}


def sigma_case(name):
    if name == "block_pair_trivial":
        one = np.eye(6, dtype=complex)
        blk = scenarios.block_ideal_pair()
        return dict(u_path=[one, one, one], u_c=one, u_d=one, h=block_h(),
                    c=blk["c"], d=blk["d"])
    scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
    steps = int(name.rsplit("steps", 1)[1])
    return dict(u_path=scenarios.circle_split_homotopy(scn, steps=steps),
                u_c=scn["u_c"], u_d=scn["u_d"], h=scn["h"], c=scn["c"],
                d=scn["d"], whitehead_t_steps=1)


PINNED = json.loads((DATA / "sigma_reconstruct.json").read_text())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sigma_reconstruct_matches_pinned(name):
    # tests/data/sigma_reconstruct.json holds the outputs of the dense
    # implementation; the defect is discretize_homotopy's on the same path
    rec = boundary.sigma_reconstruct(**sigma_case(name))
    want = PINNED[name]
    got = {"x": digest(rec.x), "y": digest(rec.y), "achieved": rec.achieved,
           "gap": rec.gap, "defect": rec.defect,
           "windings": None if rec.windings is None else list(rec.windings)}
    assert_report_matches(got, want)


def test_sigma_reconstruct_coarse_path_fails_margin():
    # 48 steps leave x farther from the comparison elements than the margin
    with pytest.raises(ReconstructionFailed, match="homotopy margin"):
        boundary.sigma_reconstruct(**sigma_case("circle_split_steps48"))


def plant_whitehead(c, t, scale):
    """Perturb the power coefficients c of a Whitehead factor in s = 1 - t
    so that only one certificate leaves its limit."""
    if t == 0.0:
        # the t = 0 factor, the sum of the coefficients, times scale
        c[5] += (scale - 1.0) * c.sum(axis=0)
    elif t == 1.0:
        # the t = 1 factor, the s^0 term, times scale, with the sum kept
        c[1] -= (scale - 1.0) * c[0]
        c[0] *= scale
    else:
        # a middle term of scale * c_0 * s^2 (1 - s), zero at both ends
        c[2] += scale * c[0]
        c[3] -= scale * c[0]


@pytest.mark.parametrize("t, scale", [(0.0, 1.0 + 1e-6),   # product residual
                                      (1.0, 1.0 + 1e-9),   # endpoint residual
                                      (0.5, 1e6)])         # norm bound
def test_sigma_reconstruct_gates_whitehead_certificates(monkeypatch, t, scale):
    # at one t-step the samples are the two ends, so only the bound over
    # [0, 1] sees the middle term
    case = dict(sigma_case("block_pair_trivial"), whitehead_t_steps=1)
    boundary.sigma_reconstruct(**case)
    real = boundary._whitehead_coefficients

    def perturbed(x, y, h):
        vc, vd = real(x, y, h)
        plant_whitehead(vc, t, scale)
        return vc, vd

    monkeypatch.setattr(boundary, "_whitehead_coefficients", perturbed)
    with pytest.raises(ReconstructionFailed, match="Whitehead split of a") as err:
        boundary.sigma_reconstruct(**case)
    # measured is (product, endpoint, norm bound), against 1e-9, 1e-12 and
    # (3 + ||1||)^5
    failing = [m > limit for m, limit in zip(err.value.measured, (1e-9, 1e-12, 1024.0))]
    assert failing == [t == 0.0, t == 1.0, t == 0.5]


def reconstruct_case(carrier, fiber, spread, wind, m, seed):
    """sigma_reconstruct inputs: u_C, u_D near 1 (on a loop, times z^wind and
    z^-wind) and the straight path of m steps from u_C u_D to 1."""
    rng = np.random.default_rng(seed)
    if carrier == "matrix":
        blk = scenarios.block_ideal_pair()
        near = [np.eye(6) + spread * z / np.linalg.norm(z, 2) for z in
                rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))]
        u_c, u_d, h, c, d = near[0], near[1], block_h(), blk["c"], blk["d"]
    else:
        scn = scenarios.circle_split(grid=16, fiber=fiber, overlap=0.25 * np.pi)
        shape = (2, 16, fiber, fiber)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z /= np.linalg.norm(z, 2, axis=(-2, -1), keepdims=True)
        near = [LoopElem(np.eye(fiber) + spread * zi) for zi in z]
        u_c = power_z(scn["ambient"], wind) @ near[0]
        u_d = power_z(scn["ambient"], -wind) @ near[1]
        h, c, d = scn["h"], scn["c"], scn["d"]
    u = u_c @ u_d
    one = ops.eye_like(u)
    path = [ops.scal(1.0 - t, u) + ops.scal(t, one) for t in np.linspace(0, 1, m + 1)]
    return dict(u_path=path, u_c=u_c, u_d=u_d, h=h, c=c, d=d, whitehead_t_steps=1)


def outcome(fn, case):
    try:
        return fn(**case)
    except Exception as err:  # noqa: BLE001 - the class is what is compared
        return type(err)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(carrier=st.sampled_from(["matrix", "loop"]), fiber=st.integers(1, 2),
       spread=st.sampled_from([0.0, 0.05, 0.2, 0.45]), wind=st.integers(0, 1),
       m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_banded_reconstruct_matches_dense_composition(carrier, fiber, spread,
                                                      wind, m, seed):
    case = reconstruct_case(carrier, fiber, spread, wind, m, seed)
    got = outcome(boundary.sigma_reconstruct, case)
    want = outcome(dense_sigma_reconstruct, case)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    for name in ("x", "y"):
        g, w = ops.arr(getattr(got, name)), ops.arr(getattr(want, name))
        assert type(getattr(got, name)) is type(getattr(want, name))
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    for name in ("achieved", "gap", "defect"):
        assert close(getattr(got, name), getattr(want, name)), name
    assert got.windings == want.windings


def test_banded_reconstruct_takes_no_frame_sized_dense_factorization(monkeypatch):
    # loop_reconstruct's inputs: frame side 194 over 16 samples.  No inverse,
    # determinant or SVD of a frame-sized matrix is taken: the membership
    # projection of y takes no residual
    scn = scenarios.circle_split(grid=16, overlap=0.25 * np.pi)
    path = scenarios.circle_split_homotopy(scn, steps=96)
    size = 2 * len(path) * ops.side_size(path[0])
    seen = {"inv": 0, "det": 0, "svd": 0}

    def counted(name, real):
        def wrapper(a, *args, **kwargs):
            if np.shape(a)[-1] == size:
                seen[name] += 1
            return real(a, *args, **kwargs)
        return wrapper

    linalg_impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for mod in {np.linalg, linalg_impl}:
        for name in seen:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    rec = boundary.sigma_reconstruct(path, scn["u_c"], scn["u_d"], scn["h"],
                                     scn["c"], scn["d"], whitehead_t_steps=1)
    assert rec.windings == (1, 1, -1)
    assert ops.side_size(rec.x) == size
    assert seen == {"inv": 0, "det": 0, "svd": 0}


def test_reconstruct_checks_stability_only_where_x_moves(monkeypatch):
    # loop_reconstruct's inputs: y is 0 on 10 of the 16 samples, where x is
    # exactly the identity, so only the other 6 are inverted
    seen = []
    real = matcore.band_invert

    def recorded(b, tol):
        inv, resid = real(b, tol)
        seen.append((b, inv))
        return inv, resid

    monkeypatch.setattr(matcore, "band_invert", recorded)
    rec = boundary.sigma_reconstruct(**sigma_case("circle_split_grid16_steps96"))
    moved = np.any(ops.arr(rec.y) != 0, axis=(-2, -1))
    assert moved.shape == (16,) and moved.sum() == 6
    assert [b.ab.shape[:-2] for b, _ in seen] == [(6,)]
    # the inverse stays banded, and its kappa_1 is that of the dense inverse
    [(b, inv)] = seen
    assert max(inv.kl, inv.ku) < b.size - 1
    a = band_dense(b)

    def kappa_1(a_inv):
        return np.max(np.abs(a).sum(axis=-2).max(axis=-1)
                      * np.abs(a_inv).sum(axis=-2).max(axis=-1))

    assert kappa_1(band_dense(inv)) == pytest.approx(kappa_1(np.linalg.inv(a)), rel=1e-12)


# the pairs whose C cap D projects sigma_reconstruct's y: circle_split at
# grids 16 and 64, fibers 1 and 2, and both matrix pairs
PROJECTION_PAIRS = {
    **{f"circle_split_grid{g}_fiber{k}": functools.partial(
        scenarios.circle_split, grid=g, fiber=k, overlap=0.25 * np.pi)
       for g in (16, 64) for k in (1, 2)},
    "twisted_pair": scenarios.twisted_pair,
    "block_pair": scenarios.block_ideal_pair,
}


@pytest.mark.parametrize("name", sorted(PROJECTION_PAIRS))
@pytest.mark.parametrize("m, widths", [(1, "blocks"), (2, "blocks"), (4, "blocks"),
                                       (4, "entries")])
@pytest.mark.parametrize("per_block", [1, 2])
def test_band_projection_matches_the_dense_projection(name, m, widths, per_block):
    # a random element of the 2(m+1)n frame, where n holds per_block sides
    # N of the ambient algebra: block tridiagonal on n-blocks, in the band
    # (2n - 1, 2n - 1), or filling the band (n, 3n - 2), which cuts through
    # blocks.  The projection of its band on n-blocks is the band of the
    # dense projection, or, where the dense projection leaks out of the
    # band, it raises InvalidInput
    scn = PROJECTION_PAIRS[name]()
    inter = boundary.make_pair(scn["c"], scn["d"]).inter
    loop = isinstance(inter, boundary.LoopSide)
    big = per_block * (inter.alg.fiber_dim if loop else inter.ambient_dim)
    size = 2 * (m + 1) * big
    lead = (inter.alg.grid_size,) if loop else ()
    kl, ku = (2 * big - 1,) * 2 if widths == "blocks" else (big, 3 * big - 2)
    kl, ku = min(kl, size - 1), min(ku, size - 1)
    rng = np.random.default_rng(size)
    x = rng.standard_normal(lead + (size, size)) + 1j * rng.standard_normal(lead + (size, size))
    i, j = np.indices((size, size))
    if widths == "blocks":
        x[..., np.abs(i // big - j // big) > 1] = 0
    x[..., (j - i > ku) | (i - j > kl)] = 0
    el = LoopElem(x) if loop else x
    want = ops.arr(inter.project(el, unitized=False))
    if np.any(want[..., (j - i > ku) | (i - j > kl)]):
        assert not loop and widths == "entries"
        with pytest.raises(InvalidInput, match="outside the band"):
            boundary._band_project(inter, matcore.band(x, kl, ku), big)
        return
    got = band_dense(boundary._band_project(inter, matcore.band(x, kl, ku), big))
    if loop:
        np.testing.assert_array_equal(got, want)
        # the masked samples are zero and the others untouched
        assert np.any(got == 0) and np.any(got != 0)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert 0 < np.abs(got).max() < np.abs(x).max()


def test_band_projection_refuses_a_planted_leak(monkeypatch):
    # block_pair with a 4-step path: y's band has widths (49, 49) in the
    # frame of side 60, so the top-right entry of the blocks on the ninth
    # block diagonal lies outside it; a projection that writes 1e-300 there
    # must raise, where the unplanted call returns
    case = reconstruct_case("matrix", 1, 0.05, 0, 4, 0)
    assert boundary.sigma_reconstruct(**case).achieved > 0
    real = boundary.MatrixSide.project

    def leaky(self, x, unitized=True):
        w = real(self, x, unitized)
        if isinstance(w, ops.Stack):
            w.summands[..., 0, -1] += 1e-300
        return w

    monkeypatch.setattr(boundary.MatrixSide, "project", leaky)
    with pytest.raises(InvalidInput, match="outside the band"):
        boundary.sigma_reconstruct(**case)


def test_reconstruct_keeps_the_frame_banded(count_calls):
    # loop_reconstruct's inputs: y is projected on its band, never banded
    # again from a dense frame, and only the returned x and y are wrapped
    # as frame-sized loops (a dense projection wraps 4)
    case = sigma_case("circle_split_grid16_steps96")
    size = 2 * len(case["u_path"]) * ops.side_size(case["u_c"])
    bands = count_calls("band", matcore)
    wraps = count_calls("__init__", LoopElem)
    rec = boundary.sigma_reconstruct(**case)
    assert bands == []
    framed = [args[0] for args in wraps if np.shape(args[1])[-1] == size]
    assert len(framed) == 2 and framed[0] is rec.x and framed[1] is rec.y


def test_reconstruct_takes_no_spectrum(count_calls):
    # loop_reconstruct's inputs: band_norm runs 5 times on stacks of 16
    # samples and takes no eigenvalue: it bisects the sample with the largest
    # Gram 1-norm by banded Cholesky tests, and one test certifies each
    # other sample whose 1-norm beats the top.  The count of tests is exact,
    # since no step of the reconstruction is random
    calls = count_calls("eig_banded", matcore.scipy_linalg())
    factors = count_calls("zpbtrf", matcore.scipy_linalg().lapack)
    norms = count_calls("band_norm", matcore)
    rec = boundary.sigma_reconstruct(**sigma_case("circle_split_grid16_steps96"))
    assert rec.windings == (1, 1, -1)
    assert len(norms) == 5 and calls == [] and len(factors) == 224


def test_reconstruct_traced_peak_stays_below_32_mb():
    # projecting y through a dense frame peaked at 35.1 MB on
    # loop_reconstruct's inputs; the banded frame peaks at 28.1 MB, most of
    # it the returned x and y
    case = sigma_case("circle_split_grid16_steps96")
    boundary.sigma_reconstruct(**case)
    tracemalloc.start()
    try:
        rec = boundary.sigma_reconstruct(**case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.windings == (1, 1, -1)
    assert peak < 32 * 2 ** 20


def _fail_by_winding(monkeypatch):
    # windings that disagree with everything else
    monkeypatch.setattr(boundary.LoopSide, "k1", lambda self, u, tol=None: (1,))
    monkeypatch.setattr(boundary, "det_winding", lambda dets: K1Vec((0,)))


def _fail_by_inverse(monkeypatch):
    # an inverse twice too large, with its residual 2 b X - 1
    real = matcore.band_invert

    def doubled(b, tol):
        x = 2.0 * real(b, tol)[0]
        return x, matcore._residual(b, x)

    monkeypatch.setattr(matcore, "band_invert", doubled)


def _witness_on_circle():
    scn = scenarios.circle_split(grid=64)
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    return boundary.sigma_witness(cert, eps=0.05)


@pytest.mark.parametrize("message, patch, call", [
    ("winding bookkeeping", _fail_by_winding, _witness_on_circle),
    ("unstable inverse", _fail_by_inverse,
     lambda: boundary.sigma_reconstruct(**sigma_case("circle_split_grid16_steps96"))),
    ("homotopy margin", None,
     lambda: boundary.sigma_reconstruct(**sigma_case("circle_split_steps48"))),
    ("winding mismatch", _fail_by_winding,
     lambda: boundary.sigma_reconstruct(**sigma_case("circle_split_grid16_steps96"))),
], ids=["bookkeeping", "unstable", "margin", "mismatch"])
def test_reconstruction_failed_measures_numbers(monkeypatch, message, patch, call):
    # the measured slot holds what was measured, and the text is the message
    if patch:
        patch(monkeypatch)
    with pytest.raises(ReconstructionFailed, match=message) as err:
        call()
    assert not isinstance(err.value.measured, str)
    assert "measured" not in str(err.value)


# ---------------------------------------------------------------------------
# only internal stacks carry the summand axis


def test_public_entry_points_reject_a_summand_axis():
    scn = scenarios.block_ideal_pair()
    h = np.eye(6, dtype=complex)
    raw = np.broadcast_to(np.eye(6, dtype=complex), (2, 6, 6)).copy()
    side = boundary.MatrixSide(scn["c"])
    calls = [
        lambda: ops.norm(raw),
        lambda: boundary.h_apply(h, raw),
        lambda: side.nearest(raw),
        lambda: scn["c"].nearest(raw),
        lambda: boundary.whitehead_split(raw, h, scn["c"], scn["d"], t_steps=1),
        lambda: boundary.discretize_homotopy([raw, raw]),
        lambda: boundary.sigma_reconstruct([raw, raw], raw, raw, h,
                                           scn["c"], scn["d"]),
    ]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()


def test_cli_exits_2_on_a_summand_axis(monkeypatch, tmp_path, capsys):
    # a conjugating unitary with an extra axis reaches the subalgebra
    # constructors while the scenario is built
    monkeypatch.setattr(scenarios, "random_unitary",
                        lambda n, rng: np.eye(n, dtype=complex)[None])
    path = tmp_path / "stacked.json"
    path.write_text(json.dumps({"schema": 1, "kind": "twisted_pair",
                                "params": {"conj_seed": 3},
                                "checks": [{"check": "whitehead"}]}))
    assert cli.main(["run", str(path)]) == 2
    assert "InvalidInput" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probe sets as stacks: the per-probe loops, kept here as the reference


def looped_probe_elements(x_basis, seed: int, count: int):
    """Basis elements plus random unit-norm complex combinations."""
    probes = list(x_basis)
    rng = np.random.default_rng(seed)
    d = len(x_basis)
    for _ in range(count):
        coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x = ops.zero_like(x_basis[0])
        for cj, bj in zip(coeffs, x_basis):
            x = x + ops.scal(cj, bj)
        nx = ops.norm(x)
        if nx > 1e-12:
            probes.append(ops.scal(1.0 / nx, x))
    return probes


def looped_check_delta_ideal_structure(h, c, d, x_basis, tol=matcore.DEFAULT_TOL,
                                       seed: int = 0, random_probes: int = 50):
    """check_delta_ideal_structure one probe at a time; returns measured."""
    boundary.check_contraction(h)
    pair = boundary.Pair(c, d, tol)
    c_side, d_side, int_side = pair.c, pair.d, pair.inter
    basis = list(x_basis)
    if not basis:
        raise InvalidInput("empty probe subspace")
    h_apply = boundary.h_apply
    hbar = boundary.h_one_minus(h)
    h_hbar = boundary.h_prod(h, hbar)
    h2_hbar = boundary.h_prod(h, h_hbar)
    worst = [0.0] * 5
    for x in looped_probe_elements(basis, seed, random_probes):
        nx = ops.norm(x)
        if nx < 1e-12:
            continue
        comm = ops.norm(h_apply(h, x, "left") - h_apply(h, x, "right")) / nx
        _, rc = c_side.nearest(h_apply(h, x), unitized=False)
        _, rd = d_side.nearest(h_apply(hbar, x), unitized=False)
        _, ri1 = int_side.nearest(h_apply(h_hbar, x), unitized=False)
        _, ri2 = int_side.nearest(h_apply(h2_hbar, x), unitized=False)
        for i, val in enumerate((comm, rc / nx, rd / nx, ri1 / nx, ri2 / nx)):
            worst[i] = max(worst[i], float(val))
    return tuple(worst)


def looped_dual_constant(x_basis) -> float:
    """_dual_constant with one SVD per slice of each dual row."""
    n = len(x_basis)
    unit = [ops.arr(ops.scal(1.0 / ops.norm(x), x)) for x in x_basis]
    flats = np.array([x.ravel() for x in unit])
    if matcore.rank(flats) < n:
        raise InvalidInput("probe basis is linearly dependent")
    gram = np.conj(flats) @ flats.T
    duals = np.linalg.solve(gram, np.conj(flats))
    m_const = 0.0
    for row in duals:
        slices = np.conj(row).reshape((-1,) + unit[0].shape[-2:])
        nuc = float(sum(np.sum(np.linalg.svd(s, compute_uv=False))
                        for s in slices))
        m_const = max(m_const, nuc)
    return n * m_const


def looped_random_element(side, m: int, rng):
    """One random ambient element from the Gaussian entries each side
    draws, scaled to unit norm.  The sides return their draws unscaled;
    the probe scales what it projects, so its ratios agree either way."""
    if isinstance(side, boundary.MatrixSide):
        n = side.ambient_dim * m
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return r / matcore.op_norm(r)
    shape = (side.alg.grid_size,) + (side.alg.fiber_dim * m,) * 2
    el = LoopElem(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ops.scal(1.0 / ops.norm(el), el)


def looped_uniformity_probe(c, d, sample_count: int = 50, b_dims=(1, 2, 3),
                            seed: int = 0, tol=matcore.DEFAULT_TOL):
    """uniformity_probe one sample at a time; returns (samples, ratios, sup)."""
    c_side = boundary.make_side(c, tol)
    d_side = boundary.make_side(d, tol)
    rng = np.random.default_rng(seed)
    samples = []
    ratios = []
    for m in b_dims:
        cm, dm = (c_side, d_side) if m == 1 else (c_side.tensor(m), d_side.tensor(m))
        im = cm.intersect(dm)
        for _ in range(sample_count):
            r = looped_random_element(c_side, m, rng)
            cc, _ = cm.nearest(r, unitized=False)
            ncc = ops.norm(cc)
            if ncc < 1e-9:
                continue
            cc = ops.scal(1.0 / ncc, cc)
            dd, _ = dm.nearest(cc, unitized=False)
            delta_in = ops.norm(cc - dd)
            mid = ops.scal(0.5, cc + dd)
            x, _ = im.nearest(mid, unitized=False)
            achieved = max(ops.norm(x - cc), ops.norm(x - dd))
            samples.append((float(delta_in), float(achieved)))
            if delta_in > 1e-12:
                ratios.append(float(achieved / delta_in))
            elif achieved > 1e-9:
                ratios.append(float("inf"))
            else:
                ratios.append(0.0)
    sup = max(ratios) if ratios else 0.0
    return samples, ratios, float(sup)


def perturbed(base, rng, spread):
    """A positive contraction within about spread of the hermitian base."""
    n = base.shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(base + spread * (g + g.conj().T) / np.linalg.norm(g, 2) / 2)
    return (v * np.clip(w, 0.0, 1.0)) @ v.conj().T


def probe_case(kind, seed, spread, extra, tiny, foreign=False):
    """(h, C, D, x_basis) on a scenario; spread perturbs the multiplier,
    extra adds random basis elements and tiny one of norm 1e-13.  A foreign
    multiplier lives on the other carrier, which h_apply refuses."""
    rng = np.random.default_rng(seed)
    if kind == "circle_split":
        scn = scenarios.circle_split(grid=int(rng.integers(16, 65)),
                                     fiber=int(rng.integers(1, 3)))
        h = np.clip(scn["h"] + spread * rng.uniform(-1, 1, scn["h"].shape), 0.0, 1.0)
        basis = list(scn["x_basis"])
        shape = basis[0].samples.shape

        def draw():
            return LoopElem(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    else:
        if kind == "block_pair":
            scn, base = scenarios.block_ideal_pair(), block_h()
        else:
            scn = scenarios.twisted_pair(conj=scenarios.random_unitary(4, rng))
            base = np.diag(rng.integers(0, 2, 4)).astype(complex)
        n = base.shape[0]
        h = perturbed(base, rng, spread) if spread else base
        basis = [np.eye(n, dtype=complex)]

        def draw():
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    basis += [draw() for _ in range(extra)]
    if tiny:
        basis.append(ops.scal(1e-13, draw()))
    if foreign:
        h = np.eye(2) if kind == "circle_split" else np.full(16, 0.5)
    return h, scn["c"], scn["d"], basis


def result(fn, *args, **kwargs):
    """fn's return value, or the class of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # the class is the result
        return type(err)


def same_floats(got, want):
    """Equal within 1e-12 relative to the unit-norm probes, zeros staying zero."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g == 0) == (w == 0), (got, want)
        assert g == w or close(g, w), (got, want)


KINDS = ["block_pair", "twisted_pair", "circle_split"]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16),
       spread=st.sampled_from([0.0, 1e-3, 0.2]), extra=st.integers(0, 2),
       tiny=st.booleans(), foreign=st.sampled_from([False] * 7 + [True]),
       probes=st.integers(0, 8))
def test_stacked_probes_match_probe_loop(kind, seed, spread, extra, tiny, foreign,
                                         probes):
    h, c, d, basis = probe_case(kind, seed, spread, extra, tiny, foreign)
    got = result(boundary.check_delta_ideal_structure, h, c, d, basis,
                 seed=seed, random_probes=probes)
    want = result(looped_check_delta_ideal_structure, h, c, d, basis,
                  seed=seed, random_probes=probes)
    if isinstance(want, type):
        assert got is want
        return
    same_floats(got.measured, want)
    got_m, want_m = (result(f, basis) for f in (boundary._dual_constant,
                                                looped_dual_constant))
    assert got_m is want_m if isinstance(want_m, type) else close(got_m, want_m)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16),
       count=st.integers(0, 6), same=st.booleans(),
       b_dims=st.lists(st.sampled_from([1, 2, 3, 1, 2, 3, 0]), min_size=1, max_size=3))
def test_stacked_uniformity_matches_sample_loop(kind, seed, count, same, b_dims):
    # C paired with itself takes the zero-ratio branch; b_dims 0 raises
    _, c, d, _ = probe_case(kind, seed, 0.0, 0, False)
    d = c if same else d
    got = result(boundary.uniformity_probe, c, d, sample_count=count,
                 b_dims=tuple(b_dims), seed=seed)
    want = result(looped_uniformity_probe, c, d, sample_count=count,
                  b_dims=tuple(b_dims), seed=seed)
    if isinstance(want, type):
        assert got is want
        return
    samples, ratios, sup = want
    assert len(got.samples) == len(samples)
    for pair, ref in zip(got.samples, samples):
        same_floats(pair, ref)
    same_floats(got.ratios, ratios)
    same_floats([got.ratio_sup], [sup])


def test_probe_work_does_not_grow_with_the_probe_count(monkeypatch):
    h, c, d, basis = probe_case("block_pair", 5, 1e-3, 1, False)
    calls = [0]

    def counted(real):
        def svd(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)
        return svd

    linalg_impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for mod in {np.linalg, linalg_impl}:
        monkeypatch.setattr(mod, "svd", counted(mod.svd))
    counts = []
    for probes in (5, 50):
        calls[0] = 0
        boundary.check_delta_ideal_structure(h, c, d, basis, random_probes=probes)
        counts.append(calls[0])
    # one SVD call per norm: the probe norms and the five residuals, plus
    # the setup, whatever the number of probes
    assert counts[0] == counts[1] <= 12, counts
