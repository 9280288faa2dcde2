"""Direct sums kept as summand stacks.

The homotopy discretization and the Whitehead splittings of the sigma
reconstruction run summand by summand.  These tests hold them to the dense
constructions on the materialized direct sum, kept here as the reference,
and hold sigma_reconstruct to outputs pinned from the dense implementation.
"""

import functools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, cli, ops, scenarios
from approxk.errors import InvalidInput, ReconstructionFailed
from approxk.loops import LoopElem

from test_boundary import block_h
from test_cli import assert_report_matches

DATA = pathlib.Path(__file__).parent / "data"
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)


def close(got, want, rel=1e-12):
    return abs(got - want) <= rel * max(1.0, abs(got), abs(want))


# ---------------------------------------------------------------------------
# dense references: the constructions on the materialized direct sum


def dense_whitehead(a, h, c, d, t_steps):
    """Whitehead split of diag(a, a^-1) on the dense element a."""
    c_side, d_side = boundary.make_side(c), boundary.make_side(d)
    one = ops.eye_like(a)
    x = a - one
    a_inv = ops.inv(a)
    y = a_inv - one
    target = ops.oplus(a, a_inv)
    big_one = ops.eye_like(target)
    hbar = boundary.h_one_minus(h)
    vc_path, vd_path = [], []
    mem_c = mem_d = norm_max = 0.0
    for j_t in range(t_steps + 1):
        s = 1.0 - j_t / t_steps
        xc = one + ops.scal(s, boundary.h_apply(h, x))
        xd = ops.scal(s, boundary.h_apply(hbar, x))
        yc = one + ops.scal(s, boundary.h_apply(h, y))
        yd = ops.scal(s, boundary.h_apply(hbar, y))
        up, low = ops.upper_unipotent, ops.lower_unipotent
        j = ops.rotation_j(x)
        vc = (up(xd) @ up(xc) @ low(ops.scal(-1.0, yc)) @ up(xc) @ j
              @ up(ops.scal(-1.0, xd)))
        vd = (up(xd) @ ops.scal(-1.0, j) @ up(ops.scal(-1.0, xc))
              @ low(ops.scal(-1.0, yd)) @ up(xc) @ up(xd) @ j)
        vc_path.append(vc)
        vd_path.append(vd)
        mem_c = max(mem_c, c_side.nearest(vc - big_one, unitized=False)[1])
        mem_d = max(mem_d, d_side.nearest(vd - big_one, unitized=False)[1])
        norm_max = max(norm_max, ops.norm(vc), ops.norm(vd))
    fields = {
        "t_steps": t_steps,
        "product_residual": ops.norm(vc_path[0] @ vd_path[0] - target),
        "endpoint_residual": max(ops.norm(vc_path[-1] - big_one),
                                 ops.norm(vd_path[-1] - big_one)),
        "membership_c": mem_c,
        "membership_d": mem_d,
        "norm_max": norm_max,
        "norm_bound": (3.0 + max(ops.norm(a), ops.norm(a_inv))) ** 5,
    }
    return vc_path, vd_path, fields


def dense_defect(path, a, b):
    """The defect of discretize_homotopy on the dense 2(m+1)n frame."""
    n = ops.side_size(path[0])
    total = 2 * ops.side_size(b)
    one_n = ops.eye_like(path[0])
    middle = ops.oplus(ops.oplus(one_n, a), ops.oplus(ops.inv(a), one_n))
    prod = middle @ ops.oplus(b, ops.inv(b))
    assert ops.side_size(prod) == total == 2 * len(path) * n
    return ops.norm(ops.embed_top_left(path[0], total) - prod)


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
        for got_path, want_path in ((cert.vc_path, ref_c), (cert.vd_path, ref_d)):
            assert len(got_path) == len(want_path)
            for got, want in zip(got_path, want_path):
                assert type(as_dense(got)) is type(want)
                np.testing.assert_allclose(ops.arr(as_dense(got)), ops.arr(want),
                                           rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("t, scale", [(0.0, 1.0 + 1e-6),   # product residual
                                      (1.0, 1.0 + 1e-9),   # endpoint residual
                                      (0.5, 1e6)])         # norm bound
def test_sigma_reconstruct_gates_whitehead_certificates(monkeypatch, t, scale):
    real = boundary._whitehead_factors

    def perturbed(x, y, h, t_):
        vc, vd = real(x, y, h, t_)
        return (ops.scal(scale, vc) if t_ == t else vc), vd

    monkeypatch.setattr(boundary, "_whitehead_factors", perturbed)
    with pytest.raises(ReconstructionFailed, match="Whitehead split of a"):
        boundary.sigma_reconstruct(**sigma_case("block_pair_trivial"))


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
