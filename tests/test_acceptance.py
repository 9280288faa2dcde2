"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line for its criterion and then asserts,
so a plain pytest run doubles as the acceptance report.
"""

import json
import time

import numpy as np
import pytest

from approxk import boundary, cli, funcalc, kprod, ops, scenarios, subalg
from approxk.loops import winding_k1
from approxk.matcore import DEFAULT_TOL, matrix_unit
from approxk.subalg import Subalg
from approxk.wedderburn import decompose


def report(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}",
          flush=True)
    return ok


def test_criterion_01_riesz_bound_sweep():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    violations = 0
    while checked < 1000:
        n = int(rng.integers(2, 7))
        lam = rng.integers(0, 2, n).astype(complex)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = np.eye(n) + 0.5 * g / np.linalg.norm(g, 2)
        e0 = s @ np.diag(lam) @ np.linalg.inv(s)
        pert = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        target = 10 ** rng.uniform(-5.5, -2.0)
        e = e0 + pert / np.linalg.norm(pert, 2) * 0.3 * target
        delta = np.linalg.norm(e @ e - e, 2)
        if not 1e-6 <= delta <= 1e-2 or np.linalg.norm(e, 2) > 5:
            continue
        _, cert = funcalc.riesz_idempotent(e)
        if not cert.passed:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    assert report(1, "riesz bound sweep", ok), (violations, elapsed)


def test_criterion_02_whitehead_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(1, 5))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.eye(n) + 0.8 * g / np.linalg.norm(g, 2)
        if np.linalg.cond(u) > 100:
            continue
        u_inv = np.linalg.inv(u)
        prod = (ops.upper_unipotent(u) @ ops.lower_unipotent(-u_inv)
                @ ops.upper_unipotent(u) @ ops.rotation_j(u))
        worst = max(worst, np.linalg.norm(prod - ops.oplus(u, u_inv), 2))
        done += 1
    ok = worst <= 1e-10
    assert report(2, "whitehead identity", ok), worst


def test_criterion_03_lift_endpoints():
    rng = np.random.default_rng(103)
    scn = scenarios.block_ideal_pair()
    worst = 0.0
    for _ in range(10):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u = np.eye(6) + 0.4 * g / np.linalg.norm(g, 2)
        v1, _ = boundary.build_lift_v(u, np.eye(6, dtype=complex),
                                      scn["c"], scn["d"])
        v0, _ = boundary.build_lift_v(u, np.zeros((6, 6), dtype=complex),
                                      scn["c"], scn["d"])
        worst = max(worst,
                    np.linalg.norm(v1 - np.eye(12), 2),
                    np.linalg.norm(v0 - ops.oplus(u, np.linalg.inv(u)), 2))
    ok = worst <= 1e-12
    assert report(3, "lift endpoint degenerations", ok), worst


def test_criterion_04_inv_cut_inequality():
    rng = np.random.default_rng(104)
    violations = 0
    done = 0
    while done < 500:
        n = int(rng.integers(2, 6))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.eye(n) + 0.4 * g / np.linalg.norm(g, 2)
        noise = rng.standard_normal(n)
        h = np.diag(np.clip(
            rng.uniform(0.2, 0.8) + 2e-3 * noise / np.abs(noise).max(),
            0.0, 1.0)).astype(complex)
        y = u - np.eye(n)
        z = np.linalg.inv(u) - np.eye(n)
        dcomm = max(np.linalg.norm(h @ w - w @ h, 2) / np.linalg.norm(w, 2)
                    for w in (y, z))
        if dcomm > 1e-2:
            continue
        measured, bound = boundary.check_inv_cut(u, h)
        if measured > bound + 1e-12:
            violations += 1
        done += 1
    ok = violations == 0
    assert report(4, "inv-cut inequality", ok), violations


def test_criterion_05_iota_exactness_corpus():
    ok = True
    rng = np.random.default_rng(105)
    try:
        scn = scenarios.twisted_pair()
        _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
        boundary.boundary_class(cert)
        loop = scenarios.circle_split(grid=360)
        _, lcert = boundary.build_lift_v(loop["u"], loop["h"], loop["c"],
                                         loop["d"])
        boundary.boundary_class(lcert)
        for _ in range(50):
            conj = scenarios.random_unitary(4, rng)
            rscn = scenarios.twisted_pair(conj=conj)
            _, _, rcert = boundary.iota_lift(rscn["p"], rscn["q"], rscn["c"],
                                             rscn["d"])
            boundary.boundary_class(rcert)
    except Exception:
        ok = False
    assert report(5, "iota-exactness over the corpus", ok)


def test_criterion_06_twisted_pair_boundary():
    start = time.perf_counter()
    scn = scenarios.twisted_pair(angle=np.pi / 5)
    _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
    cls = boundary.boundary_class(cert)
    inv_cls = boundary.boundary_class(boundary.inverse_lift(cert))
    # brute-force oracle: normalized corner ranks against the two minimal
    # central projections P, Q of the intersection
    e = cert.v @ np.kron(np.diag([1.0, 0.0]), np.eye(4)) @ cert.v_inv
    f, _ = funcalc.riesz_idempotent(cert.int_side.nearest(e)[0])
    p_top = np.kron(np.diag([1.0, 0.0]), np.eye(4))
    oracle = []
    for z in (scn["p"], scn["q"]):
        zz = np.kron(np.eye(2), z)
        rank = lambda m: int(np.sum(np.linalg.svd(m, compute_uv=False) > 1e-6))
        oracle.append((rank(zz @ f @ zz) - rank(zz @ p_top @ zz)) // 2)
    elapsed = time.perf_counter() - start
    ok = (cls.entries == (1, -1) and inv_cls.entries == (-1, 1)
          and sorted(oracle) == sorted(cls.entries) and elapsed < 1.0)
    assert report(6, "twisted-pair boundary class", ok), (
        cls.entries, inv_cls.entries, oracle, elapsed)


def test_criterion_07_additivity_and_negation():
    ok = True
    rng = np.random.default_rng(107)
    corpus = [scenarios.twisted_pair()]
    corpus += [scenarios.twisted_pair(conj=scenarios.random_unitary(4, rng))
               for _ in range(10)]
    for scn in corpus:
        _, _, cert = boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])
        cls = boundary.boundary_class(cert)
        _, _, double = boundary.boxplus([cert, cert])
        ok = ok and boundary.boundary_class(double).entries == tuple(
            2 * a for a in cls.entries)
        neg = boundary.boundary_class(boundary.inverse_lift(cert))
        ok = ok and neg.entries == tuple(-a for a in cls.entries)
    loop = scenarios.circle_split(grid=180)
    _, lcert = boundary.build_lift_v(loop["u"], loop["h"], loop["c"],
                                     loop["d"])
    _, _, ldouble = boundary.boxplus([lcert, lcert])
    ok = ok and boundary.boundary_class(ldouble).entries == ()
    ok = ok and boundary.boundary_class(boundary.inverse_lift(lcert)).entries == ()
    assert report(7, "boxplus additivity and inverse negation", ok)


PRODUCT_ROWS = {
    "zero": (np.zeros((2, 2), dtype=complex), (0, 0)),
    "rank1": (np.diag([1.0, 0.0]).astype(complex), (1, -1)),
    "full": (np.eye(2, dtype=complex), (2, -2)),
}


def twisted_lift():
    scn = scenarios.twisted_pair()
    return boundary.iota_lift(scn["p"], scn["q"], scn["c"], scn["d"])[2]


def product_rows_hold(cert) -> bool:
    ok = True
    for p, lhs in PRODUCT_ROWS.values():
        pc = kprod.boundary_product_check(cert, p, 2)
        ok = (ok and pc.equal and pc.lhs_entries == lhs
              and pc.intersection_gap == 0)
    return ok


def test_criterion_08_product_compatibility():
    ok = product_rows_hold(twisted_lift())
    assert report(8, "boundary product compatibility", ok)


def test_planted_intersection_gap_fails_criterion_08(monkeypatch):
    # a principal-angle intersection that loses a basis vector leaves the
    # classes equal, since they are taken over (C cap D) (x) M_2; the gap
    # must catch it
    cert = twisted_lift()
    real = subalg.intersect

    def short(s, t, tol=DEFAULT_TOL):
        full = real(s, t, tol)
        return Subalg(full.ambient_dim, full.basis[:-1], full.tol,
                      _orthonormal=True, check=False)

    monkeypatch.setattr(subalg, "intersect", short)
    pc = kprod.boundary_product_check(cert, PRODUCT_ROWS["rank1"][0], 2)
    assert pc.equal and pc.intersection_gap == -1
    assert not product_rows_hold(cert)


def test_criterion_09_loop_factorization():
    start = time.perf_counter()
    scn = scenarios.circle_split(grid=720, winding=1)
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    wit = boundary.sigma_witness(cert, eps=0.05)
    wu = winding_k1(cert.u).entries[0]
    wx = winding_k1(wit.x).entries[0]
    wf = winding_k1(wit.factor).entries[0]
    elapsed = time.perf_counter() - start
    ok = (max(wit.residual_c, wit.residual_d) <= 0.05
          and wf + wx == wu == 1 and elapsed < 30.0)
    assert report(9, "circle-split sigma factorization", ok), (
        wit.residual_c, wit.residual_d, (wf, wx, wu), elapsed)


def test_criterion_10_uniformity_constants():
    blk = scenarios.block_ideal_pair()
    rep = boundary.uniformity_probe(blk["c"], blk["d"], sample_count=70)
    ok = len(rep.samples) >= 200 and rep.ratio_sup <= 3.0
    sups = []
    for theta in (0.3, 0.1, 0.03):
        scn = scenarios.hereditary_pair(theta)
        sups.append(boundary.uniformity_probe(
            scn["c"], scn["d"], sample_count=25).ratio_sup)
    ok = ok and sups[0] < sups[1] < sups[2]
    assert report(10, "uniformity constants", ok), (rep.ratio_sup, sups)


def test_criterion_11_wedderburn_oracle():
    rng = np.random.default_rng(111)
    base_tp = scenarios.twisted_pair()
    references = [
        # M_2 (x) 1 inside M_4
        (4, base_tp["c"].basis, [(2, 2)]),
        # span{P, Q}: two one-dimensional blocks of multiplicity 2
        (4, base_tp["inter"].basis, [(1, 2), (1, 2)]),
        # M_2 (+) M_2 inside M_6
        (6, scenarios.block_ideal_pair()["c"].basis, [(2, 1), (2, 1)]),
        # the full algebra
        (3, [matrix_unit(3, i, j) for i in range(3) for j in range(3)],
         [(3, 1)]),
    ]
    failures = 0
    for trial in range(100):
        n, basis, blocks = references[trial % len(references)]
        u = scenarios.random_unitary(n, rng)
        alg = Subalg(n, [u @ b @ u.conj().T for b in basis])
        if sorted(decompose(alg, seed=trial).blocks) != sorted(blocks):
            failures += 1
    ok = failures == 0
    assert report(11, "wedderburn block oracle", ok), failures


def test_criterion_12_whitehead_split():
    scn = scenarios.circle_split(grid=720)
    cert = boundary.whitehead_split(scn["u_c"], scn["h"], scn["c"], scn["d"])
    ok = (cert.endpoint_residual == 0.0
          and cert.product_residual <= 1e-10
          and max(cert.membership_c, cert.membership_d) <= 0.1
          and cert.norm_max <= cert.norm_bound)
    assert report(12, "whitehead split", ok), (
        cert.endpoint_residual, cert.product_residual,
        cert.membership_c, cert.membership_d)


def test_criterion_13_tensor_scaling():
    rng = np.random.default_rng(113)
    scn = scenarios.block_ideal_pair()
    noise = rng.standard_normal((6, 6))
    noise = (noise + noise.T) / 2
    h = np.zeros((6, 6))
    h[:2, :2] = np.eye(2)
    h[2:4, 2:4] = 0.5 * np.eye(2)
    h = h + 1e-3 * noise / np.linalg.norm(noise, 2)
    w, vv = np.linalg.eigh(h)
    h = (vv @ np.diag(np.clip(w, 0.0, 1.0)) @ vv.conj().T).astype(complex)
    violations = 0
    for trial in range(100):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        x = np.eye(6) + 0.2 * g / np.linalg.norm(g, 2)
        cert = boundary.check_delta_ideal_structure(
            h, scn["c"], scn["d"], [x], seed=trial, random_probes=5)
        try:
            cert2, m_x = boundary.tensor_scale_ideal_structure(cert, 2)
        except Exception:
            violations += 1
            continue
        if cert2.delta_level > m_x * cert.delta_level + 1e-9:
            violations += 1
    ok = violations == 0
    assert report(13, "tensor scaling budget", ok), violations


def test_criterion_14_determinism(tmp_path):
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep_{tag}.json"
        code = cli.main(["run", "twisted_pair", "--seed", "7",
                        "--out", str(out)])
        payloads.append((code, out.read_bytes()))
    sweep = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        cli.main(["sweep", "invcut", "--count", "20", "--seed", "7",
                  "--out", str(out)])
        sweep.append(out.read_bytes())
    ok = (payloads[0] == payloads[1] and payloads[0][0] == 0
          and sweep[0] == sweep[1])
    assert report(14, "seeded determinism", ok)
