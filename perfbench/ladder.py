"""Kernel ladder: each ROADMAP kernel timed alone at two or more sizes, so a
scaling exponent can be read off.  Runs with the span recorder removed.

Sizes stop below the known limits, which are recorded in `baseline.json`
rather than run: `decompose` on the N = 12 tensored block-pair algebra
(dim 32) takes 2.6 s and 715 MB, and at N = 18 the full-matrices SVD in
`_center_basis` asks for several GiB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import approxk as ak
import reference
from approxk import boundary, scenarios, subalg


def _median_ms(fn, min_reps: int = 3, min_seconds: float = 0.2,
               max_reps: int = 50) -> float:
    """Median wall milliseconds per call, scaled to the reference speed
    measured before and after; one kernel kind for the whole ladder keeps
    the sizes of one kernel comparable."""
    before = reference.factor("calls")
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (
            time.perf_counter() - start < min_seconds and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    scale = (before + reference.factor("calls")) / 2
    return statistics.median(times) * 1e3 * scale


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _almost_idempotent(rng, n: int) -> np.ndarray:
    lam = (np.arange(n) % 2).astype(complex)
    g = _complex(rng, n, n)
    s = np.eye(n) + 0.5 * g / np.linalg.norm(g, 2)
    e0 = s @ np.diag(lam) @ np.linalg.inv(s)
    pert = _complex(rng, n, n)
    return e0 + 1e-4 * pert / np.linalg.norm(pert, 2)


def kernels(seed: int) -> dict[str, float]:
    """Median milliseconds per call, by `kernel.<name>.<size>.ms`."""
    rng = np.random.default_rng([seed, 7])
    out = {}
    for n in (8, 64, 256):
        m = _complex(rng, n, n)
        out[f"kernel.op_norm.n{n}.ms"] = _median_ms(lambda: ak.matcore.op_norm(m))

    # membership projection into M_k(unitized C) of twisted_pair (N = 4):
    # `nearest_cold` includes building the amplified basis, `nearest` reuses it
    c_alg = scenarios.twisted_pair()["c"]
    for k in (2, 4, 8):
        x = _complex(rng, 4 * k, 4 * k)
        out[f"kernel.nearest_cold.k{k}.ms"] = _median_ms(
            lambda: boundary.MatrixSide(c_alg).nearest(x))
        side = boundary.MatrixSide(c_alg)
        side.nearest(x)
        out[f"kernel.nearest.k{k}.ms"] = _median_ms(lambda: side.nearest(x))

    # block_pair tensored with M_m, N = 6m: the uniformity probe's sides
    blk = scenarios.block_ideal_pair()
    for m in (1, 2, 3):
        c_m = subalg.tensor_with_full(blk["c"], m)
        d_m = subalg.tensor_with_full(blk["d"], m)
        out[f"kernel.intersect.N{6 * m}.ms"] = _median_ms(
            lambda: ak.intersect(c_m, d_m))
    inter = ak.intersect(blk["c"], blk["d"])
    for m in (1, 2):
        alg = subalg.tensor_with_full(inter, m)
        out[f"kernel.decompose.N{6 * m}.ms"] = _median_ms(
            lambda: ak.decompose(alg))

    for n in (6, 48):
        e = _almost_idempotent(rng, n)
        out[f"kernel.riesz_idempotent.n{n}.ms"] = _median_ms(
            lambda: ak.riesz_idempotent(e))

    for grid, side_n in ((720, 2), (16, 194)):
        el = ak.LoopElem(_complex(rng, grid, side_n, side_n))
        out[f"kernel.LoopElem_norm.g{grid}s{side_n}.ms"] = _median_ms(el.norm)
        z = ak.power_z(ak.LoopAlg(grid, 1), 1, amp=side_n)
        out[f"kernel.winding_k1.g{grid}s{side_n}.ms"] = _median_ms(
            lambda: ak.winding_k1(z))
    return out


NAMES = [f"kernel.op_norm.n{n}.ms" for n in (8, 64, 256)]
NAMES += [f"kernel.{k}.k{a}.ms" for a in (2, 4, 8)
          for k in ("nearest_cold", "nearest")]
NAMES += [f"kernel.intersect.N{n}.ms" for n in (6, 12, 18)]
NAMES += [f"kernel.decompose.N{n}.ms" for n in (6, 12)]
NAMES += [f"kernel.riesz_idempotent.n{n}.ms" for n in (6, 48)]
NAMES += [f"kernel.{k}.g{g}s{s}.ms" for g, s in ((720, 2), (16, 194))
          for k in ("LoopElem_norm", "winding_k1")]
