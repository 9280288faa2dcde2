"""Concrete test-bed configurations.

Two families: a finite-dimensional "twisted pair" inside M_4 where the
boundary class is visibly nonzero, and a "circle split" of the loop algebra
by two overlapping arcs where the ideal structure is exact and K_1 carries
winding numbers.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .loops import LoopAlg, LoopElem, arc_ideal, bump, power_z
from .matcore import DEFAULT_TOL, Tol, adjoint, eye, kron, matrix_unit
from .subalg import Subalg


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def twisted_pair(angle: float = np.pi / 5, conj=None,
                 tol: Tol = DEFAULT_TOL) -> dict:
    """The M_4 = M_2 (x) M_2 scenario.

    C is the left factor M_2 (x) 1; D is its conjugate by the block rotation
    w = e11 (x) 1 + e22 (x) R(angle).  Their intersection is span{P, Q} for
    P = e11 (x) 1 and Q = e22 (x) 1, so K_0(C cap D) = Z^2, and the pair
    (P, Q) has a nonzero boundary class (1, -1).

    An optional unitary `conj` transports the whole configuration, which is
    how the randomized corpus is generated.
    """
    p = kron(matrix_unit(2, 0, 0), eye(2))
    q = kron(matrix_unit(2, 1, 1), eye(2))
    w = kron(matrix_unit(2, 0, 0), eye(2)) + kron(matrix_unit(2, 1, 1),
                                                  rotation2(angle))
    c_basis = [kron(matrix_unit(2, i, j), eye(2)) for i in range(2)
               for j in range(2)]
    if conj is not None:
        move = lambda x: conj @ x @ adjoint(conj)  # noqa: E731
    else:
        move = lambda x: x  # noqa: E731
    c_alg = Subalg(4, [move(b) for b in c_basis], tol)
    d_alg = Subalg(4, [move(w @ b @ adjoint(w)) for b in c_basis], tol)
    return {
        "name": "twisted_pair",
        "ambient_dim": 4,
        "p": move(p),
        "q": move(q),
        "w": move(w),
        "c": c_alg,
        "d": d_alg,
    }


def random_unitary(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ramp_profile(alg: LoopAlg, start: float, end: float) -> np.ndarray:
    """Real profile rising 0 -> 1 across the arc (start, end), constant at 0
    before it and at 1 after it (mod the wrap discontinuity by an integer)."""
    rel = np.mod(alg.thetas - start, 2 * np.pi)
    width = np.mod(end - start, 2 * np.pi)
    out = np.clip(rel / width, 0.0, 1.0)
    return out


def phase_loop(alg: LoopAlg, profile: np.ndarray, sign: int = 1) -> LoopElem:
    """exp(2 pi i sign * profile) as a fiber-scalar loop."""
    vals = np.exp(2j * np.pi * sign * profile)
    d = alg.fiber_dim
    samples = np.tile(np.eye(d, dtype=complex), (alg.grid_size, 1, 1))
    samples *= vals[:, None, None]
    return LoopElem(samples)


def circle_split(grid: int = 720, fiber: int = 1, winding: int = 1,
                 overlap: float = 0.1 * np.pi) -> dict:
    """Loop-algebra scenario: two overlapping open arcs covering the circle.

    With the default overlap, C is the arc ideal (-0.6 pi, 0.6 pi), D the arc
    ideal (0.4 pi, 1.6 pi), and h is a bump with plateau [-0.4 pi, 0.4 pi]
    and ramps of width 0.2 pi; all the splitting residuals vanish exactly
    because the supports nest by construction.  The generator u has the
    requested winding number.  A larger overlap widens both arcs around the
    half-circle split, giving reconstruction more room in C cap D.
    """
    amb = LoopAlg(grid, fiber)
    half = 0.5 * np.pi
    c_alg = arc_ideal(amb, (-half - overlap, half + overlap))
    d_alg = arc_ideal(amb, (half - overlap, 3 * half + overlap))
    h = bump(amb, (-half + overlap, half - overlap), 2 * overlap)
    u = power_z(amb, winding)
    one = ops.eye_like(u)
    z_m1 = power_z(amb, 1) - one
    zbar_m1 = power_z(amb, -1) - one
    # split u's winding between the two arcs: u_c ramps up inside C, u_d
    # ramps down inside D, and u_c u_d is homotopic to the identity
    g_c = ramp_profile(amb, -0.5 * np.pi, 0.5 * np.pi)
    g_d = ramp_profile(amb, 0.5 * np.pi, 1.5 * np.pi)
    u_c = phase_loop(amb, winding * g_c, sign=1)
    u_d = phase_loop(amb, winding * g_d, sign=-1)
    return {
        "name": "circle_split",
        "ambient": amb,
        "c": c_alg,
        "d": d_alg,
        "h": h,
        "u": u,
        "u_c": u_c,
        "u_d": u_d,
        "g_c": g_c,
        "g_d": g_d,
        "x_basis": [z_m1, zbar_m1],
    }


def circle_split_homotopy(scn: dict, steps: int = 48) -> list:
    """Discrete contraction of u_c u_d to the identity through phase loops."""
    amb = scn["ambient"]
    g = scn["g_c"] - scn["g_d"]
    path = []
    for j in range(steps + 1):
        t = j / steps
        path.append(phase_loop(amb, (1.0 - t) * g, sign=1))
    return path


def hereditary_pair(theta: float, tol: Tol = DEFAULT_TOL) -> dict:
    """Two rank-2 corners of M_4 at principal angle theta.

    Their intersection is trivial, yet they contain elements at distance
    O(theta): the desk-scale model of a non-uniform pair.
    """
    p_vecs = np.zeros((4, 2), dtype=complex)
    p_vecs[0, 0] = 1.0
    p_vecs[1, 1] = 1.0
    q_vecs = np.zeros((4, 2), dtype=complex)
    q_vecs[:, 0] = [np.cos(theta), 0.0, np.sin(theta), 0.0]
    q_vecs[:, 1] = [0.0, np.cos(theta), 0.0, np.sin(theta)]
    p = p_vecs @ p_vecs.conj().T
    q = q_vecs @ q_vecs.conj().T
    units = [matrix_unit(4, i, j) for i in range(4) for j in range(4)]
    c_alg = Subalg(4, [p @ e @ p for e in units], tol)
    d_alg = Subalg(4, [q @ e @ q for e in units], tol)
    return {"name": "hereditary_pair", "theta": theta, "c": c_alg, "d": d_alg}


def block_ideal_pair(tol: Tol = DEFAULT_TOL) -> dict:
    """A genuine ideal pair: C = first two blocks, D = last two blocks of
    M_2 (+) M_2 (+) M_2 inside M_6; the intersection is the middle block."""
    def block_units(which):
        out = []
        for b in which:
            for i in range(2):
                for j in range(2):
                    e = np.zeros((6, 6), dtype=complex)
                    e[2 * b + i, 2 * b + j] = 1.0
                    out.append(e)
        return out

    c_alg = Subalg(6, block_units([0, 1]), tol)
    d_alg = Subalg(6, block_units([1, 2]), tol)
    return {"name": "block_ideal_pair", "c": c_alg, "d": d_alg}
