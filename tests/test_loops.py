import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxk import boundary, loops, matcore, scenarios
from approxk.errors import GridTooCoarse, InvalidInput, NotInvertible, PathTooCoarse
from approxk.loops import (
    LoopAlg,
    LoopElem,
    arc_ideal,
    arc_k0_trivialize,
    bump,
    loop_membership,
    power_z,
    winding_k1,
)
from approxk.matcore import DEFAULT_TOL, Tol

from conftest import dense_path_to_similarity


def test_loop_alg_validates_grid():
    with pytest.raises(InvalidInput):
        LoopAlg(8, 1)


def test_power_z_winding():
    alg = LoopAlg(64, 1)
    for n in (-2, -1, 0, 1, 3):
        assert winding_k1(power_z(alg, n)).entries == (n,)


def test_winding_detects_coarse_grid():
    alg = LoopAlg(16, 1)
    with pytest.raises(GridTooCoarse):
        winding_k1(power_z(alg, 5))


def test_winding_refuses_non_finite_determinants():
    # 1e200 z over a 2-dim fiber has determinant 1e400 z^2, which overflows;
    # the phase and quantization checks would each let an inf or a NaN pass
    big = LoopElem(1e200 * power_z(LoopAlg(32, 2), 1).samples)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInput, match="non-finite determinant"):
            winding_k1(big)
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidInput, match="non-finite determinant"):
            loops.det_winding(np.r_[np.exp(2j * np.pi * np.arange(7) / 8), bad])


def test_winding_of_amplified_loop():
    alg = LoopAlg(64, 2)
    # the phase sits in one corner of the amplified identity, so the
    # determinant winding is unchanged by the amplification
    assert winding_k1(power_z(alg, 2, amp=2)).entries == (2,)


def test_loop_elem_algebra(rng):
    alg = LoopAlg(32, 2)
    u = power_z(alg, 1, amp=2)
    assert u.norm() == pytest.approx(1.0)
    assert (u @ u.inv() - u.eye_like()).norm() < 1e-12
    assert (2.0 * u - u - u).norm() < 1e-12
    assert (u.adj() @ u - u.eye_like()).norm() < 1e-12


def test_arc_ideal_membership():
    alg = LoopAlg(360, 1)
    ideal = arc_ideal(alg, (-0.5 * np.pi, 0.5 * np.pi))
    prof = bump(alg, (-0.25 * np.pi, 0.25 * np.pi), 0.1 * np.pi)
    x = LoopElem(prof[:, None, None].astype(complex))
    _, resid = loop_membership(x, ideal, unitized=False)
    assert resid == 0.0
    one = x.eye_like()
    _, resid_raw = loop_membership(one, ideal, unitized=False)
    assert resid_raw == pytest.approx(1.0)
    _, resid_unit = loop_membership(one, ideal, unitized=True)
    assert resid_unit < 1e-12


def test_bump_profile_shape():
    alg = LoopAlg(360, 1)
    prof = bump(alg, (-0.4 * np.pi, 0.4 * np.pi), 0.2 * np.pi)
    # measure angles from the left plateau edge; thetas live in [0, 2 pi)
    rel = np.mod(alg.thetas + 0.4 * np.pi, 2 * np.pi)
    plateau = rel <= 0.8 * np.pi + 1e-9
    assert np.all(prof[plateau] == 1.0)
    far = (rel >= np.pi + 1e-9) & (rel <= 1.8 * np.pi - 1e-9)
    assert np.all(prof[far] == 0.0)
    assert prof.min() >= 0.0 and prof.max() <= 1.0


def test_arc_ideal_intersection_masks():
    alg = LoopAlg(720, 1)
    c = arc_ideal(alg, (-0.6 * np.pi, 0.6 * np.pi))
    d = arc_ideal(alg, (0.4 * np.pi, 1.6 * np.pi))
    inter = c.intersect(d)
    assert int(c.mask.sum()) == 431
    assert int(inter.mask.sum()) == int((c.mask & d.mask).sum())


def test_arc_k0_trivialize_constant_idempotent():
    alg = LoopAlg(96, 2)
    ideal = arc_ideal(alg, (-0.5 * np.pi, 0.5 * np.pi))
    e = LoopElem.constant(np.diag([1.0, 0.0]).astype(complex), 96)
    r, conj, const = arc_k0_trivialize(e, ideal)
    assert r == 1
    resid = (conj @ e @ conj.inv() - const).norm()
    assert resid < 1e-6


def test_arc_k0_trivialize_moving_idempotent():
    # rank-1 idempotent rotating inside the arc, constant off it
    alg = LoopAlg(360, 2)
    ideal = arc_ideal(alg, (-0.5 * np.pi, 0.5 * np.pi))
    prof = bump(alg, (-0.1 * np.pi, 0.1 * np.pi), 0.3 * np.pi)
    samples = np.zeros((360, 2, 2), dtype=complex)
    for j, t in enumerate(prof):
        th = 0.45 * np.pi * t
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        samples[j] = u @ np.diag([1.0, 0.0]) @ u.T
    e = LoopElem(samples)
    r, conj, const = arc_k0_trivialize(e, ideal)
    assert r == 1
    resid = (conj @ e @ conj.inv() - const).norm()
    assert resid < 1e-5


# ---------------------------------------------------------------------------
# _circular_runs against the sample loop it replaced


def loop_circular_runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal circular runs of True as (start, length) pairs, read off the
    mask rotated to start at a False sample, one sample at a time."""
    m = len(flags)
    if flags.all():
        return [(0, m)]
    if not flags.any():
        return []
    start0 = int(np.argmin(flags))
    rot = np.roll(flags, -start0)
    runs = []
    j = 0
    while j < m:
        if rot[j]:
            j0 = j
            while j < m and rot[j]:
                j += 1
            runs.append(((j0 + start0) % m, j - j0))
        else:
            j += 1
    return runs


@st.composite
def circular_masks(draw):
    """A support mask on a grid of 16 to 720 samples: all True, all False, a
    few arcs (each may wrap past the last sample or be one sample long), or
    scattered samples."""
    grid = draw(st.integers(16, 720))
    kind = draw(st.sampled_from(["all", "none", "arcs", "scatter"]))
    if kind == "all":
        return np.ones(grid, dtype=bool)
    mask = np.zeros(grid, dtype=bool)
    if kind == "arcs":
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, grid - 1))
            length = draw(st.one_of(st.just(1), st.integers(1, grid)))
            mask[(start + np.arange(length)) % grid] = True
    elif kind == "scatter":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        mask = rng.random(grid) < draw(st.floats(0.05, 0.95))
    return mask


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(circular_masks())
@example(np.r_[True, np.zeros(14, dtype=bool), True])
@example(np.r_[np.zeros(15, dtype=bool), True])
@example(np.r_[True, np.zeros(15, dtype=bool)])
@example(np.r_[np.ones(719, dtype=bool), False])
def test_circular_runs_match_the_sample_loop(mask):
    # the same (start, length) pairs, as Python ints, in the same order
    runs = loops._circular_runs(mask)
    assert runs == loop_circular_runs(mask)
    assert all(type(v) is int for run in runs for v in run)


# ---------------------------------------------------------------------------
# arc_k0_trivialize against the retraction path it replaced


def dense_arc_path(e1: LoopElem, mask: np.ndarray) -> list:
    """The retraction path of each support run onto the sample before it,
    built sample by sample; the reference for the run-wise prefix products."""
    runs = loops._circular_runs(mask)
    m = e1.grid_size
    max_len = max((length for _, length in runs), default=1)
    big_t = max(8, max_len)
    path = []
    for s_idx in range(big_t + 1):
        frac = 1.0 - s_idx / big_t
        samples = e1.samples.copy()
        for start, length in runs:
            anchor = (start - 1) % m
            for off_j in range(length):
                j = (start + off_j) % m
                src = (anchor + int(round(frac * (off_j + 1)))) % m
                samples[j] = e1.samples[src]
        path.append(LoopElem(samples))
    return path


def path_trivialize(e: LoopElem, ideal: LoopAlg):
    """(rank, conjugator, path) of the arc trivialization as a path: the
    telescoping product of dense_path_to_similarity along the retraction of
    g e g^-1, times the constant g."""
    r, g = loops._constant_frame(e, ideal.mask, DEFAULT_TOL)
    m = e.grid_size
    g_loop = LoopElem.constant(g, m)
    e1 = g_loop @ e @ LoopElem.constant(np.linalg.inv(g), m)
    path = dense_arc_path(e1, ideal.mask)
    return r, dense_path_to_similarity(path) @ g_loop, path


def assert_trivializations_agree(e: LoopElem, ideal: LoopAlg) -> bool:
    """The run-wise prefix products and the path give the same rank,
    constant and conjugator, or both raise PathTooCoarse.  Returns whether
    they raised."""
    try:
        want = path_trivialize(e, ideal)
    except PathTooCoarse:
        with pytest.raises(PathTooCoarse):
            arc_k0_trivialize(e, ideal)
        return True
    r, conj, const = arc_k0_trivialize(e, ideal)
    r_ref, conj_ref, path = want
    assert r == r_ref
    scalar = np.diag([1.0] * r + [0.0] * (e.side - r)).astype(complex)
    assert np.array_equal(const.samples, LoopElem.constant(scalar, e.grid_size).samples)
    assert (conj - conj_ref).norm() <= 1e-12 * max(1.0, conj_ref.norm())
    # where the path never moves a sample, both conjugators are g exactly
    still = np.ones(e.grid_size, dtype=bool)
    for a, b in zip(path, path[1:]):
        still &= np.all(a.samples == b.samples, axis=(1, 2))
    assert np.array_equal(conj.samples[still], conj_ref.samples[still])
    return False


def runs_mask(grid: int, runs) -> np.ndarray:
    """The support mask of the given (start, length) runs."""
    mask = np.zeros(grid, dtype=bool)
    for start, length in runs:
        mask[np.arange(start, start + length) % grid] = True
    return mask


def retraction_case(grid: int, runs) -> tuple:
    """An idempotent loop with a distinct rank-1 projection at every support
    point and 0 off the support runs, and its arc ideal.  Its first step,
    from 0 to a rank-1 projection, is 1.0: too coarse for any step limit."""
    mask = runs_mask(grid, runs)
    turn = 0.01 * np.cumsum(mask)
    vec = (np.stack([np.cos(turn), np.sin(turn)], axis=-1) * mask[:, None])[:, :, None]
    return LoopElem(vec @ vec.transpose(0, 2, 1)), LoopAlg(grid, 2, mask)


def rank_one(vec_from, vec_to=None) -> np.ndarray:
    """The idempotent with range vec_from and kernel orthogonal to vec_to
    (the orthogonal projection onto vec_from when vec_to is None)."""
    a = np.asarray(vec_from, dtype=complex)
    b = a if vec_to is None else np.asarray(vec_to, dtype=complex)
    return np.outer(a, b.conj()) / np.vdot(b, a)


def per_run_bound_case() -> tuple:
    """Two runs: on the first, e leans away from self-adjoint by steps of
    at most 0.12, to max ||2e - 1|| = 3.3 and a step limit of 0.15; on the
    second, e is an orthogonal projection turning by steps of sin 0.2, which
    beat the second run's own limit 1/2 but not the loop's."""
    grid = 96
    mask = runs_mask(grid, [(4, 40), (60, 12)])
    samples = np.tile(np.diag([1.0, 0.0]).astype(complex), (grid, 1, 1))
    for j in range(40):
        lean = 1.5 * np.sin(np.pi * (j + 1) / 41) ** 2
        samples[4 + j] = rank_one([1.0, 0.0], [1.0, -lean])
    for j, turn in enumerate([0.2, 0.4, 0.6, 0.6, 0.4, 0.2, 0.0] + [0.0] * 5):
        samples[60 + j] = rank_one([np.cos(turn), np.sin(turn)])
    return LoopElem(samples), LoopAlg(grid, 2, mask)


def off_support_bound_case() -> tuple:
    """Off the support, two samples differ from diag(1, 0) by +-1e-7 in the
    corner, so max ||2e - 1|| is 1 + 1e-7 there and 1 (to rounding) on the
    run, an orthogonal projection whose first step is 0.49999998: under the
    run's limit 1/2, over the loop's."""
    grid = 32
    mask = runs_mask(grid, [(8, 6)])
    samples = np.tile(np.diag([1.0, 0.0]).astype(complex), (grid, 1, 1))
    samples[20, 0, 1] += 1e-7
    samples[24, 0, 1] -= 1e-7
    turn = np.arcsin(0.49999998)
    for j in range(6):
        samples[8 + j] = rank_one([np.cos(turn), np.sin(turn)])
    return LoopElem(samples), LoopAlg(grid, 2, mask)


def not_idempotent_case() -> tuple:
    """A smooth idempotent loop with one support sample moved 1e-3 off
    idempotence: every step passes, and only the composed residual fails."""
    e, ideal = arc_case(90, 2, [(10, 30)], amp=0.4, seed=3)
    samples = e.samples.copy()
    samples[25, 1, 1] += 1e-3
    return LoopElem(samples), ideal


def arc_case(grid, fiber, runs, amp, seed, off_rank=1, jump=False, hold=0,
             skew=0.4) -> tuple:
    """A smooth non-self-adjoint idempotent loop on the given support runs:
    A(t) P A(t)^-1 with A(t) = 1 + t X, X of norm amp, t rising from 0 at the
    anchor to 1 mid-run and back, and P = S diag(1_r, 0) S^-1 a constant
    idempotent of rank r = off_rank, with S = 1 + skew N.  The first hold
    samples of each run keep P.  jump puts a rank-1 idempotent on the
    support of a rank-0 or full P, so the first step is at least 1."""
    rng = np.random.default_rng(seed)
    mask = runs_mask(grid, runs)
    d = fiber
    s = np.eye(d) + skew * rng.standard_normal((d, d))
    p = s @ np.diag([1.0] * off_rank + [0.0] * (d - off_rank)) @ np.linalg.inv(s)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = amp * x / np.linalg.norm(x, 2)
    samples = np.tile(p.astype(complex), (grid, 1, 1))
    for start, length in runs:
        for j in range(hold, length):
            t = np.sin(np.pi * (j + 1 - hold) / (length + 1 - hold)) ** 2
            a = np.eye(d) + t * x
            q = p
            if jump and off_rank in (0, d):
                q = rank_one(np.eye(d)[0] + 0.5 * np.eye(d)[-1])
                q = q if off_rank == 0 else np.eye(d) - q
            samples[(start + j) % grid] = a @ q @ np.linalg.inv(a)
    return LoopElem(samples), LoopAlg(grid, d, mask)


@st.composite
def arc_cases(draw):
    """One or two support runs, each up to 0.3 of a grid of 16 to 720
    samples and at least 2 samples apart, on fiber 1 or 2, with rank 0, 1
    or full off the support, each run holding P on its first 0 to 3
    samples; sometimes a jump, sometimes one sample moved off idempotence
    by 1e-9 (which passes) or 1e-3 (which fails the composed residual)."""
    grid = draw(st.integers(16, 720))
    fiber = draw(st.sampled_from([1, 2]))
    cap = max(1, int(0.3 * grid))
    lengths = draw(st.lists(st.integers(1, cap), min_size=1, max_size=2))
    start = draw(st.integers(0, grid - 1))
    runs = [(start, lengths[0])]
    if len(lengths) == 2:
        gap = draw(st.integers(2, grid - sum(lengths) - 2))
        runs.append(((start + lengths[0] + gap) % grid, lengths[1]))
    e, ideal = arc_case(grid, fiber, runs,
                        amp=draw(st.floats(0.05, 0.9)),
                        seed=draw(st.integers(0, 2**16)),
                        off_rank=draw(st.integers(0, fiber)),
                        jump=draw(st.booleans()),
                        hold=draw(st.integers(0, 3)))
    if draw(st.booleans()):
        samples = e.samples.copy()
        at = (start + draw(st.integers(0, lengths[0] - 1))) % grid
        samples[at, -1, -1] += draw(st.sampled_from([1e-9, 1e-3]))
        e = LoopElem(samples)
    return e, ideal


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(arc_cases())
def test_arc_trivialization_matches_the_retraction_path(case):
    assert_trivializations_agree(*case)


def bundled_circle_split(inverse: bool) -> tuple:
    scn = scenarios.circle_split()
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    if inverse:
        cert = boundary.inverse_lift(cert)
    return cert.e, cert.pair.inter.alg


@pytest.mark.parametrize("make, raises", [
    (lambda: bundled_circle_split(False), False),
    (lambda: bundled_circle_split(True), False),
    # the retraction cases of the gathered path, one per shape it covered
    (lambda: retraction_case(16, [(3, 5)]), True),
    (lambda: retraction_case(16, [(13, 6)]), True),
    (lambda: retraction_case(24, [(2, 3), (9, 7)]), True),
    (lambda: retraction_case(24, [(21, 5), (8, 1)]), True),
    (lambda: retraction_case(40, [(5, 20)]), True),
    (lambda: retraction_case(64, [(60, 13), (20, 30)]), True),
    (lambda: retraction_case(16, []), False),
    # smooth runs, then a case for each gate: the exact identity factor
    # (held_start), the step limit over all samples and the composed residual
    (lambda: arc_case(120, 2, [(100, 30), (20, 40)], amp=0.8, seed=1), False),
    (lambda: arc_case(120, 2, [(100, 30), (20, 40)], amp=0.8, seed=1, hold=5), False),
    (per_run_bound_case, True),
    (off_support_bound_case, True),
    (not_idempotent_case, True),
], ids=["circle_split", "circle_split_inverse", "short", "wrapping",
        "two_short", "wrapping_and_single", "halves", "two_long", "no_support",
        "smooth_two_runs", "held_start", "per_run_bound", "off_support_bound",
        "not_idempotent"])
def test_arc_trivialization_matches_the_retraction_path_on(make, raises):
    assert assert_trivializations_agree(*make()) is raises


@pytest.mark.parametrize("grid", [360, 720])
def test_arc_trivialization_takes_few_norm_calls(count_calls, grid):
    # the norms are taken in one batch per gate and run, however long the
    # run: two for the off-support value, one bound, and a step and a
    # residual batch for each of circle_split's two runs
    scn = scenarios.circle_split(grid=grid)
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    calls = count_calls("op_norms", matcore)
    arc_k0_trivialize(cert.e, cert.pair.inter.alg, cert.pair.tol)
    assert len(calls) == 7


def test_arc_trivialization_guards_its_inverse():
    # P = diag(1, 0) gives a constant g of kappa_1 = 1, so the conjugator's
    # kappa_1 is that of the prefix products, which invert's guard reads
    e, ideal = arc_case(120, 2, [(100, 30), (20, 40)], amp=0.8, seed=1, skew=0.0)
    _, conj, _ = arc_k0_trivialize(e, ideal)
    z = conj.samples
    kappa = np.max(np.abs(z).sum(axis=-2).max(axis=-1)
                   * np.abs(np.linalg.inv(z)).sum(axis=-2).max(axis=-1))
    assert kappa > 1.2
    arc_k0_trivialize(e, ideal, Tol(invert_cond_max=1.01 * kappa))
    with pytest.raises(NotInvertible):
        arc_k0_trivialize(e, ideal, Tol(invert_cond_max=0.99 * kappa))


@pytest.mark.parametrize("make, index", [
    (lambda: retraction_case(16, [(3, 5)]), 3),
    (lambda: retraction_case(16, [(13, 6)]), 13),
    (per_run_bound_case, 60),
    (not_idempotent_case, 25),
], ids=["short", "wrapping", "per_run_bound", "not_idempotent"])
def test_path_too_coarse_names_the_grid_sample(make, index):
    # the sample E_i of the first failing neighbour pair, or the first
    # sample whose composed residual fails
    with pytest.raises(PathTooCoarse) as err:
        arc_k0_trivialize(*make())
    assert err.value.index == index
