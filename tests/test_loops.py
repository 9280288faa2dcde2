import numpy as np
import pytest

from approxk import boundary, loops, ops, scenarios
from approxk.errors import GridTooCoarse, InvalidInput
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
# the arc retraction path of arc_k0_trivialize


def dense_arc_path(e1: LoopElem, mask: np.ndarray) -> list:
    """The retraction path of each support run onto the sample before it,
    built sample by sample; kept as the reference for the gathered path."""
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


def retraction_case(grid: int, runs) -> tuple:
    """An idempotent loop with a distinct rank-1 projection at every support
    point and 0 off the support runs, and its arc ideal.  With rank 0 off the
    support the constant conjugator is 1, so the path starts at the loop."""
    mask = np.zeros(grid, dtype=bool)
    for start, length in runs:
        mask[np.arange(start, start + length) % grid] = True
    turn = 0.01 * np.cumsum(mask)
    vec = (np.stack([np.cos(turn), np.sin(turn)], axis=-1) * mask[:, None])[:, :, None]
    return LoopElem(vec @ vec.transpose(0, 2, 1)), LoopAlg(grid, 2, mask)


@pytest.mark.parametrize("grid, runs", [
    (16, [(3, 5)]),              # shorter than the big_t = 8 floor; frac = 1/2 at s = 4
    (16, [(13, 6)]),             # one run that wraps index 0
    (24, [(2, 3), (9, 7)]),      # two runs, both under the floor
    (24, [(21, 5), (8, 1)]),     # two runs, one wrapping, one of length 1
    (40, [(5, 20)]),             # big_t = 20: frac·k lands on halves at s = 5 and 10
    (64, [(60, 13), (20, 30)]),  # big_t = 30, both runs above the floor
    (16, []),                    # no support: the path stands still
])
def test_arc_path_matches_sample_loop(monkeypatch, grid, runs):
    e, ideal = retraction_case(grid, runs)
    seen = []

    def recorded(path, tol):
        seen.append(path)
        return ops.eye_like(path[0])

    monkeypatch.setattr(loops, "path_to_similarity", recorded)
    assert arc_k0_trivialize(e, ideal)[0] == 0
    (path,) = seen
    want = dense_arc_path(e, ideal.mask)
    assert len(path) == len(want)
    for got, ref in zip(path, want):
        assert np.array_equal(got.samples, ref.samples)


def test_arc_k0_trivialize_measures_moved_samples_only(monkeypatch):
    # bundled circle_split: the first trivialization of its boundary class
    scn = scenarios.circle_split()
    _, cert = boundary.build_lift_v(scn["u"], scn["h"], scn["c"], scn["d"])
    calls, paths = [], []
    monkeypatch.setattr(boundary, "arc_k0_trivialize",
                        lambda *args: calls.append(args) or arc_k0_trivialize(*args))
    boundary.boundary_class(cert)
    e, ideal, tol = calls[0]

    real_path = loops.path_to_similarity
    monkeypatch.setattr(loops, "path_to_similarity",
                        lambda path, tol: paths.append(path) or real_path(path, tol))
    decomposed = [0]

    def counted(real):
        def svd(a, *args, **kwargs):
            decomposed[0] += int(np.prod(np.shape(a)[:-2]))
            return real(a, *args, **kwargs)
        return svd

    linalg_impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    for mod in {np.linalg, linalg_impl}:
        monkeypatch.setattr(mod, "svd", counted(mod.svd))
    arc_k0_trivialize(e, ideal, tol)

    (path,) = paths
    grid = e.grid_size
    assert grid == 720 and len(path) > 8
    moved = sum(int(np.any(a.samples != b.samples, axis=(1, 2)).sum())
                for a, b in zip(path, path[1:]))
    off_support = int((~ideal.mask).sum())
    # e_0 takes every sample; each moved sample takes ||2e - 1|| and its
    # step; the residual check takes the moved samples, and the off-support
    # check its own
    assert decomposed[0] <= 2 * grid + 2 * moved + off_support + 8
