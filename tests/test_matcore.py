import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import matcore
from approxk.errors import (
    AmbiguousIntersection,
    InvalidInput,
    NotInvertible,
)
from approxk.matcore import DEFAULT_TOL, Tol, matrix_unit

from conftest import band, band_dense


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidInput):
        matcore.as_matrix(np.zeros(3))
    with pytest.raises(InvalidInput):
        matcore.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_gate_holds_at_its_budget_and_fails_on_a_nan():
    gate = matcore.Gate
    assert gate("x", 1.0, 1.0).holds is True
    assert gate("x", 1.0 + 1e-15, 1.0).holds is False
    assert not gate("x", np.nan, 1.0).holds and not gate("x", 0.0, np.nan).holds
    # a strict limit: below(limit) is the largest float under it
    assert not gate("x", 1.0, matcore.below(1.0)).holds
    assert gate("x", np.nextafter(1.0, 0.0), matcore.below(1.0)).holds
    assert gate("x", 1e308, matcore.below(np.inf)).holds
    assert np.isnan(matcore.below(np.nan))


def test_op_norm_matches_largest_singular_value(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert matcore.op_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)


GRAM = matcore.GRAM_SIDE
# square sides 1 to 4, and the sides that take the Gram path: the
# crossover, 16, 18, 24 and 64, and one tall and one wide shape
NORM_SHAPES = ([(n, n) for n in range(1, 5)]
               + [(n, n) for n in (GRAM, 16, 18, 24, 64)] + [(GRAM + 3, GRAM), (GRAM, GRAM + 5)])


@settings(KERNEL, max_examples=120)
@given(lead=st.sampled_from([(), (5,), (3, 4)]), shape=st.sampled_from(NORM_SHAPES),
       kind=st.sampled_from(["random", "near_unitary", "rank_one", "graded", "zero"]),
       exponent=st.integers(-200, 200), seed=st.integers(0, 2**32 - 1))
def test_op_norms_match_lapack(lead, shape, kind, exponent, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)
    if kind == "near_unitary":
        # orthonormal columns, or rows when the shape is wide
        wide = shape[0] < shape[1]
        q = np.linalg.qr(np.swapaxes(z, -1, -2) if wide else z)[0]
        z = (np.swapaxes(q, -1, -2) if wide else q) + 1e-9 * z
    elif kind == "rank_one":
        z = z[..., :, :1] * z[..., :1, :]
    elif kind == "graded":
        z = z * np.logspace(0, -12, shape[1])
    elif kind == "zero":
        z = np.zeros_like(z)
    a = 10.0 ** exponent * z
    got = matcore.op_norms(a)
    want = np.linalg.norm(a, 2, axis=(-2, -1))
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    if kind == "zero":
        assert np.all(got == 0)


@KERNEL
@given(shape=st.sampled_from([(5, 5), (GRAM - 1, GRAM + 2), (GRAM, GRAM), (GRAM + 3, GRAM),
                              (GRAM, GRAM + 5), (20, 20)]),
       exponents=st.lists(st.sampled_from([-300, -100, 0, 100, 300, None]),
                          min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_op_norms_of_a_stack_are_its_lone_norms(shape, exponents, seed):
    # on the SVD and on the Gram path, a matrix in a stack that mixes scales
    # 2^-300 to 2^300 and zero summands (None) has the norm it has alone;
    # on the Gram path, a matrix rescaled by a power of two has its norm
    # times that power, bit for bit
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((len(exponents),) + shape) + 1j * rng.standard_normal(
        (len(exponents),) + shape)
    for i, k in enumerate(exponents):
        z[i] = 0.0 if k is None else 2.0 ** k * z[i]
    got = matcore.op_norms(z)
    assert got.shape == (len(exponents),)
    assert np.array_equal(got, [matcore.op_norms(x) for x in z])
    assert np.all((got == 0) == [k is None for k in exponents])
    if min(shape) >= GRAM:
        for x, norm, k in zip(z, got, exponents):
            for j in (-300, -150, 150, 300):
                assert matcore.op_norms(2.0 ** j * x) == 2.0 ** j * norm, (k, j)
    assert matcore.op_norms(np.zeros((0,) + shape)).shape == (0,)


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
@pytest.mark.parametrize("n", range(3, 9))
def test_op_norms_read_the_singular_value_that_numpys_2_norm_takes(lead, n):
    # sides above 2 read LAPACK's top singular value directly; numpy's
    # 2-norm takes the maximum of the same values, so no float moves
    rng = np.random.default_rng(n)
    a = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    np.testing.assert_array_equal(matcore.op_norms(a), np.linalg.norm(a, 2, axis=(-2, -1)))


def test_gram_norms_take_one_eigensolve_of_the_smaller_side(rng, count_calls):
    # a tall and a wide stack, each mixing scales in and out of range, down
    # to subnormal entries, with a zero summand: one eigvalsh per stack, of
    # GRAM_SIDE x GRAM_SIDE Grams
    calls = count_calls("eigvalsh", np.linalg)
    for shape in [(GRAM + 3, GRAM), (GRAM, GRAM + 5)]:
        z = rng.standard_normal((5,) + shape) + 1j * rng.standard_normal((5,) + shape)
        z *= np.array([1.0, 2.0 ** 300, 2.0 ** -300, 2.0 ** -1070, 0.0])[:, None, None]
        got = matcore.op_norms(z)
        np.testing.assert_allclose(got, np.linalg.norm(z, 2, axis=(-2, -1)), rtol=1e-13, atol=0)
        assert got[4] == 0
    assert [np.shape(a) for a, *_ in calls] == [(5, GRAM, GRAM)] * 2


@pytest.mark.parametrize("side", [GRAM - 1, GRAM])
def test_op_norms_of_overflowing_and_infinite_matrices(side):
    # on either path a norm beyond the largest float is inf, and a matrix
    # with an inf entry has norm NaN, with no RuntimeWarning; the SVD
    # raises on a NaN entry, where the Gram path gives NaN
    z = np.ones((4, side, side), dtype=complex)
    z[0, 1, 2] = np.inf
    z[1] *= 1e308
    z[3, 3, 4] = np.nan if side >= GRAM else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = matcore.op_norms(z)
    assert np.isnan(got[0]) and got[1] == np.inf
    np.testing.assert_allclose(got[2], side, rtol=1e-15)
    assert np.isnan(got[3]) == (side >= GRAM)


# square sides 12 to 24, and tall and wide shapes, on the Gram path
SUP_SHAPES = [(n, n) for n in (GRAM, 16, 18, 24)] + [(GRAM + 3, GRAM), (GRAM, GRAM + 5), (13, 24)]


def tall_view(a):
    """a with the Gram side as its columns: transposed when wide."""
    return np.swapaxes(a, -1, -2) if a.shape[-2] < a.shape[-1] else a


def sup_stack(rng, shape, kind, count):
    """A stack of count matrices of the given shape, one kind of tie or
    trap for sup_norm's certificate."""
    def draw(*lead):
        return rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)

    x = draw()
    if kind == "phase":
        # e^{i theta} x ties with x in exact arithmetic
        return x * np.exp(2j * np.pi * rng.random(count))[:, None, None]
    if kind == "kron":
        # x (x) E_ij in the top-left corner, the norms of the tensored probes
        r, c = shape[0] // 2, shape[1] // 2
        out = np.zeros((count,) + shape, dtype=complex)
        for k in range(count):
            i, j = divmod(k % 4, 2)
            out[k, :2 * r, :2 * c] = np.kron(x[:r, :c], matrix_unit(2, i, j))
        return out
    if kind == "hidden":
        # the largest column belongs to a rank-one matrix of norm 1, while a
        # flat rank-one matrix of norm 1.5 has columns of norm at most
        # 1.5 / sqrt(12): its norm is the maximum and the candidate's is not
        out = tall_view(0.1 * draw(count) / max(shape))
        m, n = out.shape[-2:]
        unit = tall_view(draw())[:, 0]
        unit /= np.linalg.norm(unit)
        out[0] = 0.0
        out[0, :, rng.integers(n)] = unit
        out[-1] = np.outer(unit[::-1], np.exp(2j * np.pi * rng.random(n)) * 1.5 / np.sqrt(n))
        return out if m == shape[0] else np.swapaxes(out, -1, -2)
    return draw(count)


@settings(KERNEL, max_examples=150)
@given(shape=st.sampled_from(SUP_SHAPES),
       kind=st.sampled_from(["random", "phase", "kron", "hidden"]),
       count=st.integers(2, 9), exponents=st.sampled_from([0, 600, -600, "mixed"]),
       zeros=st.sampled_from(["none", "some", "all"]),
       poison=st.sampled_from([None, np.nan, np.inf]), lead=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sup_norm_is_one_op_norm_within_the_slack(shape, kind, count, exponents, zeros,
                                                  poison, lead, seed):
    # random stacks, planted ties (phase multiples and x (x) E_ij), a
    # maximizer that is not the largest-column candidate, zero summands,
    # an all-zero stack, NaN and inf entries, and scales 2^+-600: the sup
    # is one matrix's op_norms value, alone, at most the slack below their
    # maximum; zeros give exactly 0 and a non-finite entry NaN
    rng = np.random.default_rng(seed)
    a = sup_stack(rng, shape, kind, count)
    if exponents == "mixed":
        a *= 2.0 ** rng.choice([-600, 0, 600], count)[:, None, None]
    else:
        a *= 2.0 ** exponents
    if zeros == "some":
        a[rng.random(count) < 0.5] = 0.0
    elif zeros == "all":
        a[:] = 0.0
    if poison is not None:
        a[rng.integers(count), rng.integers(shape[0]), rng.integers(shape[1])] = poison
    if lead:
        a = a.reshape((1,) + a.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = matcore.sup_norm(a)
    assert isinstance(got, float)
    if poison is not None:
        assert np.isnan(got)
        return
    if zeros == "all":
        assert got == 0.0
        return
    stack = a.reshape((-1,) + shape)
    lone = [float(matcore.op_norms(x)) for x in stack]
    assert got in lone
    want = max(lone)
    assert want / (1 + matcore._level_slack(min(shape))) <= got <= want
    if kind == "hidden" and exponents != "mixed" and zeros == "none":
        # the candidate fails to certify the last matrix
        assert got == lone[-1] > lone[0]


def test_sup_norm_slack_and_the_other_paths(count_calls):
    # the slack stays below 1e-12 on every side to 2250; below GRAM_SIDE,
    # and on a lone matrix, the sup is max(op_norms); an empty stack is 0,
    # and so is an all-zero stack, with no eigensolve and no factorization
    assert matcore.fp_slack(1.0, 1) == pytest.approx(np.finfo(float).eps / 2)
    assert matcore.fp_slack(3.0, 10) == 3.0 * matcore.fp_slack(1.0, 10)
    assert matcore._level_slack(2250) <= 1e-12 < matcore._level_slack(2260)
    rng = np.random.default_rng(4)
    for shape in [(5, 2, 2), (5, GRAM - 1, GRAM + 4), (GRAM, GRAM), (1, GRAM, GRAM)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert matcore.sup_norm(a) == np.max(matcore.op_norms(a))
    assert matcore.sup_norm(np.zeros((0, GRAM, GRAM))) == 0.0
    eigs, factors = count_calls("eigvalsh", np.linalg), count_calls("cholesky", np.linalg)
    assert matcore.sup_norm(np.zeros((3, GRAM, GRAM + 1))) == 0.0
    assert eigs == factors == []


def test_band_norm_certifies_ties_with_one_bisection(rng, count_calls):
    # diagonal phase conjugates and exact repeats of one band tie with it:
    # one sample is bisected, and the Cholesky test, shifted by the slack,
    # certifies each other one by one factorization
    x = np.triu(np.tril(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)), 3), -3)
    phases = np.exp(2j * np.pi * rng.random((9, 2, 40)))
    stack = np.concatenate([x[None], phases[:, 0, :, None] * x * phases[:, 1, None, :]])
    factors = count_calls("zpbtrf", matcore.scipy_linalg().lapack)
    got = matcore.band_norm(band(stack, 3, 3))
    # each factorization is of level 1 - G_k, kd = 6: its first superdiagonal
    # row, kd - 1, is -G_k's, and names the sample k
    supers = [np.diagonal(np.conj(s).T @ s, 1) for s in stack]
    owners = [np.argmin([np.abs(args[0][5, 1:] + sup).max() for sup in supers])
              for args in factors]
    per_sample = np.bincount(owners, minlength=len(stack))
    assert sorted(per_sample)[:-1] == [1] * 9 and per_sample.max() > 20
    assert got == pytest.approx(np.max(np.linalg.norm(stack, 2, axis=(-2, -1))), rel=1e-13)


def test_as_stack_rejects_non_finite_entries_as_as_matrix_does():
    one = np.eye(3)
    assert matcore.as_stack([one, 2 * one]).shape == (2, 3, 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput, match="matrix has non-finite entries"):
            matcore.as_stack([one, np.where(one == 1, bad, 0)])


@KERNEL
@given(shapes=st.sampled_from([
    ((2, 2), (9, 2, 2)),            # matrix x loop
    ((9, 2, 2), (2, 2)),            # loop x matrix
    ((9, 2, 2), (9, 2, 2)),         # loop x loop
    ((9, 3, 2, 2), (9, 3, 2, 2)),   # (G, m, 2, 2) summand stacks
    ((9, 3, 2, 2), (3, 2, 2)),
    ((9, 1, 1), (9, 1, 1)),
    ((3, 3), (9, 3, 3)),
    ((4, 2, 9, 3, 1, 1), (9, 3, 1, 1)),   # polynomial coefficients x stack
    ((4, 2, 9, 3, 2, 2), (9, 3, 2, 2)),
]), exponents=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    seed=st.integers(0, 2**32 - 1))
def test_matmul_matches_numpy(shapes, exponents, seed):
    rng = np.random.default_rng(seed)
    a, b = (10.0 ** e * (rng.standard_normal(s) + 1j * rng.standard_normal(s))
            for s, e in zip(shapes, exponents))
    got, want = matcore.matmul(a, b), np.matmul(a, b)
    assert got.shape == want.shape
    scale = (np.linalg.norm(a, 2, axis=(-2, -1))[..., None, None]
             * np.linalg.norm(b, 2, axis=(-2, -1))[..., None, None])
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_invert_guards_conditioning():
    with pytest.raises(NotInvertible):
        matcore.invert(np.diag([1.0, 0.0]))
    a = np.diag([1.0, 2.0]).astype(complex)
    assert np.allclose(matcore.invert(a) @ a, np.eye(2))
    with pytest.raises(NotInvertible):
        matcore.invert(np.diag([1.0, 1e-6]), Tol(invert_cond_max=1e5))
    # a (G, m, n, n) stack of loop samples and summands: one bad matrix
    # anywhere decides, and kappa_1 is exact
    stack = np.broadcast_to(a, (16, 3, 2, 2)).copy()
    assert np.allclose(matcore.invert(stack) @ stack, np.eye(2))
    stack[5, 1] = np.diag([1.0, 1e-13])
    with pytest.raises(NotInvertible) as err:
        matcore.invert(stack)
    assert err.value.cond_estimate == pytest.approx(1e13)
    with pytest.raises(InvalidInput):
        matcore.invert(np.ones((3, 2, 4)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lead=st.sampled_from([(), (16,), (16, 3)]), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_invert_matches_numpy_bits(lead, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    a = np.eye(n) + 0.5 * z / np.linalg.norm(z, 2, axis=(-2, -1), keepdims=True)
    np.testing.assert_array_equal(matcore.invert(a), np.linalg.inv(a))


def test_op_norms_of_a_subnormal_two_by_two():
    # the closed form divides by the largest entry modulus, which overflows
    # when that modulus is subnormal; such a matrix is scaled first
    a = np.array([[[3.0, 4.0j], [0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0j]]])
    a[0] *= 2.0 ** -1030
    norms = matcore.op_norms(a)
    assert norms[0] == 5.0 * 2.0 ** -1030
    assert norms[1] == matcore.op_norm(a[1])


U = 2.0 ** -53
# exponents e of the matrices 2^e z, z standard complex Gaussian, whose
# squares or products over- or underflow unless the matrix is scaled first;
# None is a zero matrix, and inf and nan plant one such entry
TRAPS = {"zero": None, "subnormal": -1060, "tiny": -700, "huge": 1015, "inf": np.inf,
         "nan": np.nan}


@settings(KERNEL, max_examples=150)
@given(kind=st.sampled_from(["random", "graded", "rank_one", "scaled"]),
       traps=st.lists(st.sampled_from(sorted(TRAPS)), max_size=4),
       count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_two_by_two_norms_are_lapacks_within_16_ulps(kind, traps, count, seed):
    # generic matrices at any scale, with the traps mixed into the same
    # stack: each norm lies within 16 u of LAPACK's top singular value, taken
    # on 2^-e times the matrix, exactly, and scaled back, rounded once (to
    # the subnormal grid of spacing 2^-1074 for the subnormal trap); a matrix
    # with an inf or a NaN entry has norm NaN; a lone matrix has its stacked
    # norm bit for bit; and nothing warns
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count + len(traps), 2, 2)) + 1j * rng.standard_normal(
        (count + len(traps), 2, 2))
    if kind == "graded":
        z = z * np.array([1.0, 2.0 ** -30])
    elif kind == "rank_one":
        z = z[:, :, :1] * z[:, :1, :] + 2.0 ** -40 * z
    exps = rng.choice([-1000, -300, -190, 0, 190, 300, 1000] if kind == "scaled" else [0], count)
    exps = [float(e) for e in exps] + [TRAPS[t] for t in traps]
    order = rng.permutation(len(exps))
    z, exps = z[order], [exps[i] for i in order]
    a = z.copy()
    for i, e in enumerate(exps):
        if e is None:
            a[i] = 0.0
        elif np.isfinite(e):
            a[i] = 2.0 ** e * z[i]
        else:
            a[i, rng.integers(2), rng.integers(2)] = e
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = matcore.op_norms(a)
        lone = [matcore.op_norms(x) for x in a]
    np.testing.assert_array_equal(got, lone)
    for norm, x, e in zip(got, a, exps):
        if e is None:
            assert norm == 0.0
        elif not np.isfinite(e):
            assert np.isnan(norm)
        else:
            x = np.ldexp(x.real, -int(e)) + 1j * np.ldexp(x.imag, -int(e))
            want = np.ldexp(np.linalg.svd(x, compute_uv=False)[0], int(e))
            assert abs(norm - want) <= 16 * U * want + 2.0 ** -1074, (norm, want)


def test_two_by_two_norm_beyond_the_largest_float_is_inf():
    # as on the SVD and the Gram path, unwarned
    a = np.full((2, 2, 2), 1e308, dtype=complex)
    a[1] = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert matcore.op_norms(a).tolist() == [np.inf, 1.0]


def lapack_norm(x):
    """LAPACK's top singular value of the finite 2 x 2 matrix x, taken on x
    scaled by 2^-e, its largest entry modulus f 2^e, and scaled back, so
    that the SVD neither over- nor underflows; in double precision, which
    holds every float32 exactly."""
    x = np.asarray(x, dtype=complex)
    e = int(np.frexp(np.abs(x).max())[1])
    y = np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e)
    return np.ldexp(np.linalg.svd(y, compute_uv=False)[0], e)


def checked_two_by_two_norms(a):
    """op_norms of the 2 x 2 stack a, checked: nothing warns, each norm is
    its lone norm bit for bit, a zero matrix has norm 0, a matrix with an
    inf or a NaN entry NaN, and any other is LAPACK's within 16 u, rounded
    once to the subnormal grid of spacing 2^-1074."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = matcore.op_norms(a)
        lone = [matcore.op_norms(x) for x in a]
    np.testing.assert_array_equal(got, lone)
    for norm, x in zip(got, a):
        if not np.isfinite(x).all():
            assert np.isnan(norm)
        elif not x.any():
            assert norm == 0.0
        else:
            want = lapack_norm(x)
            assert abs(norm - want) <= 16 * U * want + 2.0 ** -1074, (norm, want)
    return got


def unit_two_by_twos(rng, count):
    """count 2 x 2 matrices of norm 1 up to rounding: random, rank-one and
    graded in turn."""
    z = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    z[1::3] = z[1::3, :, :1] * z[1::3, :1, :]
    z[2::3] *= np.array([1.0, 2.0 ** -30])
    return z / np.linalg.norm(z, 2, axis=(-2, -1))[:, None, None]


def test_two_by_two_norms_at_the_ends_of_the_plane_range(rng, count_calls):
    # a norm just inside [2^-200, 2^200] is read off the closed form once;
    # one just outside either end is computed again, after the exact
    # scaling, with the others of its stack left as they were; all are
    # LAPACK's within 16 u, alone or stacked
    lo, hi = matcore._PLANE_RANGE
    z = unit_two_by_twos(rng, 3)
    step = 2.0 ** -40
    scales = {lo * (1 + step): True, hi * (1 - step): True,
              lo * (1 - step): False, hi * (1 + step): False}
    for scale, inside in scales.items():
        calls = count_calls("_plane_norms", matcore)
        norms = checked_two_by_two_norms(scale * z)
        assert np.all((norms >= lo) & (norms <= hi)) == inside
        # the stack, then each matrix alone, every one again when outside
        shapes = [c[0].shape[:-2] for c in calls]
        assert shapes == ([(3,)] + 3 * [()] if inside else [(3,), (3,)] + 3 * [(), (1,)])
    calls = count_calls("_plane_norms", matcore)
    checked_two_by_two_norms(np.concatenate([scale * z for scale in scales]))
    assert [c[0].shape[:-2] for c in calls[:2]] == [(12,), (6,)]


# exponents of matrices inside the closed form's range and beyond its ends,
# stacked with the traps of TRAPS in any order
FAR = [-300, -250, -190, 0, 190, 250, 300]


@settings(KERNEL, max_examples=100)
@given(exps=st.lists(st.sampled_from(FAR + sorted(TRAPS)), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_two_by_two_norms_of_far_scales_stacked_with_traps(exps, seed):
    # random, rank-one and graded matrices at 2^+-250 and 2^+-300, mixed in
    # one stack with matrices inside the range and zero, subnormal, tiny,
    # huge, inf and NaN ones: each norm is LAPACK's within 16 u and its lone
    # norm bit for bit, unwarned
    rng = np.random.default_rng(seed)
    a = unit_two_by_twos(rng, len(exps))
    for i, e in enumerate(exps):
        e = TRAPS.get(e, e)
        if e is None:
            a[i] = 0.0
        elif np.isfinite(e):
            a[i] *= 2.0 ** e
        else:
            a[i, rng.integers(2), rng.integers(2)] = e
    checked_two_by_two_norms(a)


@pytest.mark.parametrize("form", ["float64", "complex64", "swapaxes", "strided"])
def test_two_by_two_norms_of_real_single_and_strided_input(rng, form):
    # the closed form reads the real planes of a complex copy when the input
    # is not a contiguous complex128 array: a real stack, a single-precision
    # one, a transposed view and a strided slice have the norms of that copy
    z = 2.0 ** 250 * (rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2)))
    z[0] = 0.0
    z[1] *= 2.0 ** -560
    a = {"float64": z.real, "complex64": (2.0 ** -250 * z).astype(np.complex64),
         "swapaxes": np.swapaxes(z, -1, -2), "strided": np.stack([z, z], -1)[..., 1]}[form]
    assert not (a.dtype == complex and a.flags.c_contiguous)
    norms = checked_two_by_two_norms(a)
    np.testing.assert_array_equal(norms, matcore.op_norms(np.array(a, dtype=complex)))
    assert norms[0] == 0.0


@KERNEL
@given(lead=st.sampled_from([(), (7,), (3, 5)]), n=st.sampled_from([1, 2]),
       nan=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_kappa_of_small_sides_is_the_reduction_bit_for_bit(lead, n, nan, seed):
    # the kappa that NotInvertible carries on the loop samples' sides is the
    # product of the column-sum reductions, bit for bit, NaN included
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    if nan:
        a.reshape(-1)[rng.integers(a.size)] = np.nan

    def reduction(m):
        return np.abs(m).sum(axis=-2).max(axis=-1)

    np.testing.assert_array_equal(matcore._norm_1(a), reduction(a))
    with pytest.raises(NotInvertible) as err:
        matcore.invert(a, Tol(invert_cond_max=1e-300))
    want = np.max(reduction(a) * reduction(np.linalg.inv(a)), initial=0.0)
    np.testing.assert_array_equal(err.value.cond_estimate, want)


def test_rank_basic_and_zero_floor():
    assert matcore.rank(np.diag([1.0, 1.0, 0.0])) == 2
    # numerically-zero matrices must rank 0, not rank their own noise
    noise = 1e-16 * np.ones((4, 4))
    assert matcore.rank(noise) == 0


def test_rank_guard_flags_borderline():
    a = np.diag([1.0, 1e-8])
    rel = DEFAULT_TOL.rank_rel_tol
    with pytest.raises(AmbiguousIntersection):
        matcore.rank_cut(np.linalg.svd(a, compute_uv=False), rel, band=True)
    # without the band the same value is decided: zero, as it is not above the cut
    rows, null = matcore.rank_split(a, rel)
    assert rows.shape[0] == 1 and null.shape[0] == 1


def reference_null_projector(a, rel):
    """Projector onto the null space of a from a full SVD, singular values
    padded with zeros to the column count and cut at s_0 * rel."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    padded = np.concatenate([s, np.zeros(a.shape[1] - s.size)])
    v = np.conj(vh[padded <= s[0] * rel])
    return v.T @ np.conj(v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.integers(1, 9), cols=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_rank_split_on_matrices_of_known_rank(rows, cols, seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, min(rows, cols) + 1))

    def gaussian(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    a = gaussian(rows, r) @ gaussian(r, cols)
    rel = DEFAULT_TOL.rank_rel_tol
    kept, _ = matcore.rank_split(a, rel)
    assert kept.shape == (r, cols)
    assert np.allclose(kept @ np.conj(kept).T, np.eye(r), atol=1e-12)
    assert r == matcore.rank(a)
    # the null vectors are complete only for a tall matrix: take a wide one's
    # adjoint, which has the same rank
    t = a if rows >= cols else np.conj(a).T
    kept, null = matcore.rank_split(t, rel)
    n = t.shape[1]
    assert kept.shape[0] + null.shape[0] == n and null.shape[0] == n - r
    for q in (kept, null):
        assert np.allclose(q @ np.conj(q).T, np.eye(q.shape[0]), atol=1e-12)
    assert np.allclose(kept @ null.T, 0.0, atol=1e-12)
    assert np.linalg.norm(t @ null.T) <= 1e-12 * np.linalg.norm(t)
    want = reference_null_projector(t, rel)
    assert np.allclose(null.T @ np.conj(null), want, atol=1e-10)


def test_tol_rejects_nonpositive():
    for name in ("membership_tol", "rank_rel_tol", "invert_cond_max"):
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput):
                Tol(**{name: bad})


# ---------------------------------------------------------------------------
# band kernels against their dense references

BAND = settings(max_examples=40, deadline=None, derandomize=True, database=None)
band_shapes = dict(lead=st.sampled_from([(), (5,)]), n=st.integers(1, 40),
                   kl=st.integers(0, 6), ku=st.integers(0, 6),
                   seed=st.integers(0, 2**32 - 1))


def random_band(rng, lead, n, kl, ku):
    z = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    i, j = np.indices((n, n))
    z[..., (j - i > ku) | (i - j > kl)] = 0
    return z


def well_conditioned_band(rng, lead, n, kl, ku):
    """1 + z/2 with ||z|| = 1 and band (kl, ku), rows swapped in random
    adjacent pairs so that the LU pivots: kappa_2 <= 3, band (kl+1, ku+1)."""
    z = random_band(rng, lead, n, kl, ku)
    a = np.eye(n) + 0.5 * z / np.linalg.norm(z, 2, axis=(-2, -1), keepdims=True)
    rows = np.arange(n)
    for r in range(0, n - 1, 2):
        if rng.random() < 0.5:
            rows[[r, r + 1]] = rows[[r + 1, r]]
    return a[..., rows, :]


@BAND
@given(**band_shapes, kl2=st.integers(0, 6), ku2=st.integers(0, 6))
def test_band_product_matches_dense(lead, n, kl, ku, seed, kl2, ku2):
    rng = np.random.default_rng(seed)
    x, y = random_band(rng, lead, n, kl, ku), random_band(rng, (), n, kl2, ku2)
    bx, by = band(x, kl, ku), band(y, kl2, ku2)
    np.testing.assert_array_equal(band_dense(bx), x)
    np.testing.assert_allclose(band_dense(bx @ by), x @ y, rtol=0, atol=1e-13)
    np.testing.assert_allclose(band_dense(bx - by), x - y, rtol=0, atol=1e-15)
    # the infinity norm read off the storage is the dense largest row sum
    np.testing.assert_allclose(matcore._norm_inf(bx), np.abs(x).sum(axis=-1).max(axis=-1),
                               rtol=1e-15, atol=0)


@BAND
@given(**band_shapes)
def test_band_norm_matches_dense(lead, n, kl, ku, seed):
    x = random_band(np.random.default_rng(seed), lead, n, kl, ku)
    want = np.max(np.linalg.norm(x, 2, axis=(-2, -1)))
    assert matcore.band_norm(band(x, kl, ku)) == pytest.approx(want, rel=1e-13)


@BAND
@given(n=st.integers(1, 40), k=st.integers(0, 6),
       copies=st.lists(st.sampled_from(["repeat", "mirror", "phases", "up", "down",
                                        "near", "other"]), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_band_norm_matches_dense_on_ties(n, k, copies, seed):
    # stacks of one band with its exact repeats, unitary conjugates (the
    # reversed-order mirror and diagonal phases) and copies scaled by
    # 1 +- 1e-15, whose tops tie with the first eigensolved one to the last
    # digits, beside perturbations of relative size 1e-9, whose tops may be
    # just above it, and other bands: a Cholesky test of top 1 - G drops
    # only samples that cannot raise the maximum beyond roundoff
    rng = np.random.default_rng(seed)
    x = random_band(rng, (), n, k, k)

    def phases():
        return np.exp(2j * np.pi * rng.random(n))

    make = {"repeat": lambda: x, "mirror": lambda: x[::-1, ::-1],
            "phases": lambda: phases()[:, None] * x * phases(),
            "up": lambda: (1 + 1e-15) * x, "down": lambda: (1 - 1e-15) * x,
            "near": lambda: x + 1e-9 * random_band(rng, (), n, k, k),
            "other": lambda: rng.uniform(0.5, 1.0) * random_band(rng, (), n, k, k)}
    stack = np.stack([x] + [make[c]() for c in copies])[rng.permutation(len(copies) + 1)]
    want = np.max(np.linalg.norm(stack, 2, axis=(-2, -1)))
    assert matcore.band_norm(band(stack, k, k)) == pytest.approx(want, rel=1e-13)


def sigma_1_from_below(x):
    """The top singular value of each matrix, from below to within n times
    the extended precision's epsilon: the Rayleigh quotient ||x v|| / ||v||
    at the top right singular vector v of a double SVD, in np.clongdouble.
    Its error is quadratic in v's, so it is far closer to sigma_1 than the
    SVD's own value, which strays up to 10 u either way at side 40."""
    v = np.conj(np.linalg.svd(x)[2][..., 0, :]).astype(np.clongdouble)
    xv = np.matmul(x.astype(np.clongdouble), v[..., None])[..., 0]
    return np.sqrt((np.abs(xv) ** 2).sum(axis=-1) / (np.abs(v) ** 2).sum(axis=-1))


@settings(BAND, max_examples=150)
@given(lead=st.sampled_from([(), (3,), (2, 2)]), n=st.integers(1, 40),
       kl=st.integers(0, 8), ku=st.integers(0, 8),
       ties=st.lists(st.sampled_from(["repeat", "phases"]), max_size=3),
       scale=st.sampled_from([0, 600, -600]), seed=st.integers(0, 2**32 - 1))
def test_band_norm_is_an_upper_bound_within_the_slack(lead, n, kl, ku, ties, scale, seed):
    # sigma_1 (1 - 4u) <= band_norm <= sigma_1 (1 + gamma) over lead shapes,
    # widths with kl + ku >= n (whose storage has more rows than the Gram
    # band's kd + 1), exact repeats and diagonal phase conjugates, whose
    # norms tie, and scales 2^+-600, where a Gram band formed as it is
    # would over- or underflow.  Taken on unscaled bands, sigma_1 scales
    # exactly by the power of two
    rng = np.random.default_rng(seed)
    x = random_band(rng, lead, n, kl, ku)

    def phases():
        return np.exp(2j * np.pi * rng.random(lead + (n,)))

    make = {"repeat": lambda: x, "phases": lambda: phases()[..., :, None] * x * phases()[..., None, :]}
    stack = np.stack([x] + [make[t]() for t in ties])
    sigma = np.max(sigma_1_from_below(stack)) * np.longdouble(2.0) ** scale
    u = np.finfo(float).eps / 2
    lower = sigma * (1 - 4 * u - n * np.finfo(np.longdouble).eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = matcore.band_norm(band(stack * 2.0 ** scale, kl, ku))
    assert lower <= got <= sigma * (1 + matcore._level_slack(n))


def test_band_norm_range_and_guards(count_calls):
    # far from 1 the Gram band is formed from a stack scaled by one power of
    # two: unscaled, 1e-170 gave 0.0, 1e-160 was 5.6e-5 low, and 1e155
    # overflowed with a warning.  A NaN or an inf gives NaN unwarned, and an
    # all-zero stack is exactly 0 with no factorization
    factors = count_calls("zpbtrf", matcore.scipy_linalg().lapack)
    gamma = matcore._level_slack(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-170, 1e-160, 1e155, 1e300, 5e-324):
            got = matcore.band_norm(band(scale * np.eye(4), 1, 1))
            assert scale <= got <= scale * (1 + gamma)
        assert matcore.band_norm(band(np.full((2, 4, 4), 1e308), 3, 3)) == np.inf
        for bad in (np.nan, np.inf):
            assert np.isnan(matcore.band_norm(band(np.where(np.eye(4), bad, 0), 1, 1)))
        factors.clear()
        assert matcore.band_norm(band(np.zeros((3, 4, 4)), 1, 1)) == 0.0
    assert factors == []


@BAND
@given(**band_shapes)
def test_band_lu_matches_dense(lead, n, kl, ku, seed):
    a = well_conditioned_band(np.random.default_rng(seed), lead, n, kl, ku)
    b = band(a, kl + 1, ku + 1)
    dets = np.linalg.det(a)
    assert np.all(np.abs(matcore.band_det(b) - dets) <= 1e-12 * np.abs(dets))
    assert_band_inverse(b, a)


def assert_band_inverse(b, a):
    """band_invert(b) is the pair (x, r): x is a's inverse within atol
    1e-12, and holds zeros in every slot of its storage outside the matrix,
    and r is its residual b x - 1, exactly as that band product forms it.
    Returns x."""
    x, r = matcore.band_invert(b)
    dense = band_dense(x)
    np.testing.assert_array_equal(band(dense, x.kl, x.ku).ab, x.ab)
    np.testing.assert_allclose(dense, np.linalg.inv(a), rtol=0, atol=1e-12)
    want = b @ x
    want.ab[..., want.ku, :] -= 1.0
    assert (r.kl, r.ku) == (want.kl, want.ku)
    np.testing.assert_array_equal(r.ab, want.ab)
    return x


@BAND
@given(lead=st.sampled_from([(), (5,)]), n=st.integers(8, 200),
       c=st.floats(0.5, 0.99), seed=st.integers(0, 2**32 - 1))
def test_band_invert_widens_on_slow_decay(lead, n, c, seed):
    # Toeplitz tridiagonal bands 2 - c' (S + S*), c' in [c, 0.99]: their
    # inverses decay as ((2 - sqrt(4 - 4c'^2)) / 2c')^|i - j|, too slowly for
    # the first window, of half-width kl + ku = 2 and widths 3
    rng = np.random.default_rng(seed)
    off = -rng.uniform(c, 0.99, lead + (1,))
    a = 2.0 * np.eye(n) + off[..., None] * (np.eye(n, k=1) + np.eye(n, k=-1))
    x = assert_band_inverse(band(a, 1, 1), a)
    assert x.kl == x.ku > 3


@BAND
@given(lead=st.sampled_from([(), (5,)]), n=st.integers(4, 60),
       seed=st.integers(0, 2**32 - 1))
def test_band_invert_widens_past_singular_windows(lead, n, seed):
    # 2 x 2 swap blocks [[0, p], [q, 0]] on rows (1, 2), (3, 4), ...: every
    # window boundary short of the whole matrix falls at an even index, inside
    # a swap, so each such principal window has a zero row and is singular,
    # while the matrix is invertible
    rng = np.random.default_rng(seed)
    a = np.zeros(lead + (n, n), dtype=complex)
    entry = rng.uniform(0.5, 2.0, lead + (n,)) * np.exp(2j * np.pi * rng.random(lead + (n,)))
    i = np.arange(n)
    partner = np.where(i % 2, i + 1, i - 1)
    alone = (partner < 1) | (partner >= n)
    partner[alone] = i[alone]
    a[..., i, partner] = entry
    x = assert_band_inverse(band(a, 1, 1), a)
    assert x.kl == x.ku == n - 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(lead=st.sampled_from([(), (5,)]), n=st.integers(2, 40),
       kl=st.integers(0, 6), ku=st.integers(0, 6),
       s=st.sampled_from([0.0, 1e-14, 1e-17]), seed=st.integers(0, 2**32 - 1))
def test_band_invert_refuses_near_singular(lead, n, kl, ku, s, seed):
    rng = np.random.default_rng(seed)
    a = well_conditioned_band(rng, lead, n, kl, ku)
    # one matrix of the stack gets a row scaled by s
    a[(0,) * len(lead) + (int(rng.integers(n)),)] *= s
    with pytest.raises(NotInvertible):
        matcore.band_invert(band(a, kl + 1, ku + 1))


@BAND
@given(lead=st.sampled_from([(), (5,)]), k=st.integers(1, 12), s=st.integers(1, 4),
       kl=st.integers(0, 9), ku=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_band_blockwise_matches_the_dense_block_map(lead, k, s, kl, ku, seed):
    # two maps that act on each s x s block alone, against the same map on
    # the dense array's blocks: an entrywise weight keeps every band, and a
    # right product keeps it only where no touched block straddles its edge
    rng = np.random.default_rng(seed)
    n = k * s
    kl, ku = min(kl, n - 1), min(ku, n - 1)
    x = random_band(rng, lead, n, kl, ku)
    b = band(x, kl, ku)
    w, m = rng.standard_normal((2, s, s)) + 1j * rng.standard_normal((2, s, s))
    seen = []

    def weigh(blocks):
        seen.append(blocks.shape)
        return blocks * w

    got = matcore.band_blockwise(b, s, weigh)
    assert (got.kl, got.ku) == (kl, ku)
    np.testing.assert_allclose(band_dense(got), x * np.kron(np.ones((k, k)), w),
                               rtol=1e-15, atol=0)
    # one call, on every block that holds an entry of the band and no other
    touched = np.any(x.reshape((-1, k, s, k, s)) != 0, axis=(0, 2, 4))
    assert seen == [lead + (int(touched.sum()), s, s)]
    want = x @ np.kron(np.eye(k), m)
    i, j = np.indices((n, n))
    if np.any(want[..., (j - i > ku) | (i - j > kl)]):
        with pytest.raises(InvalidInput):
            matcore.band_blockwise(b, s, lambda blocks: blocks @ m)
    else:
        got = matcore.band_blockwise(b, s, lambda blocks: blocks @ m)
        np.testing.assert_allclose(band_dense(got), want, rtol=0, atol=1e-13)


def test_band_blockwise_refuses_a_leak_outside_the_band():
    # a map that writes 1e-300 at the top-right corner of a 3 x 3 block:
    # entry (0, 2) lies outside widths (1, 1), and inside widths (1, 2)
    x = np.eye(3, dtype=complex)

    def leak(blocks):
        blocks = blocks.copy()
        blocks[..., 0, -1] = 1e-300
        return blocks

    got = matcore.band_blockwise(band(x, 1, 2), 3, leak)
    assert band_dense(got)[0, 2] == 1e-300
    for lead in ((), (4,)):
        with pytest.raises(InvalidInput, match="outside the band"):
            matcore.band_blockwise(band(np.broadcast_to(x, lead + (3, 3)), 1, 1),
                                   3, leak)
    with pytest.raises(InvalidInput, match="multiple"):
        matcore.band_blockwise(band(x, 1, 1), 2, leak)


@BAND
@given(**band_shapes)
def test_band_scatter_matches_the_permuted_dense_array(lead, n, kl, ku, seed):
    rng = np.random.default_rng(seed)
    x = random_band(rng, lead, n, kl, ku)
    order = rng.permutation(n)
    back = np.argsort(order)
    got = matcore.band_scatter(band(x, kl, ku), order)
    np.testing.assert_array_equal(got, x[..., back[:, None], back])


def test_band_refuses_entries_outside_the_band():
    a = np.eye(5, dtype=complex)
    a[4, 1] = 1e-300
    band(a, 3, 0)
    with pytest.raises(InvalidInput):
        band(a, 2, 4)
    with pytest.raises(InvalidInput):
        band(np.broadcast_to(a, (3, 5, 5)), 2, 4)
