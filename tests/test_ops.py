"""The element helpers act on a loop exactly as on each of its samples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from approxk import boundary, ops
from approxk.loops import LoopElem

from conftest import embed_top_left, lower_unipotent, rotation_j, upper_unipotent

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    database=None)


@st.composite
def loops(draw, count=1):
    """(G, d, [loops]): `count` invertible loops of G <= 4 samples of side d <= 4."""
    g = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(count):
        z = rng.standard_normal((g, d, d)) + 1j * rng.standard_normal((g, d, d))
        z /= np.linalg.norm(z, 2, axis=(1, 2), keepdims=True)
        out.append(LoopElem(np.eye(d) + 0.3 * z))
    return g, d, out


def assert_per_sample(loop_result, matrix_result_at):
    got = ops.arr(loop_result)
    for i in range(got.shape[0]):
        np.testing.assert_allclose(got[i], matrix_result_at(i),
                                   rtol=1e-12, atol=1e-14)


@PROPERTY
@given(loops(count=4))
def test_helpers_act_samplewise(data):
    g, d, (a, b, c, e) = data

    assert ops.norm(a) == max(ops.norm(a.samples[i]) for i in range(g))
    for fn in (ops.inv, ops.adj, upper_unipotent, lower_unipotent, rotation_j):
        assert_per_sample(fn(a), lambda i: fn(a.samples[i]))
    assert_per_sample(
        ops.block2(a, b, c, e),
        lambda i: ops.block2(a.samples[i], b.samples[i], c.samples[i], e.samples[i]))
    assert_per_sample(
        ops.oplus(a, ops.oplus(b, c)),
        lambda i: ops.oplus(a.samples[i], ops.oplus(b.samples[i], c.samples[i])))
    assert_per_sample(embed_top_left(a, d + 2),
                      lambda i: embed_top_left(a.samples[i], d + 2))
    big = ops.block2(a, b, c, e)
    for j, corner in enumerate(ops.corner_blocks(big, d)):
        assert_per_sample(corner,
                          lambda i: ops.corner_blocks(ops.arr(big)[i], d)[j])


@PROPERTY
@given(loops(), st.sampled_from(["left", "right"]))
def test_profile_multiplier_is_scalar_matrix_per_sample(data, side):
    g, d, (x,) = data
    profile = np.linspace(0.0, 1.0, g)
    assert_per_sample(
        boundary.h_apply(profile, x, side),
        lambda i: boundary.h_apply(profile[i] * np.eye(d), x.samples[i], side),
    )
