"""Tests for the reverse-mode differentiation core and the generic ops.

The core (Node, op, backward) is the program's; the ops live in
tests/generic_ops.py, as the reference for the hand-derived gradients.  Gradient values are checked against central finite differences
at smooth points and against hand algebra for the closed-form cases. Kink
behavior (relu and clamp boundaries) is pinned to the documented
zero-subgradient convention.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import generic_ops as ad


def test_values_match_numpy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4)) + 3.0
    a, b = ad.constant(x), ad.constant(y)
    assert np.array_equal(ad.add(a, b).value, x + y)
    assert np.array_equal(ad.multiply(a, b).value, x * y)
    assert np.array_equal(ad.divide(a, b).value, x / y)
    assert np.array_equal(ad.multiply(a, ad.constant(-1.0)).value, -x)
    assert np.array_equal(ad.relu(a).value, np.maximum(x, 0.0))
    assert np.array_equal(ad.log(b).value, np.log(y))
    assert ad.reduce_sum(a).value == pytest.approx(x.sum(), rel=1e-15)


def test_quadratic_gradient_closed_form():
    p = ad.parameter(np.array([1.5, -2.0, 0.25]))
    root = ad.reduce_sum(ad.multiply(p, p))
    ad.backward(root)
    assert np.allclose(p.adjoint, 2.0 * p.value, rtol=1e-14)


def test_backward_is_idempotent():
    p = ad.parameter(np.array([1.0, -2.0]))
    root = ad.reduce_sum(ad.multiply(p, p))
    ad.backward(root)
    first = p.adjoint.copy()
    ad.backward(root)
    assert np.array_equal(first, p.adjoint)


def test_backward_requires_scalar_root():
    p = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.add(p, p))


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ad.divide(ad.constant(np.ones(2)), ad.constant(np.array([1.0, 0.0])))


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        ad.log(ad.constant(np.array([1.0, 0.0])))


def test_clamp_needs_a_bound():
    with pytest.raises(ValueError):
        ad.clamp(ad.constant(np.ones(2)))


def test_broadcast_gradients_reduce_correctly():
    a = ad.parameter(np.ones((3, 1)))
    b = ad.parameter(np.ones((1, 4)))
    root = ad.reduce_sum(ad.add(a, b))
    ad.backward(root)
    # each entry of a participates in 4 sums, each entry of b in 3
    assert np.array_equal(a.adjoint, np.full((3, 1), 4.0))
    assert np.array_equal(b.adjoint, np.full((1, 4), 3.0))


def test_batched_matmul_gradient():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3, 3))
    v = [rng.standard_normal((3, 2)), rng.standard_normal((2, 1))]

    def build(params):
        w1, w2 = params
        h = ad.relu(ad.matmul(ad.matmul(ad.constant(a), w1),
                              ad.constant(np.eye(2))))
        return ad.reduce_sum(ad.matmul(h, w2))

    rep = ad.finite_diff_check(build, v, step=1e-6)
    assert rep.max_rel_error < 1e-6


def test_matmul_requires_matrices():
    with pytest.raises(ValueError):
        ad.matmul(ad.constant(np.ones(3)), ad.constant(np.ones((3, 1))))


def test_relu_and_clamp_boundary_subgradients_are_zero():
    p = ad.parameter(np.array([0.0, 1.0, -1.0]))
    root = ad.reduce_sum(ad.relu(p))
    ad.backward(root)
    assert np.array_equal(p.adjoint, np.array([0.0, 1.0, 0.0]))

    q = ad.parameter(np.array([0.5, 2.0, 5.0]))
    root = ad.reduce_sum(ad.clamp(q, lo=2.0, hi=4.0))
    ad.backward(root)
    assert np.array_equal(q.adjoint, np.array([0.0, 0.0, 0.0]))

    r = ad.parameter(np.array([2.5, 3.0]))
    root = ad.reduce_sum(ad.clamp(r, lo=2.0, hi=4.0))
    ad.backward(root)
    assert np.array_equal(r.adjoint, np.array([1.0, 1.0]))


def test_clamp_two_sided_values():
    x = ad.constant(np.array([-1.0, 0.3, 9.0]))
    out = ad.clamp(x, lo=0.0, hi=1.0)
    assert np.array_equal(out.value, np.array([0.0, 0.3, 1.0]))


def test_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(11)
    vals = [rng.uniform(0.5, 1.5, size=(2, 3)), rng.uniform(0.5, 1.5, size=(3, 1))]
    x = rng.uniform(0.5, 2.0, size=(5, 2))

    def build(params):
        w1, w2 = params
        h = ad.relu(ad.matmul(ad.constant(x), w1))
        y = ad.matmul(h, w2)
        t = ad.add(y, ad.constant(2.0))
        z = ad.divide(ad.log(ad.add(y, ad.constant(1.0))), ad.multiply(t, t))
        neg_z = ad.multiply(z, ad.constant(-1.0))
        return ad.reduce_sum(ad.multiply(z, neg_z))

    rep = ad.finite_diff_check(build, vals, step=1e-6)
    assert rep.max_rel_error < 1e-5


def test_finite_diff_check_skips_kink_crossings():
    # the only coordinate sits within one step of the relu kink, so a naive
    # two-sided difference would be garbage; the checker must exclude it
    def build(params):
        return ad.reduce_sum(ad.relu(params[0]))

    rep = ad.finite_diff_check(build, [np.array([3e-5])], step=1e-4)
    assert rep.max_rel_error == 0.0


def test_activity_signature_tracks_kinks():
    p = ad.parameter(np.array([1.0, -1.0]))
    root = ad.reduce_sum(ad.relu(p))
    sig = ad.activity_signature(root)
    assert len(sig) == 1
    assert np.array_equal(sig[0], np.array([True, False]))


@given(arrays(np.float64, (3, 2), elements=st.floats(-5.0, 5.0)))
@settings(max_examples=50)
def test_sum_of_squares_gradient_property(x):
    p = ad.parameter(x)
    ad.backward(ad.reduce_sum(ad.multiply(p, p)))
    assert np.allclose(p.adjoint, 2.0 * x, rtol=1e-12, atol=1e-12)


@given(arrays(np.float64, (4,), elements=st.floats(-3.0, 3.0)))
@settings(max_examples=50)
def test_relu_gradient_is_indicator(x):
    p = ad.parameter(x)
    ad.backward(ad.reduce_sum(ad.relu(p)))
    assert np.array_equal(p.adjoint, (x > 0.0).astype(float))


def test_tape_gives_constants_no_adjoint():
    p = ad.parameter(np.array([2.0]))
    c = ad.constant(np.array([3.0]))
    s = ad.multiply(c, c)
    ad.backward(ad.reduce_sum(ad.multiply(p, s)))
    assert c.adjoint is None and s.adjoint is None
    assert np.array_equal(p.adjoint, np.array([9.0]))
