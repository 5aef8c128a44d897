"""Binarizer tests: forward values, surrogate gradients, packed agreement.

Each binarizer declares a clip surrogate; its backward must equal central
finite differences of that surrogate away from kinks.  The level parameter
of the ±1 binarizer is the one exception: the true forward is linear in the
level, so its gradient is checked against FD of the forward itself and
against the surrogate only in the saturated region where the two coincide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitformer.bitkernel import binary_gemm, pack_signs
from bitformer.numerics import DenseMatrix, Tape
from bitformer.quant import (
    ALPHA_FLOOR,
    ElasticQuant,
    QuantError,
    binarize_activation_pm1,
    binarize_attention_01,
    binarize_weight,
    weight_row_scales,
)

from oracles import central_difference, relative_error

RNG = np.random.default_rng(77)
FD_TOL = 1e-4


def weighted_sum(build_out, arrays, coeffs):
    """Tape gradient of sum(coeffs * build_out(params)) for FD comparison."""
    params = [DenseMatrix(a) for a in arrays]
    tape = Tape()
    out = build_out(tape, params)
    out.ensure_grad()[...] = coeffs  # seed d(loss)/d(out) for loss = sum(coeffs * out)
    for _, fn in reversed(tape.ops):
        fn()
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


def fd_of(f, arrays, h=1e-5):
    return central_difference(lambda arrs: f(arrs), [a.copy() for a in arrays], h=h)


# --------------------------------------------------------------------------
# weight binarizer
# --------------------------------------------------------------------------


def test_binarize_weight_worked_example():
    # row [3, -1]: mean 1, centered [2, -2], signs [+, -], scale (3+1)/2 = 2
    out = binarize_weight(None, DenseMatrix([[3.0, -1.0]]))
    assert np.array_equal(out.data, [[2.0, -2.0]])


def test_binarize_weight_all_equal_row_uses_positive_sign_of_zero():
    out = binarize_weight(None, DenseMatrix([[1.0, 1.0, 1.0, 1.0]]))
    assert np.array_equal(out.data, [[1.0, 1.0, 1.0, 1.0]])


def test_binarize_weight_rows_are_independent():
    w = np.array([[3.0, -1.0], [10.0, 20.0]])
    out = binarize_weight(None, DenseMatrix(w))
    assert np.array_equal(out.data[0], [2.0, -2.0])
    assert np.array_equal(out.data[1], [-15.0, 15.0])


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_binarize_weight_rows_take_at_most_two_values(rows, cols, seed):
    w = np.random.default_rng(seed).normal(size=(rows, cols)) * 3
    out = binarize_weight(None, DenseMatrix(w)).data
    scales = weight_row_scales(w)
    for i in range(rows):
        assert set(np.unique(np.abs(out[i]))) <= {scales[i]}
        assert np.allclose(np.abs(out[i]), scales[i])


def test_binarize_weight_fd_against_declared_surrogate():
    # surrogate: (mean |w_row|) * hardtanh(w - row_mean); keep every centered
    # value and every raw value at least 0.01 from its kink (|c|=1, w=0)
    rng = np.random.default_rng(5)
    w = rng.uniform(0.05, 0.9, size=(3, 8)) * rng.choice([-1.0, 1.0], size=(3, 8))
    c = w - w.mean(axis=1, keepdims=True)
    assert np.all(np.abs(np.abs(c) - 1.0) > 0.01) and np.all(np.abs(w) > 0.01)
    coeffs = rng.normal(size=w.shape)

    got = weighted_sum(lambda t, ps: binarize_weight(t, ps[0], mode="relaxed"), [w], coeffs)[0]

    def f(arrs):
        ww = arrs[0]
        s = np.abs(ww).mean(axis=1, keepdims=True)
        cc = np.clip(ww - ww.mean(axis=1, keepdims=True), -1.0, 1.0)
        return float(np.sum(coeffs * s * cc))

    want = fd_of(f, [w])[0]
    assert relative_error(got, want, floor=1e-6) < FD_TOL


def test_binarize_weight_hard_and_relaxed_share_backward():
    w = RNG.normal(size=(2, 6))
    coeffs = RNG.normal(size=w.shape)
    g_hard = weighted_sum(lambda t, ps: binarize_weight(t, ps[0], mode="hard"), [w], coeffs)[0]
    g_rel = weighted_sum(lambda t, ps: binarize_weight(t, ps[0], mode="relaxed"), [w], coeffs)[0]
    assert np.array_equal(g_hard, g_rel)


# --------------------------------------------------------------------------
# ±1 activation binarizer
# --------------------------------------------------------------------------


def test_pm1_forward_worked_example():
    q = ElasticQuant.create(alpha=0.5, beta=0.1)
    a = DenseMatrix([[0.4, -0.2, 0.1]])
    out = binarize_activation_pm1(None, a, q)
    # sign(0.3) = +1, sign(-0.3) = -1, sign(0.0) = +1
    assert np.array_equal(out.data, [[0.5, -0.5, 0.5]])


def test_pm1_alpha_floor_keeps_level_positive():
    q = ElasticQuant.create(alpha=0.0, beta=0.0)
    out = binarize_activation_pm1(None, DenseMatrix([[2.0, -2.0]]), q)
    assert np.array_equal(out.data, [[ALPHA_FLOOR, -ALPHA_FLOOR]])


def test_pm1_backward_formulas():
    alpha, beta = 0.7, 0.1
    q = ElasticQuant.create(alpha=alpha, beta=beta)
    a = DenseMatrix([[-2.0, -0.4, 0.1, 0.8, 1.3, 2.4]])
    g = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])

    tape = Tape()
    out = binarize_activation_pm1(tape, a, q)
    out.ensure_grad()[...] = g
    for _, fn in reversed(tape.ops):
        fn()

    window = (np.abs(a.data - beta) <= 1.0).astype(float)
    clipped = np.clip(a.data - beta, -1.0, 1.0)
    assert np.array_equal(a.grad, g * alpha * window)
    assert q.alpha.grad[0, 0] == pytest.approx(float((g * clipped).sum()))
    assert q.beta.grad[0, 0] == pytest.approx(float((-alpha * g * window).sum()))


def test_pm1_fd_input_and_threshold_against_surrogate():
    # surrogate alpha * hardtanh(a - beta); sample away from |a - beta| = 1
    alpha, beta = 0.8, 0.15
    a = np.array([[-2.2, -0.6, -0.1, 0.4, 0.7, 1.6, 2.4, 0.05, -1.4, 0.9]])
    coeffs = RNG.normal(size=a.shape)

    def run(arrs):
        aa, bb = arrs
        return float(np.sum(coeffs * alpha * np.clip(aa - bb[0, 0], -1.0, 1.0)))

    q = ElasticQuant.create(alpha=alpha, beta=beta)
    params = [DenseMatrix(a)]
    tape = Tape()
    out = binarize_activation_pm1(tape, params[0], q, mode="relaxed")
    out.ensure_grad()[...] = coeffs
    for _, fn in reversed(tape.ops):
        fn()

    want_a, want_b = fd_of(run, [a, np.array([[beta]])])
    assert relative_error(params[0].grad, want_a, floor=1e-6) < FD_TOL
    assert relative_error(q.beta.grad, want_b, floor=1e-6) < FD_TOL


def test_pm1_fd_level_against_surrogate():
    # level gradient is the exact derivative of alpha * hardtanh(a - beta),
    # checked at a mix of interior and saturated points; where everything
    # saturates it coincides with the hard forward's derivative sign(a - beta)
    alpha, beta = 0.6, -0.2
    a = np.array([[-2.0, -0.7, 0.3, 2.3, 0.05, -1.5, 0.6, -2.6, 1.8, -0.4]])
    coeffs = RNG.normal(size=a.shape)

    q = ElasticQuant.create(alpha=alpha, beta=beta)
    tape = Tape()
    out = binarize_activation_pm1(tape, DenseMatrix(a), q, mode="relaxed")
    out.ensure_grad()[...] = coeffs
    for _, fn in reversed(tape.ops):
        fn()

    def f_sur(arrs):
        aa = arrs[0][0, 0]
        return float(np.sum(coeffs * aa * np.clip(a - beta, -1.0, 1.0)))

    want = fd_of(f_sur, [np.array([[alpha]])])[0]
    assert relative_error(q.alpha.grad, want, floor=1e-6) < FD_TOL

    sat = np.abs(a - beta) > 1.0
    agree = coeffs * np.where(a - beta >= 0, 1.0, -1.0)
    assert float((coeffs * np.clip(a - beta, -1.0, 1.0))[sat].sum()) == pytest.approx(
        float(agree[sat].sum())
    )


# --------------------------------------------------------------------------
# {0,1} attention-map binarizer
# --------------------------------------------------------------------------


def test_att01_worked_example_and_half_rounds_up():
    q = ElasticQuant.create(alpha=0.5, beta=0.1)
    att = DenseMatrix([[0.4, 0.3, 0.05]])
    out = binarize_attention_01(None, att, q)
    # (att-0.1)/0.5 ~= [0.6, 0.4, -0.1] -> bits [1, 0, 0] -> alpha * bits
    assert np.array_equal(out.data, [[0.5, 0.0, 0.0]])

    # an exact half selects (rounds up): beta 0, alpha 0.5, att 0.25 -> u = 0.5
    q2 = ElasticQuant.create(alpha=0.5, beta=0.0)
    out2 = binarize_attention_01(None, DenseMatrix([[0.25, 0.2499]]), q2)
    assert np.array_equal(out2.data, [[0.5, 0.0]])


def test_att01_rejects_nonpositive_level():
    att = DenseMatrix([[0.2]])
    with pytest.raises(QuantError):
        binarize_attention_01(None, att, ElasticQuant.create(alpha=0.0, beta=0.0))
    with pytest.raises(QuantError):
        binarize_attention_01(None, att, ElasticQuant.create(alpha=-0.5, beta=0.0))


def test_att01_backward_formulas():
    alpha, beta = 0.5, 0.1
    q = ElasticQuant.create(alpha=alpha, beta=beta)
    att = DenseMatrix([[0.05, 0.2, 0.4, 0.7, 0.9, -0.3]])
    g = np.arange(1.0, 7.0).reshape(1, 6)

    tape = Tape()
    out = binarize_attention_01(tape, att, q)
    out.ensure_grad()[...] = g
    for _, fn in reversed(tape.ops):
        fn()

    u = (att.data - beta) / alpha
    inside = ((u > 0) & (u < 1)).astype(float)
    sat_hi = (u >= 1).astype(float)
    assert np.array_equal(att.grad, g * inside)
    assert q.beta.grad[0, 0] == pytest.approx(float((-g * inside).sum()))
    assert q.alpha.grad[0, 0] == pytest.approx(float((g * sat_hi).sum()))


def test_att01_fd_all_three_against_surrogate():
    # surrogate alpha * clip((att - beta)/alpha, 0, 1); keep u away from 0 and 1
    alpha, beta = 0.4, 0.05
    att = np.array([[-0.5, -0.1, 0.15, 0.25, 0.3, 0.55, 0.8, 1.2, 0.07, 0.33]])
    u = (att - beta) / alpha
    assert np.all((np.abs(u) > 0.02) & (np.abs(u - 1.0) > 0.02))
    coeffs = RNG.normal(size=att.shape)

    q = ElasticQuant.create(alpha=alpha, beta=beta)
    am = DenseMatrix(att)
    tape = Tape()
    out = binarize_attention_01(tape, am, q, mode="relaxed")
    out.ensure_grad()[...] = coeffs
    for _, fn in reversed(tape.ops):
        fn()

    def f(arrs):
        aa, al, be = arrs
        return float(np.sum(coeffs * al[0, 0] * np.clip((aa - be[0, 0]) / al[0, 0], 0.0, 1.0)))

    want_att, want_al, want_be = fd_of(f, [att, np.array([[alpha]]), np.array([[beta]])])
    assert relative_error(am.grad, want_att, floor=1e-6) < FD_TOL
    assert relative_error(q.alpha.grad, want_al, floor=1e-6) < FD_TOL
    assert relative_error(q.beta.grad, want_be, floor=1e-6) < FD_TOL


def test_att01_key_mask_gates_selection_and_gradient_at_any_threshold():
    # beta below -alpha/2 selects a key of zero mass; a masked key stays
    # unselected and takes no gradient in either mode, unmasked keys as before
    att = np.array([[0.0, 0.1, 0.0, 0.4], [0.2, 0.0, 0.0, 0.7]])  # u = (att + 0.3) / 0.5
    key_mask = np.array([True, True, False, True])
    g = np.arange(1.0, 9.0).reshape(2, 4)
    for mode in ("hard", "relaxed"):
        runs = []
        for mask in (None, key_mask):
            am, q = DenseMatrix(att), ElasticQuant.create(alpha=0.5, beta=-0.3)
            tape = Tape()
            out = binarize_attention_01(tape, am, q, mode, mask)
            out.ensure_grad()[...] = g
            for _, fn in reversed(tape.ops):
                fn()
            runs.append((out.data, am.grad, q))
        (plain, plain_grad, _), (masked, masked_grad, q) = runs
        assert np.all(plain[:, 2] > 0.0)
        assert np.array_equal(masked[:, 2], [0.0, 0.0])
        assert np.array_equal(masked_grad[:, 2], [0.0, 0.0])
        assert np.array_equal(masked[:, key_mask], plain[:, key_mask])
        assert np.array_equal(masked_grad[:, key_mask], plain_grad[:, key_mask])
        assert q.beta.grad[0, 0] == -(1.0 + 2.0 + 6.0)  # inside 0 < u < 1, unmasked only
        assert q.alpha.grad[0, 0] == 4.0 + 5.0 + 8.0  # saturated u >= 1


# --------------------------------------------------------------------------
# float simulation vs packed kernels
# --------------------------------------------------------------------------


def test_simulated_binary_linear_matches_packed_gemm():
    # 200 random layer shapes: the float path multiplies simulated ±level
    # values; the packed path multiplies bit patterns and applies the fused
    # scale to the exact integer accumulator
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 131))
        out_dim = int(rng.integers(1, 17))
        a = rng.normal(size=(m, k))
        w = rng.normal(size=(out_dim, k))
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(-0.5, 0.5))

        q = ElasticQuant.create(alpha=alpha, beta=beta)
        aq = binarize_activation_pm1(None, DenseMatrix(a), q)
        wq = binarize_weight(None, DenseMatrix(w))
        sim = aq.data @ wq.data.T

        scales = alpha * weight_row_scales(w)
        packed = binary_gemm(pack_signs(a - beta), pack_signs(w - w.mean(axis=1, keepdims=True)), scales)
        worst = max(worst, float(np.max(np.abs(sim - packed.data))))
    assert worst <= 1e-10
