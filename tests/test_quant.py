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

from bitformer import quant
from bitformer.bitkernel import binary_gemm, pack_signs, unpack_signs
from bitformer.numerics import DenseMatrix, Tape
from bitformer.quant import (
    ALPHA_FLOOR,
    ElasticQuant,
    QuantError,
    apply_weight,
    binarize_activation_pm1,
    binarize_attention_01,
    binarize_weight,
    prepare_weight,
    weight_bits,
    weight_row_scales,
)

from oracles import central_difference, relative_error, whole_matrix_prepare_weight

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


@pytest.mark.parametrize("mode", ["hard", "relaxed"])
def test_transposed_weight_preparation_is_the_transpose_with_the_same_gradient(mode):
    w = RNG.normal(size=(6, 40))  # rows long enough for pairwise summation
    coeffs = RNG.normal(size=w.shape)
    prepared = lambda t, ps: apply_weight(t, prepare_weight(ps[0], mode, transposed=True))  # noqa: E731
    plain = lambda t, ps: binarize_weight(t, ps[0], mode)  # noqa: E731
    want = binarize_weight(None, DenseMatrix(w), mode).data
    assert np.array_equal(prepared(None, [DenseMatrix(w)]).data, want.T)
    g_t = weighted_sum(prepared, [w], coeffs.T)[0]
    g = weighted_sum(plain, [w], coeffs)[0]
    assert np.array_equal(g_t, g)


def same_bits(got, want) -> bool:
    """Bitwise equality of two float64 (or bool) arrays of the same shape."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if got.dtype == np.float64:
        got, want = got.view(np.uint64), want.view(np.uint64)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["hard", "relaxed"])
@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("transposed", [True, False])
@pytest.mark.parametrize(
    "shape, block_elems",
    [
        ((23, 8), 50),  # blocks of 6 rows: 6, 6, 6 and a ragged 5
        ((300, 768), None),  # the real block size at base width: 85, 85, 85 and 45 rows
        ((1, 5), 1),  # one row wider than a block
    ],
)
def test_row_blocked_weight_preparation_is_bitwise_the_whole_matrix_one(
    monkeypatch, mode, taped, transposed, shape, block_elems
):
    if block_elems is not None:
        monkeypatch.setattr(quant, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(shape[0])
    w = rng.normal(0.0, 0.7, size=shape)
    w[shape[0] // 2] = 0.0  # an all-zero row: zero scale, every sign +1
    got = prepare_weight(DenseMatrix(w), mode, taped, transposed)
    want = whole_matrix_prepare_weight(w, mode, taped, transposed)
    assert same_bits(got.value, want[0])
    assert got.value.flags.c_contiguous
    for field, expected in zip(("scales", "window", "clipped"), want[1:]):
        if taped:
            assert same_bits(getattr(got, field), expected), field
        else:
            assert getattr(got, field) is None


def assert_weight_bits_are_the_prepared_weight(w: np.ndarray) -> None:
    """Cached bits, scales and the rebuilt matrix against ``prepare_weight`` and ``pack_signs``."""
    got = weight_bits(DenseMatrix(w.copy()))
    want = prepare_weight(DenseMatrix(w.copy()), transposed=True)
    centered = w - w.mean(axis=1, keepdims=True)
    assert same_bits(got.value_t(), want.value)
    assert same_bits(got.scales, want.scales[:, 0])
    assert np.array_equal(got.bits.words, pack_signs(centered).words)
    assert np.array_equal(got.bits_t.words, pack_signs(centered.T).words)
    assert (got.bits.rows, got.bits.cols, got.bits_t.rows, got.bits_t.cols) == (*w.shape, *w.shape[::-1])


def row_holding_its_mean(rng: np.random.Generator, cols: int) -> np.ndarray:
    """Dyadic entries paired around a mean they sum to exactly; one or two entries equal it."""
    half = rng.integers(-4, 5, size=cols // 2) * 0.25
    if half.size:
        half[0] = 0.0
    row = 0.5 + np.concatenate([half, -half, [0.0] * (cols % 2)])
    return rng.permutation(row)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf, "both-inf", "mean"]),
)
def test_weight_bits_are_bitwise_the_prepared_weight(rows, cols, seed, special):
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.5, size=(rows, cols))
    r = int(rng.integers(rows))
    if special == "mean":
        w[r] = row_holding_its_mean(rng, cols)
    elif special == "both-inf":
        w[r, 0], w[r, -1] = np.inf, -np.inf
    elif special is not None:
        w[r, int(rng.integers(cols))] = special
    assert_weight_bits_are_the_prepared_weight(w)


@pytest.mark.parametrize(
    "shape, block_elems",
    [
        ((1, 1), None),
        ((1, 7), None),
        ((3, 8), None),
        ((2, 63), None),
        ((4, 64), None),
        ((5, 65), None),
        ((23, 130), 300),  # row blocks of 2 rows, the last ragged
        ((300, 768), None),  # the real block size at base width
    ],
)
def test_weight_bits_at_widths_around_word_boundaries(monkeypatch, shape, block_elems):
    if block_elems is not None:
        monkeypatch.setattr(quant, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(shape[1])
    w = rng.normal(0.0, 0.7, size=shape)
    r = shape[0] // 2
    w[r] = row_holding_its_mean(rng, shape[1])
    if shape[0] > 2:
        w[0, 0] = np.nan
        w[-1] = 0.0  # an all-zero row: zero scale, every sign +1
    assert_weight_bits_are_the_prepared_weight(w)
    signs = unpack_signs(weight_bits(DenseMatrix(w)).bits)[r]
    assert np.all(signs[w[r] == w[r].mean()] == 1.0)  # sign(0) = +1


def test_weight_bits_are_kept_while_the_frozen_array_is_unchanged():
    w = DenseMatrix(RNG.normal(size=(4, 9)))
    first = weight_bits(w)
    assert weight_bits(w) is first
    assert not w.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w.data[1, 2] = 0.0
    w.data.flags.writeable = True  # what the optimizer step does before its update
    w.data[1, 2] = 5.0
    second = weight_bits(w)
    assert second is not first and second.source is w.data
    w.data = -w.data  # a rebound array
    third = weight_bits(w)
    assert third is not second
    assert np.array_equal(third.value_t(), prepare_weight(DenseMatrix(w.data), transposed=True).value)


def test_untaped_weight_preparation_refuses_a_tape():
    prepared = prepare_weight(DenseMatrix(RNG.normal(size=(3, 4))), taped=False)
    assert apply_weight(None, prepared).data is prepared.value
    with pytest.raises(ValueError, match="backward state"):
        apply_weight(Tape(), prepared)


def test_deferred_weight_backward_is_the_per_use_backward_of_the_summed_gradient():
    w = DenseMatrix(RNG.normal(size=(5, 7)))
    uses = [RNG.normal(size=(7, 5)) for _ in range(3)]
    unused_w = DenseMatrix(w.data.copy())
    weight_tape = Tape()
    shared = apply_weight(weight_tape, prepare_weight(w, transposed=True))
    apply_weight(weight_tape, prepare_weight(unused_w, transposed=True))
    for g in uses:  # each use's tape adds its gradient into the one node
        shared.ensure_grad()[...] += g
    weight_tape.replay()
    got, w.grad = w.grad, None
    tape = Tape()
    apply_weight(tape, prepare_weight(w, transposed=True)).grad = uses[0] + uses[1] + uses[2]
    tape.replay()
    assert same_bits(got, w.grad)
    assert unused_w.grad is None  # a node no use reached runs no backward


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


def test_stacked_binarizers_send_each_slice_gradient_to_its_own_binarizer():
    # one binarizer per slice of a (2, 2, 5) stack, relaxed surrogates, every
    # sample away from the clip corners of its own slice's parameters
    pm1_x = np.array([[-2.2, -0.6, -0.1, 0.4, 0.7], [1.6, 2.4, 0.05, -1.4, 0.9]])
    pm1_x = np.stack([pm1_x, pm1_x - 0.55])
    att_x = np.stack(
        [
            [[-0.5, -0.1, 0.15, 0.25, 0.3], [0.55, 0.8, 1.2, 0.07, 0.33]],
            [[-0.3, 0.05, 0.2, 0.3, 0.45], [0.14, 0.6, 0.9, 0.28, 0.18]],
        ]
    )
    cases = (
        (binarize_activation_pm1, pm1_x, [(0.8, 0.15), (1.3, -0.4)], lambda x, al, be: al * np.clip(x - be, -1.0, 1.0)),
        (binarize_attention_01, att_x, [(0.4, 0.05), (0.25, 0.1)], lambda x, al, be: al * np.clip((x - be) / al, 0.0, 1.0)),
    )
    for binarize, x, params, surrogate in cases:
        coeffs = RNG.normal(size=x.shape)
        qs = [ElasticQuant.create(alpha=al, beta=be) for al, be in params]
        xm = DenseMatrix(x.copy())
        tape = Tape()
        out = binarize(tape, xm, qs, mode="relaxed")
        out.ensure_grad()[...] = coeffs
        tape.replay()

        def f(arrs):
            xx, al, be = arrs
            return float(sum(np.sum(coeffs[s] * surrogate(xx[s], al[s, 0], be[s, 0])) for s in range(2)))

        levels = np.array([[al] for al, _ in params])
        thresholds = np.array([[be] for _, be in params])
        want_x, want_al, want_be = fd_of(f, [x, levels, thresholds])
        assert relative_error(xm.grad, want_x, floor=1e-6) < FD_TOL
        assert relative_error([q.alpha.grad[0, 0] for q in qs], want_al[:, 0], floor=1e-6) < FD_TOL
        assert relative_error([q.beta.grad[0, 0] for q in qs], want_be[:, 0], floor=1e-6) < FD_TOL
        with pytest.raises(ValueError, match="as many binarizers"):
            binarize(None, xm, qs[:1])


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
