"""Dense-matrix op and gradient-tape tests.

Forward values are pinned against independent oracles (tests/oracles.py);
every backward is compared to central finite differences of the forward at
perturbation 1e-5 with relative error < 1e-4.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitformer.binattn import FullPrecisionOps
from bitformer.numerics import (
    AdamW,
    DenseMatrix,
    Tape,
    add,
    add_bias,
    add_constant,
    add_slices,
    affine,
    cross_entropy,
    gather_rows,
    gelu,
    layer_norm,
    linear_warmup_schedule,
    matmul,
    merge_heads,
    scale,
    slice_cols,
    softmax_rows,
    split_heads,
    transpose,
)

from oracles import central_difference, gelu_scalar, log_softmax_row, naive_matmul, relative_error

RNG = np.random.default_rng(20260816)

FD_EPS = 1e-5
FD_TOL = 1e-4


def fd_against_tape(build, arrays, n_points_min=10):
    """Compare tape gradients of scalar build(arrays) against central FD.

    build(tape, params) must return a 1x1 DenseMatrix; params are DenseMatrix
    wrappers around the given arrays (shared storage, so FD perturbs in place).
    """
    params = [DenseMatrix(a) for a in arrays]
    total = sum(a.size for a in arrays)
    assert total >= n_points_min

    tape = Tape()
    loss = build(tape, params)
    tape.backward(loss)
    got = [p.grad.copy() for p in params]

    def f(arrs):
        t = Tape()
        ps = [DenseMatrix(x) for x in arrs]
        return float(build(t, ps).data[0, 0])

    want = central_difference(f, [p.data for p in params], h=FD_EPS)
    for g, w in zip(got, want):
        assert relative_error(g, w, floor=1e-6) < FD_TOL


def as_scalar(tape, m):
    """Sum all entries of m into a 1x1 matrix via ones-vector products."""
    ones_left = DenseMatrix(np.ones((1, m.rows)))
    ones_right = DenseMatrix(np.ones((m.cols, 1)))
    return matmul(tape, matmul(tape, ones_left, m), ones_right)


# --------------------------------------------------------------------------
# DenseMatrix / Tape basics
# --------------------------------------------------------------------------


def test_dense_matrix_holds_a_matrix_or_a_stack_and_nothing_else():
    for shape in ((3,), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="DenseMatrix must be 2-D or 3-D"):
            DenseMatrix(np.zeros(shape))
    m = DenseMatrix([[1.0, 2.0]])
    assert (m.rows, m.cols) == (1, 2)
    assert m.data.dtype == np.float64
    stack = DenseMatrix(np.zeros((4, 2, 3)))
    assert (stack.rows, stack.cols) == (2, 3)


def test_gradients_accumulate_additively_and_reset_explicitly():
    x = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    for _ in range(2):
        tape = Tape()
        loss = as_scalar(tape, scale(tape, x, 3.0))
        tape.backward(loss)
    assert np.allclose(x.grad, 6.0)  # two backwards, no reset in between
    x.zero_grad()
    assert x.grad is None


def test_tape_refuses_an_unregistered_op_name():
    with pytest.raises(ValueError, match="unregistered tape op 'concat_cols'"):
        Tape().record("concat_cols", lambda: None)


def test_tape_replays_in_exact_reverse_order():
    order: list[str] = []
    tape = Tape()
    for name in ("add", "scale", "matmul"):  # registered names: record refuses others
        tape.record(name, lambda name=name: order.append(name))
    seed = DenseMatrix([[0.0]])
    tape.backward(seed)
    assert order == ["matmul", "scale", "add"]


# --------------------------------------------------------------------------
# matmul
# --------------------------------------------------------------------------


def test_matmul_small_known_value():
    tape = Tape()
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    b = DenseMatrix([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(tape, a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 5),
    k=st.integers(1, 5),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_triple_loop_oracle(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    out = matmul(None, DenseMatrix(a), DenseMatrix(b))
    assert np.allclose(out.data, naive_matmul(a, b), rtol=1e-12, atol=1e-12)


def test_matmul_backward_is_transpose_rule():
    # dA = dC @ B^T and dB = A^T @ dC, checked against FD.
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    fd_against_tape(lambda t, ps: as_scalar(t, matmul(t, ps[0], ps[1])), [a, b])

    tape = Tape()
    am, bm = DenseMatrix(a.copy()), DenseMatrix(b.copy())
    out = matmul(tape, am, bm)
    tape.backward(as_scalar(tape, out))
    dc = np.ones((3, 2))
    assert np.allclose(am.grad, dc @ b.T)
    assert np.allclose(bm.grad, a.T @ dc)


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        matmul(None, DenseMatrix(np.zeros((2, 3))), DenseMatrix(np.zeros((2, 3))))


# --------------------------------------------------------------------------
# structural ops
# --------------------------------------------------------------------------


def test_structural_ops_forward_and_fd():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4))
    bias = RNG.normal(size=(1, 4))

    assert np.allclose(add(None, DenseMatrix(a), DenseMatrix(b)).data, a + b)
    assert np.allclose(add_bias(None, DenseMatrix(a), DenseMatrix(bias)).data, a + bias)
    assert np.allclose(transpose(None, DenseMatrix(a)).data, a.T)
    assert np.allclose(scale(None, DenseMatrix(a), -2.5).data, -2.5 * a)
    assert np.allclose(slice_cols(None, DenseMatrix(a), 1, 3).data, a[:, 1:3])

    fd_against_tape(lambda t, ps: as_scalar(t, add(t, ps[0], ps[1])), [a.copy(), b.copy()])
    fd_against_tape(lambda t, ps: as_scalar(t, add_bias(t, ps[0], ps[1])), [a.copy(), bias.copy()])
    fd_against_tape(lambda t, ps: as_scalar(t, transpose(t, ps[0])), [a.copy()])
    fd_against_tape(
        lambda t, ps: as_scalar(t, matmul(t, slice_cols(t, ps[0], 0, 2), transpose(t, slice_cols(t, ps[0], 2, 4)))),
        [a.copy()],
    )


def test_affine_forward_and_fd_for_input_weight_and_bias():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    w = rng.normal(size=(5, 4))
    bias = rng.normal(size=(1, 5))
    readout = DenseMatrix(rng.normal(size=(5, 1)))

    out = affine(None, DenseMatrix(a), DenseMatrix(w), DenseMatrix(bias)).data
    assert np.allclose(out, naive_matmul(a, w.T) + bias, rtol=1e-12, atol=1e-12)
    fd_against_tape(
        lambda t, ps: as_scalar(t, matmul(t, affine(t, *ps), readout)),
        [a.copy(), w.copy(), bias.copy()],
    )
    with pytest.raises(ValueError):
        affine(None, DenseMatrix(a), DenseMatrix(w.T), DenseMatrix(bias))
    with pytest.raises(ValueError):
        affine(None, DenseMatrix(a), DenseMatrix(w), DenseMatrix(bias.T))


def test_untaped_full_precision_linear_makes_no_copy_of_its_weight():
    rng = np.random.default_rng(12)
    a = DenseMatrix(rng.normal(size=(4, 512)))
    w = DenseMatrix(rng.normal(size=(2048, 512)))
    b = DenseMatrix(rng.normal(size=(1, 2048)))
    linear = FullPrecisionOps(None).linear
    tracemalloc.start()
    try:
        out = linear(a, w, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.shape == (4, 2048)
    assert peak < w.data.nbytes


def test_split_and_merge_heads_roundtrip_and_fd():
    a = RNG.normal(size=(2, 6))
    stack = split_heads(None, DenseMatrix(a), 3)
    assert np.array_equal(stack.data, [a[:, 0:2], a[:, 2:4], a[:, 4:6]])
    assert np.array_equal(merge_heads(None, stack).data, a)
    with pytest.raises(ValueError):
        split_heads(None, DenseMatrix(a), 4)

    w = DenseMatrix(RNG.normal(size=(3, 2, 2)))  # weight each head differently
    fd_against_tape(lambda t, ps: as_scalar(t, merge_heads(t, matmul(t, split_heads(t, ps[0], 3), w))), [a.copy()])
    readout = DenseMatrix(RNG.normal(size=(6, 2)))
    fd_against_tape(
        lambda t, ps: as_scalar(t, matmul(t, merge_heads(t, ps[0]), readout)), [RNG.normal(size=(3, 2, 2))]
    )


def test_stacked_ops_equal_their_per_slice_matrix_ops_bitwise():
    # a 2-D operand broadcast over a stack takes its gradient slice by slice,
    # last slice first: the sums of one matrix op per slice, in tape order
    stack, b = RNG.normal(size=(3, 4, 5)), RNG.normal(size=(5, 2))
    g = RNG.normal(size=(3, 4, 2))
    sm, bm = DenseMatrix(stack.copy()), DenseMatrix(b.copy())
    tape = Tape()
    out = matmul(tape, softmax_rows(tape, sm), bm)
    out.ensure_grad()[...] = g
    tape.replay()

    parts, bm_ref = [DenseMatrix(x) for x in stack], DenseMatrix(b.copy())
    tape = Tape()
    outs = [matmul(tape, softmax_rows(tape, x), bm_ref) for x in parts]
    for o, gh in zip(outs, g):
        o.ensure_grad()[...] = gh
    tape.replay()
    assert np.array_equal(out.data, [o.data for o in outs])
    assert np.array_equal(sm.grad, [x.grad for x in parts])
    assert bm.grad.tobytes() == bm_ref.grad.tobytes()

    assert np.array_equal(transpose(None, DenseMatrix(stack)).data, [x.T for x in stack])


def test_add_slices_adds_each_part_to_its_slice_and_fd():
    a = RNG.normal(size=(3, 2, 2))
    part = RNG.normal(size=(2, 2))
    out = add_slices(None, DenseMatrix(a), [None, DenseMatrix(part), None])
    assert np.array_equal(out.data, [a[0], a[1] + part, a[2]])
    with pytest.raises(ValueError):
        add_slices(None, DenseMatrix(a), [None])

    readout = DenseMatrix(RNG.normal(size=(6, 1)))
    fd_against_tape(
        lambda t, ps: as_scalar(t, matmul(t, merge_heads(t, add_slices(t, ps[0], [ps[1], None, ps[1]])), readout)),
        [a.copy(), part.copy()],
    )


def test_gather_rows_with_gradients():
    table = RNG.normal(size=(5, 3))
    idx = np.array([4, 0, 0, 2])
    out = gather_rows(None, DenseMatrix(table), idx)
    assert np.allclose(out.data, table[idx])

    # Repeated indices must accumulate into the same table row.
    tape = Tape()
    tm = DenseMatrix(table.copy())
    loss = as_scalar(tape, gather_rows(tape, tm, idx))
    tape.backward(loss)
    want = np.zeros_like(table)
    np.add.at(want, idx, np.ones((4, 3)))
    assert np.allclose(tm.grad, want)

    fd_against_tape(lambda t, ps: as_scalar(t, gather_rows(t, ps[0], idx)), [table.copy()])


def test_add_constant_shifts_without_gradient_to_shift():
    a = RNG.normal(size=(4, 3))
    shift = np.array(
        [[0.0, -1e9, 0.0], [0.0, 0.0, -1e9], [0.0, 0.0, 0.0], [-1e9, 0.0, 0.0]]
    )
    out = add_constant(None, DenseMatrix(a), shift)
    assert np.allclose(out.data, a + shift)
    # FD with a moderate shift (huge offsets would drown the 1e-5 perturbation
    # in float64 rounding; the op is linear, so the gradient path is the same)
    small = np.where(shift < 0, -3.0, 0.25)
    fd_against_tape(lambda t, ps: as_scalar(t, add_constant(t, ps[0], small)), [a.copy()])


# --------------------------------------------------------------------------
# softmax
# --------------------------------------------------------------------------


def test_softmax_rows_match_textbook_oracle_and_sum_to_one():
    x = RNG.normal(size=(4, 7)) * 3.0
    out = softmax_rows(None, DenseMatrix(x))
    for i in range(4):
        want = np.exp(x[i] - x[i].max())
        want = want / want.sum()
        assert np.allclose(out.data[i], want, atol=1e-12)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_rows_is_shift_invariant_at_large_offsets():
    row = np.array([[0.3, -1.2, 2.0]])
    big = row + 1e4
    a = softmax_rows(None, DenseMatrix(row)).data
    b = softmax_rows(None, DenseMatrix(big)).data
    assert np.all(np.isfinite(b))
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale_=st.floats(0.1, 50.0),
)
def test_softmax_rows_sum_property(rows, cols, seed, scale_):
    x = np.random.default_rng(seed).normal(size=(rows, cols)) * scale_
    out = softmax_rows(None, DenseMatrix(x)).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out >= 0.0)


def test_softmax_backward_fd():
    x = RNG.normal(size=(3, 5))
    w = RNG.normal(size=(5, 1))  # weight the entries so the gradient is nontrivial

    def build(t, ps):
        p = softmax_rows(t, ps[0])
        return as_scalar(t, matmul(t, p, DenseMatrix(w)))

    fd_against_tape(build, [x.copy()])


# --------------------------------------------------------------------------
# layer norm
# --------------------------------------------------------------------------


def test_layer_norm_standardizes_rows():
    x = RNG.normal(size=(4, 8)) * 5 + 3
    gamma = DenseMatrix(np.ones((1, 8)))
    beta = DenseMatrix(np.zeros((1, 8)))
    out = layer_norm(None, DenseMatrix(x), gamma, beta).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)  # eps shifts variance slightly


def test_layer_norm_affine_and_fd():
    x = RNG.normal(size=(3, 6))
    gamma = RNG.normal(size=(1, 6))
    beta = RNG.normal(size=(1, 6))
    w = np.random.default_rng(7).normal(size=(6, 2))

    def build(t, ps):
        return as_scalar(t, matmul(t, layer_norm(t, ps[0], ps[1], ps[2]), DenseMatrix(w)))

    fd_against_tape(build, [x.copy(), gamma.copy(), beta.copy()])


# --------------------------------------------------------------------------
# gelu
# --------------------------------------------------------------------------


def test_gelu_matches_scalar_oracle():
    xs = np.array([[-3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0]])
    out = gelu(None, DenseMatrix(xs)).data[0]
    for got, x in zip(out, xs[0]):
        assert got == pytest.approx(gelu_scalar(float(x)), abs=1e-12)
    assert gelu(None, DenseMatrix([[0.0]])).data[0, 0] == 0.0


def test_gelu_backward_fd():
    x = RNG.normal(size=(3, 5)) * 2
    w = np.random.default_rng(8).normal(size=(5, 1))
    fd_against_tape(lambda t, ps: as_scalar(t, matmul(t, gelu(t, ps[0]), DenseMatrix(w))), [x.copy()])


# --------------------------------------------------------------------------
# cross entropy
# --------------------------------------------------------------------------


def test_cross_entropy_uniform_logits_is_log_vocab():
    for v in (2, 7, 33):
        logits = DenseMatrix(np.zeros((5, v)))
        targets = np.arange(5) % v
        loss = cross_entropy(None, logits, targets)
        assert loss.data[0, 0] == pytest.approx(math.log(v), rel=1e-12)


def test_cross_entropy_ignores_masked_positions_and_empty_is_zero():
    logits = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, -2.0]])
    targets = np.array([0, -100])
    got = cross_entropy(None, DenseMatrix(logits), targets).data[0, 0]
    want = -log_softmax_row(logits[0])[0]
    assert got == pytest.approx(want, rel=1e-12)

    empty = cross_entropy(None, DenseMatrix(logits), np.array([-100, -100]))
    assert empty.data[0, 0] == 0.0


def test_cross_entropy_backward_fd_with_ignored_rows():
    logits = RNG.normal(size=(4, 6))
    targets = np.array([2, -100, 0, 5])
    fd_against_tape(lambda t, ps: cross_entropy(t, ps[0], targets), [logits.copy()])


# --------------------------------------------------------------------------
# AdamW
# --------------------------------------------------------------------------


def test_adamw_zero_grad_step_applies_decoupled_decay_only():
    p = DenseMatrix(np.full((2, 2), 10.0))
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    p.ensure_grad()  # zero gradient
    opt.step()
    assert np.allclose(p.data, 10.0 * (1.0 - 0.1 * 0.01))


def test_adamw_first_step_moves_param_by_lr_against_gradient_sign():
    p = DenseMatrix(np.array([[1.0, -2.0]]))
    opt = AdamW([p], lr=0.01, weight_decay=0.0)
    p.ensure_grad()[...] = np.array([[0.5, -0.25]])
    opt.step()
    # bias-corrected first step is ~lr * sign(g) when eps is negligible
    assert np.allclose(p.data, [[1.0 - 0.01, -2.0 + 0.01]], atol=1e-6)


def test_adamw_converges_on_quadratic():
    # minimize sum((p - 3)^2): a few hundred steps should land near 3
    p = DenseMatrix(np.zeros((1, 3)))
    opt = AdamW([p], lr=0.05, weight_decay=0.0)
    for _ in range(500):
        opt.zero_grad()
        p.ensure_grad()[...] = 2.0 * (p.data - 3.0)
        opt.step()
    assert np.allclose(p.data, 3.0, atol=1e-3)


def test_adamw_skips_params_without_gradient_except_decay():
    p = DenseMatrix(np.full((1, 2), 4.0))
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    opt.step()  # grad is None -> treated as zero
    assert np.allclose(p.data, 4.0 * (1.0 - 0.001))


# --------------------------------------------------------------------------
# learning-rate schedule
# --------------------------------------------------------------------------


def test_schedule_endpoints_and_peak():
    peak = 2e-4
    assert linear_warmup_schedule(0, 1000, 0.1, peak) == 0.0
    assert linear_warmup_schedule(100, 1000, 0.1, peak) == pytest.approx(peak)
    assert linear_warmup_schedule(1000, 1000, 0.1, peak) == 0.0
    assert linear_warmup_schedule(50, 1000, 0.1, peak) == pytest.approx(peak / 2)
    assert linear_warmup_schedule(550, 1000, 0.1, peak) == pytest.approx(peak / 2)


@settings(max_examples=50, deadline=None)
@given(total=st.integers(10, 10_000), frac=st.floats(0.01, 0.5), step=st.integers(0, 10_000))
def test_schedule_is_within_peak_and_piecewise_linear(total, frac, step):
    step = min(step, total)
    peak = 1.0
    v = linear_warmup_schedule(step, total, frac, peak)
    assert 0.0 <= v <= peak + 1e-12
    w = int(round(total * frac))
    if 0 < step < w:
        left = linear_warmup_schedule(step - 1, total, frac, peak)
        right = linear_warmup_schedule(step + 1, total, frac, peak)
        assert v == pytest.approx((left + right) / 2, abs=1e-12)
