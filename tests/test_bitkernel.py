"""Packed-bit kernel tests: every fast path is checked against slow loops.

The packed routines operate on 64-bit words; the oracles unpack to {-1,+1}
(or {0,1}) integer vectors and accumulate in Python ints, so any masking or
padding mistake in the kernels shows up as an exact integer mismatch.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitformer.bitkernel import (
    PackedBitMatrix,
    binary_accumulate,
    binary_gemm,
    equivalent_flops,
    pack_signs,
    ternary_accumulate,
    ternary_binary_gemm,
    unpack_signs,
)

from oracles import naive_sign_dot, naive_ternary_dot

RNG = np.random.default_rng(1234)


def random_signs(rng, rows, cols):
    return rng.choice([-1.0, 1.0], size=(rows, cols))


def random_bits01(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols)).astype(np.float64)


# --------------------------------------------------------------------------
# packing
# --------------------------------------------------------------------------


def test_pack_layout_and_word_count():
    x = RNG.normal(size=(3, 70))
    p = pack_signs(x)
    assert (p.rows, p.cols) == (3, 70)
    assert p.words.shape == (3, 2)  # ceil(70/64)
    assert p.words.dtype == np.uint64


def test_pack_sign_of_zero_is_positive():
    p = pack_signs(np.array([[0.0, -0.0, -1.0, 2.0]]))
    back = unpack_signs(p)
    # x >= 0 maps to +1; numpy treats -0.0 as >= 0 as well
    assert np.array_equal(back, [[1.0, 1.0, -1.0, 1.0]])


def test_pack_padding_bits_are_zero():
    x = np.ones((2, 65))  # one full word + 1 logical bit in the tail word
    p = pack_signs(x)
    tail = p.words[:, 1]
    assert np.all(tail == np.uint64(1))  # only bit 0 set, 63 padding bits zero


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_pack_unpack_roundtrip(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols))
    want = np.where(x >= 0, 1.0, -1.0)
    assert np.array_equal(unpack_signs(pack_signs(x)), want)


# --------------------------------------------------------------------------
# xnor-popcount dot: one-row operands of the packed accumulator
# --------------------------------------------------------------------------


def one_row_dot(x, y) -> int:
    acc = binary_accumulate(pack_signs(x), pack_signs(y))
    assert acc.shape == (1, 1)
    return int(acc[0, 0])


def test_xnor_dot_small_known_value():
    # (+1)(+1) + (-1)(+1) + (+1)(-1) = -1; popcount route: 2*1 - 3
    assert one_row_dot(np.array([[1.0, -1.0, 1.0]]), np.array([[1.0, 1.0, -1.0]])) == -1


def test_xnor_dot_boundary_lengths():
    for n in (1, 63, 64, 65, 128, 130):
        x = random_signs(RNG, 1, n)
        y = random_signs(RNG, 1, n)
        assert one_row_dot(x, y) == naive_sign_dot(x[0].astype(int), y[0].astype(int))


def test_xnor_dot_self_is_length():
    x = random_signs(RNG, 1, 100)
    assert one_row_dot(x, x) == 100


# --------------------------------------------------------------------------
# binary gemm
# --------------------------------------------------------------------------


def test_binary_gemm_equals_float_gemm_of_signs():
    a = random_signs(RNG, 5, 77)
    b = random_signs(RNG, 4, 77)  # pre-transposed layout: rows are output columns
    out = binary_gemm(pack_signs(a), pack_signs(b), 1.0)
    assert np.array_equal(out.data, a @ b.T)


def test_binary_gemm_scale_and_exact_accumulator():
    a = random_signs(RNG, 3, 65)
    b = random_signs(RNG, 2, 65)
    acc = binary_accumulate(pack_signs(a), pack_signs(b))
    assert acc.dtype == np.int64
    assert np.array_equal(acc, (a @ b.T).astype(np.int64))

    out = binary_gemm(pack_signs(a), pack_signs(b), 0.125)
    assert np.array_equal(out.data, 0.125 * acc)

    # scale can also vary per output column (one scale per b-row)
    scales = np.array([0.5, -2.0])
    out = binary_gemm(pack_signs(a), pack_signs(b), scales)
    assert np.array_equal(out.data, (a @ b.T) * scales)


def test_binary_gemm_rejects_width_mismatch():
    a = pack_signs(random_signs(RNG, 2, 10))
    b = pack_signs(random_signs(RNG, 2, 11))
    with pytest.raises(ValueError):
        binary_gemm(a, b, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    k=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
)
def test_binary_gemm_matches_loop_oracle(m, n, k, seed):
    rng = np.random.default_rng(seed)
    a = random_signs(rng, m, k)
    b = random_signs(rng, n, k)
    got = binary_accumulate(pack_signs(a), pack_signs(b))
    for i in range(m):
        for j in range(n):
            assert got[i, j] == naive_sign_dot(a[i].astype(int), b[j].astype(int))


# --------------------------------------------------------------------------
# ternary (selection) x binary gemm
# --------------------------------------------------------------------------


def test_ternary_small_known_values():
    sel = np.array([[1.0, 0.0, 1.0]])
    v = np.array([[1.0, -1.0, 1.0]])
    out = ternary_accumulate(pack_signs(sel * 2 - 1), pack_signs(v))
    assert out[0, 0] == 2  # v0 + v2

    sel2 = np.array([[1.0, 0.0, 0.0]])
    v2 = np.array([[-1.0, -1.0, 1.0]])
    out2 = ternary_accumulate(pack_signs(sel2 * 2 - 1), pack_signs(v2))
    assert out2[0, 0] == -1  # negative result exercises the arithmetic shift


def test_ternary_gemm_equals_direct_product():
    sel = random_bits01(RNG, 6, 97)
    v = random_signs(RNG, 5, 97)
    out = ternary_binary_gemm(pack_signs(sel * 2 - 1), pack_signs(v), 1.0)
    assert np.array_equal(out.data, sel @ v.T)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    k=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
)
def test_ternary_matches_loop_oracle(m, n, k, seed):
    rng = np.random.default_rng(seed)
    sel = random_bits01(rng, m, k)
    v = random_signs(rng, n, k)
    got = ternary_accumulate(pack_signs(sel * 2 - 1), pack_signs(v))
    for i in range(m):
        for j in range(n):
            assert got[i, j] == naive_ternary_dot(sel[i].astype(int), v[j].astype(int))


def test_ternary_all_selected_reduces_to_plain_sum():
    v = random_signs(RNG, 3, 50)
    sel = np.ones((2, 50))
    out = ternary_accumulate(pack_signs(sel), pack_signs(v))
    assert np.array_equal(out, np.broadcast_to(v.sum(axis=1).astype(np.int64), (2, 3)))


# --------------------------------------------------------------------------
# cost accounting
# --------------------------------------------------------------------------


def cfg(layers, hidden, heads, ffn, max_seq, vocab, variant="bipft_a", rank=0, full_precision=False):
    return SimpleNamespace(
        layers=layers, hidden=hidden, heads=heads, ffn=ffn,
        max_seq=max_seq, vocab=vocab, variant=variant, rank=rank,
        full_precision=full_precision,
    )


BASE = dict(layers=12, hidden=768, heads=12, ffn=3072, max_seq=512, vocab=30522)


def test_equiv_flops_binary_base_config_lands_near_reference():
    rep = equivalent_flops(cfg(**BASE), seq_len=128)
    assert abs(rep.equiv_gflops - 0.4) / 0.4 < 0.15


def test_equiv_flops_full_precision_base_config():
    rep = equivalent_flops(cfg(**BASE, full_precision=True), seq_len=128)
    assert abs(rep.equiv_gflops - 22.5) / 22.5 < 0.05


def test_equiv_flops_estimators_add_small_fp_cost():
    a = equivalent_flops(cfg(**BASE), seq_len=128)
    b = equivalent_flops(cfg(**BASE, variant="bipft_b", rank=1), seq_len=128)
    assert b.equiv_gflops > a.equiv_gflops
    assert b.equiv_gflops - a.equiv_gflops < 0.1 * a.equiv_gflops
    assert abs(b.equiv_gflops - 0.4) / 0.4 < 0.15


def test_size_accounting_matches_references():
    a = equivalent_flops(cfg(**BASE), seq_len=128)
    b = equivalent_flops(cfg(**BASE, variant="bipft_b", rank=1), seq_len=128)
    assert abs(a.size_mb - 14.7) / 14.7 < 0.05
    assert abs(b.size_mb - 14.9) / 14.9 < 0.05
    # exact component arithmetic, frozen from a hand count:
    # binary bits = (30522+512+2)*768 + 12*(4*768^2 + 2*768*3072) = 108_770_304
    assert a.binary_param_bits == 108_770_304


def test_zero_layer_config_has_zero_mac_cost_and_embedding_elementwise():
    rep = equivalent_flops(cfg(0, 16, 2, 32, 8, 100), seq_len=8)
    assert rep.binary_macs == 0
    assert rep.fp_macs == 0
    assert rep.equiv_gflops == 0.0
    # hand count: embedding elementwise = 6 * n * C = 6 * 8 * 16
    assert rep.elementwise_flops == 768


def test_metric_lines_are_machine_readable():
    rep = equivalent_flops(cfg(**BASE), seq_len=128)
    lines = rep.metric_lines()
    parsed = dict(line.split("=", 1) for line in lines)
    assert float(parsed["equiv_gflops"]) == pytest.approx(rep.equiv_gflops)
    assert float(parsed["size_mb"]) == pytest.approx(rep.size_mb)
    for line in lines:
        assert " " not in line


def test_accounting_scales_linearly_in_layers():
    one = equivalent_flops(cfg(1, 64, 4, 128, 64, 500), seq_len=64)
    two = equivalent_flops(cfg(2, 64, 4, 128, 64, 500), seq_len=64)
    assert two.binary_macs == 2 * one.binary_macs
