"""Packed-bit kernel tests: every fast path is checked against slow loops.

The packed routines operate on 64-bit words; the oracles unpack to {-1,+1}
(or {0,1}) integer vectors and accumulate in Python ints, so any padding or
tiling mistake in the kernels shows up as an exact integer mismatch.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitformer import bitkernel
from bitformer.bitkernel import (
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


def random_signs(rng, *shape):
    return rng.choice([-1.0, 1.0], size=shape)


def random_bits01(rng, *shape):
    return rng.integers(0, 2, size=shape).astype(np.float64)


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
# xor-popcount dot: one-row operands of the packed accumulator
# --------------------------------------------------------------------------


def one_row_dot(x, y) -> int:
    acc = binary_accumulate(pack_signs(x), pack_signs(y))
    assert acc.shape == (1, 1)
    return int(acc[0, 0])


def test_xnor_dot_small_known_value():
    # (+1)(+1) + (-1)(+1) + (+1)(-1) = -1; popcount route: 3 - 2*2
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


@pytest.mark.parametrize("cols", [2**16 - 1, 2**16, 2**16 + 1])
@pytest.mark.parametrize("rows", [1, 2])
def test_accumulators_are_exact_across_the_counter_width_switch(cols, rows):
    # below 2**16 columns the mismatch counters are uint16, from 2**16 on
    # uint32; all-disagreeing rows count every column as a mismatch
    rng = np.random.default_rng(cols + rows)
    a = random_signs(rng, rows, cols)
    b = np.concatenate([-a[:1], random_signs(rng, rows - 1, cols)])
    want = a @ b.T
    assert want[0, 0] == -cols
    assert np.array_equal(binary_accumulate(pack_signs(a), pack_signs(b)), want)
    sel = (a + 1.0) / 2.0
    assert np.array_equal(ternary_accumulate(pack_signs(a), pack_signs(b)), sel @ b.T)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("out_rows", [11, 3])  # one input row per tile; several input rows per tile
def test_accumulators_match_loop_oracles_across_ragged_tiles(monkeypatch, width, out_rows):
    # tiles of at most 8 outputs: against 11 output rows each of the 7 input
    # rows is its own tile; against 3 they split evenly into 3 + 3 + 1 rows
    monkeypatch.setattr(bitkernel, "_TILE_ELEMS", 8)
    rng = np.random.default_rng(width * 100 + out_rows)
    a = random_signs(rng, 7, width)
    sel = random_bits01(rng, 7, width)
    b = random_signs(rng, out_rows, width)
    got = binary_accumulate(pack_signs(a), pack_signs(b))
    got_sel = ternary_accumulate(pack_signs(sel * 2 - 1), pack_signs(b))
    for i in range(7):
        for j in range(out_rows):
            assert got[i, j] == naive_sign_dot(a[i].astype(int), b[j].astype(int))
            assert got_sel[i, j] == naive_ternary_dot(sel[i].astype(int), b[j].astype(int))


# --------------------------------------------------------------------------
# stacks: leading axes broadcast, one scale per slice
# --------------------------------------------------------------------------


def test_pack_stacks_each_slice_as_its_own_matrix():
    x = RNG.normal(size=(2, 3, 5, 70))
    p = pack_signs(x)
    assert (p.rows, p.cols, p.words.shape) == (5, 70, (2, 3, 5, 2))
    for i in range(2):
        for j in range(3):
            assert np.array_equal(p.words[i, j], pack_signs(x[i, j]).words)
    assert np.array_equal(unpack_signs(p), np.where(x >= 0, 1.0, -1.0))


@pytest.mark.parametrize("words", [1, 2, 12, 48])
@pytest.mark.parametrize("tile_elems", [30, 1 << 16], ids=["ragged-tiles", "one-tile"])
def test_stacked_accumulators_equal_per_slice_calls_bitwise(monkeypatch, words, tile_elems):
    # 30 outputs a tile: 3 slices x 4 outputs per input row make row tiles of 3 + 3 + 1
    monkeypatch.setattr(bitkernel, "_TILE_ELEMS", tile_elems)
    rng = np.random.default_rng(words)
    cols = 64 * words - 5
    a = random_signs(rng, 3, 7, cols)
    b = random_signs(rng, 3, 4, cols)
    sel = random_bits01(rng, 3, 7, cols)
    got = binary_accumulate(pack_signs(a), pack_signs(b))
    got_sel = ternary_accumulate(pack_signs(sel * 2 - 1), pack_signs(b))
    assert got.shape == got_sel.shape == (3, 7, 4)
    monkeypatch.setattr(bitkernel, "_TILE_ELEMS", 1 << 16)
    for h in range(3):
        assert got[h].tobytes() == binary_accumulate(pack_signs(a[h]), pack_signs(b[h])).tobytes()
        want_sel = ternary_accumulate(pack_signs(sel[h] * 2 - 1), pack_signs(b[h]))
        assert got_sel[h].tobytes() == want_sel.tobytes()
    assert np.array_equal(got, a @ b.swapaxes(-1, -2))
    assert np.array_equal(got_sel, sel @ b.swapaxes(-1, -2))


def test_leading_axes_broadcast_like_matmul():
    a = random_signs(RNG, 2, 1, 5, 70)
    b = random_signs(RNG, 3, 4, 70)  # one matrix per slice of the second axis
    got = binary_accumulate(pack_signs(a), pack_signs(b))
    assert np.array_equal(got, a @ b.swapaxes(-1, -2))
    shared = random_signs(RNG, 4, 70)  # one matrix for every slice
    got = binary_accumulate(pack_signs(a[:, 0]), pack_signs(shared))
    assert np.array_equal(got, a[:, 0] @ shared.T)


def test_stacked_gemms_read_out_one_scale_per_slice():
    a = random_signs(RNG, 3, 6, 90)
    b = random_signs(RNG, 3, 5, 90)
    sel = random_bits01(RNG, 3, 6, 90)
    scales = np.array([0.5, -1.25, 3.0]).reshape(3, 1, 1)
    out = binary_gemm(pack_signs(a), pack_signs(b), scales).data
    out_sel = ternary_binary_gemm(pack_signs(sel * 2 - 1), pack_signs(b), scales).data
    for h in range(3):
        scale = float(scales[h, 0, 0])
        want = binary_gemm(pack_signs(a[h]), pack_signs(b[h]), scale).data
        want_sel = ternary_binary_gemm(pack_signs(sel[h] * 2 - 1), pack_signs(b[h]), scale).data
        assert out[h].tobytes() == want.tobytes()
        assert out_sel[h].tobytes() == want_sel.tobytes()


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
