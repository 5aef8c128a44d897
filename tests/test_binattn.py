"""Binary attention tests: residual algebra, estimator wiring, packed parity.

The central identity: with the score product decomposed at the weight level,
the three residual terms (binary x remainder, remainder x binary, remainder x
remainder) exactly complement the binary-binary product.  With estimator rank
equal to the model width the low-rank factors can hold those matrices
verbatim, so binary scores plus the estimated residual must reproduce the
full-precision scores to float accuracy.  ``verify.check_exact_recovery``
checks the same per head, each head taking its own factor column block.
"""

from __future__ import annotations

import numpy as np
import pytest

from bitformer import binattn, quant
from bitformer.binattn import (
    AttentionLayerState,
    FullPrecisionOps,
    InitTensors,
    PackedOps,
    ResidualEstimators,
    SimOps,
    attend,
    attention_forward,
    attention_forward_packed,
    head_rank_blocks,
    init_estimators,
    make_attention_layer,
    score_residual,
    zero_estimators,
)
from bitformer.bitkernel import pack_signs
from bitformer.model import ModelConfig, _state_nodes, binarize_linears, build_model, forward
from bitformer.numerics import DenseMatrix, Tape
from bitformer.quant import ElasticQuant, binarize_weight, weight_row_scales

from oracles import central_difference, estimator_factors, per_head_attend, relative_error

RNG = np.random.default_rng(3141)


def small_layer(hidden=8, heads=2, rank=0, seed=0):
    source = InitTensors(np.random.default_rng(seed))
    return make_attention_layer(source, hidden=hidden, heads=heads, rank=rank, seq_hint=8)


# --------------------------------------------------------------------------
# stacked heads against the per-head loop
# --------------------------------------------------------------------------

OP_SETS = {
    "sim-hard": lambda tape: SimOps(tape, "hard"),
    "sim-relaxed": lambda tape: SimOps(tape, "relaxed"),
    "packed": lambda tape: PackedOps(),
    "full-precision": lambda tape: FullPrecisionOps(tape),
}


def generic_layer(rank: int, binary: bool, seed: int = 11, hidden: int = 16) -> AttentionLayerState:
    """A 4-head layer away from init: spread weights, estimators and binarizer settings.

    One head's query level sits below the floor, so its level gradient is gated.
    """
    rng = np.random.default_rng(seed)
    layer = make_attention_layer(
        InitTensors(rng), hidden=hidden, heads=4, rank=rank, seq_hint=8, binary=binary
    )
    for w in (layer.wq, layer.wk, layer.wv, layer.wo):
        w.data *= 25.0
    if layer.estimators is not None:
        for f in estimator_factors(layer.estimators):
            f.data[...] = rng.normal(0.0, 0.3, size=f.data.shape)
    if binary:
        for q in layer.binarizers():
            q.alpha.data[...] = rng.uniform(0.5, 1.5)
            q.beta.data[...] = rng.normal(0.0, 0.1)
        for q in layer.head_att:
            q.alpha.data[...] = rng.uniform(0.05, 0.3)
            q.beta.data[...] = rng.normal(0.0, 0.02)
        layer.head_q[1].alpha.data[...] = 1e-7
    return layer


def layer_tensors(layer: AttentionLayerState) -> list[DenseMatrix]:
    return [t for t in _state_nodes(layer, []) if isinstance(t, DenseMatrix)]


RANKS = pytest.mark.parametrize(
    "rank", [0, 8, 6, 3], ids=["no-est", "even-blocks", "uneven-blocks", "rank-below-heads"]
)
PADDING = pytest.mark.parametrize("padded", [False, True], ids=["all-keys", "padded-keys"])


@pytest.mark.parametrize("op_set", list(OP_SETS))
@RANKS
@PADDING
def test_stacked_attend_equals_the_per_head_loop_bitwise(op_set, rank, padded):
    assert_stacked_attend_is_the_per_head_loop(op_set, rank, padded, n=7, hidden=16)


@pytest.mark.parametrize("op_set", list(OP_SETS))
@RANKS
@PADDING
def test_stacked_attend_spanning_two_words_equals_the_per_head_loop_bitwise(op_set, rank, padded):
    # head width 72 and length 70: the packed scores and value mix each span two words
    assert_stacked_attend_is_the_per_head_loop(op_set, rank, padded, n=70, hidden=288)


def assert_stacked_attend_is_the_per_head_loop(op_set, rank, padded, n, hidden):
    rng = np.random.default_rng(100 + rank)
    a_data = rng.normal(size=(n, hidden))
    coeffs = rng.normal(size=(n, hidden))
    key_mask = np.arange(n) < n - 2 if padded else None
    runs = []
    for attend_fn in (attend, per_head_attend):
        layer = generic_layer(rank, binary=op_set != "full-precision", hidden=hidden)
        a = DenseMatrix(a_data.copy())
        tape = None if op_set == "packed" else Tape()
        trace: dict = {}
        out = attend_fn(OP_SETS[op_set](tape), a, layer, key_mask, trace)
        if tape is not None:
            out.ensure_grad()[...] = coeffs
            tape.replay()
            assert a.grad is not None
        runs.append((out.data, trace, [a] + layer_tensors(layer)))
    (out, trace, tensors), (want_out, want_trace, want_tensors) = runs

    assert out.tobytes() == want_out.tobytes()
    for key in ("att", "att_selected"):
        assert isinstance(trace[key], list) and len(trace[key]) == 4
        assert all(x.tobytes() == y.tobytes() for x, y in zip(trace[key], want_trace[key]))
    for got, want in zip(tensors, want_tensors):
        assert (got.grad is None) == (want.grad is None), got.name
        if got.grad is not None:
            assert got.grad.tobytes() == want.grad.tobytes(), got.name


# --------------------------------------------------------------------------
# score residual polynomial
# --------------------------------------------------------------------------


def test_score_residual_matches_three_term_formula():
    # one head; three heads with blocks of width 2, 2 and 1; three heads with an empty block
    n, c = 5, 6
    a = RNG.normal(size=(n, c))
    for r, heads in ((2, 1), (5, 3), (2, 3)):
        est = zero_estimators(c, r)
        factors = (est.w_q, est.w_k, est.w_q_star, est.w_k_star)
        for f in factors:
            f.data[...] = RNG.normal(size=(c, r))

        out = score_residual(None, DenseMatrix(a), est, heads)
        assert out.data.shape == (heads, n, n)
        for h, (lo, hi) in enumerate(head_rank_blocks(r, heads)):
            t_q, t_k, t_qs, t_ks = (a @ f.data[:, lo:hi] for f in factors)
            want = t_q @ t_ks.T + t_qs @ t_k.T + t_qs @ t_ks.T
            assert np.allclose(out.data[h], want, atol=1e-12)


def test_full_rank_factors_recover_full_precision_scores():
    # binary-weight scores plus the residual polynomial == full-precision
    # scores when the factors hold the binarized weights / weight remainders
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, c = 6, 8
        a = rng.normal(size=(n, c))
        wq = rng.normal(size=(c, c))
        wk = rng.normal(size=(c, c))
        wq_b = binarize_weight(None, DenseMatrix(wq)).data
        wk_b = binarize_weight(None, DenseMatrix(wk)).data

        est = zero_estimators(c, rank=c)
        est.w_q.data[...] = wq_b.T
        est.w_k.data[...] = wk_b.T
        est.w_q_star.data[...] = (wq - wq_b).T
        est.w_k_star.data[...] = (wk - wk_b).T

        binary_scores = (a @ wq_b.T) @ (a @ wk_b.T).T
        res = score_residual(None, DenseMatrix(a), est, 1).data[0]
        full = (a @ wq.T) @ (a @ wk.T).T
        assert np.max(np.abs(binary_scores + res - full)) < 1e-8


def test_head_rank_blocks_split_rank_contiguously_and_evenly():
    assert head_rank_blocks(8, 1) == [(0, 8)]
    assert head_rank_blocks(8, 2) == [(0, 4), (4, 8)]
    assert head_rank_blocks(5, 3) == [(0, 2), (2, 4), (4, 5)]
    assert head_rank_blocks(1, 2) == [(0, 1), (1, 1)]


def test_head_with_empty_rank_block_gets_no_score_correction():
    # rank 1 over 2 heads: head 0 owns the only column, head 1 none
    layer = small_layer(seed=5, rank=1)
    est = layer.estimators
    rng = np.random.default_rng(4)
    for f in estimator_factors(est):
        f.data[...] = rng.normal(size=f.data.shape)
    est.u_v_star.data[...] = 0.0  # value path off
    a = DenseMatrix(rng.normal(size=(5, 8)))

    with_kq: dict = {}
    attention_forward(None, a, layer, trace=with_kq)
    est.w_q_star.data[...] = 0.0  # with both starred score factors at zero,
    est.w_k_star.data[...] = 0.0  # every score term is exactly zero
    without_kq: dict = {}
    attention_forward(None, a, layer, trace=without_kq)

    assert not np.allclose(with_kq["att"][0], without_kq["att"][0])
    assert np.array_equal(with_kq["att"][1], without_kq["att"][1])


def test_zero_factors_contribute_exactly_nothing():
    # rank 1 over 2 heads: head 0's block holds zero factors, head 1's block is empty
    a = DenseMatrix(RNG.normal(size=(4, 8)))
    est = zero_estimators(8, 1)
    out = score_residual(None, a, est, 2)
    assert out.data.shape == (2, 4, 4)
    for h in range(2):
        assert np.array_equal(out.data[h], np.zeros((4, 4)))


def test_taped_bipft_b_forward_records_one_score_residual_op_per_layer():
    # smoke dimensions, where the tapes hold 104 and 88 ops: bipft-b adds 8 per
    # layer to bipft-a's (the value path's product, transpose, split, two matmuls
    # and add, the scores' add and score_residual itself)
    dims = dict(layers=2, hidden=128, heads=4, ffn=256, max_seq=64, vocab=40)
    ids = np.arange(20) % dims["vocab"]
    ops = {}
    for variant, rank in (("bipft_a", 0), ("bipft_b", 8)):
        model = build_model(ModelConfig(**dims, variant=variant, rank=rank).validate(), seed=0)
        tape = Tape()
        forward(model, ids, tape=tape, weights=binarize_linears(model, Tape()))
        ops[variant] = [name for name, _ in tape.ops]
    assert ops["bipft_b"].count("score_residual") == dims["layers"]
    assert len(ops["bipft_b"]) - len(ops["bipft_a"]) == 8 * dims["layers"]


# --------------------------------------------------------------------------
# estimator initialization
# --------------------------------------------------------------------------


def test_init_estimators_shapes_and_flags():
    c, r = 8, 2
    wq, wk, wv = (RNG.normal(size=(c, c)) for _ in range(3))
    est = init_estimators(wq, wk, wv, hidden=c, rank=r)
    for f in (est.w_q, est.w_k, est.w_q_star, est.w_k_star, est.u_v_star, est.v_v_star):
        assert f.data.shape == (c, r)
    # both paths start switched on: score and value factors are non-zero
    assert np.any(est.w_q_star.data != 0) and np.any(est.w_k_star.data != 0)
    assert np.any(est.u_v_star.data != 0)
    assert len(estimator_factors(est)) == 6


def test_init_estimators_full_rank_value_factors_hold_value_remainder():
    c = 6
    wq, wk, wv = (RNG.normal(size=(c, c)) for _ in range(3))
    est = init_estimators(wq, wk, wv, hidden=c, rank=c)
    wv_b = binarize_weight(None, DenseMatrix(wv)).data
    want = (wv - wv_b).T  # map applied as a @ (.)
    got = est.u_v_star.data @ est.v_v_star.data.T
    assert np.allclose(got, want, atol=1e-8)


# --------------------------------------------------------------------------
# attention forward
# --------------------------------------------------------------------------


def test_attention_forward_shapes_and_determinism():
    layer = small_layer()
    a = RNG.normal(size=(5, 8))
    out1 = attention_forward(None, DenseMatrix(a), layer)
    out2 = attention_forward(None, DenseMatrix(a), layer)
    assert out1.data.shape == (5, 8)
    assert np.array_equal(out1.data, out2.data)


def test_estimator_free_variants_match_zeroed_estimators():
    # a layer without estimators and the same layer with all-zero factors
    # must produce identical outputs
    layer_a = small_layer(seed=3)
    layer_b = small_layer(seed=3, rank=2)
    assert layer_b.estimators is not None
    for f in estimator_factors(layer_b.estimators):
        f.data[...] = 0.0

    a = RNG.normal(size=(6, 8))
    out_a = attention_forward(None, DenseMatrix(a), layer_a)
    out_b = attention_forward(None, DenseMatrix(a), layer_b)
    assert np.allclose(out_a.data, out_b.data, atol=0, rtol=0)


def test_estimator_flags_disable_each_path():
    layer = small_layer(seed=9, rank=1)
    for f in estimator_factors(layer.estimators):
        f.data[...] = np.random.default_rng(1).normal(size=f.data.shape)
    a = DenseMatrix(RNG.normal(size=(4, 8)))

    # a path is switched off by zeroing its factors: with w_q_star and
    # w_k_star at zero the score path adds exactly 0, and with u_v_star at
    # zero the value path does
    est = layer.estimators
    base = attention_forward(None, a, layer).data.copy()
    est.w_q_star.data[...] = 0.0
    est.w_k_star.data[...] = 0.0
    no_kq = attention_forward(None, a, layer).data.copy()
    est.u_v_star.data[...] = 0.0
    none_on = attention_forward(None, a, layer).data.copy()

    plain = attention_forward(None, a, small_layer(seed=9)).data
    assert not np.allclose(base, no_kq)
    assert not np.allclose(no_kq, none_on)  # the value path contributes too
    assert np.allclose(none_on, plain)


def test_padding_bias_blocks_attention_to_padded_keys():
    layer = small_layer(seed=4)
    n = 6
    a = RNG.normal(size=(n, 8))
    key_mask = np.arange(n) < n - 2  # last two positions are padding

    trace: dict = {}
    attention_forward(None, DenseMatrix(a), layer, key_mask=key_mask, trace=trace)
    for att in trace["att"]:
        assert np.max(att[:, -2:]) < 1e-12
    for sel in trace["att_selected"]:
        assert np.max(sel[:, -2:]) == 0.0


# --------------------------------------------------------------------------
# gradients through the estimators
# --------------------------------------------------------------------------


def test_all_six_factors_receive_gradient_matching_relaxed_fd():
    layer = small_layer(seed=11, rank=1)
    est = layer.estimators
    rng = np.random.default_rng(2)
    for f in estimator_factors(est):
        f.data[...] = rng.normal(size=f.data.shape) * 0.3
    a_np = rng.normal(size=(4, 8))
    coeffs = rng.normal(size=(4, 8))

    tape = Tape()
    out = attention_forward(tape, DenseMatrix(a_np), layer, mode="relaxed")
    out.ensure_grad()[...] = coeffs
    for _, fn in reversed(tape.ops):
        fn()

    factors = estimator_factors(est)
    got = [f.grad.copy() for f in factors]
    assert all(g is not None and np.any(g != 0) for g in got)

    def run(arrs):
        for f, arr in zip(factors, arrs):
            f.data[...] = arr
        val = attention_forward(None, DenseMatrix(a_np), layer, mode="relaxed")
        return float(np.sum(coeffs * val.data))

    want = central_difference(run, [f.data.copy() for f in factors], h=1e-5)
    for g, w in zip(got, want):
        assert relative_error(g, w, floor=1e-5) < 1e-3


# --------------------------------------------------------------------------
# packed evaluation parity
# --------------------------------------------------------------------------


def jitter_binarizers(layer, rng) -> None:
    """Move binarizer levels/thresholds off their lattice-degenerate inits.

    With unit levels and zero thresholds, some activations are exact ±1-sum
    cancellations sitting exactly on the sign threshold; the packed integer
    accumulator resolves them to exact zero while float pairwise summation
    wobbles by an ulp, so the two routes may legitimately disagree there.
    Generic (trained-model-like) parameters make that a measure-zero event.
    """
    for q in layer.binarizers():
        q.alpha.data[0, 0] *= float(rng.uniform(0.8, 1.25))
        q.beta.data[0, 0] += float(rng.normal(0.0, 0.05))


def test_packed_attention_matches_float_simulation():
    for seed in range(8):
        rank = seed % 3  # exercises no-estimator and estimator layers
        layer = small_layer(seed=seed, rank=rank)
        jitter_binarizers(layer, np.random.default_rng(seed + 50))
        if layer.estimators is not None:
            rng = np.random.default_rng(seed + 100)
            for f in estimator_factors(layer.estimators):
                f.data[...] = rng.normal(size=f.data.shape) * 0.2
        a = np.random.default_rng(seed + 200).normal(size=(7, 8))
        key_mask = np.arange(7) < 6

        sim = attention_forward(None, DenseMatrix(a), layer, key_mask=key_mask)
        packed = attention_forward_packed(a, layer, key_mask=key_mask)
        assert np.max(np.abs(sim.data - packed)) < 1e-8


@pytest.mark.parametrize("block_elems", [None, 20])  # one block; blocks of 2 rows, the last ragged
def test_packed_linear_weight_bits_and_scales_are_the_whole_matrix_ones(monkeypatch, block_elems):
    if block_elems is not None:
        monkeypatch.setattr(quant, "_BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(8)
    w = DenseMatrix(rng.normal(size=(7, 10)))
    w.data[3] = 0.0  # an all-zero row
    in_q = ElasticQuant.create(alpha=0.7, beta=0.05)
    seen = []
    real_gemm = binattn.binary_gemm

    def spy(a, b_t, scale):
        seen.append((b_t, scale))
        return real_gemm(a, b_t, scale)

    monkeypatch.setattr(binattn, "binary_gemm", spy)
    binattn.binary_linear_packed(rng.normal(size=(4, 10)), w, DenseMatrix(np.zeros((1, 7))), in_q)
    (bits_w, scales), = seen
    want_bits = pack_signs(w.data - w.data.mean(axis=1, keepdims=True))
    assert (bits_w.rows, bits_w.cols) == (7, 10)
    assert np.array_equal(bits_w.words, want_bits.words)
    want_scales = 0.7 * weight_row_scales(w.data)
    assert np.array_equal(scales.view(np.uint64), want_scales.view(np.uint64))
