"""Binary multi-head self-attention with low-rank residual estimation.

Scores come from two-level queries and keys; the post-softmax map is
re-binarized to {0, level}, so the value mix is a selection product that the
packed kernels evaluate with whole-word operations.  Two optional estimator
paths model what weight binarization throws away:

* score path — three trainable low-rank couplings of the layer input with
  itself, added to each head's raw binary scores before the 1/sqrt(head
  width) scaling.  Expanding a head's query/key product around the
  binarized weights leaves exactly three cross terms (binary x remainder,
  remainder x binary, remainder x remainder).  Head h owns a contiguous
  block of the rank columns of the four score factors, and its correction
  is the three-term product over that block alone.  With rank equal to the
  hidden width each block is as wide as the head, the factors can hold the
  head's slices of those matrices verbatim, and each head's binary scores
  plus its own estimate reproduce that head's full-precision scores to
  float accuracy.
* value path — one rank-r map of the layer input whose per-head column block
  rides on the same selection pattern as the binary value mix, recovering
  the value-projection remainder the same way.

The layer is defined once, in :func:`attend`, over an op set that supplies
only what differs between routes: the embedding-table binarizer (``embed``),
the projections (``linear``), one head's ``scores`` product, the ``select``
step that binarizes the attention map, and the value ``mix``.  Everything
else (slices, softmax, estimator paths, norms) is the same ``numerics`` ops in
every route.  There are three op sets:

* :class:`SimOps` — float simulation, taped or not, hard or relaxed; what
  training runs (``attention_forward``).
* :class:`PackedOps` — the binary products on bit-packed words; evaluation
  only, agreeing with the simulation to float accuracy (the tests pin 1e-8)
  (``attention_forward_packed``).
* :class:`FullPrecisionOps` — the float twin: plain affine maps and identity
  binarizers.

Padded keys get a large negative score bias and are gated out of the
selection, so no threshold can select them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitkernel import binary_gemm, pack_signs, ternary_binary_gemm
from .numerics import (
    Array,
    DenseMatrix,
    Tape,
    add,
    add_bias,
    add_constant,
    concat_cols,
    matmul,
    scale,
    slice_cols,
    softmax_rows,
    transpose,
)
from .quant import (
    ALPHA_FLOOR,
    ElasticQuant,
    QuantMode,
    binarize_activation_pm1,
    binarize_attention_01,
    binarize_weight,
    weight_row_scales,
)

__all__ = [
    "AttentionLayerState",
    "FullPrecisionOps",
    "PackedOps",
    "ResidualEstimators",
    "SimOps",
    "attend",
    "attention_forward",
    "attention_forward_packed",
    "binary_linear",
    "binary_linear_packed",
    "head_rank_blocks",
    "init_estimators",
    "make_attention_layer",
    "score_residual",
    "zero_estimators",
]

PAD_SCORE_BIAS = -1e9


# ---------------------------------------------------------------------------
# residual estimators
# ---------------------------------------------------------------------------


@dataclass
class ResidualEstimators:
    """Rank-r factors for the score and value residual paths.

    All factors are (hidden, rank).  The unstarred pair stands in for the
    binarized query/key weights, the starred factors for binarization
    remainders.  Head h owns the contiguous column block
    ``head_rank_blocks(rank, heads)[h]`` of ``w_q``, ``w_k``, ``w_q_star``
    and ``w_k_star``, standing in for its own query/key weight rows.
    ``u_v_star @ v_v_star.T`` approximates the value remainder map in
    input-times-matrix orientation, with head h owning rows
    ``h*head_width:(h+1)*head_width`` of ``v_v_star``.
    """

    w_q: DenseMatrix
    w_k: DenseMatrix
    w_q_star: DenseMatrix
    w_k_star: DenseMatrix
    u_v_star: DenseMatrix
    v_v_star: DenseMatrix

    @property
    def rank(self) -> int:
        return self.w_q.cols

    def parameters(self) -> list[DenseMatrix]:
        return [self.w_q, self.w_k, self.w_q_star, self.w_k_star, self.u_v_star, self.v_v_star]


def zero_estimators(hidden: int, rank: int, name: str = "est") -> ResidualEstimators:
    """All-zero factors: both estimator paths contribute exactly nothing."""
    if rank < 1:
        raise ValueError(f"estimator rank must be >= 1, got {rank}")

    def z(suffix: str) -> DenseMatrix:
        return DenseMatrix(np.zeros((hidden, rank)), name=f"{name}.{suffix}")

    return ResidualEstimators(
        w_q=z("w_q"),
        w_k=z("w_k"),
        w_q_star=z("w_q_star"),
        w_k_star=z("w_k_star"),
        u_v_star=z("u_v_star"),
        v_v_star=z("v_v_star"),
    )


def head_rank_blocks(rank: int, heads: int) -> list[tuple[int, int]]:
    """Split ``rank`` score-factor columns into contiguous per-head blocks.

    Blocks are as even as possible, the first ``rank % heads`` heads taking
    one extra column; when rank < heads the trailing heads get empty blocks
    (``lo == hi``) and no score correction.
    """
    base, extra = divmod(rank, heads)
    bounds = [h * base + min(h, extra) for h in range(heads + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _spectral_factor(m: Array, rank: int) -> Array:
    """Leading left singular vectors scaled by the roots of their values."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :rank] * np.sqrt(s[:rank])


def init_estimators(
    wq: Array,
    wk: Array,
    wv: Array,
    hidden: int,
    rank: int,
    heads: int = 1,
    name: str = "est",
) -> ResidualEstimators:
    """Spectral initialization from the layer's projection weights.

    Head h's column block of each score factor takes the top singular
    directions of the matrix that block stands for: head h's row block of
    the binarized query/key weight or of its remainder, transposed into
    input-times-matrix orientation.  The value pair splits one truncated SVD
    of the value remainder, so at full rank their product holds it exactly.
    """
    if not (1 <= rank <= hidden):
        raise ValueError(f"estimator rank must be in [1, {hidden}], got {rank}")
    if hidden % heads != 0:
        raise ValueError(f"hidden ({hidden}) must divide evenly into {heads} heads")
    est = zero_estimators(hidden, rank, name=name)
    wq = np.asarray(wq, dtype=np.float64)
    wk = np.asarray(wk, dtype=np.float64)
    wv = np.asarray(wv, dtype=np.float64)
    wq_b = binarize_weight(None, DenseMatrix(wq)).data
    wk_b = binarize_weight(None, DenseMatrix(wk)).data
    wv_b = binarize_weight(None, DenseMatrix(wv)).data

    dk = hidden // heads
    for h, (lo, hi) in enumerate(head_rank_blocks(rank, heads)):
        if lo == hi:
            continue
        rows = slice(h * dk, (h + 1) * dk)
        est.w_q.data[:, lo:hi] = _spectral_factor(wq_b[rows].T, hi - lo)
        est.w_k.data[:, lo:hi] = _spectral_factor(wk_b[rows].T, hi - lo)
        est.w_q_star.data[:, lo:hi] = _spectral_factor((wq - wq_b)[rows].T, hi - lo)
        est.w_k_star.data[:, lo:hi] = _spectral_factor((wk - wk_b)[rows].T, hi - lo)

    u, s, vt = np.linalg.svd((wv - wv_b).T, full_matrices=False)
    root = np.sqrt(s[:rank])
    est.u_v_star.data[...] = u[:, :rank] * root
    est.v_v_star.data[...] = vt[:rank].T * root
    return est


def score_residual(
    tape: Tape | None,
    a: DenseMatrix,
    est: ResidualEstimators,
    block: tuple[int, int] | None = None,
) -> DenseMatrix:
    """Three-term estimate of what weight binarization drops from one head's scores.

    With t_x = a @ w_x[:, lo:hi] over the head's non-empty column block
    (``head_rank_blocks``; all columns when ``block`` is None, as for a
    single-head layer), returns t_q t_ks^T + t_qs t_k^T + t_qs t_ks^T, added
    to that head's raw scores before the head-width scaling.
    """
    factors = (est.w_q, est.w_k, est.w_q_star, est.w_k_star)
    if block is not None:
        factors = tuple(slice_cols(tape, f, *block) for f in factors)
    t_q, t_k, t_qs, t_ks = (matmul(tape, a, f) for f in factors)
    term1 = matmul(tape, t_q, transpose(tape, t_ks))
    term2 = matmul(tape, t_qs, transpose(tape, t_k))
    term3 = matmul(tape, t_qs, transpose(tape, t_ks))
    return add(tape, add(tape, term1, term2), term3)


# ---------------------------------------------------------------------------
# layer state
# ---------------------------------------------------------------------------


@dataclass
class AttentionLayerState:
    """Weights and binarizers for one binary attention layer.

    Projection weights are stored (out, in) and applied as ``x @ w.T``; the
    weight binarizer therefore scales per output unit.  Every linear has its
    own input binarizer, and every head its own query/key/value (two-level,
    signed) and attention ({0, level}) binarizers.
    """

    heads: int
    wq: DenseMatrix
    wk: DenseMatrix
    wv: DenseMatrix
    wo: DenseMatrix
    bq: DenseMatrix
    bk: DenseMatrix
    bv: DenseMatrix
    bo: DenseMatrix
    in_q: ElasticQuant
    in_k: ElasticQuant
    in_v: ElasticQuant
    in_o: ElasticQuant
    head_q: list[ElasticQuant]
    head_k: list[ElasticQuant]
    head_v: list[ElasticQuant]
    head_att: list[ElasticQuant]
    estimators: ResidualEstimators | None = None

    @property
    def head_width(self) -> int:
        return self.wq.rows // self.heads

    def binarizers(self) -> list[ElasticQuant]:
        out = [self.in_q, self.in_k, self.in_v, self.in_o]
        out += self.head_q + self.head_k + self.head_v + self.head_att
        return out


def make_attention_layer(
    rng: np.random.Generator,
    hidden: int,
    heads: int,
    rank: int = 0,
    seq_hint: int = 64,
    name: str = "attn",
) -> AttentionLayerState:
    """Fresh layer: normal(0, 0.02) weights, zero biases, unit binarizers.

    Attention binarizer levels start at 3/seq_hint so a fresh softmax row
    (mass about 1/seq) lands mid-range of the {0, level} rounding.  With
    rank > 0 the estimators are spectrally initialized from the drawn
    query/key/value weights.
    """
    if hidden % heads != 0:
        raise ValueError(f"hidden ({hidden}) must divide evenly into {heads} heads")

    def w(suffix: str) -> DenseMatrix:
        return DenseMatrix(rng.normal(0.0, 0.02, size=(hidden, hidden)), name=f"{name}.{suffix}")

    def b(suffix: str) -> DenseMatrix:
        return DenseMatrix(np.zeros((1, hidden)), name=f"{name}.{suffix}")

    layer = AttentionLayerState(
        heads=heads,
        wq=w("wq"),
        wk=w("wk"),
        wv=w("wv"),
        wo=w("wo"),
        bq=b("bq"),
        bk=b("bk"),
        bv=b("bv"),
        bo=b("bo"),
        in_q=ElasticQuant.create(name=f"{name}.in_q"),
        in_k=ElasticQuant.create(name=f"{name}.in_k"),
        in_v=ElasticQuant.create(name=f"{name}.in_v"),
        in_o=ElasticQuant.create(name=f"{name}.in_o"),
        head_q=[ElasticQuant.create(name=f"{name}.h{h}.q") for h in range(heads)],
        head_k=[ElasticQuant.create(name=f"{name}.h{h}.k") for h in range(heads)],
        head_v=[ElasticQuant.create(name=f"{name}.h{h}.v") for h in range(heads)],
        head_att=[
            ElasticQuant.create(alpha=3.0 / seq_hint, name=f"{name}.h{h}.att") for h in range(heads)
        ],
    )
    if rank > 0:
        layer.estimators = init_estimators(
            layer.wq.data, layer.wk.data, layer.wv.data, hidden, rank, heads, name=f"{name}.est"
        )
    return layer


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def binary_linear(
    tape: Tape | None,
    a: DenseMatrix,
    w: DenseMatrix,
    b: DenseMatrix,
    in_q: ElasticQuant,
    mode: QuantMode = "hard",
) -> DenseMatrix:
    """Binarized affine map: two-level input times two-level weights plus bias."""
    aq = binarize_activation_pm1(tape, a, in_q, mode)
    wb = binarize_weight(tape, w, mode)
    return add_bias(tape, matmul(tape, aq, transpose(tape, wb)), b)


def _level(q: ElasticQuant) -> float:
    return max(float(q.alpha.data[0, 0]), ALPHA_FLOOR)


def _pack_shifted(x: Array, q: ElasticQuant):
    """Sign bits of ``x - beta``: the ±1 pattern of ``binarize_activation_pm1``."""
    return pack_signs(x - float(q.beta.data[0, 0]))


def binary_linear_packed(a: Array, w: DenseMatrix, b: DenseMatrix, in_q: ElasticQuant) -> Array:
    """Packed-kernel twin of :func:`binary_linear` (hard mode)."""
    scales = _level(in_q) * weight_row_scales(w.data)
    bits_w = pack_signs(w.data - w.data.mean(axis=1, keepdims=True))
    return binary_gemm(_pack_shifted(a, in_q), bits_w, scales).data + b.data


class SimOps:
    """Float simulation of every binary product: taped or not, hard or relaxed."""

    def __init__(self, tape: Tape | None = None, mode: QuantMode = "hard"):
        self.tape, self.mode = tape, mode

    def attention(self, a: DenseMatrix, layer: AttentionLayerState, key_mask) -> DenseMatrix:
        return attention_forward(self.tape, a, layer, self.mode, key_mask)

    def embed(self, rows: DenseMatrix) -> DenseMatrix:
        return binarize_weight(self.tape, rows, self.mode)

    def linear(self, a, w, b, in_q) -> DenseMatrix:
        return binary_linear(self.tape, a, w, b, in_q, self.mode)

    def scores(self, q, k, q_bin: ElasticQuant, k_bin: ElasticQuant) -> DenseMatrix:
        qb = binarize_activation_pm1(self.tape, q, q_bin, self.mode)
        kb = binarize_activation_pm1(self.tape, k, k_bin, self.mode)
        return matmul(self.tape, qb, transpose(self.tape, kb))

    def select(self, att, att_bin: ElasticQuant, key_mask) -> DenseMatrix:
        return binarize_attention_01(self.tape, att, att_bin, self.mode, key_mask)

    def mix(self, sel, v, v_bin: ElasticQuant, att_bin: ElasticQuant) -> DenseMatrix:
        return matmul(self.tape, sel, binarize_activation_pm1(self.tape, v, v_bin, self.mode))


class PackedOps(SimOps):
    """Binary products on bit-packed words; untaped and hard, evaluation only.

    Agreement with :class:`SimOps` assumes generic binarizer parameters: if an
    activation lands exactly on a sign threshold (possible at the
    all-zero-threshold init, where some activations are exact ±1-lattice
    cancellations), the integer accumulator and float summation may resolve
    its sign differently.
    """

    def attention(self, a, layer, key_mask) -> DenseMatrix:
        return DenseMatrix(attention_forward_packed(a.data, layer, key_mask))

    def linear(self, a, w, b, in_q) -> DenseMatrix:
        return DenseMatrix(binary_linear_packed(a.data, w, b, in_q))

    def scores(self, q, k, q_bin, k_bin) -> DenseMatrix:
        return binary_gemm(
            _pack_shifted(q.data, q_bin), _pack_shifted(k.data, k_bin), _level(q_bin) * _level(k_bin)
        )

    def mix(self, sel, v, v_bin, att_bin) -> DenseMatrix:
        bits_sel = pack_signs(np.where(sel.data != 0.0, 1.0, -1.0))
        bits_v = _pack_shifted(v.data.T, v_bin)  # gemm wants value rows as output columns
        return ternary_binary_gemm(bits_sel, bits_v, float(att_bin.alpha.data[0, 0]) * _level(v_bin))


class FullPrecisionOps(SimOps):
    """The float twin: plain affine maps, every binarizer the identity."""

    def attention(self, a, layer, key_mask) -> DenseMatrix:
        return attend(self, a, layer, key_mask)

    def embed(self, rows):
        return rows

    def linear(self, a, w, b, in_q=None) -> DenseMatrix:
        return add_bias(self.tape, matmul(self.tape, a, transpose(self.tape, w)), b)

    def scores(self, q, k, q_bin, k_bin) -> DenseMatrix:
        return matmul(self.tape, q, transpose(self.tape, k))

    def select(self, att, att_bin, key_mask):
        return att  # padded keys already hold exactly zero softmax mass

    def mix(self, sel, v, v_bin, att_bin) -> DenseMatrix:
        return matmul(self.tape, sel, v)


def _score_blocks(layer: AttentionLayerState) -> list[tuple[int, int] | None]:
    """Each head's score-estimator column block, None where it gets no correction."""
    est = layer.estimators
    if est is None:
        return [None] * layer.heads
    return [(lo, hi) if lo < hi else None for lo, hi in head_rank_blocks(est.rank, layer.heads)]


def attend(
    ops: SimOps,
    a: DenseMatrix,
    layer: AttentionLayerState,
    key_mask: Array | None = None,
    trace: dict | None = None,
) -> DenseMatrix:
    """One attention layer over one sequence (rows = positions), in any op set.

    ``key_mask`` marks real key positions with True; padded keys take a
    large negative score bias and are never selected.  ``trace``, when a
    dict, receives per-head soft maps ("att") and selections
    ("att_selected").
    """
    tape = ops.tape
    dk = layer.head_width
    inv = 1.0 / math.sqrt(dk)
    est = layer.estimators

    q = ops.linear(a, layer.wq, layer.bq, layer.in_q)
    k = ops.linear(a, layer.wk, layer.bk, layer.in_k)
    v = ops.linear(a, layer.wv, layer.bv, layer.in_v)

    kq_blocks = _score_blocks(layer)
    if est is not None:
        au = matmul(tape, a, est.u_v_star)
        vt_star = transpose(tape, est.v_v_star)
    pad_bias = None if key_mask is None else np.where(key_mask, 0.0, PAD_SCORE_BIAS)

    if trace is not None:
        trace["att"], trace["att_selected"] = [], []

    ctx_parts: list[DenseMatrix] = []
    for h in range(layer.heads):
        lo, hi = h * dk, (h + 1) * dk
        q_h, k_h = slice_cols(tape, q, lo, hi), slice_cols(tape, k, lo, hi)
        scores = ops.scores(q_h, k_h, layer.head_q[h], layer.head_k[h])
        if kq_blocks[h] is not None:
            scores = add(tape, scores, score_residual(tape, a, est, kq_blocks[h]))
        scores = scale(tape, scores, inv)
        if pad_bias is not None:
            scores = add_constant(tape, scores, pad_bias)

        att = softmax_rows(tape, scores)
        sel = ops.select(att, layer.head_att[h], key_mask)
        ctx = ops.mix(sel, slice_cols(tape, v, lo, hi), layer.head_v[h], layer.head_att[h])
        if est is not None:
            ctx = add(tape, ctx, matmul(tape, matmul(tape, sel, au), slice_cols(tape, vt_star, lo, hi)))
        ctx_parts.append(ctx)

        if trace is not None:
            trace["att"].append(att.data.copy())
            trace["att_selected"].append((sel.data != 0.0).astype(np.float64))

    return ops.linear(concat_cols(tape, ctx_parts), layer.wo, layer.bo, layer.in_o)


def attention_forward(
    tape: Tape | None,
    a: DenseMatrix,
    layer: AttentionLayerState,
    mode: QuantMode = "hard",
    key_mask: Array | None = None,
    trace: dict | None = None,
) -> DenseMatrix:
    """Float-simulated binary attention: :func:`attend` over :class:`SimOps`."""
    return attend(SimOps(tape, mode), a, layer, key_mask, trace)


def attention_forward_packed(
    a: Array,
    layer: AttentionLayerState,
    key_mask: Array | None = None,
) -> Array:
    """Packed-kernel attention, hard mode: :func:`attend` over :class:`PackedOps`."""
    return attend(PackedOps(), DenseMatrix(a), layer, key_mask).data
