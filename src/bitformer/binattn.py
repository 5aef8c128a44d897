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
  is the three-term product over that block alone; one tape op,
  :func:`score_residual`, computes every head's correction as one stack.
  With rank equal to the hidden width each block is as wide as the head,
  the factors can hold the head's slices of those matrices verbatim, and
  each head's binary scores plus its own estimate reproduce that head's
  full-precision scores to float accuracy.
* value path — one rank-r map of the layer input whose per-head column block
  rides on the same selection pattern as the binary value mix, recovering
  the value-projection remainder the same way.

The layer is defined once, in :func:`attend`, over an op set that supplies
only what differs between routes: the embedding-table binarizer (``embed``),
the projections (``linear``), the ``scores`` product, the ``select`` step
that binarizes the attention maps, and the value ``mix``.  All heads of a
layer run together, as (heads, positions, head width) stacks, each head with
its own binarizers.  Everything else (head splits, softmax, estimator paths,
norms) is the same ops in every route.  There are three op sets:

* :class:`SimOps` — float simulation of the binary products, taped (what
  training runs) or relaxed (what finite differencing runs)
  (``attention_forward``).
* :class:`PackedOps` — the binary products on bit-packed words; what every
  untaped hard forward runs, agreeing with the simulation to float accuracy
  (the tests pin 1e-8) (``attention_forward_packed``).
* :class:`FullPrecisionOps` — the float twin: plain affine maps and identity
  binarizers.

Padded keys get a large negative score bias and are gated out of the
selection, so no threshold can select them.

:class:`PackedOps` binarizes each projection weight once per weight value:
it reads the weight's sign bits and row scales from
:func:`~bitformer.quant.weight_bits`, which makes the weight's ``data``
read-only, so an in-place write raises rather than leave the bits stale.
:class:`SimOps` binarizes through :func:`~bitformer.quant.binarize_weight`;
both read one row-block definition of the weight binarizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from .bitkernel import PackedBitMatrix, binary_gemm, pack_signs, ternary_binary_gemm
from .numerics import (
    Array,
    DenseMatrix,
    Tape,
    add,
    add_bias,
    add_constant,
    affine,
    matmul,
    merge_heads,
    record_op,
    scale,
    softmax_rows,
    split_heads,
    transpose,
)
from .quant import (
    ALPHA_FLOOR,
    ElasticQuant,
    QuantMode,
    _slice_params,
    binarize_activation_pm1,
    binarize_attention_01,
    binarize_weight,
    weight_bits,
)

__all__ = [
    "AttentionLayerState",
    "FullPrecisionOps",
    "InitTensors",
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


def score_residual(tape: Tape | None, a: DenseMatrix, est: ResidualEstimators, heads: int) -> DenseMatrix:
    """Every head's three-term estimate of what weight binarization drops from its scores.

    With t_x = a @ w_x[:, lo:hi] over head h's column block
    (``head_rank_blocks``), slice h of the returned (heads, n, n) stack is
    t_q t_ks^T + t_qs t_k^T + t_qs t_ks^T, added to that head's raw scores
    before the head-width scaling; a head with an empty block gets zeros.

    One tape op.  Heads whose blocks have the same width form a run (at
    most two), whose factor blocks stack head first, then factor (q, k, q*,
    k*), so ``a @ stack`` is one stacked product.  It makes the BLAS calls
    of one op per head and product, and adds into ``a`` in their replay
    order (last head first; k*, q*, k, q within a head), so its gradients
    are bitwise that loop's.
    """
    factors = (est.w_q, est.w_k, est.w_q_star, est.w_k_star)
    x, (n, hidden) = a.data, a.data.shape
    out = np.zeros((heads, n, n))
    runs = []
    blocks = head_rank_blocks(est.rank, heads)
    for width, run in groupby(range(heads), key=lambda h: blocks[h][1] - blocks[h][0]):
        run = list(run)
        if width == 0:
            continue
        h0, h1 = run[0], run[-1] + 1
        cols = slice(blocks[h0][0], blocks[h1 - 1][1])
        f = np.stack([w.data[:, cols].reshape(hidden, -1, width).transpose(1, 0, 2) for w in factors], axis=1)
        f = f.reshape(-1, hidden, width)
        t = (x @ f).reshape(h1 - h0, 4, n, width)
        t_q, t_k, t_qs, t_ks = t.swapaxes(0, 1)
        t_k_t, t_ks_t = (np.ascontiguousarray(y.swapaxes(-1, -2)) for y in (t_k, t_ks))
        out[h0:h1] = t_q @ t_ks_t + t_qs @ t_k_t + t_qs @ t_ks_t
        runs.append((h0, h1, cols, f, t, t_k_t, t_ks_t))
    da, dfactors = a.cell, [w.cell for w in factors]

    def bwd(g):
        for h0, h1, cols, f, t, t_k_t, t_ks_t in reversed(runs):
            gh = g[h0:h1]
            t_q, _, t_qs, _ = t.swapaxes(0, 1)
            d_q = gh @ t_ks_t.swapaxes(-1, -2)  # G t_ks, term 3's part of d_qs too
            d_k = (t_qs.swapaxes(-1, -2) @ gh).swapaxes(-1, -2)  # (t_qs^T G)^T, term 3's part of d_ks too
            d_qs = d_q + gh @ t_k_t.swapaxes(-1, -2)  # terms 3 and 2, in the loop's order
            d_ks = d_k + (t_q.swapaxes(-1, -2) @ gh).swapaxes(-1, -2)  # terms 3 and 1
            dt = np.stack([d_q, d_k, d_qs, d_ks], axis=1).reshape(f.shape[0], n, -1)
            da.add(dt @ f.swapaxes(-1, -2))
            df = (x.T @ dt).reshape(h1 - h0, 4, hidden, -1)
            for i, dw in enumerate(dfactors):
                dw.ensure()[:, cols] += df[:, i].transpose(1, 0, 2).reshape(hidden, -1)

    return record_op(tape, "score_residual", DenseMatrix(out), bwd)


# ---------------------------------------------------------------------------
# layer state
# ---------------------------------------------------------------------------


@dataclass
class AttentionLayerState:
    """Weights and binarizers for one binary attention layer.

    Projection weights are stored (out, in) and applied as ``x @ w.T``; the
    weight binarizer therefore scales per output unit.  Every linear has its
    own input binarizer, and every head its own query/key/value (two-level,
    signed) and attention ({0, level}) binarizers.  A full-precision layer
    has none: its binarizer fields hold None.
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
    in_q: ElasticQuant | None
    in_k: ElasticQuant | None
    in_v: ElasticQuant | None
    in_o: ElasticQuant | None
    head_q: list[ElasticQuant | None]
    head_k: list[ElasticQuant | None]
    head_v: list[ElasticQuant | None]
    head_att: list[ElasticQuant | None]
    estimators: ResidualEstimators | None = None

    @property
    def head_width(self) -> int:
        return self.wq.rows // self.heads

    def binarizers(self) -> list[ElasticQuant]:
        out = [self.in_q, self.in_k, self.in_v, self.in_o]
        out += self.head_q + self.head_k + self.head_v + self.head_att
        return out


class InitTensors:
    """Tensor source of a fresh model: normal(0, 0.02) draws from ``rng``, in call order."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def drawn(self, name: str, shape: tuple[int, int]) -> DenseMatrix:
        return DenseMatrix(self.rng.normal(0.0, 0.02, size=shape), name=name)

    def filled(self, name: str, shape: tuple[int, int], value: float) -> DenseMatrix:
        return DenseMatrix(np.full(shape, value), name=name)


def make_attention_layer(
    source,
    hidden: int,
    heads: int,
    rank: int = 0,
    seq_hint: int = 64,
    name: str = "attn",
    binary: bool = True,
) -> AttentionLayerState:
    """The layer's named tensors, each taken from ``source`` in state order.

    A tensor source has ``drawn(name, shape)`` for a tensor whose init is a
    random draw and ``filled(name, shape, value)`` for one whose init is a
    constant, each returning a :class:`DenseMatrix` under ``name``.
    :class:`InitTensors` gives a fresh layer: normal(0, 0.02) weights, zero
    biases, unit binarizers, attention binarizer levels at 3/seq_hint so a
    fresh softmax row (mass about 1/seq) lands mid-range of the {0, level}
    rounding, and, with rank > 0, zero estimator factors, which
    :func:`init_estimators` can then fill from the drawn weights.
    ``binary=False`` declares the full-precision layer, with no binarizers.
    """
    if hidden % heads != 0:
        raise ValueError(f"hidden ({hidden}) must divide evenly into {heads} heads")

    def w(suffix: str) -> DenseMatrix:
        return source.drawn(f"{name}.{suffix}", (hidden, hidden))

    def b(suffix: str) -> DenseMatrix:
        return source.filled(f"{name}.{suffix}", (1, hidden), 0.0)

    def quant(suffix: str, alpha: float = 1.0) -> ElasticQuant | None:
        return ElasticQuant.declare(source, f"{name}.{suffix}", alpha) if binary else None

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
        in_q=quant("in_q"),
        in_k=quant("in_k"),
        in_v=quant("in_v"),
        in_o=quant("in_o"),
        head_q=[quant(f"h{h}.q") for h in range(heads)],
        head_k=[quant(f"h{h}.k") for h in range(heads)],
        head_v=[quant(f"h{h}.v") for h in range(heads)],
        head_att=[quant(f"h{h}.att", alpha=3.0 / seq_hint) for h in range(heads)],
    )
    if rank > 0:
        layer.estimators = ResidualEstimators(
            *(source.filled(f"{name}.est.{f.name}", (hidden, rank), 0.0) for f in fields(ResidualEstimators))
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
    w_b: DenseMatrix | None = None,
) -> DenseMatrix:
    """Binarized affine map: two-level input times two-level weights plus bias.

    ``w_b`` is ``w`` already binarized (transposed, in ``mode``) by
    :func:`bitformer.model.binarize_linears`, its backward on another tape;
    without it ``w`` is binarized here, with a backward on this tape.
    """
    aq = binarize_activation_pm1(tape, a, in_q, mode)
    if w_b is None:
        w_b = binarize_weight(tape, w, mode, transposed=True)
    return add_bias(tape, matmul(tape, aq, w_b), b)


def _pack_shifted(x: Array, q: ElasticQuant | list[ElasticQuant]) -> tuple[PackedBitMatrix, Array]:
    """Sign bits of ``x - beta`` (the ±1 pattern of ``binarize_activation_pm1``) and the floored level.

    ``x`` is a matrix with one binarizer or a stack with one per slice,
    whose levels come back shaped (slices, 1, 1); both are read by
    :func:`~bitformer.quant._slice_params`, as on the simulated routes.
    """
    _, alpha, beta = _slice_params(x, q)
    return pack_signs(x - beta), np.maximum(alpha, ALPHA_FLOOR)


def binary_linear_packed(a: Array, w: DenseMatrix, b: DenseMatrix, in_q: ElasticQuant) -> Array:
    """Packed-kernel twin of :func:`binary_linear` (hard mode).

    The weight's sign bits and row scales are the ones
    :func:`~bitformer.quant.weight_bits` keeps on ``w``.
    """
    wb = weight_bits(w)
    bits, level = _pack_shifted(a, in_q)
    out = binary_gemm(bits, wb.bits, level * wb.scales).data
    out += b.data
    return out


class SimOps:
    """Float simulation of every binary product: the training arithmetic.

    Taped, it is what a training step differentiates; relaxed, it runs the
    binarizer surrogates for finite differencing.  Untaped hard forwards of a
    model run :class:`PackedOps` instead.  ``weights`` maps linear weights to
    their binarized nodes (``binary_linear``'s ``w_b``); a weight it lacks is
    binarized per use.
    """

    def __init__(
        self,
        tape: Tape | None = None,
        mode: QuantMode = "hard",
        weights: dict[DenseMatrix, DenseMatrix] | None = None,
    ):
        self.tape, self.mode, self.weights = tape, mode, weights or {}

    def attention(self, a: DenseMatrix, layer: AttentionLayerState, key_mask) -> DenseMatrix:
        return attention_forward(self.tape, a, layer, self.mode, key_mask, weights=self.weights)

    def embed(self, rows: DenseMatrix) -> DenseMatrix:
        return binarize_weight(self.tape, rows, self.mode)

    def linear(self, a, w, b, in_q) -> DenseMatrix:
        return binary_linear(self.tape, a, w, b, in_q, self.mode, self.weights.get(w))

    def scores(self, q, k, q_bins, k_bins) -> DenseMatrix:
        """Per-head query/key products of the (heads, n, head width) stacks ``q`` and ``k``."""
        qb = binarize_activation_pm1(self.tape, q, q_bins, self.mode)
        kb = binarize_activation_pm1(self.tape, k, k_bins, self.mode)
        return matmul(self.tape, qb, transpose(self.tape, kb))

    def select(self, att, att_bins, key_mask) -> DenseMatrix:
        return binarize_attention_01(self.tape, att, att_bins, self.mode, key_mask)

    def mix(self, sel, v, v_bins, att_bins) -> DenseMatrix:
        return matmul(self.tape, sel, binarize_activation_pm1(self.tape, v, v_bins, self.mode))


class PackedOps(SimOps):
    """Binary products on bit-packed words: every untaped hard forward.

    Its agreement with the training arithmetic (:class:`SimOps`, taped)
    assumes generic binarizer parameters: if an activation lands exactly on
    a sign threshold (possible at the all-zero-threshold init, where some
    activations are exact ±1-lattice cancellations), the integer accumulator
    and float summation may resolve its sign differently, so a model can
    evaluate slightly differently from how it trains there.  ``scores`` and
    ``mix`` pack each (heads, n, head width) stack once, against one
    threshold per head, and run all heads as one stacked packed product
    with one scale per head.
    """

    def attention(self, a, layer, key_mask) -> DenseMatrix:
        return DenseMatrix(attention_forward_packed(a.data, layer, key_mask))

    def linear(self, a, w, b, in_q) -> DenseMatrix:
        return DenseMatrix(binary_linear_packed(a.data, w, b, in_q))

    def scores(self, q, k, q_bins, k_bins) -> DenseMatrix:
        q_bits, q_levels = _pack_shifted(q.data, q_bins)
        k_bits, k_levels = _pack_shifted(k.data, k_bins)
        return binary_gemm(q_bits, k_bits, q_levels * k_levels)

    def mix(self, sel, v, v_bins, att_bins) -> DenseMatrix:
        # gemm wants value rows as output columns
        v_bits, v_levels = _pack_shifted(v.data.swapaxes(-1, -2), v_bins)
        sel_bits = pack_signs(np.where(sel.data != 0.0, 1.0, -1.0))
        return ternary_binary_gemm(sel_bits, v_bits, _slice_params(sel.data, att_bins)[1] * v_levels)


class FullPrecisionOps(SimOps):
    """The float twin: plain affine maps, every binarizer the identity.

    Each ``linear`` is one :func:`~bitformer.numerics.affine`, taped or not,
    so BLAS reads the (out, in) weight transposed in place instead of
    copying it first.  The task heads keep that copy; see
    :func:`bitformer.model.head`.
    """

    def attention(self, a, layer, key_mask) -> DenseMatrix:
        return attend(self, a, layer, key_mask)

    def embed(self, rows):
        return rows

    def linear(self, a, w, b, in_q=None) -> DenseMatrix:
        return affine(self.tape, a, w, b)

    def scores(self, q, k, q_bins, k_bins) -> DenseMatrix:
        return matmul(self.tape, q, transpose(self.tape, k))

    def select(self, att, att_bins, key_mask):
        return att  # padded keys already hold exactly zero softmax mass

    def mix(self, sel, v, v_bins, att_bins) -> DenseMatrix:
        return matmul(self.tape, sel, v)


def attend(
    ops: SimOps,
    a: DenseMatrix,
    layer: AttentionLayerState,
    key_mask: Array | None = None,
    trace: dict | None = None,
) -> DenseMatrix:
    """One attention layer over one sequence (rows = positions), in any op set.

    Queries, keys and values are split once into (heads, n, head width)
    stacks, and each step after that (scores, score-estimator correction,
    scaling, pad bias, softmax, selection, value mix) is one op over every
    head, each head reading its own binarizers and factor column block.
    ``key_mask`` marks real key positions with True; padded keys take a
    large negative score bias and are never selected.  ``trace``, when a
    dict, receives per-head lists of soft maps ("att") and selections
    ("att_selected").
    """
    tape = ops.tape
    heads = layer.heads
    inv = 1.0 / math.sqrt(layer.head_width)
    est = layer.estimators

    q = ops.linear(a, layer.wq, layer.bq, layer.in_q)
    k = ops.linear(a, layer.wk, layer.bk, layer.in_k)
    v = ops.linear(a, layer.wv, layer.bv, layer.in_v)
    if est is not None:
        au = matmul(tape, a, est.u_v_star)
        vt_star = transpose(tape, est.v_v_star)

    q, k, v = (split_heads(tape, x, heads) for x in (q, k, v))
    scores = ops.scores(q, k, layer.head_q, layer.head_k)
    if est is not None:
        scores = add(tape, scores, score_residual(tape, a, est, heads))
    scores = scale(tape, scores, inv)
    if key_mask is not None:
        scores = add_constant(tape, scores, np.where(key_mask, 0.0, PAD_SCORE_BIAS))

    att = softmax_rows(tape, scores)
    sel = ops.select(att, layer.head_att, key_mask)
    ctx = ops.mix(sel, v, layer.head_v, layer.head_att)
    if est is not None:
        ctx = add(tape, ctx, matmul(tape, matmul(tape, sel, au), split_heads(tape, vt_star, heads)))

    if trace is not None:
        trace["att"] = list(att.data.copy())
        trace["att_selected"] = list((sel.data != 0.0).astype(np.float64))

    return ops.linear(merge_heads(tape, ctx), layer.wo, layer.bo, layer.in_o)


def attention_forward(
    tape: Tape | None,
    a: DenseMatrix,
    layer: AttentionLayerState,
    mode: QuantMode = "hard",
    key_mask: Array | None = None,
    trace: dict | None = None,
    weights: dict[DenseMatrix, DenseMatrix] | None = None,
) -> DenseMatrix:
    """Float-simulated binary attention: :func:`attend` over :class:`SimOps`."""
    return attend(SimOps(tape, mode, weights), a, layer, key_mask, trace)


def attention_forward_packed(
    a: Array,
    layer: AttentionLayerState,
    key_mask: Array | None = None,
) -> Array:
    """Packed-kernel attention, hard mode: :func:`attend` over :class:`PackedOps`."""
    return attend(PackedOps(), DenseMatrix(a), layer, key_mask).data
