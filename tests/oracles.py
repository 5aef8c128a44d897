"""Independent reference implementations used as oracles by the test suite.

Everything here is written the slow, obvious way (explicit loops, textbook
formulas) on purpose: these functions are the second route that the fast
library code is checked against, so they must not share code with it.
The two reference training loops are the exception: they are built from the
library's own forward, losses and optimizer, and differ from
``pretrain_loop`` and ``finetune`` in the bookkeeping of the block linear
weights: every sequence binarizes them afresh, the gradient each sequence
leaves on a binarized matrix is added into a running sum in sequence order,
and the binarizer backward then runs once per weight on that sum, through
the closure of a fresh taped ``quant.binarize_weight``.  They check the per-step
weight binarization and its deferred backward, not the math.
``per_head_attend`` is the same kind of exception: ``binattn.attend`` as
a loop of 2-D tape ops, one head at a time.
``estimator_factors`` is plain test plumbing shared by two test modules.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import fields

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop float64 matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def naive_sign_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Integer dot product of two {-1,+1} vectors, accumulated in Python ints."""
    assert x.shape == y.shape
    acc = 0
    for xv, yv in zip(x.tolist(), y.tolist()):
        assert xv in (-1, 1) and yv in (-1, 1)
        acc += xv * yv
    return acc


def naive_ternary_dot(sel: np.ndarray, y: np.ndarray) -> int:
    """Integer dot product of a {0,1} vector against a {-1,+1} vector."""
    acc = 0
    for sv, yv in zip(sel.tolist(), y.tolist()):
        assert sv in (0, 1) and yv in (-1, 1)
        acc += sv * yv
    return acc


def softmax_row(row: np.ndarray) -> np.ndarray:
    """Textbook softmax of one row with max subtraction."""
    shifted = row - max(row.tolist())
    exps = np.array([math.exp(v) for v in shifted.tolist()])
    return exps / exps.sum()


def log_softmax_row(row: np.ndarray) -> np.ndarray:
    shifted = row - max(row.tolist())
    lse = math.log(sum(math.exp(v) for v in shifted.tolist()))
    return shifted - lse


def gelu_scalar(x: float) -> float:
    """tanh-approximation GeLU evaluated with math-module scalars."""
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x**3)))


def gelu_whole_expressions(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GeLU forward and input gradient as whole-array expressions, one temporary per step.

    This is ``numerics.gelu`` before it built the tanh argument in place; the
    in-place form must give the same bits.
    """
    c = np.sqrt(2.0 / np.pi)
    x2 = x * x
    inner = c * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    dinner = c * (1.0 + 3 * 0.044715 * x2)
    dt = (1.0 - t * t) * dinner
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * dt)


def layer_norm_stored(x, gamma, beta, g, eps=1e-5):
    """Layer norm forward and gradients with the standardized rows kept, as whole-array expressions.

    This is ``numerics.layer_norm`` before its backward recomputed the
    standardized rows from the input; the recomputing form must give the
    same bits.  Returns (output, d input, d gamma, d beta).
    """
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma + beta
    dxhat = g * gamma
    n = x.shape[1]
    dx = inv * (dxhat - dxhat.mean(axis=1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=1, keepdims=True) / n)
    return out, dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)


def adamw_expression_step(data, m, v, grad, t, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """One AdamW update of ``data``, ``m`` and ``v`` in place, as whole-array expressions.

    This is ``numerics.AdamW.step`` before it ran through scratch buffers;
    the in-place form must give the same bits.  ``grad`` None is all-zero.
    """
    beta1, beta2 = betas
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    g = grad if grad is not None else 0.0
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * np.square(g)
    update = (m / bc1) / (np.sqrt(v / bc2) + eps)
    data -= lr * update
    if weight_decay:
        data -= lr * weight_decay * data


def central_difference(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central finite differences of a scalar function in every array entry."""
    grads = []
    for ai, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(got: np.ndarray, want: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise |got - want| / max(|want|, floor)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom))


def whole_matrix_prepare_weight(data: np.ndarray, mode: str = "hard", transposed: bool = False) -> tuple:
    """The weight binarizer over the whole matrix at once, with its backward state.

    Returns ``(value, scales, window, clipped)``: the value of
    ``quant.binarize_weight``, and the row scales, the unit window on the
    centered values and those values clipped to [-1, 1], which its backward
    recomputes.  Per element these are the same expressions as
    ``quant``'s row-block pass, but with whole-matrix temporaries and one
    strided write of the transposed value.
    """
    centered = data - data.mean(axis=1, keepdims=True)
    scales = np.abs(data).mean(axis=1, keepdims=True)
    value = np.empty(data.shape[::-1]).T if transposed else np.empty(data.shape)
    if mode == "hard":
        levels = np.greater_equal(centered, 0.0).astype(np.float64)
        levels *= 2.0
        levels -= 1.0
    else:
        levels = np.clip(centered, -1.0, 1.0)
    np.multiply(scales, levels, out=value)
    if transposed:
        value = value.T
    return value, scales, np.abs(centered) <= 1.0, np.clip(centered, -1.0, 1.0)


def whole_matrix_weight_backward(data: np.ndarray, g: np.ndarray, transposed: bool = False) -> np.ndarray:
    """The weight binarizer's surrogate gradient for ``g`` over the whole matrix at once.

    The same expressions as ``quant``'s backward, read from the state
    :func:`whole_matrix_prepare_weight` returns, on a private (out, in)
    row-major copy of ``g``.
    """
    _, scales, window, clipped = whole_matrix_prepare_weight(data)
    g = np.ascontiguousarray(g.T) if transposed else g.copy()
    dw = np.multiply(scales, window)
    dw *= g
    dw -= dw.mean(axis=1, keepdims=True)
    g *= clipped
    through_scale = np.greater_equal(data, 0.0).astype(np.float64)
    through_scale *= 2.0
    through_scale -= 1.0
    through_scale *= g.sum(axis=1, keepdims=True) / data.shape[1]
    return dw + through_scale


def full_precision_encoder(
    params: dict[str, np.ndarray],
    layers: int,
    heads: int,
    token_ids: Sequence[int],
    segment_ids: Sequence[int],
    real: Sequence[bool] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Textbook post-norm BERT encoder, one head and one query at a time.

    ``params`` maps the model's parameter names to arrays.  Attention runs
    over the keys flagged in ``real`` (all keys when None).  Returns the
    token-prediction logits of every position and the pair-order logits of
    position 0.
    """

    def layer_norm(x, gamma, beta, eps=1e-5):
        out = np.empty_like(x)
        for i, row in enumerate(x):
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[i] = (row - mu) / math.sqrt(var + eps) * gamma[0] + beta[0]
        return out

    def affine(x, w, b):
        return naive_matmul(x, w.T) + b

    n = len(token_ids)
    keys = [j for j in range(n) if real is None or real[j]]
    x = np.array(
        [
            params["emb.tok"][t] + params["emb.pos"][i] + params["emb.seg"][s]
            for i, (t, s) in enumerate(zip(token_ids, segment_ids))
        ]
    )
    x = layer_norm(x, params["emb.ln.gamma"], params["emb.ln.beta"])
    for layer in range(layers):
        pre = f"layer{layer}."
        p = {name[len(pre) :]: v for name, v in params.items() if name.startswith(pre)}
        q, k, v = (affine(x, p[f"attn.w{c}"], p[f"attn.b{c}"]) for c in "qkv")
        width = q.shape[1] // heads
        ctx = np.zeros_like(q)
        for h in range(heads):
            cols = slice(h * width, (h + 1) * width)
            for i in range(n):
                scores = np.array([float(q[i, cols] @ k[j, cols]) / math.sqrt(width) for j in keys])
                for weight, j in zip(softmax_row(scores), keys):
                    ctx[i, cols] += weight * v[j, cols]
        x = layer_norm(x + affine(ctx, p["attn.wo"], p["attn.bo"]), p["ln_attn.gamma"], p["ln_attn.beta"])
        hid = np.vectorize(gelu_scalar)(affine(x, p["ffn.w1"], p["ffn.b1"]))
        x = layer_norm(x + affine(hid, p["ffn.w2"], p["ffn.b2"]), p["ln_ffn.gamma"], p["ln_ffn.beta"])
    mlm = affine(x, params["head.mlm.w"], params["head.mlm.b"])
    nsp = affine(x[:1], params["head.nsp.w"], params["head.nsp.b"])
    return mlm, nsp


def _concat_cols(tape, parts):
    """Columns of ``parts`` side by side, as one tape op."""
    from bitformer.numerics import DenseMatrix

    out = DenseMatrix(np.hstack([p.data for p in parts]))
    if tape is not None:
        offsets = np.cumsum([0] + [p.cols for p in parts])

        def bwd():
            if out.grad is not None:
                for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                    p.ensure_grad()[...] += out.grad[:, lo:hi]

        tape.record("merge_heads", bwd)  # the per-head loop's form of the stack's merge
    return out


def per_head_attend(ops, a, layer, key_mask=None, trace=None):
    """``binattn.attend`` one head at a time: column slices, per-head 2-D products, a concat.

    ``ops`` is a ``SimOps``, ``PackedOps`` or ``FullPrecisionOps``; only its
    tape, mode and ``linear`` are used.  Each head's scores, selection and
    value mix are the per-head forms of those op sets, each head reads its
    own binarizers, and its score-estimator correction is added to its
    scores by a 2-D ``add``.  Returns the layer output; ``trace`` receives
    per-head lists like ``attend``'s.
    """
    from bitformer.binattn import (
        PAD_SCORE_BIAS,
        FullPrecisionOps,
        PackedOps,
        _pack_shifted,
        head_rank_blocks,
        score_residual,
    )
    from bitformer.bitkernel import binary_gemm, pack_signs, ternary_binary_gemm
    from bitformer.numerics import add, add_constant, matmul, scale, slice_cols, softmax_rows, transpose
    from bitformer.quant import ALPHA_FLOOR, binarize_activation_pm1, binarize_attention_01

    def floored_level(q):
        return max(float(q.alpha.data[0, 0]), ALPHA_FLOOR)

    tape, mode = ops.tape, ops.mode
    full, packed = isinstance(ops, FullPrecisionOps), isinstance(ops, PackedOps)

    def scores(q_h, k_h, q_bin, k_bin):
        if full:
            return matmul(tape, q_h, transpose(tape, k_h))
        if packed:
            bits_q, bits_k = _pack_shifted(q_h.data, q_bin)[0], _pack_shifted(k_h.data, k_bin)[0]
            return binary_gemm(bits_q, bits_k, floored_level(q_bin) * floored_level(k_bin))
        qb = binarize_activation_pm1(tape, q_h, q_bin, mode)
        kb = binarize_activation_pm1(tape, k_h, k_bin, mode)
        return matmul(tape, qb, transpose(tape, kb))

    def mix(sel, v_h, v_bin, att_bin):
        if full:
            return matmul(tape, sel, v_h)
        if packed:
            bits_sel = pack_signs(np.where(sel.data != 0.0, 1.0, -1.0))
            level = float(att_bin.alpha.data[0, 0]) * floored_level(v_bin)
            return ternary_binary_gemm(bits_sel, _pack_shifted(v_h.data.T, v_bin)[0], level)
        return matmul(tape, sel, binarize_activation_pm1(tape, v_h, v_bin, mode))

    dk = layer.head_width
    inv = 1.0 / math.sqrt(dk)
    est = layer.estimators
    q = ops.linear(a, layer.wq, layer.bq, layer.in_q)
    k = ops.linear(a, layer.wk, layer.bk, layer.in_k)
    v = ops.linear(a, layer.wv, layer.bv, layer.in_v)
    blocks = [None] * layer.heads
    if est is not None:
        blocks = [(lo, hi) if lo < hi else None for lo, hi in head_rank_blocks(est.rank, layer.heads)]
        au = matmul(tape, a, est.u_v_star)
        vt_star = transpose(tape, est.v_v_star)
    pad_bias = None if key_mask is None else np.where(key_mask, 0.0, PAD_SCORE_BIAS)
    if trace is not None:
        trace["att"], trace["att_selected"] = [], []

    ctx_parts = []
    for h in range(layer.heads):
        lo, hi = h * dk, (h + 1) * dk
        s = scores(slice_cols(tape, q, lo, hi), slice_cols(tape, k, lo, hi), layer.head_q[h], layer.head_k[h])
        if blocks[h] is not None:
            s = add(tape, s, score_residual(tape, a, est, blocks[h]))
        s = scale(tape, s, inv)
        if pad_bias is not None:
            s = add_constant(tape, s, pad_bias)
        att = softmax_rows(tape, s)
        sel = att if full else binarize_attention_01(tape, att, layer.head_att[h], mode, key_mask)
        ctx = mix(sel, slice_cols(tape, v, lo, hi), layer.head_v[h], layer.head_att[h])
        if est is not None:
            ctx = add(tape, ctx, matmul(tape, matmul(tape, sel, au), slice_cols(tape, vt_star, lo, hi)))
        ctx_parts.append(ctx)
        if trace is not None:
            trace["att"].append(att.data.copy())
            trace["att_selected"].append((sel.data != 0.0).astype(np.float64))
    return ops.linear(_concat_cols(tape, ctx_parts), layer.wo, layer.bo, layer.in_o)


def block_linears(model) -> list:
    """The six binarized projection weights of every block, in block order."""
    return [
        w
        for blk in model.blocks
        for w in (blk.attn.wq, blk.attn.wk, blk.attn.wv, blk.attn.wo, blk.ffn.w1, blk.ffn.w2)
    ]


def estimator_factors(est) -> list:
    """The six factor tensors of a ``ResidualEstimators``, in field order (not copies)."""
    return [getattr(est, f.name) for f in fields(est)]


def _add_binarized_grads(sums: dict, weights: dict) -> None:
    """Add each binarized matrix's gradient into its running sum (zeros at first)."""
    for w, node in weights.items():
        if w not in sums:
            sums[w] = np.zeros(node.data.shape)
        sums[w][...] += node.grad


def _binarizer_backward_once(sums: dict) -> None:
    """One per-use binarizer backward per weight, fed its summed gradient."""
    from bitformer.numerics import Tape
    from bitformer.quant import binarize_weight

    tape = Tape()
    for w, total in sums.items():
        binarize_weight(tape, w, transposed=True).grad = total
    for _, fn in tape.ops:
        fn()
    sums.clear()


def per_sequence_pretrain(
    model,
    corpus,
    *,
    steps: int,
    batch_size: int,
    seed: int,
    teacher=None,
    peak_lr: float = 2e-4,
    warmup_frac: float = 0.05,
    weight_decay: float = 0.01,
    temperature: float = 1.0,
) -> list[str]:
    """``pretrain_loop`` with the block weights binarized afresh per sequence; returns the log lines.

    Same substreams, batches, loss terms, accumulation order, AdamW update
    and level projection; the binarized matrices' gradients are summed here
    and the binarizer backward runs once per step, before the update.
    """
    from bitformer.data import IGNORE_LABEL, assemble_nsp_batch, make_nsp_pairs, mask_tokens
    from bitformer.model import binarize_linears, forward, named_parameters
    from bitformer.numerics import AdamW, Tape, cross_entropy, linear_warmup_schedule, scale
    from bitformer.pretrain import (
        StepMetrics,
        distill_losses,
        project_binarizer_levels,
        teacher_targets,
        total_loss,
    )
    from bitformer.rng import substream

    opt = AdamW([p for _, p in named_parameters(model)], lr=peak_lr, weight_decay=weight_decay)
    rng_mask = substream(seed, "mask")
    pairs = make_nsp_pairs(corpus, substream(seed, "nsp"), max_seq=model.config.max_seq)
    lines = []
    for step in range(steps):
        batch = assemble_nsp_batch([next(pairs) for _ in range(batch_size)])
        batch = mask_tokens(batch, len(corpus.vocab), rng_mask)
        opt.zero_grad()
        sums = [0.0, 0.0, 0.0, 0.0]
        binarized = {}
        hit = masked = 0
        for row in range(batch_size):
            keep = batch.pad_mask[row]
            tokens, segs = batch.token_ids[row, keep], batch.segment_ids[row, keep]
            labels = batch.mlm_labels[row, keep]
            tape = Tape()
            weights = binarize_linears(model, Tape())
            res = forward(model, tokens, segs, tape=tape, weights=weights)
            l_mlm = cross_entropy(tape, res.mlm_logits, labels)
            l_nsp = cross_entropy(tape, res.nsp_logits, batch.nsp_labels[row : row + 1])
            terms = [l_mlm, l_nsp]
            if teacher is not None:
                targets = teacher_targets(teacher, tokens, segs)
                l_logit, l_rep = distill_losses(
                    tape, res.mlm_logits, res.hidden_states, targets, temperature
                )
                terms += [l_rep, l_logit]
            loss = total_loss(tape, *terms)
            for i, term in enumerate(terms):
                sums[i] += float(term.data[0, 0])
            live = labels != IGNORE_LABEL
            masked += int(live.sum())
            hit += int((res.mlm_logits.data[live].argmax(axis=1) == labels[live]).sum())
            tape.backward(scale(tape, loss, 1.0 / batch_size))
            _add_binarized_grads(binarized, weights)
        _binarizer_backward_once(binarized)
        lr = linear_warmup_schedule(step + 1, steps, warmup_frac, peak_lr)
        opt.step(lr=lr)
        project_binarizer_levels(model)
        means = [v / batch_size for v in sums]
        acc = hit / masked if masked else 0.0
        lines.append(StepMetrics(step, *means, lr=lr, masked_acc=acc).line())
    return lines


def per_example_finetune(
    model, train, evals, *, epochs: int, lr: float, batch_size: int, seed: int, n_classes: int = 2
):
    """``finetune`` (body trained) with the block weights binarized afresh per example.

    The binarized matrices' gradients are summed here and the binarizer
    backward runs once per chunk.  Returns (accuracy, head weight, head bias).
    """
    from bitformer.model import binarize_linears, encode, named_parameters
    from bitformer.numerics import (
        AdamW,
        DenseMatrix,
        Tape,
        add,
        cross_entropy,
        gather_rows,
        matmul,
        scale,
        transpose,
    )
    from bitformer.pretrain import project_binarizer_levels
    from bitformer.rng import substream

    rng = substream(seed, "finetune-head")
    head_w = DenseMatrix(0.02 * rng.normal(size=(n_classes, model.config.hidden)))
    head_b = DenseMatrix(np.zeros((1, n_classes)))
    opt = AdamW([head_w, head_b] + [p for _, p in named_parameters(model)], lr=lr)
    order_rng = substream(seed, "finetune-order")

    def logits(tape, tokens, segs, weights=None):
        last = encode(model, np.asarray(tokens), np.asarray(segs), tape=tape, weights=weights)[-1]
        cls = gather_rows(tape, last, np.array([0]))
        return add(tape, matmul(tape, cls, transpose(tape, head_w)), head_b)

    for _ in range(epochs):
        order = order_rng.permutation(len(train))
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            opt.zero_grad()
            binarized = {}
            for idx in chunk:
                (tokens, segs), label = train[int(idx)]
                tape = Tape()
                weights = binarize_linears(model, Tape())
                loss = cross_entropy(tape, logits(tape, tokens, segs, weights), np.array([label]))
                tape.backward(scale(tape, loss, 1.0 / len(chunk)))
                _add_binarized_grads(binarized, weights)
            _binarizer_backward_once(binarized)
            opt.step()
            project_binarizer_levels(model)
    correct = sum(
        int(np.argmax(logits(None, tokens, segs).data[0])) == label for (tokens, segs), label in evals
    )
    return correct / len(evals), head_w.data, head_b.data
