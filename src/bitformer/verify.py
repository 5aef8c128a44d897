"""Self-contained verification suites: dual-route oracles and FD gradient checks.

Each check builds its own inputs from a seed, compares the fast
implementation against an independent route (float GEMM, direct selection
product, central finite differences of hand-written surrogate formulas,
full-precision attention scores, the packed evaluation path), and reports a
one-line result.  The command-line ``verify`` subcommand and the acceptance
suite both run these functions, so the numbers printed here are the numbers
gated on.  Nothing here needs a corpus, a checkpoint, or the test suite.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .binattn import head_rank_blocks, score_residual, zero_estimators
from .bitkernel import binary_accumulate, pack_signs, ternary_accumulate
from .model import ModelConfig, build_model, forward, forward_packed, model_binarizers, named_parameters
from .numerics import (
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
    matmul,
    merge_heads,
    scale,
    slice_cols,
    softmax_rows,
    split_heads,
    transpose,
)
from .quant import (
    ElasticQuant,
    binarize_activation_pm1,
    binarize_attention_01,
    binarize_weight,
)
from .pretrain import hidden_mse, kl_to_teacher
from .rng import substream

__all__ = [
    "ALL_CHECKS",
    "CheckResult",
    "check_exact_recovery",
    "check_gradients",
    "check_kernel_oracle",
    "check_ternary_trick",
    "check_train_eval_agreement",
    "run_checks",
]


class CheckResult:
    """Outcome of one verification suite."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<22} {self.detail}"


# --------------------------------------------------------------------------
# packed-kernel oracles
# --------------------------------------------------------------------------


def _stack_shape(rng, i: int) -> tuple[int, ...]:
    """Every other instance is a stack of 2-4 slices, as an attention layer's heads are."""
    return (int(rng.integers(2, 5)),) if i % 2 else ()


def check_kernel_oracle(seed: int = 0, instances: int = 500, max_dim: int = 130) -> CheckResult:
    """Packed ±1 GEMM accumulators exactly equal the float product, for matrices and stacks."""
    rng = substream(seed, "verify-kernel")
    start = time.perf_counter()
    worst = 0
    for i in range(instances):
        m, k, n = (int(rng.integers(1, max_dim + 1)) for _ in range(3))
        lead = _stack_shape(rng, i)
        a = np.where(rng.random(lead + (m, k)) < 0.5, -1.0, 1.0)
        b = np.where(rng.random(lead + (n, k)) < 0.5, -1.0, 1.0)
        got = binary_accumulate(pack_signs(a), pack_signs(b))
        want = (a @ b.swapaxes(-1, -2)).astype(np.int64)
        worst = max(worst, int(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    return CheckResult(
        name="kernel-oracle",
        passed=worst == 0 and elapsed < 10.0,
        detail=f"{instances} instances ({instances // 2} stacked), dims <= {max_dim}, "
        f"max |diff| = {worst}, {elapsed:.2f}s",
    )


def check_ternary_trick(seed: int = 0, instances: int = 500, max_dim: int = 96) -> CheckResult:
    """Selection-times-sign products computed by the shift identity are exact, for matrices and stacks."""
    rng = substream(seed, "verify-ternary")
    worst = 0
    for i in range(instances):
        m, k, n = (int(rng.integers(1, max_dim + 1)) for _ in range(3))
        lead = _stack_shape(rng, i)
        sel = (rng.random(lead + (m, k)) < 0.5).astype(np.float64)
        v = np.where(rng.random(lead + (n, k)) < 0.5, -1.0, 1.0)
        got = ternary_accumulate(pack_signs(2.0 * sel - 1.0), pack_signs(v))
        want = (sel @ v.swapaxes(-1, -2)).astype(np.int64)
        worst = max(worst, int(np.abs(got - want).max()))
    return CheckResult(
        name="ternary-trick",
        passed=worst == 0,
        detail=f"{instances} instances ({instances // 2} stacked), dims <= {max_dim}, max |diff| = {worst}",
    )


# --------------------------------------------------------------------------
# gradient checks
# --------------------------------------------------------------------------


def _fd_grad(f: Callable[[], float], param: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of f in each entry of param (mutated in place); 1e-5 limits round-off."""
    g = np.zeros_like(param)
    flat, gflat = param.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


def _max_rel(got: np.ndarray | None, want: np.ndarray, floor: float = 1e-6) -> float:
    if got is None:
        got = np.zeros_like(want)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


def _grad_case_ops(rng: np.random.Generator) -> float:
    """One composite graph exercising every differentiable numerics op and both distillation losses.

    All ops in the graph are smooth at generic inputs, so any point works;
    FD runs over every entry of every leaf (far more than ten points).  The
    middle of the graph runs on a two-head stack, with the 2-D leaf ``m``
    broadcast over it from either side.
    """
    x0 = DenseMatrix(rng.normal(size=(3, 4)))
    x1 = DenseMatrix(rng.normal(size=(3, 4)))
    w = DenseMatrix(rng.normal(size=(6, 4)))
    gamma = DenseMatrix(rng.normal(size=(1, 6)) * 0.2 + 1.0)
    beta = DenseMatrix(rng.normal(size=(1, 6)) * 0.1)
    bias = DenseMatrix(rng.normal(size=(1, 6)) * 0.1)
    m = DenseMatrix(rng.normal(size=(3, 3)))
    targets = np.array([1, -100, 3])
    teacher_logits = rng.normal(size=(3, 4))
    teacher_hidden = rng.normal(size=(3, 4))
    leaves = [x0, x1, w, gamma, beta, bias, m]

    def graph() -> tuple[Tape, DenseMatrix]:
        tape = Tape()
        h = add(tape, x0, x1)
        h = matmul(tape, h, transpose(tape, w))
        h = add_bias(tape, h, bias)
        h = add(tape, h, affine(tape, x0, w, bias))
        h = layer_norm(tape, h, gamma, beta)
        h = gelu(tape, h)
        h = scale(tape, add_constant(tape, h, 0.1), 0.5)
        s = split_heads(tape, h, 2)
        s = add_slices(tape, matmul(tape, s, transpose(tape, s)), [m, None])
        s = softmax_rows(tape, scale(tape, s, 0.5))
        h = merge_heads(tape, matmul(tape, m, matmul(tape, s, m)))
        h = slice_cols(tape, h, 1, 5)
        h = gather_rows(tape, h, np.array([2, 0, 2]))
        loss = add(tape, cross_entropy(tape, h, targets), kl_to_teacher(tape, h, teacher_logits, 2.0))
        return tape, add(tape, loss, hidden_mse(tape, h, teacher_hidden))

    tape, loss = graph()
    tape.backward(loss)

    def value() -> float:
        _, out = graph()
        return float(out.data[0, 0])

    worst = 0.0
    for leaf in leaves:
        want = _fd_grad(value, leaf.data)
        worst = max(worst, _max_rel(leaf.grad, want))
    return worst


def _grad_case_binarizers(rng: np.random.Generator) -> float:
    """FD every binarizer partial against a hand-written surrogate formula.

    Sample points are fixed grids chosen with a wide margin from every
    surrogate kink (clip corners, the |x| corner of the row scales, the
    selection corners); only the upstream coefficients vary with the seed.
    """
    worst = 0.0

    # row-scaled weight binarizer: kinks at centered = ±1 and at entry = 0
    base = np.array([-2.20, -1.50, -0.60, 0.45, 1.35, 2.30])
    wdata = np.stack(
        [
            base,
            base[::-1] + 0.07,
            -base - 0.09,
            np.roll(base, 2) + 0.13,
        ]
    )
    coeffs_w = rng.normal(size=wdata.shape)
    wn = DenseMatrix(wdata.copy())
    tape = Tape()
    out = binarize_weight(tape, wn, mode="relaxed")
    out.ensure_grad()[...] = coeffs_w
    tape.replay()

    def f_weight() -> float:
        d = wn.data
        centered = d - d.mean(axis=1, keepdims=True)
        scales = np.abs(d).mean(axis=1, keepdims=True)
        return float((coeffs_w * scales * np.clip(centered, -1.0, 1.0)).sum())

    worst = max(worst, _max_rel(wn.grad, _fd_grad(f_weight, wn.data)))

    # signed two-level activations: kinks at a = beta ± 1
    alpha, beta = 0.9, 0.07
    adata = np.array(
        [
            [-2.00, -0.70, 0.30, 2.30, 0.05, -1.50],
            [0.60, -2.60, 1.80, -0.40, 1.55, -1.20],
            [0.85, 2.05, -0.25, 1.30, -1.75, 0.45],
        ]
    )
    coeffs_a = rng.normal(size=adata.shape)
    q = ElasticQuant.create(alpha=alpha, beta=beta, name="verify.pm1")
    an = DenseMatrix(adata.copy())
    tape = Tape()
    out = binarize_activation_pm1(tape, an, q, mode="relaxed")
    out.ensure_grad()[...] = coeffs_a
    tape.replay()

    def f_pm1() -> float:
        al = float(q.alpha.data[0, 0])
        be = float(q.beta.data[0, 0])
        return float((coeffs_a * al * np.clip(an.data - be, -1.0, 1.0)).sum())

    worst = max(worst, _max_rel(an.grad, _fd_grad(f_pm1, an.data)))
    worst = max(worst, _max_rel(q.alpha.grad, _fd_grad(f_pm1, q.alpha.data)))
    worst = max(worst, _max_rel(q.beta.grad, _fd_grad(f_pm1, q.beta.data)))

    # {0, level} attention maps: kinks where (a - beta)/alpha hits 0 or 1,
    # i.e. at a = 0.12 and a = 0.67 for these parameters
    q2 = ElasticQuant.create(alpha=0.55, beta=0.12, name="verify.att")
    tdata = np.array(
        [
            [-0.15, 0.00, 0.25, 0.40, 0.55, 0.80],
            [0.95, 1.10, 1.25, 0.32, 0.48, 0.88],
            [-0.05, 0.21, 0.75, 1.00, 0.36, 0.60],
        ]
    )
    coeffs_t = rng.normal(size=tdata.shape)
    tn = DenseMatrix(tdata.copy())
    tape = Tape()
    out = binarize_attention_01(tape, tn, q2, mode="relaxed")
    out.ensure_grad()[...] = coeffs_t
    tape.replay()

    def f_att() -> float:
        al = float(q2.alpha.data[0, 0])
        be = float(q2.beta.data[0, 0])
        return float((coeffs_t * al * np.clip((tn.data - be) / al, 0.0, 1.0)).sum())

    worst = max(worst, _max_rel(tn.grad, _fd_grad(f_att, tn.data)))
    worst = max(worst, _max_rel(q2.alpha.grad, _fd_grad(f_att, q2.alpha.data)))
    worst = max(worst, _max_rel(q2.beta.grad, _fd_grad(f_att, q2.beta.data)))
    return worst


def check_gradients(seed: int = 0, tolerance: float = 1e-4) -> CheckResult:
    """Central-FD comparison of every op and binarizer against its surrogate."""
    rng = substream(seed, "verify-grad")
    start = time.perf_counter()
    worst = max(_grad_case_ops(rng), _grad_case_binarizers(rng))
    elapsed = time.perf_counter() - start
    return CheckResult(
        name="gradients",
        passed=worst < tolerance and elapsed < 30.0,
        detail=f"max relative FD error = {worst:.2e}, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# attention residual recovery and route agreement
# --------------------------------------------------------------------------


def check_exact_recovery(seed: int = 0, instances: int = 50) -> CheckResult:
    """Factors holding the true remainders reproduce full-precision scores.

    At rank = hidden width the three score terms can store the binarized
    query/key weights and their binarization remainders verbatim; binary
    scores plus the estimate must then equal the full-precision scores to
    float accuracy.  Checked for a single head and, on the same weights,
    per head of a two-head split: each head's binary scores plus the
    correction from its own factor column block must equal that head's
    full-precision scores.
    """
    rng = substream(seed, "verify-recovery")
    hidden, heads = 8, 2
    dk = hidden // heads
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(3, 10))
        a = rng.normal(size=(n, hidden))
        wq = rng.normal(size=(hidden, hidden))
        wk = rng.normal(size=(hidden, hidden))
        wq_b = binarize_weight(None, DenseMatrix(wq)).data
        wk_b = binarize_weight(None, DenseMatrix(wk)).data

        est = zero_estimators(hidden, rank=hidden)
        est.w_q.data[...] = wq_b.T
        est.w_k.data[...] = wk_b.T
        est.w_q_star.data[...] = (wq - wq_b).T
        est.w_k_star.data[...] = (wk - wk_b).T

        binary_scores = (a @ wq_b.T) @ (a @ wk_b.T).T
        res = score_residual(None, DenseMatrix(a), est).data
        full = (a @ wq.T) @ (a @ wk.T).T
        worst = max(worst, float(np.abs(binary_scores + res - full).max()))

        for h, block in enumerate(head_rank_blocks(hidden, heads)):
            rows = slice(h * dk, (h + 1) * dk)
            binary_h = (a @ wq_b[rows].T) @ (a @ wk_b[rows].T).T
            res_h = score_residual(None, DenseMatrix(a), est, block).data
            full_h = (a @ wq[rows].T) @ (a @ wk[rows].T).T
            worst = max(worst, float(np.abs(binary_h + res_h - full_h).max()))
    return CheckResult(
        name="exact-recovery",
        passed=worst < 1e-8,
        detail=(
            f"{instances} instances at rank = width ({hidden}), 1 and {heads} heads, "
            f"max |gap| = {worst:.2e}"
        ),
    )


def _jitter_binarizers(model, rng: np.random.Generator) -> None:
    """Move binarizer levels/thresholds off the degenerate all-unit init.

    At that init some pre-binarizer activations are exact two-level lattice
    cancellations sitting on the sign threshold, where the packed integer
    route and float pairwise summation may legitimately resolve differently;
    generic parameters take the comparison off the knife edge.
    """
    for q in model_binarizers(model):
        q.alpha.data[0, 0] *= float(rng.uniform(0.8, 1.25))
        q.beta.data[0, 0] += float(rng.normal(0.0, 0.05))


def _cache_matches_whole_matrix(w: DenseMatrix) -> bool:
    """Whether the bits and scales cached on ``w`` are ``w.data`` binarized whole, in plain numpy."""
    data = w.data
    centered = data - data.mean(axis=1, keepdims=True)
    scales = np.abs(data).mean(axis=1)
    return (
        np.array_equal(w.cache.scales, scales)
        and np.array_equal(w.cache.bits.words, pack_signs(centered).words)
    )


def check_train_eval_agreement(seed: int = 0, instances: int = 20) -> CheckResult:
    """The taped float simulation and the packed-kernel forward agree on every logit.

    Both routes binarize through :mod:`bitformer.quant`, so their agreement
    alone cannot catch a wrong weight binarization: every weight the packed
    route cached is also checked against its whole-matrix binarization in
    plain numpy, which shares no code with :mod:`bitformer.quant`.
    """
    rng = substream(seed, "verify-agree")
    cfg = ModelConfig(
        layers=2, hidden=16, heads=2, ffn=32, max_seq=16, vocab=37, variant="bipft_b", rank=2
    ).validate()
    worst = 0.0
    cached = []
    model = None
    for i in range(instances):
        if i % 5 == 0:
            model = build_model(cfg, seed=seed * 1000 + i)
            _jitter_binarizers(model, rng)
        length = int(rng.integers(4, cfg.max_seq + 1))
        tokens = rng.integers(5, cfg.vocab, size=length)
        tokens[0] = 2
        segs = (np.arange(length) >= length // 2).astype(np.int64)
        sim = forward(model, tokens, segs, tape=Tape())
        packed = forward_packed(model, tokens, segs)
        worst = max(
            worst,
            float(np.abs(sim.mlm_logits.data - packed.mlm_logits).max()),
            float(np.abs(sim.nsp_logits.data - packed.nsp_logits).max()),
        )
        if i % 5 == 0:
            cached += [p for _, p in named_parameters(model) if p.cache is not None]
    bad = sum(not _cache_matches_whole_matrix(w) for w in cached)
    expected = 6 * cfg.layers * -(-instances // 5)
    return CheckResult(
        name="train-eval-agreement",
        passed=worst < 1e-8 and bad == 0 and len(cached) == expected,
        detail=(
            f"{instances} inputs, max |logit diff| = {worst:.2e}; "
            f"{len(cached)} cached weights, {bad} unlike the whole-matrix binarization"
        ),
    )


# --------------------------------------------------------------------------
# suite driver
# --------------------------------------------------------------------------

ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {
    "kernel": check_kernel_oracle,
    "ternary": check_ternary_trick,
    "gradients": check_gradients,
    "recovery": check_exact_recovery,
    "agreement": check_train_eval_agreement,
}


def run_checks(only: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Run all suites, or just the one named by ``only``."""
    if only is not None:
        if only not in ALL_CHECKS:
            raise ValueError(f"unknown check {only!r}; expected one of {', '.join(ALL_CHECKS)}")
        return [ALL_CHECKS[only](seed=seed)]
    return [fn(seed=seed) for fn in ALL_CHECKS.values()]
