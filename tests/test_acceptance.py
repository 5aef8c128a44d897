"""Acceptance gate: one test per criterion, full budgets, pinned tolerances.

Each test asserts its criterion and records a one-line summary with the
measured numbers; the conftest hook prints the whole table at the end of
the run.  Training-based criteria use hyperparameters calibrated once on
this corpus and frozen here.
"""

import copy
import functools

import numpy as np
import pytest

from bitformer.bitkernel import equivalent_flops
from bitformer.data import (
    IGNORE_LABEL,
    MASK_ID,
    TokenBatch,
    generate_toy_corpus,
    generate_toy_task,
    mask_tokens,
    parse_corpus,
)
from bitformer.model import ModelConfig, build_model, forward, named_parameters
from bitformer.numerics import Tape
from bitformer.pretrain import distill_losses, finetune, pretrain_loop, teacher_targets
from bitformer.rng import substream
from bitformer.verify import (
    check_exact_recovery,
    check_gradients,
    check_kernel_oracle,
    check_ternary_trick,
    check_train_eval_agreement,
)

# frozen calibration for the training criteria (measured on this corpus)
SMOKE_CONFIG = dict(layers=2, hidden=128, heads=4, ffn=256, max_seq=64)
SMOKE_LR = 3e-3
SMOKE_WARMUP = 0.05

ECHO_CONFIG = dict(layers=2, hidden=32, heads=2, ffn=64, max_seq=32)
ECHO_STEPS = 150
ECHO_BATCH = 16
ECHO_LR = 6e-3
ECHO_RANK = 2
ECHO_TASK_COUNT = 120
ECHO_EPOCHS = 4
ECHO_FT_LR = 1e-3
ECHO_SEEDS = (0, 1, 2, 3, 4)


# --------------------------------------------------------------------------
# 1-5: oracle and agreement suites at full budgets
# --------------------------------------------------------------------------


def test_criterion_01_kernel_oracle(record):
    res = check_kernel_oracle(seed=0, instances=500, max_dim=130)
    record("01", "kernel-oracle exact", res.passed, res.detail + " (tolerance: exact, < 10 s)")
    assert res.passed


def test_criterion_02_ternary_identity(record):
    res = check_ternary_trick(seed=0, instances=500)
    record("02", "ternary-to-binary exact", res.passed, res.detail + " (tolerance: exact)")
    assert res.passed


def test_criterion_03_surrogate_gradients(record):
    res = check_gradients(seed=0, tolerance=1e-4)
    record("03", "surrogate-gradient FD", res.passed, res.detail + " (tolerance: 1e-4, < 30 s)")
    assert res.passed


def test_criterion_04_exact_recovery(record):
    res = check_exact_recovery(seed=0, instances=50)
    record("04", "residual exact recovery", res.passed, res.detail + " (tolerance: 1e-8)")
    assert res.passed


def test_criterion_05_train_eval_agreement(record):
    res = check_train_eval_agreement(seed=0, instances=20)
    record("05", "train/eval agreement", res.passed, res.detail + " (tolerance: 1e-8)")
    assert res.passed


# --------------------------------------------------------------------------
# 6: masking statistics
# --------------------------------------------------------------------------


def test_criterion_06_masking_statistics(record):
    rows, cols, vocab_size = 300, 400, 500
    rng = substream(99, "acceptance-fill")
    batch = TokenBatch(
        token_ids=rng.integers(5, vocab_size, size=(rows, cols)),
        segment_ids=np.zeros((rows, cols), dtype=np.int64),
        mlm_labels=np.full((rows, cols), IGNORE_LABEL, dtype=np.int64),
        nsp_labels=np.zeros(rows, dtype=np.int64),
        pad_mask=np.ones((rows, cols), dtype=bool),
    )
    original = batch.token_ids.copy()
    masked = mask_tokens(batch, vocab_size=vocab_size, rng=substream(99, "acceptance-mask"))

    selected = masked.mlm_labels != IGNORE_LABEL
    sel_frac = float(selected.mean())
    ids = masked.token_ids[selected]
    orig = original[selected]
    to_mask = float((ids == MASK_ID).mean())
    kept = float((ids == orig).mean())
    randomized = float(((ids != MASK_ID) & (ids != orig)).mean())

    ok = (
        abs(sel_frac - 0.15) < 0.005
        and abs(to_mask - 0.80) < 0.01
        and abs(randomized - 0.10) < 0.01
        and abs(kept - 0.10) < 0.01
    )
    record(
        "06",
        "masking statistics",
        ok,
        f"{rows * cols} tokens: select {sel_frac:.4f} (15% ± 0.5%), "
        f"mask/random/keep {to_mask:.4f}/{randomized:.4f}/{kept:.4f} (± 1% each)",
    )
    assert ok


# --------------------------------------------------------------------------
# 7-8: base-config accounting
# --------------------------------------------------------------------------


def test_criterion_07_cost_accounting(record):
    report_a = equivalent_flops(ModelConfig().validate())
    report_b = equivalent_flops(ModelConfig(variant="bipft_b", rank=1).validate())
    g_a, g_b = report_a.equiv_gflops, report_b.equiv_gflops
    mb_a, mb_b = report_a.size_mb, report_b.size_mb
    ok = (
        abs(g_a - 0.4) <= 0.15 * 0.4
        and abs(g_b - 0.4) <= 0.15 * 0.4
        and abs(mb_a - 14.7) <= 0.05 * 14.7
        and abs(mb_b - 14.9) <= 0.05 * 14.9
    )
    record(
        "07",
        "cost accounting",
        ok,
        f"{g_a:.4f}/{g_b:.4f} G (0.4 ± 15%), {mb_a:.3f}/{mb_b:.3f} MB "
        f"(14.7/14.9 ± 5%); convention: MAC = 2 FLOPs, 1-bit MAC = 1/64 float MAC, "
        f"1-bit weights at 1 bit + scales/biases/norms/estimators at 4 B, task heads excluded",
    )
    assert ok


def test_criterion_08_parameter_count(record):
    model = build_model(ModelConfig().validate(), seed=0)
    body = sum(p.data.size for name, p in named_parameters(model) if not name.startswith("head."))
    del model
    ok = abs(body - 110e6) <= 0.02 * 110e6
    record(
        "08",
        "parameter count",
        ok,
        f"base body parameters = {body:,} (110M ± 2%; untied task heads excluded)",
    )
    assert ok


# --------------------------------------------------------------------------
# 9: training smoke + determinism
# --------------------------------------------------------------------------


def _smoke_run(seed: int):
    corpus = parse_corpus(generate_toy_corpus(seed=1))
    cfg = ModelConfig(**SMOKE_CONFIG, vocab=len(corpus.vocab)).validate()
    model = build_model(cfg, seed=seed)
    metrics = pretrain_loop(
        model,
        corpus,
        steps=500,
        batch_size=32,
        seed=seed,
        peak_lr=SMOKE_LR,
        warmup_frac=SMOKE_WARMUP,
    )
    return model, metrics


@pytest.mark.slow
def test_criterion_09_training_smoke_and_determinism(record):
    import time

    t0 = time.perf_counter()
    model_a, metrics = _smoke_run(seed=0)
    elapsed = time.perf_counter() - t0

    mlm = [m.loss_mlm for m in metrics]
    first = float(np.mean(mlm[:20]))
    last = float(np.mean(mlm[-20:]))
    drop = 1.0 - last / first

    model_b, _ = _smoke_run(seed=0)
    same = all(
        np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(named_parameters(model_a), named_parameters(model_b))
    )

    ok = drop >= 0.30 and elapsed < 600.0 and same
    record(
        "09",
        "training smoke",
        ok,
        f"500 steps in {elapsed:.0f}s (< 600 s); initial-20 {first:.3f} -> final-20 {last:.3f}, "
        f"drop {100 * drop:.1f}% (>= 30%); same-seed rerun bitwise equal: {same}",
    )
    assert ok


# --------------------------------------------------------------------------
# 10: directional orderings over five seeds
# --------------------------------------------------------------------------


def _echo_corpus():
    return parse_corpus(generate_toy_corpus(seed=1, docs=12, sentences_per_doc=8))


def _echo_pretrain(corpus, seed: int, variant: str, rank: int):
    cfg = ModelConfig(
        **ECHO_CONFIG, vocab=len(corpus.vocab), variant=variant, rank=rank
    ).validate()
    model = build_model(cfg, seed=seed)
    metrics = pretrain_loop(
        model,
        corpus,
        steps=ECHO_STEPS,
        batch_size=ECHO_BATCH,
        seed=seed,
        peak_lr=ECHO_LR,
    )
    return model, metrics


@functools.lru_cache(maxsize=None)
def _echo_a_run(seed: int):
    """One plain-variant pretraining per seed, shared by both orderings."""
    model, metrics = _echo_pretrain(_echo_corpus(), seed, "bipft_a", 0)
    final = float(np.mean([m.loss_mlm for m in metrics[-20:]]))
    return model, final


def _echo_task(corpus, max_seq: int, seed: int):
    from bitformer.data import encode_classification

    rows = generate_toy_task(seed=1000 + seed, count=ECHO_TASK_COUNT)
    encoded = [
        (encode_classification(corpus.vocab, text, max_seq), label) for text, label in rows
    ]
    order = substream(seed, "acceptance-split").permutation(len(encoded))
    n_eval = len(encoded) // 4
    eval_set = [encoded[i] for i in order[:n_eval]]
    train_set = [encoded[i] for i in order[n_eval:]]
    return train_set, eval_set


def _echo_finetune(model, train_set, eval_set, seed: int) -> float:
    return finetune(
        model,
        train_set,
        eval_set,
        epochs=ECHO_EPOCHS,
        lr=ECHO_FT_LR,
        batch_size=ECHO_BATCH,
        seed=seed,
    ).accuracy


@pytest.mark.slow
def test_criterion_10a_pretraining_beats_scratch(record):
    corpus = _echo_corpus()
    wins, pairs = 0, []
    for seed in ECHO_SEEDS:
        pretrained, _ = _echo_a_run(seed)
        scratch = build_model(pretrained.config, seed=seed + 500)
        train_set, eval_set = _echo_task(corpus, pretrained.config.max_seq, seed)
        acc_pre = _echo_finetune(copy.deepcopy(pretrained), train_set, eval_set, seed)
        acc_scr = _echo_finetune(scratch, train_set, eval_set, seed)
        wins += acc_pre >= acc_scr
        pairs.append(f"{acc_pre:.2f}/{acc_scr:.2f}")
    ok = wins >= 4
    record(
        "10a",
        "pretrained >= scratch",
        ok,
        f"{wins}/5 seeds (need >= 4); pretrained/scratch accuracy: {', '.join(pairs)}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_10b_estimators_lower_mlm(record):
    corpus = _echo_corpus()
    wins, pairs = 0, []
    for seed in ECHO_SEEDS:
        _, final_a = _echo_a_run(seed)
        _, metrics_b = _echo_pretrain(corpus, seed, "bipft_b", ECHO_RANK)
        final_b = float(np.mean([m.loss_mlm for m in metrics_b[-20:]]))
        wins += final_b <= final_a
        pairs.append(f"{final_b:.3f}/{final_a:.3f}")
    ok = wins >= 4
    record(
        "10b",
        "estimators lower final MLM",
        ok,
        f"{wins}/5 seeds (need >= 4); final-20 MLM b/a: {', '.join(pairs)}",
    )
    assert ok


# --------------------------------------------------------------------------
# 11: distillation zero-point
# --------------------------------------------------------------------------


def test_criterion_11_distillation_zero_point(record):
    corpus = _echo_corpus()
    cfg = ModelConfig(
        **ECHO_CONFIG, vocab=len(corpus.vocab), full_precision=True
    ).validate()
    teacher = build_model(cfg, seed=7)
    student = copy.deepcopy(teacher)

    worst_logit, worst_rep = 0.0, 0.0
    rng = substream(7, "acceptance-distill")
    for _ in range(5):
        length = int(rng.integers(6, cfg.max_seq))
        tokens = rng.integers(5, cfg.vocab, size=length)
        tokens[0] = 2
        segs = (np.arange(length) >= length // 2).astype(np.int64)
        targets = teacher_targets(teacher, tokens, segs)
        tape = Tape()
        res = forward(student, tokens, segs, tape=tape)
        l_logit, l_rep = distill_losses(tape, res.mlm_logits, res.hidden_states, targets)
        worst_logit = max(worst_logit, abs(float(l_logit.data[0, 0])))
        worst_rep = max(worst_rep, abs(float(l_rep.data[0, 0])))

    ok = worst_logit == 0.0 and worst_rep == 0.0
    record(
        "11",
        "distillation zero-point",
        ok,
        f"cloned student over 5 inputs: max |logit loss| = {worst_logit}, "
        f"max |hidden loss| = {worst_rep} (exactly zero)",
    )
    assert ok
