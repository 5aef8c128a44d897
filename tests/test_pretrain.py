"""Training objective and loop tests.

The distillation losses are tape primitives, so their values are checked
against an independent high-precision route (scipy's relative entropy for the
KL term, textbook mean-square error for the hidden-state term) and their
backward closures against central finite differences.  The loop tests pin the
metric-line format, seed determinism down to bitwise parameter equality, the
zero-step no-op, and the non-finite abort diagnostic.  Binarizing the block
weights once per optimizer step, with one deferred binarizer backward per
weight, is checked bitwise against reference loops that binarize per
sequence and sum the binarized matrices' gradients themselves, and against
the per-sequence binarizer backward to round-off.
"""

from __future__ import annotations

import copy
import ctypes
import glob
import hashlib
import io
import os
import weakref

import numpy as np
import pytest
import scipy.special

from bitformer.data import (
    IGNORE_LABEL,
    DataError,
    encode_classification,
    generate_toy_corpus,
    generate_toy_task,
    parse_corpus,
)
from bitformer.model import ModelConfig, build_model, forward, model_binarizers, named_parameters
from bitformer.numerics import DenseMatrix, Tape
from bitformer.pretrain import (
    LEVEL_FLOOR,
    DistillTargets,
    FinetuneResult,
    TrainingAbort,
    distill_losses,
    finetune,
    hidden_mse,
    kl_to_teacher,
    pretrain_loop,
    teacher_targets,
    total_loss,
)
from oracles import (
    block_linears,
    central_difference,
    per_example_finetune,
    per_sequence_pretrain,
    relative_error,
)

RNG = np.random.default_rng(20240817)

TINY = dict(layers=2, hidden=16, heads=2, ffn=32, max_seq=32)


def tiny_config(vocab: int, **over) -> ModelConfig:
    kw = dict(TINY, vocab=vocab)
    kw.update(over)
    return ModelConfig(**kw).validate()


def toy_corpus():
    return parse_corpus(generate_toy_corpus(seed=1, docs=12, sentences_per_doc=8))


# --------------------------------------------------------------------------
# distillation losses
# --------------------------------------------------------------------------


def scalar(value: float) -> DenseMatrix:
    return DenseMatrix([[value]])


def test_kl_matches_scipy_relative_entropy():
    student = RNG.normal(size=(7, 13))
    teacher = RNG.normal(size=(7, 13))
    for temperature in (1.0, 2.5):
        got = kl_to_teacher(None, DenseMatrix(student), teacher, temperature).data[0, 0]
        p_t = scipy.special.softmax(teacher / temperature, axis=1)
        p_s = scipy.special.softmax(student / temperature, axis=1)
        want = scipy.special.rel_entr(p_t, p_s).sum() / 7
        assert got == pytest.approx(want, abs=1e-10)


def test_kl_is_exactly_zero_for_identical_logits():
    logits = RNG.normal(size=(5, 9))
    loss = kl_to_teacher(None, DenseMatrix(logits.copy()), logits.copy(), 1.0)
    assert loss.data[0, 0] == 0.0


def test_kl_backward_matches_central_differences():
    student = RNG.normal(size=(4, 6))
    teacher = RNG.normal(size=(4, 6))
    for temperature in (1.0, 3.0):
        node = DenseMatrix(student.copy())
        tape = Tape()
        loss = kl_to_teacher(tape, node, teacher, temperature)
        tape.backward(loss)

        def f(arrays):
            return float(kl_to_teacher(None, DenseMatrix(arrays[0]), teacher, temperature).data[0, 0])

        want = central_difference(f, [student.copy()])[0]
        assert relative_error(node.grad, want, floor=1e-6) < 1e-6


def test_hidden_mse_value_and_backward():
    s = RNG.normal(size=(5, 8))
    t = RNG.normal(size=(5, 8))
    node = DenseMatrix(s.copy())
    tape = Tape()
    loss = hidden_mse(tape, node, t)
    assert loss.data[0, 0] == pytest.approx(np.mean((s - t) ** 2), abs=1e-12)
    tape.backward(loss)

    def f(arrays):
        return float(hidden_mse(None, DenseMatrix(arrays[0]), t).data[0, 0])

    want = central_difference(f, [s.copy()])[0]
    assert relative_error(node.grad, want, floor=1e-6) < 1e-6


def test_hidden_mse_constant_offset_gives_square_of_offset():
    h = RNG.normal(size=(6, 4))
    c = 0.37
    loss = hidden_mse(None, DenseMatrix(h + c), h)
    assert loss.data[0, 0] == pytest.approx(c * c, abs=1e-12)


def test_distill_losses_average_over_layers_including_embedding_output():
    base = [RNG.normal(size=(4, 5)) for _ in range(3)]
    student_h = [DenseMatrix(b.copy()) for b in base]
    student_h[1] = DenseMatrix(base[1] + 0.5)
    logits = RNG.normal(size=(4, 7))
    targets = DistillTargets(logits=logits.copy(), hiddens=[b.copy() for b in base])
    l_logit, l_rep = distill_losses(None, DenseMatrix(logits.copy()), student_h, targets)
    assert l_logit.data[0, 0] == 0.0
    assert l_rep.data[0, 0] == pytest.approx(0.25 / 3, abs=1e-12)


def test_distill_losses_layer_count_mismatch_raises():
    h = RNG.normal(size=(3, 4))
    targets = DistillTargets(logits=RNG.normal(size=(3, 5)), hiddens=[h, h])
    with pytest.raises(ValueError, match="layer"):
        distill_losses(None, DenseMatrix(RNG.normal(size=(3, 5))), [DenseMatrix(h)], targets)


def test_cloned_student_has_exactly_zero_distillation_losses():
    corpus = toy_corpus()
    cfg = tiny_config(len(corpus.vocab), full_precision=True)
    teacher = build_model(cfg, seed=3)
    student = copy.deepcopy(teacher)
    tokens = np.array([2, 7, 8, 9, 3, 10, 11, 3])
    segs = np.array([0, 0, 0, 0, 0, 1, 1, 1])

    targets = teacher_targets(teacher, tokens, segs)
    tape = Tape()
    res = forward(student, tokens, segs, tape=tape)
    l_logit, l_rep = distill_losses(
        tape, res.mlm_logits, res.hidden_states, targets
    )
    assert l_logit.data[0, 0] == 0.0
    assert l_rep.data[0, 0] == 0.0


# --------------------------------------------------------------------------
# total loss
# --------------------------------------------------------------------------


def test_total_loss_is_the_unweighted_sum():
    tape = Tape()
    out = total_loss(tape, scalar(0.5), scalar(0.2), scalar(0.1), scalar(0.3))
    assert out.data[0, 0] == pytest.approx(1.1, abs=1e-15)


def test_total_loss_without_distillation_sums_two_terms():
    out = total_loss(None, scalar(0.5), scalar(0.2))
    assert out.data[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_total_loss_rejects_one_sided_distillation_terms():
    with pytest.raises(ValueError, match="distillation"):
        total_loss(None, scalar(0.1), scalar(0.1), l_rep=scalar(0.1))
    with pytest.raises(ValueError, match="distillation"):
        total_loss(None, scalar(0.1), scalar(0.1), l_logit=scalar(0.1))


# --------------------------------------------------------------------------
# pretraining loop
# --------------------------------------------------------------------------


def snapshot(model):
    return {name: p.data.copy() for name, p in named_parameters(model)}


def assert_bitwise_equal(model, ref):
    for name, p in named_parameters(model):
        assert np.array_equal(p.data, ref[name]), f"{name} changed"


def test_pretrain_zero_steps_is_a_bitwise_noop():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    before = snapshot(model)
    metrics = pretrain_loop(model, corpus, steps=0, batch_size=4, seed=5)
    assert metrics == []
    assert_bitwise_equal(model, before)


def test_pretrain_metric_lines_and_seed_determinism():
    corpus = toy_corpus()
    cfg = tiny_config(len(corpus.vocab))

    def run(seed):
        model = build_model(cfg, seed=2)
        stream = io.StringIO()
        metrics = pretrain_loop(
            model, corpus, steps=5, batch_size=4, seed=seed, log_stream=stream
        )
        return model, metrics, stream.getvalue()

    m1, metrics1, log1 = run(9)
    m2, _, log2 = run(9)
    m3, _, log3 = run(10)

    assert log1 == log2
    assert log1 != log3
    for name, p in named_parameters(m1):
        assert np.array_equal(p.data, dict(named_parameters(m2))[name].data)

    lines = log1.strip().splitlines()
    assert len(lines) == len(metrics1) == 5
    for step, line in enumerate(lines):
        fields = line.split("\t")
        assert len(fields) == 7
        assert int(fields[0]) == step
        floats = [float(v) for v in fields[1:]]
        assert all(np.isfinite(floats))
        assert floats[2] == 0.0 and floats[3] == 0.0  # no teacher attached
        assert 0.0 <= floats[5] <= 1.0  # masked accuracy


# SHA-256 of the parameters and log lines of three steps of bipft-b smoke
# pretraining (estimator rank 8, 8 sequences a step), without and with a
# full-precision distillation reference, recorded before tapes freed their
# ops as they replayed.  Every change since has kept these training bits.  A
# change that re-draws them (another summation order, say) updates these
# digests on purpose and says so in CHANGES.md.  The bits depend on the
# numpy build and the BLAS kernel that ran the products, so the digests hold
# only where both are those they were recorded with.
GOLDEN_TRAINING_DIGESTS = {
    "plain": "24989ff174559d1d9c67d51efb0692e0b981454ed70a054883435d45f42b1dce",
    "distilled": "e01eabbc2bce893c84dea88b8d46ce3acfe883298b25b082a2724cbd6e7dcf19",
}
GOLDEN_TRAINING_CONDITIONS = {
    "numpy": "2.4.6",
    "blas": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
}


def _training_conditions() -> dict[str, str | None]:
    """numpy's version and the running OpenBLAS's build and core, None when numpy bundles no OpenBLAS."""
    blas = None
    for path in glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                blas = fn().decode()
                break
    return {"numpy": np.__version__, "blas": blas}


@pytest.mark.parametrize("kind", sorted(GOLDEN_TRAINING_DIGESTS))
def test_smoke_pretraining_bits_match_the_golden_digest(kind):
    conditions = _training_conditions()
    if conditions != GOLDEN_TRAINING_CONDITIONS:
        pytest.skip(f"digests recorded with {GOLDEN_TRAINING_CONDITIONS}, this machine runs {conditions}")
    corpus = parse_corpus(generate_toy_corpus(seed=1))
    dims = dict(layers=2, hidden=128, heads=4, ffn=256, max_seq=64, vocab=len(corpus.vocab))
    model = build_model(ModelConfig(**dims, variant="bipft_b", rank=8).validate(), seed=0)
    teacher = None
    if kind == "distilled":
        teacher = build_model(ModelConfig(**dims, full_precision=True).validate(), seed=1)
    log = io.StringIO()
    pretrain_loop(
        model, corpus, steps=3, batch_size=8, seed=0, teacher=teacher, peak_lr=3e-3, warmup_frac=0.05, log_stream=log
    )
    digest = hashlib.sha256()
    for name, p in named_parameters(model):
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    digest.update(log.getvalue().encode())
    assert digest.hexdigest() == GOLDEN_TRAINING_DIGESTS[kind]


def test_training_leaves_no_gradient_behind():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab), variant="bipft_b", rank=2), seed=2)
    pretrain_loop(model, corpus, steps=2, batch_size=3, seed=3)
    assert all(p.grad is None for _, p in named_parameters(model))
    data = encoded_task(corpus.vocab, seed=8, count=12)
    finetune(model, data[:8], data[8:], epochs=1, n_classes=2, seed=4, lr=1e-3, batch_size=4)
    assert all(p.grad is None for _, p in named_parameters(model))


def test_pretrain_with_teacher_reports_distillation_terms():
    corpus = toy_corpus()
    teacher = build_model(tiny_config(len(corpus.vocab), full_precision=True), seed=4)
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    metrics = pretrain_loop(model, corpus, steps=2, batch_size=3, seed=7, teacher=teacher)
    assert all(m.loss_rep > 0.0 for m in metrics)
    assert all(m.loss_logit > 0.0 for m in metrics)


def test_pretrain_aborts_on_non_finite_loss_naming_the_tensor():
    # the poison must sit on a full-precision path: a NaN inside a binarized
    # weight is absorbed by the hard sign and never reaches the loss
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    model.head.mlm_w.data[0, 0] = np.nan
    with pytest.raises(TrainingAbort, match="head.mlm.w"):
        pretrain_loop(model, corpus, steps=1, batch_size=2, seed=3)


def test_nan_inside_a_binarized_weight_is_absorbed_not_fatal():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    model.blocks[0].attn.wq.data[0, 1] = np.nan
    metrics = pretrain_loop(model, corpus, steps=1, batch_size=2, seed=3)
    assert np.isfinite(metrics[0].loss_mlm)


def test_a_non_finite_reference_aborts_naming_the_first_bad_loss_term():
    # every parameter of the student is finite, so the abort names the first
    # non-finite loss sum: the hidden-state term, ahead of the logit term
    corpus = toy_corpus()
    teacher = build_model(tiny_config(len(corpus.vocab), full_precision=True), seed=4)
    teacher.blocks[0].attn.wq.data[0, 0] = np.nan
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    with pytest.raises(TrainingAbort, match="loss_rep") as err:
        pretrain_loop(model, corpus, steps=1, batch_size=2, seed=3, teacher=teacher)
    assert err.value.tensor_name == "loss_rep"


def test_a_level_below_the_floor_is_projected_back_to_it():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    levels = [q.alpha for q in model_binarizers(model)]
    levels[0].data[0, 0] = 1e-6
    before = [lvl.data.copy() for lvl in levels]
    # a one-step schedule ends at lr 0, so only the projection moves a level
    pretrain_loop(model, corpus, steps=1, batch_size=2, seed=3)
    assert levels[0].data[0, 0] == LEVEL_FLOOR
    assert all(np.array_equal(lvl.data, was) for lvl, was in zip(levels[1:], before[1:]))


def test_pretrain_reduces_mlm_loss_on_the_toy_corpus():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=6)
    metrics = pretrain_loop(
        model, corpus, steps=200, batch_size=8, seed=11, peak_lr=3e-3
    )
    first = np.mean([m.loss_mlm for m in metrics[:10]])
    last = np.mean([m.loss_mlm for m in metrics[-10:]])
    assert last < first


# --------------------------------------------------------------------------
# weights binarized once per optimizer step
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant,rank,with_teacher",
    [("bipft_a", 0, False), ("bipft_b", 2, False), ("bipft_a", 0, True)],
)
def test_pretrain_matches_the_per_sequence_reference_bitwise(variant, rank, with_teacher):
    corpus = toy_corpus()
    cfg = tiny_config(len(corpus.vocab), variant=variant, rank=rank)
    teacher = None
    if with_teacher:
        teacher = build_model(tiny_config(len(corpus.vocab), full_precision=True), seed=4)
    kw = dict(steps=2, batch_size=4, seed=7, teacher=teacher, peak_lr=3e-3)
    model, ref = build_model(cfg, seed=2), build_model(cfg, seed=2)
    stream = io.StringIO()
    pretrain_loop(model, corpus, log_stream=stream, **kw)
    want_lines = per_sequence_pretrain(ref, corpus, **kw)
    assert stream.getvalue().splitlines() == want_lines
    assert_bitwise_equal(model, snapshot(ref))


def test_finetune_matches_the_per_example_reference_bitwise():
    corpus = toy_corpus()
    data = encoded_task(corpus.vocab, seed=8, count=30)
    kw = dict(epochs=1, lr=1e-3, batch_size=8, seed=4)
    model = build_model(tiny_config(len(corpus.vocab), variant="bipft_b", rank=2), seed=1)
    ref = copy.deepcopy(model)
    got = finetune(model, data[:20], data[20:], n_classes=2, **kw)
    accuracy, head_w, head_b = per_example_finetune(ref, data[:20], data[20:], **kw)
    assert got.accuracy == accuracy
    assert np.array_equal(got.head_w, head_w) and np.array_equal(got.head_b, head_b)
    assert_bitwise_equal(model, snapshot(ref))


def watch_binarize_weight(monkeypatch, seen) -> None:
    """Call ``seen(w, out)`` on every ``binarize_weight`` call of the model and attention modules."""
    from bitformer import binattn
    from bitformer import model as model_module

    for module in (binattn, model_module):

        def watched(tape, w, *args, _real=module.binarize_weight, **kwargs):
            out = _real(tape, w, *args, **kwargs)
            seen(w, out)
            return out

        monkeypatch.setattr(module, "binarize_weight", watched)


def test_each_block_linear_is_binarized_once_per_step(monkeypatch):
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    linears = [w.name for w in block_linears(model)]
    binarized = []
    watch_binarize_weight(monkeypatch, lambda w, out: binarized.append(w.name))
    pretrain_loop(model, corpus, steps=1, batch_size=4, seed=3)
    assert len(linears) == 6 * model.config.layers
    assert sorted(n for n in binarized if n in linears) == sorted(linears)


def test_deferred_binarizer_backward_moves_only_rounding(monkeypatch):
    """One smoke batch's gradients: one binarizer backward per step vs one per sequence."""
    from bitformer import numerics, pretrain

    corpus = parse_corpus(generate_toy_corpus(seed=1))
    cfg = ModelConfig(layers=2, hidden=128, heads=4, ffn=256, max_seq=64, vocab=len(corpus.vocab))

    def step_grads(per_sequence: bool):
        if per_sequence:  # every forward without prepared weights binarizes on its own tape
            monkeypatch.setattr(pretrain, "binarize_linears", lambda model, tape: {})
        grads = {}

        def capture(opt, lr=None):
            for p in opt.params:
                grads[p.name] = None if p.grad is None else p.grad.copy()

        monkeypatch.setattr(numerics.AdamW, "step", capture)
        model = build_model(cfg.validate(), seed=0)
        pretrain_loop(model, corpus, steps=1, batch_size=32, seed=0, peak_lr=3e-3)
        monkeypatch.undo()
        return grads

    deferred, per_sequence = step_grads(False), step_grads(True)
    assert deferred.keys() == per_sequence.keys()
    for name, want in per_sequence.items():
        got = deferred[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


def count_weight_backwards(monkeypatch, linears):
    """Binarizer backward runs: per block linear weight (by name), and all other ones."""
    from bitformer import quant

    counts = {"other": 0}
    real = quant._weight_backward

    def counting(w, g, transposed):
        key = w.name if any(w is lin for lin in linears) else "other"
        counts[key] = counts.get(key, 0) + 1
        return real(w, g, transposed)

    monkeypatch.setattr(quant, "_weight_backward", counting)
    return counts


def test_pretrain_runs_each_block_weight_backward_once_per_step(monkeypatch):
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    linears = block_linears(model)
    counts = count_weight_backwards(monkeypatch, linears)
    recorded = []
    real_record = Tape.record

    def record(tape, name, fn):
        recorded.append(name)
        real_record(tape, name, fn)

    monkeypatch.setattr(Tape, "record", record)
    pretrain_loop(model, corpus, steps=2, batch_size=3, seed=3)
    # each block weight once per step; the three embedding binarizations once per sequence
    assert counts == {"other": 2 * 3 * 3, **{w.name: 2 for w in linears}}
    assert recorded.count("binarize_weight") == 2 * (len(linears) + 3 * 3)


def test_finetune_runs_each_block_weight_backward_once_per_chunk(monkeypatch):
    corpus = toy_corpus()
    data = encoded_task(corpus.vocab, seed=8, count=26)
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    linears = block_linears(model)
    counts = count_weight_backwards(monkeypatch, linears)
    finetune(model, data[:20], data[20:], epochs=1, n_classes=2, seed=4, lr=1e-3, freeze_body=True)
    assert counts == {"other": 0}
    finetune(model, data[:20], data[20:], epochs=2, n_classes=2, seed=4, lr=1e-3, batch_size=8)
    # 2 epochs of 3 chunks (8 + 8 + 4 examples); evaluation runs untaped
    assert counts == {"other": 2 * 20 * 3, **{w.name: 2 * 3 for w in linears}}


def test_a_steps_binarized_weights_are_freed_before_the_update(monkeypatch):
    """The update's temporaries never coexist with the step's binarized weights."""
    from bitformer import numerics

    binarized, alive_at_update = [], []
    real_step = numerics.AdamW.step

    def step(opt, lr=None):
        alive_at_update.append(sum(ref() is not None for ref in binarized))
        real_step(opt, lr=lr)

    # a DenseMatrix takes no weak reference, so watch the value array each node holds
    watch_binarize_weight(monkeypatch, lambda w, out: binarized.append(weakref.ref(out.data)))
    monkeypatch.setattr(numerics.AdamW, "step", step)
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=2)
    pretrain_loop(model, corpus, steps=2, batch_size=3, seed=3)
    data = encoded_task(corpus.vocab, seed=8, count=12)
    finetune(model, data[:8], data[8:], epochs=1, n_classes=2, seed=4, lr=1e-3, batch_size=4)
    assert binarized and alive_at_update == [0] * 4


# --------------------------------------------------------------------------
# finetuning
# --------------------------------------------------------------------------


def encoded_task(vocab, seed, count):
    examples = generate_toy_task(seed=seed, count=count)
    return [
        (encode_classification(vocab, text, max_seq=TINY["max_seq"]), label)
        for text, label in examples
    ]


def test_finetune_rejects_label_outside_class_range():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    bad = [(([2, 7, 3], [0, 0, 0]), 2)]
    with pytest.raises(DataError, match="label"):
        finetune(model, bad, bad, epochs=1, n_classes=2, seed=0)


def test_finetune_zero_epochs_scores_near_chance():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    evals = encoded_task(corpus.vocab, seed=5, count=200)
    result = finetune(model, evals[:50], evals[50:], epochs=0, n_classes=2, seed=3)
    assert isinstance(result, FinetuneResult)
    assert abs(result.accuracy - 0.5) <= 0.1


def test_finetune_freeze_body_trains_only_the_head():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    before = snapshot(model)
    data = encoded_task(corpus.vocab, seed=6, count=40)
    result = finetune(
        model, data[:30], data[30:], epochs=1, n_classes=2, seed=2, lr=1e-3, freeze_body=True
    )
    assert_bitwise_equal(model, before)
    assert result.head_w.shape == (2, TINY["hidden"])


def test_finetune_freeze_body_records_no_body_gradient():
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    data = encoded_task(corpus.vocab, seed=6, count=20)
    finetune(model, data[:12], data[12:], epochs=1, n_classes=2, seed=2, lr=1e-3, freeze_body=True)
    assert all(p.grad is None for _, p in named_parameters(model))


@pytest.mark.parametrize("freeze_body", [False, True])
def test_finetune_aborts_on_non_finite_loss_naming_the_tensor(freeze_body):
    corpus = toy_corpus()
    model = build_model(tiny_config(len(corpus.vocab)), seed=1)
    model.blocks[-1].ln_ffn_gamma.data[0, 0] = np.nan
    data = encoded_task(corpus.vocab, seed=6, count=12)
    with pytest.raises(TrainingAbort, match="layer1.ln_ffn.gamma"):
        finetune(model, data[:8], data[8:], epochs=1, n_classes=2, seed=2, freeze_body=freeze_body)


def test_finetune_is_seed_deterministic():
    corpus = toy_corpus()
    data = encoded_task(corpus.vocab, seed=8, count=60)

    def run():
        model = build_model(tiny_config(len(corpus.vocab)), seed=1)
        return finetune(model, data[:40], data[40:], epochs=1, n_classes=2, seed=4, lr=1e-3)

    r1, r2 = run(), run()
    assert r1.accuracy == r2.accuracy
    assert np.array_equal(r1.head_w, r2.head_w)


# --------------------------------------------------------------------------
# tape op registry
# --------------------------------------------------------------------------


def test_every_recorded_tape_op_is_registered_and_every_registered_op_is_gradient_checked(monkeypatch):
    from bitformer.numerics import TAPE_OPS
    from bitformer.verify import check_gradients

    recorded = set()
    real_record = Tape.record

    def record(tape, name, fn):
        recorded.add(name)
        real_record(tape, name, fn)

    monkeypatch.setattr(Tape, "record", record)
    corpus = toy_corpus()
    vocab = len(corpus.vocab)
    smoke = build_model(tiny_config(vocab, variant="bipft_b", rank=3), seed=2)
    pretrain_loop(smoke, corpus, steps=1, batch_size=2, seed=3)
    teacher = build_model(tiny_config(vocab, full_precision=True), seed=4)
    student = build_model(tiny_config(vocab), seed=5)
    pretrain_loop(student, corpus, steps=1, batch_size=2, seed=6, teacher=teacher)
    task = encoded_task(corpus.vocab, seed=8, count=4)
    finetune(build_model(tiny_config(vocab), seed=1), task, task, epochs=1, batch_size=4, seed=0)
    assert recorded <= TAPE_OPS, recorded - TAPE_OPS
    recorded.clear()
    assert check_gradients(seed=0).passed
    # so no op can be registered without a finite-difference check of its backward
    assert recorded == TAPE_OPS, f"no gradient check: {sorted(TAPE_OPS - recorded)}"
