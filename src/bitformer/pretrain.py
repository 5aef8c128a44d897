"""Training objectives and loops: two-task pretraining and classification finetuning.

Pretraining optimizes masked-token cross-entropy plus sentence-pair
cross-entropy, optionally distilling from a full-precision twin: a forward
relative entropy on the final logits and a per-layer mean-square error over
all hidden states (embedding output included), added unweighted, under AdamW
with a linear warmup/decay schedule.  Finetuning attaches a fresh
full-precision head to the classifier row and trains with a constant
learning rate.  Both run every optimizer step through :func:`train_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import IO, Callable, Sequence

import numpy as np

from .data import (
    IGNORE_LABEL,
    Corpus,
    DataError,
    TokenBatch,
    assemble_nsp_batch,
    make_nsp_pairs,
    mask_tokens,
)
from .model import Model, binarize_linears, encode, forward, head, model_binarizers, named_parameters
from .numerics import (
    AdamW,
    DenseMatrix,
    Tape,
    add,
    cross_entropy,
    gather_rows,
    linear_warmup_schedule,
    scale,
)
from .rng import substream

Array = np.ndarray

LEVEL_FLOOR = 1e-4


class TrainingAbort(RuntimeError):
    """Raised when training hits a non-finite value; names the first bad tensor."""

    def __init__(self, tensor_name: str):
        super().__init__(f"non-finite value in {tensor_name}; training aborted")
        self.tensor_name = tensor_name


# --------------------------------------------------------------------------
# distillation
# --------------------------------------------------------------------------


@dataclass
class DistillTargets:
    """Reference outputs for one sequence: final logits and every hidden state."""

    logits: Array
    hiddens: list[Array]


def teacher_targets(teacher: Model, token_ids: Array, segment_ids: Array) -> DistillTargets:
    """Run the reference model without a tape and capture its outputs."""
    res = forward(teacher, token_ids, segment_ids)
    return DistillTargets(
        logits=res.mlm_logits.data.copy(),
        hiddens=[h.data.copy() for h in res.hidden_states],
    )


def _log_softmax(x: Array) -> Array:
    z = x - x.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def kl_to_teacher(
    tape: Tape | None,
    student_logits: DenseMatrix,
    teacher_logits: Array,
    temperature: float = 1.0,
) -> DenseMatrix:
    """Relative entropy from the reference to the student distribution.

    Both logit sets are tempered, turned into row distributions, and compared
    with the reference as the weighting distribution; the result is the mean
    over rows.  Identical logits give exactly zero.
    """
    if teacher_logits.shape != student_logits.data.shape:
        raise ValueError(
            f"logit shapes differ: student {student_logits.data.shape}, "
            f"reference {teacher_logits.shape}"
        )
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    rows = student_logits.rows
    log_pt = _log_softmax(np.asarray(teacher_logits, dtype=np.float64) / temperature)
    log_ps = _log_softmax(student_logits.data / temperature)
    p_t = np.exp(log_pt)
    value = float((p_t * (log_pt - log_ps)).sum() / rows)
    out = DenseMatrix([[value]])
    if tape is not None:
        p_s = np.exp(log_ps)

        def bwd():
            g = out.grad
            if g is None:
                return
            student_logits.ensure_grad()[...] += (p_s - p_t) * (
                g[0, 0] / (temperature * rows)
            )

        tape.record("kl_to_teacher", bwd)
    return out


def hidden_mse(tape: Tape | None, student: DenseMatrix, target: Array) -> DenseMatrix:
    """Mean squared difference over all entries of one hidden-state pair."""
    if target.shape != student.data.shape:
        raise ValueError(
            f"hidden-state shapes differ: student {student.data.shape}, "
            f"reference {target.shape}"
        )
    diff = student.data - target
    count = diff.size
    out = DenseMatrix([[float((diff * diff).sum() / count)]])
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            student.ensure_grad()[...] += diff * (2.0 * g[0, 0] / count)

        tape.record("hidden_mse", bwd)
    return out


def distill_losses(
    tape: Tape | None,
    student_logits: DenseMatrix,
    student_hiddens: Sequence[DenseMatrix],
    targets: DistillTargets,
    temperature: float = 1.0,
) -> tuple[DenseMatrix, DenseMatrix]:
    """Logit relative entropy plus the layer-averaged hidden-state error."""
    if len(student_hiddens) != len(targets.hiddens):
        raise ValueError(
            f"layer count mismatch: student has {len(student_hiddens)} hidden "
            f"states, reference has {len(targets.hiddens)}"
        )
    l_logit = kl_to_teacher(tape, student_logits, targets.logits, temperature)
    per_layer = [
        hidden_mse(tape, s, t) for s, t in zip(student_hiddens, targets.hiddens)
    ]
    l_rep = per_layer[0]
    for term in per_layer[1:]:
        l_rep = add(tape, l_rep, term)
    l_rep = scale(tape, l_rep, 1.0 / len(per_layer))
    return l_logit, l_rep


def total_loss(
    tape: Tape | None,
    l_mlm: DenseMatrix,
    l_nsp: DenseMatrix,
    l_rep: DenseMatrix | None = None,
    l_logit: DenseMatrix | None = None,
) -> DenseMatrix:
    """Unweighted sum of the objective terms; distillation terms come in pairs."""
    if (l_rep is None) != (l_logit is None):
        raise ValueError("distillation terms must be supplied together or not at all")
    out = add(tape, l_mlm, l_nsp)
    if l_rep is not None:
        out = add(tape, out, l_rep)
        out = add(tape, out, l_logit)
    return out


# --------------------------------------------------------------------------
# one optimizer step
# --------------------------------------------------------------------------


def project_binarizer_levels(model: Model, floor: float = LEVEL_FLOOR) -> None:
    """Clamp every binarizer level to stay positive after an optimizer step."""
    for q in model_binarizers(model):
        if q.alpha.data[0, 0] < floor:
            q.alpha.data[0, 0] = floor


def _first_non_finite(model: Model, terms: dict[str, float]) -> str:
    for pname, p in named_parameters(model):
        if not np.isfinite(p.data).all():
            return pname
    for name, value in terms.items():
        if not math.isfinite(value):
            return f"loss_{name}"
    return "loss"


def train_step(
    model: Model,
    opt: AdamW,
    items: Sequence,
    loss_of: Callable[[Tape, dict[DenseMatrix, DenseMatrix], object], DenseMatrix],
    lr: float | None = None,
    *,
    freeze_body: bool = False,
    terms: dict[str, float] | None = None,
) -> None:
    """One optimizer step on the mean of ``loss_of(tape, weights, item)`` over ``items``.

    The block linear weights change only at the update, so they are
    binarized once (:func:`~bitformer.model.binarize_linears`) onto a weight
    tape, and every item's fresh tape adds its gradient into the same nodes.
    Replaying the weight tape then runs the binarizer backward once per
    weight on that sum, before the update, since it reads the signs of the
    weights the update changes.  The backward is linear in its gradient, so
    this differs from binarizing per item only in summation order, and a
    step is deterministic for given inputs.  A non-finite loss raises
    :class:`TrainingAbort` naming the first non-finite parameter, else the
    first non-finite entry of ``terms`` (loss sums that ``loss_of`` keeps),
    else ``loss``.
    ``freeze_body`` is for an untaped body: it gets no weight nodes, so its
    forwards read each weight's cached bits, and its binarizer levels are
    not projected.
    """
    opt.zero_grad()
    weight_tape = Tape()
    weights = {} if freeze_body else binarize_linears(model, weight_tape)
    for item in items:
        tape = Tape()
        loss = loss_of(tape, weights, item)
        if not math.isfinite(float(loss.data[0, 0])):
            raise TrainingAbort(_first_non_finite(model, terms or {}))
        tape.backward(scale(tape, loss, 1.0 / len(items)))
    weight_tape.replay()
    weights = tape = weight_tape = None  # free them before the update's temporaries
    opt.step(lr=lr)
    if not freeze_body:
        project_binarizer_levels(model)


# --------------------------------------------------------------------------
# pretraining loop
# --------------------------------------------------------------------------


@dataclass
class StepMetrics:
    """Per-step scalars, mirrored one-to-one by the metrics log line."""

    step: int
    loss_mlm: float
    loss_nsp: float
    loss_rep: float
    loss_logit: float
    lr: float
    masked_acc: float

    def line(self) -> str:
        return "\t".join([str(self.step)] + [f"{getattr(self, f.name):.6f}" for f in fields(self)[1:]])


METRICS_HEADER = "\t".join(f.name for f in fields(StepMetrics))


def _sequence_views(batch: TokenBatch, row: int):
    keep = batch.pad_mask[row]
    return (
        batch.token_ids[row, keep],
        batch.segment_ids[row, keep],
        batch.mlm_labels[row, keep],
        batch.nsp_labels[row : row + 1],
    )


def pretrain_loop(
    model: Model,
    corpus: Corpus,
    *,
    steps: int,
    batch_size: int = 32,
    seed: int = 0,
    teacher: Model | None = None,
    peak_lr: float = 2e-4,
    warmup_frac: float = 0.05,
    weight_decay: float = 0.01,
    temperature: float = 1.0,
    log_stream: IO[str] | None = None,
) -> list[StepMetrics]:
    """Two-task pretraining with optional distillation; returns per-step metrics.

    Each step is one :func:`train_step` over the batch's sequences.  All
    randomness derives from named substreams of ``seed``; two runs with
    equal arguments produce bitwise-identical parameters and logs.
    """
    if teacher is not None:
        if not teacher.config.full_precision:
            raise ValueError("the distillation reference must be a full-precision model")
        if teacher.config.layers != model.config.layers:
            raise ValueError("layer count mismatch between model and distillation reference")
    params = [p for _, p in named_parameters(model)]
    opt = AdamW(params, lr=peak_lr, weight_decay=weight_decay)
    rng_pairs = substream(seed, "nsp")
    rng_mask = substream(seed, "mask")
    pair_stream = make_nsp_pairs(corpus, rng_pairs, max_seq=model.config.max_seq)
    vocab_size = len(corpus.vocab)

    metrics: list[StepMetrics] = []
    for step in range(steps):
        pairs = [next(pair_stream) for _ in range(batch_size)]
        batch = mask_tokens(assemble_nsp_batch(pairs), vocab_size, rng_mask)
        n_rows = batch.token_ids.shape[0]
        sums = {"mlm": 0.0, "nsp": 0.0, "rep": 0.0, "logit": 0.0}
        hit = 0
        masked = 0

        def loss_of(tape, weights, row):
            nonlocal hit, masked
            tokens, segs, labels, nsp = _sequence_views(batch, row)
            res = forward(model, tokens, segs, tape=tape, mode="hard", weights=weights)
            l_mlm = cross_entropy(tape, res.mlm_logits, labels)
            l_nsp = cross_entropy(tape, res.nsp_logits, nsp)
            l_rep = l_logit = None
            if teacher is not None:
                targets = teacher_targets(teacher, tokens, segs)
                l_logit, l_rep = distill_losses(
                    tape, res.mlm_logits, res.hidden_states, targets, temperature
                )
            loss = total_loss(tape, l_mlm, l_nsp, l_rep, l_logit)

            sums["mlm"] += float(l_mlm.data[0, 0])
            sums["nsp"] += float(l_nsp.data[0, 0])
            if teacher is not None:
                sums["rep"] += float(l_rep.data[0, 0])
                sums["logit"] += float(l_logit.data[0, 0])

            live = labels != IGNORE_LABEL
            masked += int(live.sum())
            if live.any():
                pred = res.mlm_logits.data[live].argmax(axis=1)
                hit += int((pred == labels[live]).sum())
            return loss

        lr = linear_warmup_schedule(step + 1, steps, warmup_frac, peak_lr)
        train_step(model, opt, range(n_rows), loss_of, lr, terms=sums)

        entry = StepMetrics(
            step=step,
            loss_mlm=sums["mlm"] / n_rows,
            loss_nsp=sums["nsp"] / n_rows,
            loss_rep=sums["rep"] / n_rows,
            loss_logit=sums["logit"] / n_rows,
            lr=lr,
            masked_acc=hit / masked if masked else 0.0,
        )
        metrics.append(entry)
        if log_stream is not None:
            log_stream.write(entry.line() + "\n")
    return metrics


# --------------------------------------------------------------------------
# finetuning
# --------------------------------------------------------------------------


@dataclass
class FinetuneResult:
    """Final evaluation accuracy and the trained classification head."""

    accuracy: float
    head_w: Array
    head_b: Array


Example = tuple[tuple[Sequence[int], Sequence[int]], int]


def _check_labels(examples: Sequence[Example], n_classes: int) -> None:
    for (_, _), label in examples:
        if not 0 <= label < n_classes:
            raise DataError(f"label {label} outside class range [0, {n_classes})")


def _classifier_logits(tape, model, tokens, segs, weights, w, b, frozen=False):
    """Head logits of the classifier row; a ``frozen`` body runs untaped."""
    body_tape = None if frozen else tape
    last = encode(model, np.asarray(tokens), np.asarray(segs), tape=body_tape, weights=weights)[-1]
    return head(tape, gather_rows(body_tape, last, np.array([0])), w, b)


def finetune(
    model: Model,
    train_examples: Sequence[Example],
    eval_examples: Sequence[Example],
    *,
    epochs: int,
    n_classes: int = 2,
    lr: float = 2e-5,
    weight_decay: float = 0.01,
    batch_size: int = 32,
    seed: int = 0,
    freeze_body: bool = False,
) -> FinetuneResult:
    """Train a fresh full-precision head on the classifier row; report accuracy.

    Constant learning rate, no schedule, no distillation; each chunk of
    ``batch_size`` examples is one :func:`train_step`.  ``freeze_body``
    restricts updates to the head (a linear probe): the body then runs
    untaped and only the head records a backward.  Otherwise gradients also
    flow into the body's latent parameters.  Results are deterministic for a
    given seed.
    """
    _check_labels(train_examples, n_classes)
    _check_labels(eval_examples, n_classes)
    hidden = model.config.hidden
    rng = substream(seed, "finetune-head")
    head_w = DenseMatrix(0.02 * rng.normal(size=(n_classes, hidden)))
    head_b = DenseMatrix(np.zeros((1, n_classes)))

    body_params = [] if freeze_body else [p for _, p in named_parameters(model)]
    opt = AdamW([head_w, head_b] + body_params, lr=lr, weight_decay=weight_decay)
    order_rng = substream(seed, "finetune-order")

    def loss_of(tape, weights, idx):
        (tokens, segs), label = train_examples[int(idx)]
        logits = _classifier_logits(tape, model, tokens, segs, weights, head_w, head_b, frozen=freeze_body)
        return cross_entropy(tape, logits, np.array([label]))

    for _ in range(epochs):
        order = order_rng.permutation(len(train_examples))
        for start in range(0, len(order), batch_size):
            train_step(model, opt, order[start : start + batch_size], loss_of, freeze_body=freeze_body)

    correct = 0
    for (tokens, segs), label in eval_examples:
        logits = _classifier_logits(None, model, tokens, segs, None, head_w, head_b)
        correct += int(int(np.argmax(logits.data[0])) == label)
    accuracy = correct / len(eval_examples) if eval_examples else 0.0
    return FinetuneResult(accuracy=accuracy, head_w=head_w.data, head_b=head_b.data)
