"""The three workloads: what each sets up, what one round does, what it checks.

Every workload is a closed loop: one caller runs one operation at a time and
waits for it.  A run repeats whole rounds of identical operations, so the
share of failed operations does not depend on the run length.  An operation
is a training step (``pretrain``), one sequence through one route
(``infer``), or one save-and-load round trip (``checkpoint``).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bitformer import data, model, pretrain
from bitformer.rng import substream

from . import checks

# criterion 09's smoke recipe
SMOKE_DIMS = dict(layers=2, hidden=128, heads=4, ffn=256, max_seq=64)
SMOKE_CORPUS_SEED = 1
SMOKE_BATCH = 32
SMOKE_LR = 3e-3
SMOKE_WARMUP = 0.05

BASE_WIDTH = dict(hidden=768, heads=12, ffn=3072, max_seq=128)
ESTIMATOR_RANK = 64


def bench_rng(seed: int, name: str) -> np.random.Generator:
    """The benchmark's own random streams, apart from the program's ``rng`` module."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def smoke_corpus() -> data.Corpus:
    return data.parse_corpus(data.generate_toy_corpus(seed=SMOKE_CORPUS_SEED))


def jitter_binarizers(m: model.Model, rng: np.random.Generator) -> None:
    """Move binarizer levels and thresholds off their init, as ``verify`` does."""
    for blk in m.blocks:
        for q in blk.attn.binarizers() + [blk.ffn.in_1, blk.ffn.in_2]:
            q.alpha.data[0, 0] *= float(rng.uniform(0.8, 1.25))
            q.beta.data[0, 0] += float(rng.normal(0.0, 0.05))


@dataclass
class RoundResult:
    """Wall seconds of each completed operation, by kind, and the failure count."""

    seconds: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def add(self, kind: str, dt: float) -> None:
        self.seconds.setdefault(kind, []).append(dt)

    def op_seconds(self) -> list[float]:
        return [dt for values in self.seconds.values() for dt in values]


class Workload:
    """Interface of one workload; ``setup`` may run several times per process."""

    name = ""
    unit = ""  # the per-layer normalization unit: step, sequence, round trip
    unit_op = ""  # the operation kind counted once per unit

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.rounds: list[RoundResult] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> RoundResult:
        raise NotImplementedError

    def units(self) -> int:
        """Per-layer normalization count over the rounds run so far."""
        return sum(len(r.seconds.get(self.unit_op, [])) for r in self.rounds)

    def check(self) -> list[str]:
        raise NotImplementedError

    def figures(self) -> dict[str, tuple[float, str]]:
        """The workload's own figures, reported beside the end-to-end metrics."""
        raise NotImplementedError

    def gemm_shapes(self) -> tuple[int, list[tuple[int, int, int]]]:
        """Sequence length and (out, in, count) of the model's binary linears per layer."""
        cfg = self.model.config
        n = min(128, cfg.max_seq)
        return n, [(cfg.hidden, cfg.hidden, 4), (cfg.ffn, cfg.hidden, 1), (cfg.hidden, cfg.ffn, 1)]


# --------------------------------------------------------------------------
# pretrain
# --------------------------------------------------------------------------


class _StepClock:
    """Log stream for ``pretrain_loop``: it writes one line per finished step."""

    def __init__(self):
        self.times = [time.perf_counter()]

    def write(self, line: str) -> None:
        self.times.append(time.perf_counter())

    def durations(self) -> list[float]:
        return list(np.diff(self.times))


class Pretrain(Workload):
    """Smoke-recipe pretraining of a fresh model, then one checkpoint save.

    A round is what ``bitformer pretrain`` does: build the model, train
    ``STEPS`` steps, save the checkpoint.  Every round starts from the same
    seed, so every round after the first is a same-seed rerun that must log
    the same losses bit for bit.
    """

    name = "pretrain"
    unit = unit_op = "step"
    STEPS = 8
    EVAL_SEQUENCES = 512

    def setup(self) -> None:
        self.corpus = smoke_corpus()
        self.vocab_size = len(self.corpus.vocab)
        self.config = model.ModelConfig(**SMOKE_DIMS, vocab=self.vocab_size).validate()
        self.step_tokens = self._count_step_tokens()
        self.eval_batch = self._eval_batch()
        self.model = model.build_model(self.config, seed=self.seed)
        self._train(self.model, steps=1)
        self.losses: list[list[tuple[float, float]]] = []

    def _train(self, m: model.Model, steps: int, clock=None) -> list[pretrain.StepMetrics]:
        return pretrain.pretrain_loop(
            m,
            self.corpus,
            steps=steps,
            batch_size=SMOKE_BATCH,
            seed=self.seed,
            peak_lr=SMOKE_LR,
            warmup_frac=SMOKE_WARMUP,
            log_stream=clock,
        )

    def _count_step_tokens(self) -> list[int]:
        """Real tokens in each step's batch, from the batch arrays the loop will draw."""
        rng_pairs = substream(self.seed, "nsp")
        rng_mask = substream(self.seed, "mask")
        pairs = data.make_nsp_pairs(self.corpus, rng_pairs, max_seq=self.config.max_seq)
        counts = []
        for _ in range(self.STEPS):
            batch = data.assemble_nsp_batch([next(pairs) for _ in range(SMOKE_BATCH)])
            batch = data.mask_tokens(batch, self.vocab_size, rng_mask)
            counts.append(int(batch.pad_mask.sum()))
        return counts

    def _eval_batch(self) -> data.TokenBatch:
        rng = bench_rng(self.seed, "eval")
        pairs = data.make_nsp_pairs(self.corpus, rng, max_seq=self.config.max_seq)
        batch = data.assemble_nsp_batch([next(pairs) for _ in range(self.EVAL_SEQUENCES)])
        return data.mask_tokens(batch, self.vocab_size, rng)

    def eval_loss(self, m: model.Model) -> float:
        """Mean masked-token loss on the held-out batch, untaped."""
        b = self.eval_batch
        total, count = 0.0, 0
        for row in range(b.token_ids.shape[0]):
            keep = b.pad_mask[row]
            labels = b.mlm_labels[row, keep]
            logits = model.forward(m, b.token_ids[row, keep], b.segment_ids[row, keep]).mlm_logits.data
            live = labels != data.IGNORE_LABEL
            logp = logits - logits.max(axis=1, keepdims=True)
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
            total -= float(logp[live, labels[live]].sum())
            count += int(live.sum())
        return total / count

    def run_round(self) -> RoundResult:
        res = RoundResult(attempted=self.STEPS)
        m = model.build_model(self.config, seed=self.seed)
        clock = _StepClock()
        try:
            metrics = self._train(m, self.STEPS, clock)
            model.save_checkpoint(self.scratch / "pretrain.ckpt", m)
        except Exception:
            metrics = []
        res.seconds["step"] = clock.durations()[: len(metrics)]
        res.failed = self.STEPS - len(metrics)
        self.rounds.append(res)
        self.losses.append([(s.loss_mlm, s.loss_nsp) for s in metrics])
        self.trained = m
        return res

    def check(self) -> list[str]:
        first = self.losses[0]
        problems = []
        for losses in self.losses:
            problems += checks.finite_loss_problems([v for pair in losses for v in pair])
        for again in self.losses[1:]:
            problems += checks.identical_problems(first, again, "same-seed round losses")
        self.loss_before = self.eval_loss(model.build_model(self.config, seed=self.seed))
        self.loss_after = self.eval_loss(self.trained)
        problems += checks.loss_drop_problems(self.loss_before, self.loss_after)
        return problems

    def figures(self) -> dict[str, tuple[float, str]]:
        step_s = [dt for r in self.rounds for dt in r.seconds["step"]]
        tokens = sum(sum(self.step_tokens[: len(r.seconds["step"])]) for r in self.rounds)
        return {
            "train_tokens_per_s": (tokens / sum(step_s), "tokens/s"),
            "train_step_s": (float(np.median(step_s)), "s"),
            "pretrain_mlm_loss": (float(np.mean([mlm for mlm, _ in self.losses[0][-4:]])), "nats"),
            "heldout_mlm_loss_init": (self.loss_before, "nats"),
            "heldout_mlm_loss_trained": (self.loss_after, "nats"),
        }


# --------------------------------------------------------------------------
# infer
# --------------------------------------------------------------------------


class Infer(Workload):
    """Base-width bipft-b encoder: unpadded sequences through the three routes.

    A round sends each length of ``LENGTHS`` once, in that order, through
    ``forward_packed``, the untaped ``forward`` and ``forward`` of the
    full-precision twin.  Sequences are unpadded because padded keys leak
    into real rows once an attention threshold drops below -level/2.
    """

    name = "infer"
    unit = "sequence"
    unit_op = "packed"
    LAYERS = 2
    LENGTHS = (16, 48, 80, 112, 128)
    ROUTES = ("packed", "sim", "fp")

    def setup(self) -> None:
        rng = bench_rng(self.seed, "infer")
        vocab = len(smoke_corpus().vocab)
        dims = dict(BASE_WIDTH, layers=self.LAYERS, vocab=vocab)
        self.model = None  # free the previous set-up's model before building the next
        self.model = model.build_model(
            model.ModelConfig(**dims, variant="bipft_b", rank=ESTIMATOR_RANK).validate(),
            seed=self.seed,
        )
        jitter_binarizers(self.model, rng)
        self.twin = None
        self.twin = model.build_model(
            model.ModelConfig(**dims, full_precision=True).validate(), seed=self.seed
        )
        self.sequences = []
        for n in self.LENGTHS:
            ids = rng.integers(data.N_SPECIALS, vocab, size=n)
            ids[0] = data.CLS_ID
            segs = (np.arange(n) >= n // 2).astype(np.int64)
            self.sequences.append((ids, segs))
        self.outputs: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
        self.tokens = dict.fromkeys(self.ROUTES, 0)
        ids, segs = self.sequences[0]
        for route in self.ROUTES:
            self._route(route, ids, segs)

    def _route(self, route: str, ids, segs) -> tuple[np.ndarray, np.ndarray]:
        if route == "packed":
            out = model.forward_packed(self.model, ids, segs)
            return out.mlm_logits, out.nsp_logits
        m = self.model if route == "sim" else self.twin
        out = model.forward(m, ids, segs)
        return out.mlm_logits.data, out.nsp_logits.data

    def run_round(self) -> RoundResult:
        res = RoundResult()
        for i, (ids, segs) in enumerate(self.sequences):
            for route in self.ROUTES:
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = self._route(route, ids, segs)
                except Exception:
                    res.failed += 1
                    continue
                res.add(route, time.perf_counter() - t0)
                self.tokens[route] += len(ids)
                self.outputs[(i, route)] = out
        self.rounds.append(res)
        return res

    def check(self) -> list[str]:
        problems = []
        for i, (ids, _) in enumerate(self.sequences):
            label = f"sequence of {len(ids)} tokens"
            if (i, "packed") in self.outputs and (i, "sim") in self.outputs:
                for got, want in zip(self.outputs[(i, "packed")], self.outputs[(i, "sim")]):
                    problems += checks.route_agreement_problems(got, want, label)
        params = {name: p.data for name, p in model.named_parameters(self.twin)}
        cfg = self.twin.config
        for i in (0, len(self.sequences) - 1):
            if (i, "fp") in self.outputs:
                ids, segs = self.sequences[i]
                want = checks.reference_fp_logits(params, cfg.layers, cfg.heads, ids, segs)
                problems += checks.fp_reference_problems(
                    *self.outputs[(i, "fp")], want, f"sequence of {len(ids)} tokens"
                )
        problems += self.kernel_problems()
        return problems

    def kernel_problems(self) -> list[str]:
        """Both accumulators at the model's shapes, on the longest sequence's activations."""
        rng = bench_rng(self.seed, "kernel-check")
        ids, segs = self.sequences[-1]
        n = len(ids)
        x = model.forward_packed(self.model, ids, segs).hidden_states[0]
        cfg = self.model.config
        blk = self.model.blocks[0]
        centered = lambda w: w.data - w.data.mean(axis=1, keepdims=True)  # noqa: E731
        problems = checks.binary_kernel_problems(x - blk.attn.in_q.beta.data[0, 0], centered(blk.attn.wq))
        problems += checks.binary_kernel_problems(x, centered(blk.ffn.w1))
        problems += checks.binary_kernel_problems(rng.normal(size=(n, cfg.ffn)), centered(blk.ffn.w2))
        sel = (rng.random((n, n)) < 0.5).astype(np.float64)
        problems += checks.ternary_kernel_problems(sel, rng.normal(size=(n, cfg.hidden // cfg.heads)))
        return problems

    def figures(self) -> dict[str, tuple[float, str]]:
        return {
            f"{route}_tokens_per_s": (
                self.tokens[route] / sum(sum(r.seconds.get(route, [])) for r in self.rounds),
                "tokens/s",
            )
            for route in self.ROUTES
        }


# --------------------------------------------------------------------------
# checkpoint
# --------------------------------------------------------------------------


class Checkpoint(Workload):
    """Save and load round trips of a one-layer bipft-b model at a third of base width.

    ``load_model`` is timed as users call it, including the fresh model it
    builds and then overwrites.  The checkpoint is 3.8 MB, a round trip of
    about 1 s; one at base width is 30 MB and takes 11 s, so a run would hold
    two or three round trips and its median would move with every slow
    stretch of a shared host.  Saving costs the same per byte at either size
    (5.8 and 5.4 MB/s); loading costs a little more per byte at base width,
    where the throw-away ``build_model`` takes 1.1 s instead of 0.06 s.
    """

    name = "checkpoint"
    unit = "round trip"
    unit_op = "round_trip"
    LAYERS = 1
    DIMS = dict(hidden=256, heads=4, ffn=1024, max_seq=128)

    def setup(self) -> None:
        vocab = len(smoke_corpus().vocab)
        cfg = model.ModelConfig(
            **self.DIMS, layers=self.LAYERS, vocab=vocab, variant="bipft_b", rank=ESTIMATOR_RANK
        ).validate()
        self.model = None
        self.model = model.build_model(cfg, seed=self.seed)
        jitter_binarizers(self.model, bench_rng(self.seed, "checkpoint"))
        self.path = self.scratch / "checkpoint.ckpt"
        self.save_s: list[float] = []
        self.load_s: list[float] = []
        self.problems: list[str] = []

    def run_round(self) -> RoundResult:
        res = RoundResult(attempted=1)
        try:
            t0 = time.perf_counter()
            model.save_checkpoint(self.path, self.model)
            t1 = time.perf_counter()
            loaded = model.load_model(self.path)
            t2 = time.perf_counter()
        except Exception:
            res.failed = 1
        else:
            res.add("round_trip", t2 - t0)
            self.save_s.append(t1 - t0)
            self.load_s.append(t2 - t1)
            self.size_mb = self.path.stat().st_size / 1e6
            self.problems += checks.roundtrip_problems(
                [(n, p.data) for n, p in model.named_parameters(self.model)],
                [(n, p.data) for n, p in model.named_parameters(loaded)],
            )
        self.rounds.append(res)
        return res

    def check(self) -> list[str]:
        problems = list(self.problems)
        size = self.path.stat().st_size
        offset = int(bench_rng(self.seed, "flip").integers(size // 2, size - 8))
        problems += checks.corruption_problems(self.path, self.scratch / "flipped.ckpt", offset)
        return problems

    def figures(self) -> dict[str, tuple[float, str]]:
        return {
            "ckpt_save_mb_per_s": (self.size_mb * len(self.save_s) / sum(self.save_s), "MB/s"),
            "ckpt_load_mb_per_s": (self.size_mb * len(self.load_s) / sum(self.load_s), "MB/s"),
            "checkpoint_mb": (self.size_mb, "MB"),
        }


WORKLOADS = {w.name: w for w in (Pretrain, Infer, Checkpoint)}
