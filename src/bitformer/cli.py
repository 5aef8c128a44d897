"""Command-line entry points: pretrain, finetune, verify, bench, corpus, inspect.

Exit codes are fixed for scripting: 0 success, 1 verification failure,
2 usage error (bad flags, missing files, invalid data), 3 numeric abort
during training, 4 checkpoint schema mismatch or corruption.  Every
training run writes a ``manifest.json`` into its output directory before
touching model state, and all randomness flows from the single ``--seed``
through named substreams, so a run is reproducible from its manifest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import thread_cap
from .bitkernel import binary_accumulate, equivalent_flops, pack_signs
from .data import (
    SPECIAL_TOKENS,
    DataError,
    Vocab,
    encode_classification,
    generate_toy_corpus,
    generate_toy_task,
    parse_corpus,
)
from .model import (
    CheckpointError,
    ConfigError,
    Model,
    ModelConfig,
    build_model,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from .pretrain import TrainingAbort, finetune, pretrain_loop
from .rng import substream
from .verify import ALL_CHECKS, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC_ABORT = 3
EXIT_SCHEMA_MISMATCH = 4

CONFIG_PRESETS: dict[str, dict] = {
    "tiny": dict(layers=2, hidden=128, heads=4, ffn=256, max_seq=64, vocab=256),
    "base": dict(layers=12, hidden=768, heads=12, ffn=3072, max_seq=512, vocab=30522),
}

METRICS_HEADER = "step\tloss_mlm\tloss_nsp\tloss_rep\tloss_logit\tlr\tmasked_acc"


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------


def _build_id() -> str:
    """git-describe-style identifier of the working tree, if available."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _normalize_variant(value: str) -> str:
    return value.replace("-", "_")


def _resolve_config(args, vocab_size: int | None = None) -> ModelConfig:
    """Preset dimensions plus the variant/rank/precision knobs from flags."""
    preset = dict(CONFIG_PRESETS[args.config])
    if vocab_size is not None:
        preset["vocab"] = vocab_size
    return ModelConfig(
        **preset,
        variant=_normalize_variant(args.variant),
        rank=args.rank if args.rank is not None else 0,
        full_precision=getattr(args, "full_precision", False),
    ).validate()


class Manifest:
    """Run record written before model state and finalized at exit."""

    def __init__(self, out_dir: Path, command: str, config: ModelConfig, seed: int, run: dict):
        self.path = out_dir / "manifest.json"
        self.payload = {
            "command": command,
            "config": config.to_dict(),
            "seed": seed,
            "run": run,
            "build_id": _build_id(),
            "started": _now(),
            "finished": None,
            "outputs": {},
        }

    def write(self) -> None:
        self.path.write_text(json.dumps(self.payload, indent=2, sort_keys=True) + "\n")

    def finish(self, outputs: dict[str, str]) -> None:
        self.payload["outputs"] = outputs
        self.payload["finished"] = _now()
        self.write()


def _require_file(path: str | None, what: str) -> Path:
    if path is None:
        raise DataError(f"missing required {what} path")
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    return p


def _write_vocab(path: Path, vocab: Vocab) -> None:
    path.write_text("\n".join(vocab.tokens) + "\n")


def _read_vocab(path: Path) -> Vocab:
    tokens = [line for line in path.read_text().splitlines() if line]
    if tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
        raise DataError(f"vocabulary file {path} does not start with the special tokens")
    return Vocab(tokens[len(SPECIAL_TOKENS) :])


# --------------------------------------------------------------------------
# pretrain
# --------------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    corpus_path = _require_file(args.corpus, "corpus")
    corpus = parse_corpus(corpus_path.read_text())
    config = _resolve_config(args, vocab_size=len(corpus.vocab))

    teacher: Model | None = None
    if args.teacher is not None:
        teacher = load_model(_require_file(args.teacher, "teacher checkpoint"))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        out_dir,
        "pretrain",
        config,
        args.seed,
        run={
            "corpus": str(corpus_path),
            "steps": args.steps,
            "batch": args.batch,
            "lr": args.lr,
            "warmup_frac": args.warmup_frac,
            "teacher": args.teacher,
            "temperature": args.temperature,
        },
    )
    manifest.write()

    model = build_model(config, seed=args.seed)
    ckpt_path = out_dir / "model.ckpt"
    metrics_path = out_dir / "metrics.tsv"
    vocab_path = out_dir / "vocab.txt"
    with open(metrics_path, "w") as stream:
        stream.write(METRICS_HEADER + "\n")
        metrics = pretrain_loop(
            model,
            corpus,
            steps=args.steps,
            batch_size=args.batch,
            seed=args.seed,
            teacher=teacher,
            peak_lr=args.lr,
            warmup_frac=args.warmup_frac,
            temperature=args.temperature,
            log_stream=stream,
        )
    save_checkpoint(ckpt_path, model)
    _write_vocab(vocab_path, corpus.vocab)
    manifest.finish(
        {"checkpoint": str(ckpt_path), "metrics": str(metrics_path), "vocab": str(vocab_path)}
    )
    final = metrics[-1].loss_mlm if metrics else float("nan")
    print(f"pretrained {args.steps} steps; final loss_mlm {final:.6f}; wrote {ckpt_path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# finetune
# --------------------------------------------------------------------------


def _load_task(path: Path) -> list[tuple[str, int]]:
    """Labeled lines: ``label<TAB>text`` with integer labels."""
    rows: list[tuple[str, int]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'label<TAB>text'")
        try:
            label = int(parts[0])
        except ValueError as err:
            raise DataError(f"{path}:{lineno}: label {parts[0]!r} is not an integer") from err
        rows.append((parts[1], label))
    if not rows:
        raise DataError(f"task file {path} holds no labeled examples")
    return rows


def cmd_finetune(args) -> int:
    task_path = _require_file(args.task, "task")
    overrides = {}
    if args.variant is not None:
        overrides["variant"] = _normalize_variant(args.variant)
    if args.rank is not None:
        overrides["rank"] = args.rank

    if args.checkpoint is not None:
        ckpt_path = _require_file(args.checkpoint, "checkpoint")
        model = load_model(ckpt_path, **overrides)
        vocab_path = Path(args.vocab) if args.vocab else ckpt_path.parent / "vocab.txt"
        vocab = _read_vocab(_require_file(str(vocab_path), "vocabulary"))
    else:
        # from-scratch baseline: fresh random weights over the corpus vocabulary
        if args.corpus is None:
            raise DataError("finetune needs --checkpoint, or --corpus to train from scratch")
        corpus = parse_corpus(_require_file(args.corpus, "corpus").read_text())
        vocab = corpus.vocab
        preset_args = argparse.Namespace(
            config=args.config, variant=args.variant or "bipft-a", rank=args.rank or 0
        )
        model = build_model(_resolve_config(preset_args, vocab_size=len(vocab)), seed=args.seed)

    rows = _load_task(task_path)
    encoded = [
        (encode_classification(vocab, text, model.config.max_seq), label) for text, label in rows
    ]
    order = substream(args.seed, "task-split").permutation(len(encoded))
    n_eval = max(1, int(round(len(encoded) * args.eval_frac)))
    if n_eval >= len(encoded):
        raise DataError(f"eval fraction {args.eval_frac} leaves no training examples")
    eval_set = [encoded[i] for i in order[:n_eval]]
    train_set = [encoded[i] for i in order[n_eval:]]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        out_dir,
        "finetune",
        model.config,
        args.seed,
        run={
            "task": str(task_path),
            "checkpoint": args.checkpoint,
            "epochs": args.epochs,
            "batch": args.batch,
            "lr": args.lr,
            "eval_frac": args.eval_frac,
            "freeze_body": args.freeze_body,
            "n_classes": args.n_classes,
        },
    )
    manifest.write()

    result = finetune(
        model,
        train_set,
        eval_set,
        epochs=args.epochs,
        n_classes=args.n_classes,
        lr=args.lr,
        batch_size=args.batch,
        seed=args.seed,
        freeze_body=args.freeze_body,
    )
    result_path = out_dir / "result.json"
    result_path.write_text(
        json.dumps(
            {"accuracy": result.accuracy, "n_train": len(train_set), "n_eval": len(eval_set)},
            indent=2,
        )
        + "\n"
    )
    manifest.finish({"result": str(result_path)})
    print(f"accuracy {result.accuracy:.4f} on {len(eval_set)} held-out examples")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify / bench / corpus / inspect
# --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_checks(only=args.only, seed=args.seed)
    for res in results:
        print(res.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def _time_route(fn, reps: int = 10) -> float:
    fn()  # warm up
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cmd_bench(args) -> int:
    config = _resolve_config(args)
    report = equivalent_flops(config, seq_len=args.seq_len)
    print(f"config {args.config} variant {config.variant} rank {config.rank}")
    for line in report.metric_lines():
        print(line)

    # packed integer accumulate vs float64 GEMM at one square size
    n = args.gemm_size
    rng = substream(args.seed, "bench")
    a = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    b = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    pa, pb = pack_signs(a), pack_signs(b)
    t_packed = _time_route(lambda: binary_accumulate(pa, pb))
    t_float = _time_route(lambda: a @ b.T)
    ratio = t_float / t_packed if t_packed > 0 else float("inf")
    print(f"packed_accumulate_ms={1e3 * t_packed:.3f} (n={n})")
    print(f"float_gemm_ms={1e3 * t_float:.3f} (n={n})")
    print(f"throughput_ratio={ratio:.2f}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    """Write the toy corpus and, with ``--task-out``, the marker-count task.

    Task rows are ``label<TAB>text``, the format ``finetune --task`` reads.
    """
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    text = generate_toy_corpus(
        seed=args.seed, docs=args.docs, sentences_per_doc=args.sentences
    )
    out_path.write_text(text)
    made = [str(out_path)]
    if args.task_out is not None:
        task_path = Path(args.task_out)
        task_path.parent.mkdir(parents=True, exist_ok=True)
        rows = generate_toy_task(seed=args.seed, count=args.task_count)
        task_path.write_text("".join(f"{label}\t{text}\n" for text, label in rows))
        made.append(str(task_path))
    print(f"wrote {', '.join(made)}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    config, tensors = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    total = 0
    for name, arr in tensors.items():
        nbytes = 4 * arr.size
        total += nbytes
        print(f"{name}\t{'x'.join(map(str, arr.shape))}\t{nbytes}")
    print(f"tensors={len(tensors)} payload_bytes={total}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


def _dashify(value: str) -> str:
    """Accept both spellings on the command line: bipft-b and bipft_b."""
    return value.replace("_", "-")


def _add_model_flags(p: argparse.ArgumentParser, variant_default: str | None = "bipft-a") -> None:
    p.add_argument("--config", choices=sorted(CONFIG_PRESETS), default="tiny")
    p.add_argument(
        "--variant",
        type=_dashify,
        choices=["bipft-a", "bipft-b"],
        default=variant_default,
    )
    p.add_argument("--rank", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitformer", description="1-bit transformer encoder toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a foundation checkpoint on a corpus")
    _add_model_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default="run-pretrain")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--warmup-frac", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--teacher", default=None)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a classifier head from a checkpoint")
    _add_model_flags(p, variant_default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--task", required=True)
    p.add_argument("--out", default="run-finetune")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=2e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-frac", type=float, default=0.25)
    p.add_argument("--n-classes", type=int, default=2)
    p.add_argument("--freeze-body", action="store_true")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("verify", help="run the self-contained oracle suites")
    p.add_argument("--only", choices=sorted(ALL_CHECKS), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="cost accounting and kernel throughput")
    _add_model_flags(p)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--gemm-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("corpus", help="write the built-in toy corpus and task")
    p.add_argument("--out", default="toy.txt")
    p.add_argument("--docs", type=int, default=40)
    p.add_argument("--sentences", type=int, default=12)
    p.add_argument(
        "--task-out", default=None, help="also write the marker-count task as label<TAB>text rows"
    )
    p.add_argument("--task-count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("inspect", help="print a checkpoint's config and tensor table")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return int(exc.code or 0)
    try:
        thread_cap()  # applied on import; a bad value exits 2 here
        return args.func(args)
    except TrainingAbort as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    except CheckpointError as err:
        print(f"checkpoint error: {err}", file=sys.stderr)
        return EXIT_SCHEMA_MISMATCH
    except (DataError, ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
