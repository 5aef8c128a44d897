"""Binary transformer encoder: config, state, forward passes, checkpoints.

The model is a BERT-shaped encoder with post-block layer norm, built from the
binary attention layer and a binary feed-forward (both inputs re-binarized,
GeLU between the two projections).  All embedding tables and block projection
weights are two-level (1-bit plus a per-row scale at deployment); biases,
layer norms, binarizer levels/thresholds, estimator factors, and the two task
heads (token prediction over the vocabulary, 2-way pair-order) stay full
precision.  A ``full_precision`` config flag builds the float twin of the
same architecture, used as the distillation teacher.

The encoder is defined once (``_encode``) over the op sets of
:mod:`bitformer.binattn`, which supply only the embedding binarizer, the
projections and the attention products:

* :func:`forward` — taped or relaxed, the float simulation that training
  differentiates (:class:`~bitformer.binattn.SimOps`); untaped and hard,
  the bit-packed kernels (:class:`~bitformer.binattn.PackedOps`).  A
  full-precision model runs :class:`~bitformer.binattn.FullPrecisionOps`.
* :func:`forward_packed` — the untaped hard :func:`forward`, bitwise, with
  plain-array outputs.
* :func:`encode` — the hidden states of :func:`forward` without the heads.

:func:`binarize_linears` binarizes every block linear weight once onto a
tape (:func:`~bitformer.quant.binarize_weight`, whose backward recomputes
its state from the weight), for the taped forwards that take it as
``weights``; :func:`~bitformer.pretrain.train_step` states how a training
step uses it.  Untaped hard forwards binarize each block weight once per
weight value instead: the sign bits and row scales are cached on the weight
(:func:`~bitformer.quant.weight_bits`), which makes its ``data`` read-only.
An in-place write to a cached weight raises; the optimizer step, rebinding
``data``, a deep copy and a checkpoint load are the ways to change weights.

Every trainable tensor is declared once, with its name, shape and init, in
``_declare`` (the attention layer's part in
:func:`~bitformer.binattn.make_attention_layer`), which takes each tensor
from a tensor source: :func:`build_model` passes one that draws and fills
them, :func:`load_model` one that reads them from a checkpoint.
:func:`named_parameters` walks the state dataclasses in field order and
returns those names, and that one list is what the optimizer trains and what
checkpoints save and load.

Checkpoints are a single little-endian binary container: magic, version,
config JSON, named float32 tensors, and a trailing 8-byte BLAKE2b digest
(``hashlib.blake2b``, ``digest_size=8``) of everything before it; this is
version 2, and files of any other version are refused by name.  Writes are
atomic (temporary file, then rename).  One standard-library worker thread
(``concurrent.futures.ThreadPoolExecutor(max_workers=1)``, joined when its
``with`` block exits) computes the digest while a save writes the records and
while a load parses them.  The digest is right only because that one worker
runs its tasks in the order they were submitted; the golden-bytes tests pin
the bytes.  A load checks magic and version before the worker exists, and
reports a wrong checksum before any layout fault.  Loading a model builds it
from the file with no init (no random draw, no SVD): the loaded arrays become
the parameters, and the declaration checks the tensor inventory both ways,
then the shapes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .binattn import (
    AttentionLayerState,
    FullPrecisionOps,
    InitTensors,
    PackedOps,
    SimOps,
    init_estimators,
    make_attention_layer,
)
from .numerics import (
    Array,
    DenseMatrix,
    Tape,
    add,
    add_bias,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    transpose,
)
from .quant import ElasticQuant, QuantMode, binarize_weight
from .rng import substream

__all__ = [
    "CheckpointChecksumError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointMismatchError",
    "ConfigError",
    "ForwardResult",
    "Model",
    "ModelConfig",
    "PackedResult",
    "binarize_linears",
    "build_model",
    "encode",
    "forward",
    "forward_packed",
    "head",
    "load_checkpoint",
    "load_model",
    "model_binarizers",
    "named_parameters",
    "parameter_inventory",
    "save_checkpoint",
]

VARIANTS = ("bipft_a", "bipft_b")


class ConfigError(ValueError):
    """Invalid model configuration; the message lists every problem found."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; validate() checks them all at once."""

    layers: int = 12
    hidden: int = 768
    heads: int = 12
    ffn: int = 3072
    max_seq: int = 512
    vocab: int = 30522
    variant: str = "bipft_a"
    rank: int = 0
    full_precision: bool = False

    def validate(self) -> "ModelConfig":
        problems: list[str] = []
        if self.layers < 1:
            problems.append(f"layers must be >= 1, got {self.layers}")
        if self.hidden < 1:
            problems.append(f"hidden must be >= 1, got {self.hidden}")
        if self.heads < 1:
            problems.append(f"heads must be >= 1, got {self.heads}")
        elif self.hidden >= 1 and self.hidden % self.heads != 0:
            problems.append(f"hidden ({self.hidden}) must divide evenly into heads ({self.heads})")
        if self.ffn < 1:
            problems.append(f"ffn must be >= 1, got {self.ffn}")
        if self.max_seq < 1:
            problems.append(f"max_seq must be >= 1, got {self.max_seq}")
        if self.vocab < 5:
            problems.append(f"vocab must be >= 5 to hold the special tokens, got {self.vocab}")
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.rank < 0:
            problems.append(f"rank must be >= 0, got {self.rank}")
        elif self.variant == "bipft_b" and self.rank < 1:
            problems.append("variant bipft_b needs an estimator rank >= 1")
        elif self.rank > self.hidden > 0:
            problems.append(f"rank ({self.rank}) cannot exceed hidden ({self.hidden})")
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


# ---------------------------------------------------------------------------
# model state
# ---------------------------------------------------------------------------


@dataclass
class FeedForwardState:
    w1: DenseMatrix
    b1: DenseMatrix
    w2: DenseMatrix
    b2: DenseMatrix
    in_1: ElasticQuant | None  # None in the full-precision twin
    in_2: ElasticQuant | None


@dataclass
class BlockState:
    attn: AttentionLayerState
    ln_attn_gamma: DenseMatrix
    ln_attn_beta: DenseMatrix
    ffn: FeedForwardState
    ln_ffn_gamma: DenseMatrix
    ln_ffn_beta: DenseMatrix


@dataclass
class EmbeddingState:
    tok: DenseMatrix
    pos: DenseMatrix
    seg: DenseMatrix
    ln_gamma: DenseMatrix
    ln_beta: DenseMatrix


@dataclass
class HeadState:
    mlm_w: DenseMatrix
    mlm_b: DenseMatrix
    nsp_w: DenseMatrix
    nsp_b: DenseMatrix


@dataclass
class Model:
    config: ModelConfig
    emb: EmbeddingState
    blocks: list[BlockState]
    head: HeadState


def _declare(config: ModelConfig, source) -> Model:
    """The model's one declaration: every named tensor, taken from ``source`` in state order.

    ``source`` is a tensor source (see
    :func:`~bitformer.binattn.make_attention_layer`): :func:`build_model`
    passes one that draws and fills each tensor, :func:`load_model` one that
    reads each from a checkpoint.  Random draws come in the order tok, pos,
    seg, then per layer wq, wk, wv, wo, w1, w2, then mlm_w, nsp_w.
    """
    C, F = config.hidden, config.ffn

    def ones(name: str, width: int) -> DenseMatrix:
        return source.filled(name, (1, width), 1.0)

    def zeros(name: str, width: int) -> DenseMatrix:
        return source.filled(name, (1, width), 0.0)

    emb = EmbeddingState(
        tok=source.drawn("emb.tok", (config.vocab, C)),
        pos=source.drawn("emb.pos", (config.max_seq, C)),
        seg=source.drawn("emb.seg", (2, C)),
        ln_gamma=ones("emb.ln.gamma", C),
        ln_beta=zeros("emb.ln.beta", C),
    )

    binary = not config.full_precision
    rank = config.rank if config.variant == "bipft_b" and binary else 0
    blocks = []
    for i in range(config.layers):
        pre = f"layer{i}"
        blocks.append(
            BlockState(
                attn=make_attention_layer(
                    source, C, config.heads, rank=rank, seq_hint=config.max_seq, name=f"{pre}.attn", binary=binary
                ),
                ln_attn_gamma=ones(f"{pre}.ln_attn.gamma", C),
                ln_attn_beta=zeros(f"{pre}.ln_attn.beta", C),
                ffn=FeedForwardState(
                    w1=source.drawn(f"{pre}.ffn.w1", (F, C)),
                    b1=zeros(f"{pre}.ffn.b1", F),
                    w2=source.drawn(f"{pre}.ffn.w2", (C, F)),
                    b2=zeros(f"{pre}.ffn.b2", C),
                    in_1=ElasticQuant.declare(source, f"{pre}.ffn.in_1") if binary else None,
                    in_2=ElasticQuant.declare(source, f"{pre}.ffn.in_2") if binary else None,
                ),
                ln_ffn_gamma=ones(f"{pre}.ln_ffn.gamma", C),
                ln_ffn_beta=zeros(f"{pre}.ln_ffn.beta", C),
            )
        )

    head = HeadState(
        mlm_w=source.drawn("head.mlm.w", (config.vocab, C)),
        mlm_b=zeros("head.mlm.b", config.vocab),
        nsp_w=source.drawn("head.nsp.w", (2, C)),
        nsp_b=zeros("head.nsp.b", 2),
    )
    return Model(config=config, emb=emb, blocks=blocks, head=head)


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Deterministic init: normal(0, 0.02) weights/embeddings, unit norms.

    The tensors are those of the one declaration (``_declare``), drawn from
    the ``init`` substream of ``seed``.  Binarizer levels start at one
    (attention maps at 3/max_seq), thresholds at zero; estimator factors are
    then spectrally initialized (:func:`~bitformer.binattn.init_estimators`)
    from each layer's drawn attention weights when the variant calls for
    them.  The full-precision twin gets no binarizers or estimators: it
    never runs them.
    """
    config.validate()
    model = _declare(config, InitTensors(substream(seed, "init")))
    for blk in model.blocks:
        attn, est = blk.attn, blk.attn.estimators
        if est is not None:
            spectral = init_estimators(attn.wq.data, attn.wk.data, attn.wv.data, config.hidden, est.rank, config.heads)
            for f in fields(est):
                getattr(est, f.name).data[...] = getattr(spectral, f.name).data
    return model


# ---------------------------------------------------------------------------
# parameter traversal
# ---------------------------------------------------------------------------


def _state_nodes(node, out: list) -> list[DenseMatrix | ElasticQuant]:
    """Append every tensor and binarizer under ``node`` to ``out``, in dataclass field order.

    A binarizer comes before its level and threshold.
    """
    if isinstance(node, DenseMatrix):
        out.append(node)
    elif isinstance(node, list):
        for item in node:
            _state_nodes(item, out)
    elif is_dataclass(node):
        if isinstance(node, ElasticQuant):
            out.append(node)
        for f in fields(node):
            _state_nodes(getattr(node, f.name), out)
    return out


def named_parameters(model: Model) -> list[tuple[str, DenseMatrix]]:
    """Every trainable tensor under the name it was built with, in state order.

    This one list is what the optimizer trains and what checkpoints save and
    load.  The full-precision twin carries no binarizers or estimators;
    everything else is shared with the binary model, which keeps
    teacher/student checkpoints aligned.
    """
    nodes = _state_nodes(model, [])
    return [(p.name, p) for p in nodes if isinstance(p, DenseMatrix)]


def model_binarizers(model: Model) -> list[ElasticQuant]:
    """All elastic binarizers of a model (empty for a full-precision twin)."""
    return [q for q in _state_nodes(model, []) if isinstance(q, ElasticQuant)]


def _block_linears(blk: BlockState) -> tuple[DenseMatrix, ...]:
    """The six projection weights of a block, the ones the binary model binarizes."""
    return (blk.attn.wq, blk.attn.wk, blk.attn.wv, blk.attn.wo, blk.ffn.w1, blk.ffn.w2)


def parameter_inventory(model: Model) -> dict[str, int]:
    """Live parameter counts in the cost-accounting categories.

    Two-level tensors (embedding tables, block projection weights) count one
    bit per element plus one deployment scale float per row; every other
    body parameter is a plain float; the task heads are tallied separately.
    """
    cfg = model.config
    head_names = {"head.mlm.w", "head.mlm.b", "head.nsp.w", "head.nsp.b"}
    binary_tensors = {"emb.tok", "emb.pos", "emb.seg"}
    binary_tensors.update(w.name for blk in model.blocks for w in _block_linears(blk))

    binary_bits = 0
    scale_floats = 0
    fp_floats = 0
    head_floats = 0
    for name, p in named_parameters(model):
        size = p.data.size
        if name in head_names:
            head_floats += size
        elif name in binary_tensors and not cfg.full_precision:
            binary_bits += size
            scale_floats += p.rows
        else:
            fp_floats += size
    return {
        "binary_param_bits": binary_bits,
        "fp_param_floats": fp_floats + scale_floats,
        "head_param_floats": head_floats,
    }


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@dataclass
class ForwardResult:
    """Outputs of :func:`forward`: per-depth hidden states plus head logits."""

    hidden_states: list[DenseMatrix]
    mlm_logits: DenseMatrix
    nsp_logits: DenseMatrix


@dataclass
class PackedResult:
    """Packed-kernel outputs (plain arrays; evaluation only)."""

    hidden_states: list[Array]
    mlm_logits: Array
    nsp_logits: Array


def _check_sequence(cfg: ModelConfig, token_ids, segment_ids, pad_mask):
    """Validated ids and segments, and the key mask (None when nothing is padded)."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size < 1:
        raise ValueError("token ids must be a non-empty 1-D array")
    n = ids.size
    if n > cfg.max_seq:
        raise ValueError(f"sequence length {n} exceeds max_seq {cfg.max_seq}")
    if ids.min() < 0 or ids.max() >= cfg.vocab:
        raise ValueError("token id outside the vocabulary")
    segs = np.zeros(n, dtype=np.int64) if segment_ids is None else np.asarray(segment_ids, dtype=np.int64)
    if segs.shape != (n,) or segs.min() < 0 or segs.max() > 1:
        raise ValueError("segment ids must be 0/1 and match the sequence length")
    if pad_mask is None:
        return ids, segs, None
    real = np.asarray(pad_mask, dtype=bool)
    if real.shape != (n,):
        raise ValueError("pad mask must match the sequence length")
    return ids, segs, None if real.all() else real


def _encode(model: Model, ops: SimOps, token_ids, segment_ids, pad_mask) -> list[DenseMatrix]:
    """The encoder, once: embeddings then every block, in the op set ``ops``."""
    ids, segs, key_mask = _check_sequence(model.config, token_ids, segment_ids, pad_mask)
    tape = ops.tape
    tok = ops.embed(gather_rows(tape, model.emb.tok, ids))
    pos = ops.embed(gather_rows(tape, model.emb.pos, np.arange(ids.size)))
    seg = ops.embed(gather_rows(tape, model.emb.seg, segs))
    x = layer_norm(tape, add(tape, add(tape, tok, pos), seg), model.emb.ln_gamma, model.emb.ln_beta)

    hidden = [x]
    for blk in model.blocks:
        attn_out = ops.attention(x, blk.attn, key_mask)
        x = layer_norm(tape, add(tape, x, attn_out), blk.ln_attn_gamma, blk.ln_attn_beta)
        ffn = blk.ffn
        h = gelu(tape, ops.linear(x, ffn.w1, ffn.b1, ffn.in_1))
        f = ops.linear(h, ffn.w2, ffn.b2, ffn.in_2)
        x = layer_norm(tape, add(tape, x, f), blk.ln_ffn_gamma, blk.ln_ffn_beta)
        hidden.append(x)
    return hidden


def head(tape: Tape | None, h: DenseMatrix, w: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """A full-precision task head: ``h`` times the (out, in) weight ``w``, plus ``b``.

    It multiplies by a transposed copy of ``w`` rather than reading it in
    place as :class:`~bitformer.binattn.FullPrecisionOps` does.  The heads
    run in every binary model's training, and OpenBLAS rounds 1-row and
    few-row products differently when it reads the weight in place, so the
    copy keeps binary training bitwise what it was.
    """
    return add_bias(tape, matmul(tape, h, transpose(tape, w)), b)


def _heads(tape: Tape | None, model: Model, x: DenseMatrix) -> tuple[DenseMatrix, DenseMatrix]:
    """The two task heads: per-token vocabulary logits, pair order from row 0."""
    mlm = head(tape, x, model.head.mlm_w, model.head.mlm_b)
    nsp = head(tape, gather_rows(tape, x, np.array([0])), model.head.nsp_w, model.head.nsp_b)
    return mlm, nsp


def binarize_linears(model: Model, tape: Tape) -> dict[DenseMatrix, DenseMatrix]:
    """Every block linear weight binarized once (hard mode), valid until the weights change.

    Pass the result as ``weights`` to a taped :func:`forward` or
    :func:`encode`, which then read these nodes instead of binarizing their
    own.  Their binarizer backwards are recorded on ``tape``
    (:func:`~bitformer.pretrain.train_step`).  An untaped forward refuses
    them: it reads each weight's cached bits
    (:func:`~bitformer.quant.weight_bits`).  A full-precision model
    binarizes nothing.
    """
    if model.config.full_precision:
        return {}
    return {
        w: binarize_weight(tape, w, transposed=True)
        for blk in model.blocks
        for w in _block_linears(blk)
    }


def encode(
    model: Model,
    token_ids,
    segment_ids=None,
    pad_mask=None,
    tape: Tape | None = None,
    mode: QuantMode = "hard",
    weights: dict[DenseMatrix, DenseMatrix] | None = None,
) -> list[DenseMatrix]:
    """Per-depth hidden states of :func:`forward`, without computing the heads."""
    if weights and (tape is None or mode != "hard"):
        raise ValueError("prepared weights are for taped hard-mode forwards; the others binarize their own")
    if model.config.full_precision:
        ops = FullPrecisionOps(tape)
    elif tape is None and mode == "hard":
        ops = PackedOps()
    else:
        ops = SimOps(tape, mode, weights)
    return _encode(model, ops, token_ids, segment_ids, pad_mask)


def forward(
    model: Model,
    token_ids,
    segment_ids=None,
    pad_mask=None,
    tape: Tape | None = None,
    mode: QuantMode = "hard",
    weights: dict[DenseMatrix, DenseMatrix] | None = None,
) -> ForwardResult:
    """Forward over one sequence (rows = positions).

    ``pad_mask`` marks real positions with True; padded keys are masked out
    of every attention map and the padded rows' outputs are meaningless
    (losses must ignore them).  A taped forward is the float simulation that
    training differentiates; ``mode="relaxed"`` swaps the hard binarizers for
    their clip surrogates, for finite differencing.  An untaped hard forward
    of a binary model runs the packed kernels, as :func:`forward_packed`
    does.  The two routes agree to float accuracy, except that an activation
    exactly on a sign threshold (the all-zero-threshold init makes some) may
    round apart.  ``weights`` is a taped step's :func:`binarize_linears`.
    """
    hidden = encode(model, token_ids, segment_ids, pad_mask, tape, mode, weights)
    mlm, nsp = _heads(tape, model, hidden[-1])
    return ForwardResult(hidden_states=hidden, mlm_logits=mlm, nsp_logits=nsp)


def forward_packed(model: Model, token_ids, segment_ids=None, pad_mask=None) -> PackedResult:
    """Packed-kernel forward, bitwise the untaped hard :func:`forward`, with plain-array outputs."""
    if model.config.full_precision:
        raise ValueError("packed evaluation applies to binary models only")
    # _encode, not forward: the benchmark tracer times the two as separate routes
    hidden = _encode(model, PackedOps(), token_ids, segment_ids, pad_mask)
    mlm, nsp = _heads(None, model, hidden[-1])
    return PackedResult(hidden_states=[h.data for h in hidden], mlm_logits=mlm.data, nsp_logits=nsp.data)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Not a checkpoint, unsupported version, or structurally truncated."""


class CheckpointChecksumError(CheckpointError):
    """Container bytes do not hash to the stored checksum."""


class CheckpointMismatchError(CheckpointError):
    """Tensor inventory does not fit the target model."""


_MAGIC = b"BPFT"
_VERSION = 2


def save_checkpoint(path, model: Model) -> None:
    """Write config and all named tensors (float32) with a trailing checksum.

    Each record (the header, each tensor's name and dims, each tensor's
    float32 buffer) is written straight to a temporary file in the same
    directory while one standard-library worker
    (``ThreadPoolExecutor(max_workers=1)``) hashes it.  A tensor's name, dims
    and buffer make one task: a task costs about 10 µs of interpreter time,
    too much to spend on each small record.  No image of the whole file is built (a buffer lives until it is
    hashed).  The one worker runs the tasks in the order they were
    submitted, so the bytes are those of an in-line hash (the golden-bytes
    tests pin this); every task is awaited before the trailer is written, so
    a hashing error is raised here.  The overlap needs a second free core; on
    one core the digest costs what it always did.  The file is synced and
    replaces ``path`` in one rename, so a failed write leaves any earlier
    checkpoint at ``path`` intact and no temporary file behind.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: it loads logging

    cfg_bytes = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
    params = named_parameters(model)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest = hashlib.blake2b(digest_size=8)
    try:
        with (
            tmp.open("wb") as f,
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="checkpoint-digest") as worker,
        ):
            hashed = []

            def put(*records) -> None:
                def update() -> None:
                    for record in records:
                        digest.update(record)

                hashed.append(worker.submit(update))
                for record in records:
                    f.write(record)

            header = _MAGIC + struct.pack("<IQ", _VERSION, len(cfg_bytes)) + cfg_bytes
            put(header, struct.pack("<I", len(params)))
            for name, p in params:
                nb = name.encode("utf-8")
                shape = p.data.shape
                put(
                    struct.pack("<H", len(nb)) + nb + struct.pack(f"<B{len(shape)}Q", len(shape), *shape),
                    memoryview(np.ascontiguousarray(p.data, dtype="<f4")),
                )
            for update in hashed:
                update.result()
            f.write(digest.digest())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once the rename succeeded


class _Cursor:
    def __init__(self, raw: memoryview):
        self.raw = raw
        self.off = 0

    def take(self, count: int) -> memoryview:
        if self.off + count > len(self.raw):
            raise CheckpointFormatError(
                f"truncated checkpoint: wanted {count} bytes at offset {self.off}, "
                f"file has {len(self.raw)}"
            )
        out = self.raw[self.off : self.off + count]
        self.off += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, Array]]:
    """Read and verify a checkpoint; tensors come back as float64 arrays.

    The whole file is read once and held while it loads.  Length, magic and
    version are checked first, before any thread exists; then one
    standard-library worker (``ThreadPoolExecutor(max_workers=1)``) runs the
    one task that hashes the body while this thread parses it and casts the
    tensors.  The overlap needs a second free core; on one core the digest
    costs what it always did.  Errors keep their order: a bad magic or
    version, then a hashing error or a checksum mismatch (any parse failure
    of a file whose digest is wrong is reported as the mismatch), then a
    broken layout.
    """
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 4 + 8:
        raise CheckpointFormatError(f"file too short to be a checkpoint ({len(raw)} bytes)")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointFormatError(f"bad magic {raw[:4]!r}; not a checkpoint")
    (version,) = struct.unpack_from("<I", raw, len(_MAGIC))
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    from concurrent.futures import ThreadPoolExecutor  # as in save_checkpoint

    body = memoryview(raw)[:-8]
    parse_error: Exception | None = None
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="checkpoint-digest") as worker:
        hashed = worker.submit(lambda: hashlib.blake2b(body, digest_size=8).digest())
        try:
            parsed = _parse_body(body)
        except Exception as err:  # raised below once the checksum has been checked
            parse_error = err
        actual = hashed.result()
    stored = raw[-8:]
    if stored != actual:
        raise CheckpointChecksumError(
            f"checksum mismatch: stored {stored.hex()}, computed {actual.hex()}"
        )
    if parse_error is not None:
        raise parse_error
    return parsed


def _parse_body(body: memoryview) -> tuple[ModelConfig, dict[str, Array]]:
    cur = _Cursor(body)
    cur.take(len(_MAGIC) + 4)
    (cfg_len,) = cur.unpack("<Q")
    try:
        cfg_dict = json.loads(str(cur.take(cfg_len), "utf-8"))
        config = ModelConfig.from_dict(cfg_dict).validate()
    except (UnicodeDecodeError, json.JSONDecodeError, ConfigError) as err:
        raise CheckpointFormatError(f"unreadable config block: {err}") from err

    (n_tensors,) = cur.unpack("<I")
    tensors: dict[str, Array] = {}
    for _ in range(n_tensors):
        (name_len,) = cur.unpack("<H")
        try:
            name = str(cur.take(name_len), "utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointFormatError(f"tensor name is not UTF-8: {err}") from err
        (ndim,) = cur.unpack("<B")
        dims = [cur.unpack("<Q")[0] for _ in range(ndim)]
        count = math.prod(dims)  # exact: np.prod wraps in int64
        payload = cur.take(4 * count)
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor {name!r}")
        tensors[name] = arr
    if cur.off != len(cur.raw):
        raise CheckpointFormatError(f"{len(cur.raw) - cur.off} trailing bytes after tensors")
    return config, tensors


class _FileTensors:
    """Tensor source of a load: each declared tensor is the checkpoint's array of that name."""

    def __init__(self, tensors: dict[str, Array]):
        self.unused = tensors  # the file's tensors not declared so far
        self.missing: list[str] = []
        self.shape_error: str | None = None  # the first one, in declaration order

    def take(self, name: str, shape: tuple[int, int], value: float | None = None) -> DenseMatrix:
        arr = self.unused.pop(name, None)
        if arr is None:
            self.missing.append(name)
        elif arr.shape != shape:
            if self.shape_error is None:
                self.shape_error = f"tensor {name!r} has shape {arr.shape}, model expects {shape}"
        else:
            return DenseMatrix(arr, name=name)
        return DenseMatrix(np.empty((0, 0)), name=name)  # never used: load_model raises

    drawn = filled = take  # a loaded tensor's init does not matter


def load_model(path, **config_overrides) -> Model:
    """Build a model from a checkpoint, optionally overriding config fields.

    The model is the one declaration (``_declare``) with every tensor taken
    from the file: the float64 arrays :func:`load_checkpoint` returns become
    the parameters, and nothing is initialized (no random draw, no SVD, no
    throw-away model).  The file's tensor inventory must exactly cover the
    declaration (both directions checked, then shapes), so loading a plain
    checkpoint into an estimator variant fails naming the missing estimator
    tensors.
    """
    config, tensors = load_checkpoint(path)
    if config_overrides:
        config = ModelConfig.from_dict({**config.to_dict(), **config_overrides}).validate()
    source = _FileTensors(tensors)
    model = _declare(config, source)
    if source.missing or source.unused:
        raise CheckpointMismatchError(
            f"tensor inventory mismatch: missing {sorted(source.missing) or 'none'}, "
            f"unexpected {sorted(source.unused) or 'none'}"
        )
    if source.shape_error:
        raise CheckpointMismatchError(source.shape_error)
    return model
