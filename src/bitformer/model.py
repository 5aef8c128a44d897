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

* :func:`forward` — float simulation (:class:`~bitformer.binattn.SimOps`);
  records onto a tape for training, and its "relaxed" mode runs the
  binarizer surrogates for finite-difference checks.  A full-precision
  model runs :class:`~bitformer.binattn.FullPrecisionOps` instead.
* :func:`forward_packed` — bit-packed kernels
  (:class:`~bitformer.binattn.PackedOps`), evaluation only; agrees with
  :func:`forward` to float accuracy.
* :func:`encode` — the hidden states of :func:`forward` without the heads.

Every trainable tensor is named once, where ``build_model`` creates it;
:func:`named_parameters` walks the state dataclasses in field order and
returns those names, and that one list is what the optimizer trains and what
checkpoints save and load.

Checkpoints are a single little-endian binary container: magic, version,
config JSON, named float32 tensors, and a trailing 64-bit FNV-1a checksum
over everything before it.  Writes are atomic (temporary file, then rename).
Loads verify magic, version, and checksum before parsing, and loading into a
model checks the tensor inventory both ways.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .binattn import (
    AttentionLayerState,
    FullPrecisionOps,
    PackedOps,
    SimOps,
    make_attention_layer,
)
from .numerics import (
    Array,
    DenseMatrix,
    Tape,
    add,
    gather_rows,
    gelu,
    layer_norm,
)
from .quant import ElasticQuant, QuantMode
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
    "build_model",
    "encode",
    "forward",
    "forward_packed",
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
        known = {f.name for f in cls.__dataclass_fields__ and fields(cls)}
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
    in_1: ElasticQuant
    in_2: ElasticQuant


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


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    """Deterministic init: normal(0, 0.02) weights/embeddings, unit norms.

    Binarizer levels start at one (attention maps at 3/max_seq), thresholds
    at zero; estimator factors are spectrally initialized from the drawn
    attention weights when the variant calls for them.  The full-precision
    twin gets none: it never runs them.
    """
    config.validate()
    rng = substream(seed, "init")
    C, F = config.hidden, config.ffn

    def w(shape, name) -> DenseMatrix:
        return DenseMatrix(rng.normal(0.0, 0.02, size=shape), name=name)

    def zeros(shape, name) -> DenseMatrix:
        return DenseMatrix(np.zeros(shape), name=name)

    def ones(shape, name) -> DenseMatrix:
        return DenseMatrix(np.ones(shape), name=name)

    emb = EmbeddingState(
        tok=w((config.vocab, C), "emb.tok"),
        pos=w((config.max_seq, C), "emb.pos"),
        seg=w((2, C), "emb.seg"),
        ln_gamma=ones((1, C), "emb.ln.gamma"),
        ln_beta=zeros((1, C), "emb.ln.beta"),
    )

    rank = config.rank if config.variant == "bipft_b" and not config.full_precision else 0
    blocks = []
    for i in range(config.layers):
        pre = f"layer{i}"
        attn = make_attention_layer(
            rng, C, config.heads, rank=rank, seq_hint=config.max_seq, name=f"{pre}.attn"
        )
        ffn = FeedForwardState(
            w1=w((F, C), f"{pre}.ffn.w1"),
            b1=zeros((1, F), f"{pre}.ffn.b1"),
            w2=w((C, F), f"{pre}.ffn.w2"),
            b2=zeros((1, C), f"{pre}.ffn.b2"),
            in_1=ElasticQuant.create(name=f"{pre}.ffn.in_1"),
            in_2=ElasticQuant.create(name=f"{pre}.ffn.in_2"),
        )
        blocks.append(
            BlockState(
                attn=attn,
                ln_attn_gamma=ones((1, C), f"{pre}.ln_attn.gamma"),
                ln_attn_beta=zeros((1, C), f"{pre}.ln_attn.beta"),
                ffn=ffn,
                ln_ffn_gamma=ones((1, C), f"{pre}.ln_ffn.gamma"),
                ln_ffn_beta=zeros((1, C), f"{pre}.ln_ffn.beta"),
            )
        )

    head = HeadState(
        mlm_w=w((config.vocab, C), "head.mlm.w"),
        mlm_b=zeros((1, config.vocab), "head.mlm.b"),
        nsp_w=w((2, C), "head.nsp.w"),
        nsp_b=zeros((1, 2), "head.nsp.b"),
    )
    return Model(config=config, emb=emb, blocks=blocks, head=head)


# ---------------------------------------------------------------------------
# parameter traversal
# ---------------------------------------------------------------------------


def _state_nodes(node, binary: bool, out: list) -> list[DenseMatrix | ElasticQuant]:
    """Append every tensor and binarizer under ``node`` to ``out``, in dataclass field order.

    A binarizer comes before its level and threshold.  The full-precision
    twin builds binarizers but never runs them, so with ``binary`` False
    they are skipped here, the one place that decides it.
    """
    if isinstance(node, DenseMatrix):
        out.append(node)
    elif isinstance(node, list):
        for item in node:
            _state_nodes(item, binary, out)
    elif is_dataclass(node) and (binary or not isinstance(node, ElasticQuant)):
        if isinstance(node, ElasticQuant):
            out.append(node)
        for f in fields(node):
            _state_nodes(getattr(node, f.name), binary, out)
    return out


def named_parameters(model: Model) -> list[tuple[str, DenseMatrix]]:
    """Every trainable tensor under the name it was built with, in state order.

    This one list is what the optimizer trains and what checkpoints save and
    load.  The full-precision twin carries no binarizers or estimators;
    everything else is shared with the binary model, which keeps
    teacher/student checkpoints aligned.
    """
    nodes = _state_nodes(model, not model.config.full_precision, [])
    return [(p.name, p) for p in nodes if isinstance(p, DenseMatrix)]


def model_binarizers(model: Model) -> list[ElasticQuant]:
    """All elastic binarizers of a model (empty for a full-precision twin)."""
    nodes = _state_nodes(model, not model.config.full_precision, [])
    return [q for q in nodes if isinstance(q, ElasticQuant)]


def parameter_inventory(model: Model) -> dict[str, int]:
    """Live parameter counts in the cost-accounting categories.

    Two-level tensors (embedding tables, block projection weights) count one
    bit per element plus one deployment scale float per row; every other
    body parameter is a plain float; the task heads are tallied separately.
    """
    cfg = model.config
    head_names = {"head.mlm.w", "head.mlm.b", "head.nsp.w", "head.nsp.b"}
    binary_tensors = {"emb.tok", "emb.pos", "emb.seg"}
    for i in range(cfg.layers):
        for leaf in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
            binary_tensors.add(f"layer{i}.{leaf}")

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
    """Float-simulation outputs: per-depth hidden states plus head logits."""

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


def _heads(tape: Tape | None, model: Model, x: DenseMatrix) -> tuple[DenseMatrix, DenseMatrix]:
    """Full-precision task heads: per-token vocabulary logits, pair order from row 0."""
    affine = FullPrecisionOps(tape).linear
    mlm = affine(x, model.head.mlm_w, model.head.mlm_b)
    nsp = affine(gather_rows(tape, x, np.array([0])), model.head.nsp_w, model.head.nsp_b)
    return mlm, nsp


def encode(
    model: Model,
    token_ids,
    segment_ids=None,
    pad_mask=None,
    tape: Tape | None = None,
    mode: QuantMode = "hard",
) -> list[DenseMatrix]:
    """Per-depth hidden states of :func:`forward`, without computing the heads."""
    ops = FullPrecisionOps(tape) if model.config.full_precision else SimOps(tape, mode)
    return _encode(model, ops, token_ids, segment_ids, pad_mask)


def forward(
    model: Model,
    token_ids,
    segment_ids=None,
    pad_mask=None,
    tape: Tape | None = None,
    mode: QuantMode = "hard",
) -> ForwardResult:
    """Float-simulated forward over one sequence (rows = positions).

    ``pad_mask`` marks real positions with True; padded keys are masked out
    of every attention map and the padded rows' outputs are meaningless
    (losses must ignore them).  ``mode="relaxed"`` replaces the hard
    binarizer forwards with their clip surrogates for finite differencing.
    """
    hidden = encode(model, token_ids, segment_ids, pad_mask, tape, mode)
    mlm, nsp = _heads(tape, model, hidden[-1])
    return ForwardResult(hidden_states=hidden, mlm_logits=mlm, nsp_logits=nsp)


def forward_packed(model: Model, token_ids, segment_ids=None, pad_mask=None) -> PackedResult:
    """Packed-kernel forward: binary products run on bit-packed words.

    Everything but those products runs the float ops of :func:`forward`, so
    the two routes agree to float accuracy on logits for generic binarizer
    parameters.
    """
    if model.config.full_precision:
        raise ValueError("packed evaluation applies to binary models only")
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
_VERSION = 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


def save_checkpoint(path, model: Model) -> None:
    """Write config and all named tensors (float32) with a trailing checksum.

    The bytes go to a temporary file in the same directory, are synced, and
    replace ``path`` in one rename, so a failed write leaves any earlier
    checkpoint at ``path`` intact.
    """
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<I", _VERSION)
    cfg_bytes = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
    buf += struct.pack("<Q", len(cfg_bytes))
    buf += cfg_bytes
    params = named_parameters(model)
    buf += struct.pack("<I", len(params))
    for name, p in params:
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb))
        buf += nb
        buf += struct.pack("<B", p.data.ndim)
        for dim in p.data.shape:
            buf += struct.pack("<Q", dim)
        buf += np.ascontiguousarray(p.data, dtype="<f4").tobytes()
    buf += struct.pack("<Q", _fnv1a64(bytes(buf)))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(bytes(buf))
        with tmp.open("rb") as f:
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once the rename succeeded


class _Cursor:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.off = 0

    def take(self, count: int) -> bytes:
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
    """Read and verify a checkpoint; tensors come back as float64 arrays."""
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 4 + 8:
        raise CheckpointFormatError(f"file too short to be a checkpoint ({len(raw)} bytes)")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointFormatError(f"bad magic {raw[:4]!r}; not a checkpoint")
    (version,) = struct.unpack_from("<I", raw, len(_MAGIC))
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    (stored,) = struct.unpack_from("<Q", raw, len(raw) - 8)
    actual = _fnv1a64(raw[:-8])
    if stored != actual:
        raise CheckpointChecksumError(
            f"checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )

    cur = _Cursor(raw[:-8])
    cur.take(len(_MAGIC) + 4)
    (cfg_len,) = cur.unpack("<Q")
    try:
        cfg_dict = json.loads(cur.take(cfg_len).decode("utf-8"))
        config = ModelConfig.from_dict(cfg_dict).validate()
    except (UnicodeDecodeError, json.JSONDecodeError, ConfigError) as err:
        raise CheckpointFormatError(f"unreadable config block: {err}") from err

    (n_tensors,) = cur.unpack("<I")
    tensors: dict[str, Array] = {}
    for _ in range(n_tensors):
        (name_len,) = cur.unpack("<H")
        name = cur.take(name_len).decode("utf-8")
        (ndim,) = cur.unpack("<B")
        dims = [cur.unpack("<Q")[0] for _ in range(ndim)]
        count = int(np.prod(dims)) if dims else 1
        payload = cur.take(4 * count)
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor {name!r}")
        tensors[name] = arr
    if cur.off != len(cur.raw):
        raise CheckpointFormatError(f"{len(cur.raw) - cur.off} trailing bytes after tensors")
    return config, tensors


def load_model(path, **config_overrides) -> Model:
    """Build a model from a checkpoint, optionally overriding config fields.

    The checkpoint's tensor inventory must exactly cover the target model's
    named parameters (both directions checked, shapes included), so loading
    a plain checkpoint into an estimator variant fails naming the missing
    estimator tensors.
    """
    config, tensors = load_checkpoint(path)
    if config_overrides:
        config = ModelConfig.from_dict({**config.to_dict(), **config_overrides}).validate()
    model = build_model(config, seed=0)
    wanted = named_parameters(model)
    wanted_names = [n for n, _ in wanted]
    missing = sorted(set(wanted_names) - set(tensors))
    extra = sorted(set(tensors) - set(wanted_names))
    if missing or extra:
        raise CheckpointMismatchError(
            f"tensor inventory mismatch: missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    for name, p in wanted:
        arr = tensors[name]
        if arr.shape != p.data.shape:
            raise CheckpointMismatchError(
                f"tensor {name!r} has shape {arr.shape}, model expects {p.data.shape}"
            )
        p.data[...] = arr
    return model
