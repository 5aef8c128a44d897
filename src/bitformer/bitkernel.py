"""Bit-packed sign matrices, XOR-popcount products, and cost accounting.

Two-level values are stored one bit per element in 64-bit words (bit 1 means
+1, bit 0 means -1; sign(0) = +1).  A {-1,+1} dot product of length ``n`` is
then ``n - 2 * popcount(a XOR b)``: XOR sets a bit exactly where the factors
disagree, so matches minus mismatches is the length minus twice the mismatch
count (the XNOR-Net form, arXiv 1603.05279).  Padding bits in the final word
of each row are zero in every packed operand, so they XOR to zero and no NOT
or length mask is needed: only the ``n`` declared columns ever contribute.

A {0,1}-by-{-1,+1} product (binarized attention map times binarized values)
runs the same ±1 accumulator loop: reading the selection bits as ±1 gives
``sel_pm = 2*sel - 1``, hence ``sel . v = (sel_pm . v + ones . v) >> 1``,
where ``ones . v`` costs one popcount per value row.  Both addends have the
parity of ``n``, so the sum is even and the arithmetic shift is exact.

The accumulator walks the words in word-major order: word ``w`` of a tile of
rows is XORed against word ``w`` of every output row at once, its popcounts
(at most 64) are summed three words at a time in ``uint8`` (at most 192),
and those sums go into integer counters just wide enough for ``n``
(``uint16`` below 2**16 columns, ``uint32`` below 2**32).  Every count is
exact; accumulators come back as int64.  A packed matrix may be a stack
``(..., rows, words)``, and the products broadcast over the leading axes,
so all heads of an attention layer are one call.  A scale (scalar,
per-output-column vector, or one per stack slice shaped ``(..., 1, 1)``)
is applied in a single rounding when reading out to float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Array, DenseMatrix

WORD_BITS = 64

# popcounts of up to three words (at most 192) sum in uint8 before widening
_WORD_GROUP = 3

# row tiles of about 64K elements keep a tile's XOR words (512 KB) in cache
_TILE_ELEMS = 1 << 16


@dataclass
class PackedBitMatrix:
    """Row-major sign bits: ``words[..., i, w]`` holds logical columns 64w .. 64w+63.

    ``words`` is one matrix ``(rows, words)`` or a stack ``(..., rows,
    words)``; ``rows`` and ``cols`` are its last two logical axes.  The
    padding bits past ``cols`` in each row's last word are zero; the kernels
    rely on it, and :func:`pack_signs` is what keeps it.
    """

    rows: int
    cols: int
    words: Array  # (..., rows, ceil(cols/64)) uint64, padding bits zero

    @property
    def words_per_row(self) -> int:
        return self.words.shape[-1]


def pack_bits(bits: Array) -> PackedBitMatrix:
    """Pack a boolean matrix, or a stack of them, along its last axis; bit 1 where True."""
    if bits.ndim < 2:
        raise ValueError(f"packing needs a matrix or a stack of them, got shape {bits.shape}")
    rows, cols = bits.shape[-2:]
    if cols == 0:
        raise ValueError("cannot pack zero columns")
    words = np.zeros(bits.shape[:-1] + (-(-cols // WORD_BITS),), dtype="<u8")
    words.view(np.uint8)[..., : -(-cols // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return PackedBitMatrix(rows=rows, cols=cols, words=words)


def pack_signs(x: Array) -> PackedBitMatrix:
    """Pack sign bits of a matrix or stack; bit 1 where x >= 0 (so sign(0) = +1)."""
    return pack_bits(np.asarray(x) >= 0)


def unpack_signs(p: PackedBitMatrix) -> Array:
    """Read packed bits back as float64 {-1,+1} values."""
    as_bytes = np.ascontiguousarray(p.words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, count=p.cols, bitorder="little")
    levels = np.multiply(bits, 2.0, dtype=np.float64)
    levels -= 1.0
    return levels


def _pm1_dots(a: PackedBitMatrix, b_t: PackedBitMatrix) -> Array:
    """The one ±1 accumulator loop: ``cols - 2 * popcount(a XOR b)``, word-major over row tiles.

    The leading axes of ``a`` and ``b_t`` broadcast.  A tile is a block of
    ``a`` rows of every stack slice against all ``b_t`` rows; ``b_t`` is read
    from a ``(words, rows)`` copy, so each word step reads one contiguous row.
    """
    if a.cols != b_t.cols:
        raise ValueError(f"width mismatch: {a.cols} vs {b_t.cols} logical columns")
    cols, per_row = a.cols, a.words_per_row
    a_words, b_words = a.words, b_t.words
    lead = a_words.shape[:-2]
    if b_words.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, b_words.shape[:-2])
        a_words = np.broadcast_to(a_words, lead + a_words.shape[-2:])
        b_words = np.broadcast_to(b_words, lead + b_words.shape[-2:])
    slices = math.prod(lead)
    a_words = a_words.reshape(slices, a.rows, per_row)
    b_major = np.ascontiguousarray(b_words.reshape(slices, b_t.rows, per_row).transpose(0, 2, 1))
    b_major = b_major[:, :, None, :]  # (slices, words, 1, rows): word w broadcasts over the tile's rows
    out = np.empty((slices, a.rows, b_t.rows), dtype=np.int64)
    tiles = max(1, -(-out.size // _TILE_ELEMS))
    step = max(1, -(-a.rows // tiles))  # even row tiles of at most about _TILE_ELEMS outputs
    shape = (slices, step, b_t.rows)
    diff, group = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint8)
    spare = np.empty(shape, dtype=np.uint8) if per_row > 1 else None
    # counts of at most cols mismatches; three words or fewer fit the uint8 group
    counts = group if per_row <= _WORD_GROUP else np.empty(shape, dtype=np.min_scalar_type(cols))
    # numpy copies a broadcast operand through its ufunc buffer, several
    # output rows per chunk, which makes the XOR about 3x slower; a buffer one
    # output row long keeps each row one vector loop.  Rows shorter than 64
    # and products within one buffer are as fast without the switch.
    small_buffer = b_t.rows >= 64 and out.size * per_row > np.getbufsize()
    bufsize = np.setbufsize(-(-b_t.rows // 16) * 16) if small_buffer else None
    try:
        for lo in range(0, a.rows, step):
            n = min(step, a.rows - lo)
            d, g, c = diff[:, :n], group[:, :n], counts[:, :n]
            for w in range(per_row):
                np.bitwise_xor(a_words[:, lo : lo + n, w, None], b_major[:, w], out=d)
                k = w % _WORD_GROUP
                if k == 0:
                    np.bitwise_count(d, out=g)
                else:
                    g += np.bitwise_count(d, out=spare[:, :n])
                if counts is not group and (k == _WORD_GROUP - 1 or w == per_row - 1):
                    if w < _WORD_GROUP:
                        c[...] = g
                    else:
                        c += g
            o = out[:, lo : lo + n]
            np.subtract(np.int64(cols), c, out=o)
            o -= c
    finally:
        if bufsize is not None:
            np.setbufsize(bufsize)
    return out.reshape(lead + (a.rows, b_t.rows))


def binary_accumulate(a: PackedBitMatrix, b_t: PackedBitMatrix) -> Array:
    """Exact int64 ±1 products: out[..., i, j] = row_i(a) . row_j(b_t), per stack slice."""
    return _pm1_dots(a, b_t)


def binary_gemm(a: PackedBitMatrix, b_t: PackedBitMatrix, scale: float | Array) -> DenseMatrix:
    """Scaled ±1 GEMM; b_t is stored transposed (its rows are output columns).

    ``scale`` is a scalar, a per-output-column vector of length b_t.rows, or
    one scale per stack slice shaped ``(..., 1, 1)``; the readout is a single
    float multiply of the exact integer accumulator.
    """
    return DenseMatrix(binary_accumulate(a, b_t) * scale)


def ternary_accumulate(sel: PackedBitMatrix, v_t: PackedBitMatrix) -> Array:
    """Exact int64 {0,1}x{-1,+1} products via the doubled-binary identity.

    ``sel`` bits read as selection (bit 1 keeps the value); reading the same
    bits as ±1 and adding the all-ones product halves back to the selection
    semantics with one arithmetic shift.  Stacks broadcast as in
    :func:`binary_accumulate`.
    """
    out = _pm1_dots(sel, v_t)
    ones_dot = 2 * np.bitwise_count(v_t.words).sum(axis=-1, dtype=np.int64) - sel.cols
    out += ones_dot[..., None, :]
    out >>= 1
    return out


def ternary_binary_gemm(sel: PackedBitMatrix, v_t: PackedBitMatrix, scale: float | Array) -> DenseMatrix:
    """Scaled selection GEMM: out[..., i, j] = scale * (sel_i . v_j), scale as in :func:`binary_gemm`."""
    return DenseMatrix(ternary_accumulate(sel, v_t) * scale)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------


@dataclass
class CostReport:
    """Compute and storage cost of one forward pass / one model.

    Conventions (kept fixed so the numbers are comparable across variants):

    * ``equiv_gflops = 2 * (fp_macs + binary_macs / 64) / 1e9`` — the usual
      operations count where one 1-bit multiply-accumulate is worth 1/64 of a
      float MAC and a MAC is two FLOPs.  Elementwise work (norms, softmax,
      GeLU, scale application, binarizer comparisons) is tallied separately in
      ``elementwise_flops`` at one unit per touched element and excluded from
      the headline, as is standard for this style of accounting.
    * sizes count 1-bit weights at one bit and every float parameter (biases,
      norms, per-row weight scales, binarizer levels/thresholds, estimator
      factors) at four bytes; ``size_mb`` uses decimal MB.  The token-prediction
      and pair-order heads are full-precision task heads reported separately
      (``head_param_floats``) and excluded from ``size_mb``.
    * the ternary value product is charged its doubled-kernel cost: one extra
      all-ones popcount row, ``seq * hidden`` binary MACs per layer.
    """

    seq_len: int
    binary_macs: int
    fp_macs: int
    elementwise_flops: int
    binary_param_bits: int
    fp_param_floats: int
    head_param_floats: int

    @property
    def equiv_gflops(self) -> float:
        return 2.0 * (self.fp_macs + self.binary_macs / 64.0) / 1e9

    @property
    def size_mb(self) -> float:
        return (self.binary_param_bits / 8.0 + 4.0 * self.fp_param_floats) / 1e6

    def metric_lines(self) -> list[str]:
        pairs = [
            ("seq_len", self.seq_len),
            ("binary_macs", self.binary_macs),
            ("fp_macs", self.fp_macs),
            ("elementwise_flops", self.elementwise_flops),
            ("equiv_gflops", f"{self.equiv_gflops:.6f}"),
            ("binary_param_bits", self.binary_param_bits),
            ("fp_param_floats", self.fp_param_floats),
            ("head_param_floats", self.head_param_floats),
            ("size_mb", f"{self.size_mb:.6f}"),
        ]
        return [f"{k}={v}" for k, v in pairs]


def equivalent_flops(config, seq_len: int | None = None) -> CostReport:
    """Cost report for one forward pass of ``seq_len`` tokens under ``config``.

    ``config`` needs attributes layers/hidden/heads/ffn/max_seq/vocab,
    variant ("bipft_b" enables estimator costs), rank, and full_precision.
    ``seq_len`` defaults to min(max_seq, 128).

    Per-layer MAC counts (n = seq_len, C = hidden, F = ffn, H = heads, r = rank):

    ==================  =====================  =========================
    site                MACs                   lane
    ==================  =====================  =========================
    q/k/v/o linears     4 n C^2                binary (fp when fp twin)
    ffn linears         2 n C F                binary (fp when fp twin)
    score product       n^2 C                  binary
    value product       n^2 C (+ n C ternary)  binary
    estimators          6 n C r + (3+H) n^2 r  fp (variant bipft_b only)
    ==================  =====================  =========================

    Elementwise units: one per touched element — embeddings 6 n C (3 scale
    applications, 2 sums, 1 norm); per layer 18 n C + 3 n F + 3 n^2 H for the
    binary lanes (norms, input/output binarizers, readout scales, residual
    adds) and 4 n C + n F + 2 n^2 H for the full-precision twin.
    """
    L, C, H, F = config.layers, config.hidden, config.heads, config.ffn
    vocab, max_seq = config.vocab, config.max_seq
    variant, rank, full_precision = config.variant, config.rank, config.full_precision
    n = seq_len if seq_len is not None else min(max_seq, 128)
    if n <= 0 or n > max_seq:
        raise ValueError(f"seq_len {n} outside (0, {max_seq}]")

    linear_macs = 4 * n * C * C + 2 * n * C * F
    attn_macs = 2 * n * n * C

    if full_precision:
        binary_macs = 0
        fp_macs = L * (linear_macs + attn_macs)
        elementwise = 3 * n * C + L * (4 * n * C + n * F + 2 * n * n * H)
    else:
        binary_macs = L * (linear_macs + attn_macs + n * C)
        fp_macs = 0
        if variant == "bipft_b" and rank > 0:
            fp_macs = L * (6 * n * C * rank + (3 + H) * n * n * rank)
        elementwise = 6 * n * C + L * (18 * n * C + 3 * n * F + 3 * n * n * H)

    embed_rows = vocab + max_seq + 2
    bias_floats = L * (4 * C + F + C)
    norm_floats = 2 * C + L * 4 * C
    if full_precision:
        binary_bits = 0
        fp_floats = embed_rows * C + L * (4 * C * C + 2 * C * F) + bias_floats + norm_floats
    else:
        binary_bits = embed_rows * C + L * (4 * C * C + 2 * C * F)
        scale_floats = embed_rows + L * (4 * C + F + C)
        binarizer_floats = L * (12 + 8 * H)
        fp_floats = bias_floats + norm_floats + scale_floats + binarizer_floats
        if variant == "bipft_b" and rank > 0:
            fp_floats += L * 6 * C * rank

    head_floats = C * vocab + vocab + 2 * C + 2

    return CostReport(
        seq_len=n,
        binary_macs=binary_macs,
        fp_macs=fp_macs,
        elementwise_flops=elementwise,
        binary_param_bits=binary_bits,
        fp_param_floats=fp_floats,
        head_param_floats=head_floats,
    )
