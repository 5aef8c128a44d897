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

Each row's word popcounts are summed by a float32 product with a ones vector.
Every partial sum is an integer no larger than ``n``, so the sum is exact
while ``n < 2**24``; wider operands are refused.  Accumulators are returned
as exact int64 counts; a scale (scalar or per-output-column vector) is
applied in a single rounding when reading out to float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Array, DenseMatrix

WORD_BITS = 64

# float32 holds every integer below 2**24 exactly: the word-sum limit on columns
_EXACT_COLS = 1 << 24

# XOR tiles of about 64K words (512 KB) stay in cache
_TILE_WORDS = 1 << 16


@dataclass
class PackedBitMatrix:
    """Row-major sign bits: ``words[i, w]`` holds logical columns 64w .. 64w+63.

    The padding bits past ``cols`` in each row's last word are zero; the
    kernels rely on it, and :func:`pack_signs` is what keeps it.
    """

    rows: int
    cols: int
    words: Array  # (rows, ceil(cols/64)) uint64, padding bits zero

    @property
    def words_per_row(self) -> int:
        return self.words.shape[1]


def pack_bits(bits: Array) -> PackedBitMatrix:
    """Pack a 2-D boolean array along its rows; bit 1 where True."""
    if bits.ndim != 2:
        raise ValueError(f"packing needs a 2-D array, got shape {bits.shape}")
    rows, cols = bits.shape
    if cols == 0:
        raise ValueError("cannot pack zero columns")
    words = np.zeros((rows, -(-cols // WORD_BITS)), dtype="<u8")
    words.view(np.uint8)[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return PackedBitMatrix(rows=rows, cols=cols, words=words)


def pack_signs(x: Array) -> PackedBitMatrix:
    """Pack sign bits of a 2-D array; bit 1 where x >= 0 (so sign(0) = +1)."""
    return pack_bits(np.asarray(x) >= 0)


def unpack_signs(p: PackedBitMatrix) -> Array:
    """Read packed bits back as float64 {-1,+1} values."""
    as_bytes = np.ascontiguousarray(p.words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : p.cols]
    return bits.astype(np.float64) * 2.0 - 1.0


def _pm1_dots(a: PackedBitMatrix, b_t: PackedBitMatrix) -> Array:
    """The one ±1 accumulator loop: ``cols - 2 * popcount(a XOR b)`` over cache-sized tiles.

    A tile is a block of ``a`` rows against a block of ``b_t`` rows (all of
    them unless one ``a`` row against all would exceed a tile).
    """
    if a.cols != b_t.cols:
        raise ValueError(f"width mismatch: {a.cols} vs {b_t.cols} logical columns")
    if a.cols >= _EXACT_COLS:
        raise ValueError(f"{a.cols} columns: the float32 word sum is exact only below 2**24")
    per_row = a.words_per_row
    ones = np.ones(per_row, dtype=np.float32)
    out = np.empty((a.rows, b_t.rows), dtype=np.int64)
    col_step = max(1, _TILE_WORDS // per_row)
    row_step = max(1, _TILE_WORDS // (per_row * max(1, min(b_t.rows, col_step))))
    for lo in range(0, a.rows, row_step):
        for col in range(0, b_t.rows, col_step):
            diff = a.words[lo : lo + row_step, None, :] ^ b_t.words[None, col : col + col_step, :]
            mismatches = np.bitwise_count(diff).astype(np.float32) @ ones
            out[lo : lo + row_step, col : col + col_step] = a.cols - 2 * mismatches
    return out


def binary_accumulate(a: PackedBitMatrix, b_t: PackedBitMatrix) -> Array:
    """Exact int64 ±1 products: out[i, j] = row_i(a) . row_j(b_t)."""
    return _pm1_dots(a, b_t)


def binary_gemm(a: PackedBitMatrix, b_t: PackedBitMatrix, scale: float | Array) -> DenseMatrix:
    """Scaled ±1 GEMM; b_t is stored transposed (its rows are output columns).

    ``scale`` is a scalar or a per-output-column vector of length b_t.rows;
    the readout is a single float multiply of the exact integer accumulator.
    """
    return DenseMatrix(binary_accumulate(a, b_t) * scale)


def ternary_accumulate(sel: PackedBitMatrix, v_t: PackedBitMatrix) -> Array:
    """Exact int64 {0,1}x{-1,+1} products via the doubled-binary identity.

    ``sel`` bits read as selection (bit 1 keeps the value); reading the same
    bits as ±1 and adding the all-ones product halves back to the selection
    semantics with one arithmetic shift.
    """
    pm_dot = _pm1_dots(sel, v_t)
    ones_dot = 2 * np.bitwise_count(v_t.words).sum(axis=1, dtype=np.int64) - sel.cols
    return (pm_dot + ones_dot[None, :]) >> 1


def ternary_binary_gemm(sel: PackedBitMatrix, v_t: PackedBitMatrix, scale: float | Array) -> DenseMatrix:
    """Scaled selection GEMM: out[i, j] = scale_j * (sel_i . v_j)."""
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
