"""Two-level quantizers with straight-through surrogate gradients.

Three binarizers cover the whole model:

* ``binarize_weight`` — per-output-row: center on the row mean, take signs
  (sign(0) = +1), scale by the row's mean absolute value.  Each output row
  holds at most the two values ±scale.  A taped call is one tape node; its
  backward recomputes the centered values and scales from the weight.  A
  node read by many tapes sums their gradients in its ``.grad``, and
  replaying the tape that recorded it runs the binarizer backward once on
  that sum (see :func:`bitformer.pretrain.train_step`).
* ``binarize_activation_pm1`` — elastic two-level activations
  ``alpha * sign(a - beta)`` with a trainable level and threshold.
* ``binarize_attention_01`` — post-softmax maps quantized to {0, alpha} by
  rounding ``clip((att - beta)/alpha, 0, 1)`` to the nearest integer, halves
  rounding up.

Both activation binarizers also take a stack of matrices (an attention
layer's heads) with one binarizer per slice.

Evaluation forwards, which run the packed kernels, read a weight's hard
binarization from :func:`weight_bits`, which keeps it on the weight as
packed sign bits and row scales, computed once per weight value.  The cache
freezes the weight: its ``data`` becomes read-only, so an in-place write
raises instead of leaving stale bits, and rebinding ``data`` (or a copy of
the model) recomputes it.  Training never reads the cache; it binarizes
through :func:`binarize_weight`.  One row-block pass defines the weight
binarizer for both.

Hard forwards are step functions, so every binarizer declares a clip
surrogate and its backward closure is the exact almost-everywhere gradient of
that surrogate; gradient tests difference the surrogate, not the step.  The
±1 level is no exception: the hard forward is linear in ``alpha`` with slope
``sign(a - beta)``, but the level's gradient is the surrogate's
``clip(a - beta, -1, 1)``, which equals that sign only where the window has
saturated.  ``mode="relaxed"`` runs the surrogate as the forward — that is
what whole-network finite differencing uses — while the backward closures are
identical in both modes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bitkernel import PackedBitMatrix, pack_bits
from .numerics import Array, DenseMatrix, Tape, record_op

QuantMode = Literal["hard", "relaxed"]

# smallest level the ±1 binarizer will apply; keeps alpha strictly positive
ALPHA_FLOOR = 1e-6

# row blocks of about 64K elements keep a block's float64 temporaries in cache
_BLOCK_ELEMS = 1 << 16


class QuantError(ValueError):
    """Invalid quantizer parameter (e.g. non-positive attention level)."""


@dataclass
class ElasticQuant:
    """Trainable (level, threshold) pair for one activation binarizer."""

    alpha: DenseMatrix
    beta: DenseMatrix
    name: str = ""

    @classmethod
    def create(cls, alpha: float = 1.0, beta: float = 0.0, name: str = "") -> "ElasticQuant":
        return cls(
            alpha=DenseMatrix([[float(alpha)]], name=f"{name}.alpha"),
            beta=DenseMatrix([[float(beta)]], name=f"{name}.beta"),
            name=name,
        )

    @classmethod
    def declare(cls, source, name: str, alpha: float = 1.0) -> "ElasticQuant":
        """A model's binarizer: level and threshold (init ``alpha`` and 0) from a tensor source."""
        return cls(
            alpha=source.filled(f"{name}.alpha", (1, 1), float(alpha)),
            beta=source.filled(f"{name}.beta", (1, 1), 0.0),
            name=name,
        )


def _check_mode(mode: str) -> None:
    if mode not in ("hard", "relaxed"):
        raise ValueError(f"unknown quantizer mode {mode!r}")


def _sign_pm1(x: Array) -> Array:
    """Two-level sign with sign(0) = +1 (and -1 for NaN)."""
    out = np.greater_equal(x, 0.0).astype(np.float64)
    out *= 2.0
    out -= 1.0
    return out


def weight_row_scales(w: Array) -> Array:
    """Per-row levels of the weight binarizer: mean absolute value."""
    return np.abs(w).mean(axis=1)


def _weight_rows(data: Array) -> Iterator[tuple[slice, Array, Array]]:
    """The weight binarizer's definition, over row blocks of about ``_BLOCK_ELEMS`` elements.

    Yields each block's rows, its centered values ``row - mean(row)`` and
    its levels ``mean |row|`` as a column.  Every row is independent, so one
    block's float64 temporaries at a time stay in cache.
    """
    step = max(1, _BLOCK_ELEMS // max(1, data.shape[1]))
    for lo in range(0, data.shape[0], step):
        rows = slice(lo, lo + step)
        block = data[rows]
        scales = weight_row_scales(block)[:, None]  # first: its |block| temporary is freed here
        yield rows, block - block.mean(axis=1, keepdims=True), scales


def binarize_weight(
    tape: Tape | None, w: DenseMatrix, mode: QuantMode = "hard", transposed: bool = False
) -> DenseMatrix:
    """Row-wise two-level weights: (mean |row|) * sign(row - mean(row)).

    ``mode="relaxed"`` gives the surrogate ``(mean |row|) * hardtanh(row -
    mean(row))`` instead.  ``transposed`` returns the (in, out) matrix,
    C-contiguous, as a linear layer multiplies by it.  A taped call records
    one node whose backward recomputes what it needs from ``w.data``.
    """
    _check_mode(mode)
    data = w.data
    # a transposed value is written straight into its (in, out) row-major buffer
    value = np.empty(data.shape[::-1]).T if transposed else np.empty(data.shape)
    for rows, centered, scales in _weight_rows(data):
        levels = _sign_pm1(centered) if mode == "hard" else np.clip(centered, -1.0, 1.0)
        levels *= scales
        value[rows] = levels

    def bwd(g):
        _weight_backward(w, g, transposed)  # w itself: its data and cell are what this reads

    return record_op(tape, "binarize_weight", DenseMatrix(value.T if transposed else value), bwd)


def _weight_backward(w: DenseMatrix, g: Array, transposed: bool) -> None:
    """Add to ``w.grad`` the surrogate gradient for ``g``, a gradient of ``binarize_weight``'s value.

    This is the exact gradient of the declared surrogate: the sign path
    applies the unit window to centered values (and subtracts its row mean,
    since the center depends on every entry), the scale path contributes
    ``sign(w) / cols`` weighted by the clipped centered values.  It
    recomputes the centered values and scales from ``w.data``, so it must
    run before the optimizer changes ``w``.
    """
    grad = w.ensure_grad()
    for rows, centered, scales in _weight_rows(w.data):
        # a private (out, in) row-major copy: the row reductions below keep
        # their summation order, and the copy is scratch space
        g_rows = np.ascontiguousarray(g.T[rows]) if transposed else g[rows].copy()
        dw = np.multiply(scales, np.abs(centered) <= 1.0)
        dw *= g_rows  # through the sign
        dw -= dw.mean(axis=1, keepdims=True)
        g_rows *= np.clip(centered, -1.0, 1.0)
        through_scale = _sign_pm1(w.data[rows])
        through_scale *= g_rows.sum(axis=1, keepdims=True) / w.cols
        dw += through_scale
        grad[rows] += dw


@dataclass
class WeightBits:
    """A weight's hard binarization as bits: what :func:`binarize_weight` gives as floats.

    ``bits`` are the signs of ``w - rowmean(w)`` in the (out, in) layout,
    packed along ``in``, as the packed kernels read them; row ``r`` of the
    two-level matrix is ``scales[r]`` times its ±1 signs.  ``source`` is the
    read-only array they were computed from.
    """

    source: Array
    bits: PackedBitMatrix
    scales: Array  # (out,) mean |row|


def weight_bits(w: DenseMatrix) -> WeightBits:
    """The hard binarization of ``w``, computed once per weight value and kept in ``w.cache``.

    Caching makes ``w.data`` read-only.  The kept value is used only while
    ``w.data`` is the very array it was computed from and that array is
    still read-only: :meth:`~bitformer.numerics.AdamW.step` makes its
    parameters writable again before it updates them, and rebinding
    ``w.data``, ``copy.deepcopy`` and :func:`~bitformer.model.load_model`
    all give a new array, so the next call recomputes.  Any other in-place
    write to ``w.data`` raises.  The one hole: a write through a view of
    the array taken before it was frozen (or through the array that
    ``w.data`` is itself a view of) still succeeds, and leaves the kept
    bits stale.
    """
    entry = w.cache
    data = w.data
    if entry is not None and entry.source is data and not data.flags.writeable:
        return entry
    signs = np.empty(data.shape, dtype=bool)
    scales = np.empty(data.shape[0])
    for rows, centered, block_scales in _weight_rows(data):
        np.greater_equal(centered, 0.0, out=signs[rows])
        scales[rows] = block_scales[:, 0]
    data.flags.writeable = False
    w.cache = WeightBits(data, pack_bits(signs), scales)
    return w.cache


def _slice_params(
    x: Array, q: ElasticQuant | Sequence[ElasticQuant]
) -> tuple[list[ElasticQuant], Array, Array]:
    """One binarizer per slice of ``x`` (a 2-D ``x`` is one slice), with its raw level and threshold.

    The levels and thresholds come back shaped (slices, 1, 1) to broadcast
    over a stack, and as 0-d arrays (numpy's scalar fast path) for a matrix.
    """
    qs = [q] if isinstance(q, ElasticQuant) else list(q)
    slices = x.shape[0] if x.ndim == 3 else 1
    if len(qs) != slices:
        raise ValueError(f"{slices} slice(s) need as many binarizers, got {len(qs)}")
    shape = (slices, 1, 1) if x.ndim == 3 else ()
    alpha = np.array([p.alpha.data[0, 0] for p in qs]).reshape(shape)
    beta = np.array([p.beta.data[0, 0] for p in qs]).reshape(shape)
    return qs, alpha, beta


def _slice_sums(x: Array, slices: int) -> Array:
    """The sum of each slice of ``x``, each taken over its elements in memory order."""
    return x.reshape(slices, -1).sum(axis=1)


def _add_param_grads(qs: list[ElasticQuant], d_alpha: Array, d_beta: Array) -> None:
    """Add each slice's level and threshold gradient to that slice's binarizer."""
    for p, da, db in zip(qs, d_alpha, d_beta):
        p.alpha.ensure_grad()[0, 0] += da
        p.beta.ensure_grad()[0, 0] += db


def binarize_activation_pm1(
    tape: Tape | None,
    a: DenseMatrix,
    q: ElasticQuant | Sequence[ElasticQuant],
    mode: QuantMode = "hard",
) -> DenseMatrix:
    """Elastic two-level activations: alpha * sign(a - beta), alpha floored at 1e-6.

    ``a`` is a matrix with one binarizer ``q``, or a stack with one
    binarizer per slice (an attention layer's heads), each slice taking its
    own level and threshold and passing its gradient to them alone.
    Backward is the exact gradient of the surrogate
    ``alpha * hardtanh(a - beta)``: input and threshold take the hardtanh
    window on (a - beta); the level takes the clipped shifted values, which
    coincide with sign(a - beta) wherever the window has saturated.  The
    level gradient is gated off while the floor is active.  A taped call
    keeps no copy of ``a - beta``: the backward recomputes it from
    ``a.data`` and the forward's threshold, so ``a`` must not change in
    place before it runs (the contract of :func:`binarize_weight` too).
    """
    _check_mode(mode)
    qs, alpha_raw, beta = _slice_params(a.data, q)
    alpha = np.maximum(alpha_raw, ALPHA_FLOOR)
    shifted = a.data - beta
    levels = _sign_pm1(shifted) if mode == "hard" else np.clip(shifted, -1.0, 1.0, out=shifted)
    levels *= alpha
    if tape is not None:
        alpha_free = (alpha_raw > ALPHA_FLOOR).reshape(-1)
    x, da = a.data, a.cell

    def bwd(g):
        shifted = x - beta
        g_window = g * (np.abs(shifted) <= 1.0)
        d_beta = -alpha.reshape(-1) * _slice_sums(g_window, len(qs))
        g_window *= alpha
        da.add(g_window)
        g_clipped = np.clip(shifted, -1.0, 1.0, out=shifted)
        g_clipped *= g
        _add_param_grads(qs, alpha_free * _slice_sums(g_clipped, len(qs)), d_beta)

    return record_op(tape, "binarize_activation_pm1", DenseMatrix(levels), bwd)


def binarize_attention_01(
    tape: Tape | None,
    att: DenseMatrix,
    q: ElasticQuant | Sequence[ElasticQuant],
    mode: QuantMode = "hard",
    key_mask: Array | None = None,
) -> DenseMatrix:
    """Two-level attention maps in {0, alpha}.

    ``att`` is one map with one binarizer ``q``, or a stack of per-head maps
    with one binarizer per slice, as in :func:`binarize_activation_pm1`.
    Hard forward rounds ``u = (att - beta)/alpha`` clipped to [0, 1] to the
    nearest integer with halves rounding up, i.e. selects where u >= 1/2.
    Backward takes the analytic partials of the surrogate
    ``alpha * clip(u, 0, 1)``: passthrough inside 0 < u < 1 for the input,
    its negation for the threshold, and the saturation indicator u >= 1 for
    the level.  Columns where ``key_mask`` (one flag per key) is False are
    held at u = 0, the unselected edge where the surrogate is flat, so a
    padded key is never selected and passes no gradient, whatever the
    threshold.
    """
    _check_mode(mode)
    qs, alpha, beta = _slice_params(att.data, q)
    if np.any(alpha <= 0.0):
        raise QuantError(f"attention binarizer level must be positive, got {alpha.min()}")
    u = (att.data - beta) / alpha
    if key_mask is not None:
        u = np.where(key_mask, u, 0.0)
    if mode == "hard":
        out = DenseMatrix(alpha * (u >= 0.5).astype(np.float64))
    else:
        out = DenseMatrix(alpha * np.clip(u, 0.0, 1.0))
    if tape is not None:
        inside = (u > 0.0) & (u < 1.0)
        sat_hi = u >= 1.0
    datt = att.cell

    def bwd(g):
        g_inside = g * inside
        datt.add(g_inside)
        _add_param_grads(qs, _slice_sums(g * sat_hi, len(qs)), -_slice_sums(g_inside, len(qs)))

    return record_op(tape, "binarize_attention_01", out, bwd)
