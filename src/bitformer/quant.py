"""Two-level quantizers with straight-through surrogate gradients.

Three binarizers cover the whole model:

* ``binarize_weight`` — per-output-row: center on the row mean, take signs
  (sign(0) = +1), scale by the row's mean absolute value.  Each output row
  holds at most the two values ±scale.  It is ``prepare_weight`` (the
  forward, once per weight value) followed by ``apply_weight`` (one tape
  node with its own backward).  A node read by many tapes sums their
  gradients in its ``.grad``, and replaying the tape that recorded it runs
  the binarizer backward once on that sum (see
  :func:`bitformer.pretrain.train_step`).
* ``binarize_activation_pm1`` — elastic two-level activations
  ``alpha * sign(a - beta)`` with a trainable level and threshold.
* ``binarize_attention_01`` — post-softmax maps quantized to {0, alpha} by
  rounding ``clip((att - beta)/alpha, 0, 1)`` to the nearest integer, halves
  rounding up.

Both activation binarizers also take a stack of matrices (an attention
layer's heads) with one binarizer per slice.

Hard forwards are step functions, so every binarizer declares a clip
surrogate and its backward closure is the exact almost-everywhere gradient of
that surrogate; gradient tests difference the surrogate, not the step.  The
one deliberate exception is the ±1 level: the hard forward is already linear
in ``alpha``, so its gradient is the readout sign itself.  ``mode="relaxed"``
runs the surrogate as the forward — that is what whole-network finite
differencing uses — while the backward closures are identical in both modes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .numerics import Array, DenseMatrix, Tape

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


@dataclass
class BinaryWeight:
    """One weight matrix binarized once, ready to be applied on any number of tapes.

    ``value`` is the two-level matrix, stored transposed (C-contiguous) when
    ``transposed`` is set, as a linear layer multiplies by it.  The backward
    state is the row scales, the unit window on the centered values (a bool
    array) and those values clipped to [-1, 1]; an untaped preparation
    carries none of it.  It stays valid while ``w.data`` is unchanged.
    """

    w: DenseMatrix
    value: Array
    transposed: bool = False
    scales: Array | None = None
    window: Array | None = None
    clipped: Array | None = None


def row_blocks(x: Array) -> list[slice]:
    """Row slices of a 2-D array, each about ``_BLOCK_ELEMS`` elements."""
    step = max(1, _BLOCK_ELEMS // max(1, x.shape[1]))
    return [slice(lo, lo + step) for lo in range(0, x.shape[0], step)]


def prepare_weight(
    w: DenseMatrix, mode: QuantMode = "hard", taped: bool = True, transposed: bool = False
) -> BinaryWeight:
    """Row-wise two-level weights: (mean |row|) * sign(row - mean(row)).

    This is the forward half of :func:`binarize_weight`; ``taped`` keeps the
    state its backward needs.  ``mode="relaxed"`` holds the surrogate
    ``(mean |row|) * hardtanh(row - mean(row))`` instead of the signs.  Every
    row is independent, so the work runs over cache-sized row blocks: the
    centered values and levels of one block at a time, and the transposed
    write as a copy of a finished block.
    """
    _check_mode(mode)
    data = w.data
    # a transposed value is written straight into its (in, out) row-major buffer
    value = np.empty(data.shape[::-1]).T if transposed else np.empty(data.shape)
    if taped:
        scales = np.empty((data.shape[0], 1))
        window = np.empty(data.shape, dtype=bool)
        clipped = np.empty(data.shape)
    for rows in row_blocks(data):
        block = data[rows]
        centered = block - block.mean(axis=1, keepdims=True)
        block_scales = np.abs(block).mean(axis=1, keepdims=True)
        levels = _sign_pm1(centered) if mode == "hard" else np.clip(centered, -1.0, 1.0)
        levels *= block_scales
        value[rows] = levels
        if taped:
            scales[rows] = block_scales
            np.less_equal(np.abs(centered), 1.0, out=window[rows])
            np.clip(centered, -1.0, 1.0, out=clipped[rows])
    if transposed:
        value = value.T
    if not taped:
        return BinaryWeight(w, value, transposed)
    return BinaryWeight(w, value, transposed, scales, window, clipped)


def _weight_backward(bw: BinaryWeight, g: Array | None) -> None:
    """Add to ``bw.w.grad`` the surrogate gradient for ``g``, a gradient of ``bw.value``.

    This is the exact gradient of the declared surrogate: the sign path
    applies the unit window to centered values (and subtracts its row mean,
    since the center depends on every entry), the scale path contributes
    ``sign(w) / cols`` weighted by the clipped centered values.  It reads
    ``sign(w.data)``, so it must run before the optimizer changes ``w``.
    """
    if g is None:
        return
    w = bw.w
    # a private (out, in) row-major copy: the row reductions below keep
    # their summation order, and the copy is scratch space
    g = np.ascontiguousarray(g.T) if bw.transposed else g.copy()
    dw = np.multiply(bw.scales, bw.window)
    dw *= g  # through the sign
    dw -= dw.mean(axis=1, keepdims=True)
    g *= bw.clipped
    through_scale = _sign_pm1(w.data)
    through_scale *= g.sum(axis=1, keepdims=True) / w.cols
    dw += through_scale
    w.ensure_grad()[...] += dw


def apply_weight(tape: Tape | None, bw: BinaryWeight) -> DenseMatrix:
    """The prepared matrix as a tape node of its own whose backward reaches ``bw.w``.

    The node shares ``bw.value``; its one backward runs on the sum of the
    gradients its uses left in ``.grad``, however many tapes they were on.
    """
    out = DenseMatrix(bw.value)
    if tape is not None:
        if bw.window is None:
            raise ValueError(f"weight {bw.w.name!r} was binarized without backward state")
        tape.record("binarize_weight", lambda: _weight_backward(bw, out.grad))
    return out


def binarize_weight(
    tape: Tape | None, w: DenseMatrix, mode: QuantMode = "hard", transposed: bool = False
) -> DenseMatrix:
    """Binarize ``w``: :func:`prepare_weight` then :func:`apply_weight`."""
    return apply_weight(tape, prepare_weight(w, mode, tape is not None, transposed))


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
    level gradient is gated off while the floor is active.
    """
    _check_mode(mode)
    qs, alpha_raw, beta = _slice_params(a.data, q)
    alpha = np.maximum(alpha_raw, ALPHA_FLOOR)
    shifted = a.data - beta
    if mode == "hard":
        out = DenseMatrix(alpha * _sign_pm1(shifted))
    else:
        out = DenseMatrix(alpha * np.clip(shifted, -1.0, 1.0))
    if tape is not None:
        window = np.abs(shifted) <= 1.0
        alpha_free = (alpha_raw > ALPHA_FLOOR).reshape(-1)

        def bwd():
            g = out.grad
            if g is None:
                return
            g_window = g * window
            d_beta = -alpha.reshape(-1) * _slice_sums(g_window, len(qs))
            g_window *= alpha
            a.ensure_grad()[...] += g_window
            g_clipped = np.clip(shifted, -1.0, 1.0)
            g_clipped *= g
            _add_param_grads(qs, alpha_free * _slice_sums(g_clipped, len(qs)), d_beta)

        tape.record("binarize_activation_pm1", bwd)
    return out


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
        inside = ((u > 0.0) & (u < 1.0)).astype(np.float64)
        sat_hi = (u >= 1.0).astype(np.float64)

        def bwd():
            g = out.grad
            if g is None:
                return
            g_inside = g * inside
            att.ensure_grad()[...] += g_inside
            _add_param_grads(qs, _slice_sums(g * sat_hi, len(qs)), -_slice_sums(g_inside, len(qs)))

        tape.record("binarize_attention_01", bwd)
    return out
