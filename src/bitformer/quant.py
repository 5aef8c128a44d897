"""Two-level quantizers with straight-through surrogate gradients.

Three binarizers cover the whole model:

* ``binarize_weight`` — per-output-row: center on the row mean, take signs
  (sign(0) = +1), scale by the row's mean absolute value.  Each output row
  holds at most the two values ±scale.
* ``binarize_activation_pm1`` — elastic two-level activations
  ``alpha * sign(a - beta)`` with a trainable level and threshold.
* ``binarize_attention_01`` — post-softmax maps quantized to {0, alpha} by
  rounding ``clip((att - beta)/alpha, 0, 1)`` to the nearest integer, halves
  rounding up.

Hard forwards are step functions, so every binarizer declares a clip
surrogate and its backward closure is the exact almost-everywhere gradient of
that surrogate; gradient tests difference the surrogate, not the step.  The
one deliberate exception is the ±1 level: the hard forward is already linear
in ``alpha``, so its gradient is the readout sign itself.  ``mode="relaxed"``
runs the surrogate as the forward — that is what whole-network finite
differencing uses — while the backward closures are identical in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .numerics import Array, DenseMatrix, Tape

QuantMode = Literal["hard", "relaxed"]

# smallest level the ±1 binarizer will apply; keeps alpha strictly positive
ALPHA_FLOOR = 1e-6


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


def binarize_weight(tape: Tape | None, w: DenseMatrix, mode: QuantMode = "hard") -> DenseMatrix:
    """Row-wise two-level weights: (mean |row|) * sign(row - mean(row)).

    Backward is the exact gradient of the declared surrogate
    ``(mean |row|) * hardtanh(row - mean(row))``: the sign path applies the
    unit window to centered values (and subtracts its row mean, since the
    center depends on every entry), the scale path contributes
    ``sign(w) / cols`` weighted by the clipped centered values.
    """
    _check_mode(mode)
    data = w.data
    n = w.cols
    row_mean = data.mean(axis=1, keepdims=True)
    centered = data - row_mean
    scales = np.abs(data).mean(axis=1, keepdims=True)
    if mode == "hard":
        out = DenseMatrix(scales * _sign_pm1(centered))
    else:
        out = DenseMatrix(scales * np.clip(centered, -1.0, 1.0))
    if tape is not None:
        scaled_window = scales * (np.abs(centered) <= 1.0)
        clipped = np.clip(centered, -1.0, 1.0)
        w_sign = _sign_pm1(data)

        def bwd():
            g = out.grad
            if g is None:
                return
            through_sign = g * scaled_window
            dw = through_sign - through_sign.mean(axis=1, keepdims=True)
            dw += (g * clipped).sum(axis=1, keepdims=True) / n * w_sign
            w.ensure_grad()[...] += dw

        tape.record("binarize_weight", bwd)
    return out


def binarize_activation_pm1(
    tape: Tape | None,
    a: DenseMatrix,
    q: ElasticQuant,
    mode: QuantMode = "hard",
) -> DenseMatrix:
    """Elastic two-level activations: alpha * sign(a - beta), alpha floored at 1e-6.

    Backward is the exact gradient of the surrogate
    ``alpha * hardtanh(a - beta)``: input and threshold take the hardtanh
    window on (a - beta); the level takes the clipped shifted values, which
    coincide with sign(a - beta) wherever the window has saturated.  The
    level gradient is gated off while the floor is active.
    """
    _check_mode(mode)
    alpha_raw = float(q.alpha.data[0, 0])
    alpha = max(alpha_raw, ALPHA_FLOOR)
    beta = float(q.beta.data[0, 0])
    shifted = a.data - beta
    if mode == "hard":
        out = DenseMatrix(alpha * _sign_pm1(shifted))
    else:
        out = DenseMatrix(alpha * np.clip(shifted, -1.0, 1.0))
    if tape is not None:
        window = (np.abs(shifted) <= 1.0).astype(np.float64)
        clipped = np.clip(shifted, -1.0, 1.0)
        alpha_free = 1.0 if alpha_raw > ALPHA_FLOOR else 0.0

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g * alpha * window
            q.alpha.ensure_grad()[0, 0] += alpha_free * float((g * clipped).sum())
            q.beta.ensure_grad()[0, 0] += -alpha * float((g * window).sum())

        tape.record("binarize_activation_pm1", bwd)
    return out


def binarize_attention_01(
    tape: Tape | None,
    att: DenseMatrix,
    q: ElasticQuant,
    mode: QuantMode = "hard",
    key_mask: Array | None = None,
) -> DenseMatrix:
    """Two-level attention maps in {0, alpha}.

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
    alpha = float(q.alpha.data[0, 0])
    if alpha <= 0.0:
        raise QuantError(f"attention binarizer level must be positive, got {alpha}")
    beta = float(q.beta.data[0, 0])
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
            att.ensure_grad()[...] += g * inside
            q.alpha.ensure_grad()[0, 0] += float((g * sat_hi).sum())
            q.beta.ensure_grad()[0, 0] += -float((g * inside).sum())

        tape.record("binarize_attention_01", bwd)
    return out
