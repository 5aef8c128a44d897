"""Double-precision matrices and a replayable reverse-mode gradient tape.

All training math runs on 2-D float64 arrays.  Differentiable operations are
free functions that compute the forward with numpy and append one backward
closure to a :class:`Tape`; ``Tape.backward`` replays the closures in exact
reverse order of recording, accumulating into per-matrix ``.grad`` buffers.
The tape is deliberately explicit (no operator overloading, no graph capture)
so that quantizer ops can register hand-written surrogate gradients as
ordinary closures next to everything else.

Passing ``tape=None`` runs any op forward-only, which is what inference and
the packed-kernel comparisons use.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Array = np.ndarray


class DenseMatrix:
    """A 2-D float64 array with a lazily allocated gradient buffer.

    Gradients accumulate additively across backward passes and are cleared
    only by an explicit :meth:`zero_grad`.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"DenseMatrix must be 2-D, got shape {arr.shape}")
        self.data: Array = np.ascontiguousarray(arr)
        self.grad: Array | None = None
        self.name = name

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def ensure_grad(self) -> Array:
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        return self.grad

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"DenseMatrix{tag}({self.rows}x{self.cols})"


class Tape:
    """Record of backward closures, replayed last-recorded-first."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[tuple[str, Callable[[], None]]] = []

    def record(self, name: str, backward: Callable[[], None]) -> None:
        self.ops.append((name, backward))

    def backward(self, loss: DenseMatrix) -> None:
        """Seed d(loss)/d(loss) = 1 and replay every closure in reverse."""
        if loss.data.shape != (1, 1):
            raise ValueError(f"backward needs a 1x1 loss, got {loss.data.shape}")
        loss.ensure_grad()[0, 0] += 1.0
        for _, fn in reversed(self.ops):
            fn()


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def matmul(tape: Tape | None, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """a (m, k) @ b (k, n) -> (m, n); dA = dC @ B^T, dB = A^T @ dC."""
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = DenseMatrix(a.data @ b.data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g @ b.data.T
            b.ensure_grad()[...] += a.data.T @ g

        tape.record("matmul", bwd)
    return out


def transpose(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    out = DenseMatrix(a.data.T)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g.T

        tape.record("transpose", bwd)
    return out


def add(tape: Tape | None, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = DenseMatrix(a.data + b.data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g
            b.ensure_grad()[...] += g

        tape.record("add", bwd)
    return out


def add_bias(tape: Tape | None, a: DenseMatrix, bias: DenseMatrix) -> DenseMatrix:
    """a (m, n) + bias (1, n) broadcast over rows."""
    if bias.rows != 1 or bias.cols != a.cols:
        raise ValueError(f"bias must be 1x{a.cols}, got {bias.data.shape}")
    out = DenseMatrix(a.data + bias.data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g
            bias.ensure_grad()[...] += g.sum(axis=0, keepdims=True)

        tape.record("add_bias", bwd)
    return out


def scale(tape: Tape | None, a: DenseMatrix, factor: float) -> DenseMatrix:
    out = DenseMatrix(a.data * factor)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g * factor

        tape.record("scale", bwd)
    return out


def add_constant(tape: Tape | None, a: DenseMatrix, shift: Array) -> DenseMatrix:
    """a + shift where shift is a plain array (no gradient into shift)."""
    out = DenseMatrix(a.data + shift)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g

        tape.record("add_constant", bwd)
    return out


def gather_rows(tape: Tape | None, table: DenseMatrix, indices: Array) -> DenseMatrix:
    """Select table rows by integer index; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather_rows needs a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.rows):
        raise IndexError(f"row index out of range for table with {table.rows} rows")
    out = DenseMatrix(table.data[idx])
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            np.add.at(table.ensure_grad(), idx, g)

        tape.record("gather_rows", bwd)
    return out


def slice_cols(tape: Tape | None, a: DenseMatrix, start: int, stop: int) -> DenseMatrix:
    if not (0 <= start < stop <= a.cols):
        raise ValueError(f"bad column slice [{start}:{stop}] for {a.cols} columns")
    out = DenseMatrix(a.data[:, start:stop])
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[:, start:stop] += g

        tape.record("slice_cols", bwd)
    return out


def concat_cols(tape: Tape | None, parts: Sequence[DenseMatrix]) -> DenseMatrix:
    if not parts:
        raise ValueError("concat_cols needs at least one part")
    out = DenseMatrix(np.hstack([p.data for p in parts]))
    if tape is not None:
        offsets = np.cumsum([0] + [p.cols for p in parts])

        def bwd():
            g = out.grad
            if g is None:
                return
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                p.ensure_grad()[...] += g[:, lo:hi]

        tape.record("concat_cols", bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinear ops
# ---------------------------------------------------------------------------


def softmax_rows(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Row-wise softmax with max subtraction; each output row sums to 1."""
    e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    out = DenseMatrix(p)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            inner = (g * p).sum(axis=1, keepdims=True)
            a.ensure_grad()[...] += p * (g - inner)

        tape.record("softmax_rows", bwd)
    return out


def layer_norm(
    tape: Tape | None,
    a: DenseMatrix,
    gamma: DenseMatrix,
    beta: DenseMatrix,
    eps: float = 1e-5,
) -> DenseMatrix:
    """Per-row standardization followed by an affine map: gamma * x_hat + beta."""
    if gamma.data.shape != (1, a.cols) or beta.data.shape != (1, a.cols):
        raise ValueError("layer_norm affine params must be 1 x cols")
    mu = a.data.mean(axis=1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = DenseMatrix(xhat * gamma.data + beta.data)
    if tape is not None:
        n = a.cols

        def bwd():
            g = out.grad
            if g is None:
                return
            beta.ensure_grad()[...] += g.sum(axis=0, keepdims=True)
            gamma.ensure_grad()[...] += (g * xhat).sum(axis=0, keepdims=True)
            dxhat = g * gamma.data
            # standard layer-norm input gradient for per-row statistics
            da = inv * (
                dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=1, keepdims=True) / n
            )
            a.ensure_grad()[...] += da

        tape.record("layer_norm", bwd)
    return out


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """tanh-approximation GeLU: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = DenseMatrix(0.5 * x * (1.0 + t))
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
            dt = (1.0 - t * t) * dinner
            a.ensure_grad()[...] += g * (0.5 * (1.0 + t) + 0.5 * x * dt)

        tape.record("gelu", bwd)
    return out


def cross_entropy(
    tape: Tape | None,
    logits: DenseMatrix,
    targets: Array,
    ignore_index: int = -100,
) -> DenseMatrix:
    """Mean negative log-softmax of the target class over non-ignored rows.

    logits (m, v), targets (m,) int; rows whose target equals ignore_index do
    not contribute.  With no contributing rows the loss is exactly 0.
    """
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (logits.rows,):
        raise ValueError(f"targets must have shape ({logits.rows},), got {t.shape}")
    keep = t != ignore_index
    count = int(keep.sum())
    if np.any((t[keep] < 0) | (t[keep] >= logits.cols)):
        raise ValueError("target id out of vocabulary range")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    if count == 0:
        value = 0.0
    else:
        rows = np.nonzero(keep)[0]
        value = float(-logp[rows, t[rows]].sum() / count)
    out = DenseMatrix([[value]])
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None or count == 0:
                return
            p = np.exp(logp)
            dlogits = p.copy()
            rows = np.nonzero(keep)[0]
            dlogits[rows, t[rows]] -= 1.0
            dlogits[~keep] = 0.0
            logits.ensure_grad()[...] += dlogits * (g[0, 0] / count)

        tape.record("cross_entropy", bwd)
    return out


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay (decay applied to the parameter)."""

    def __init__(
        self,
        params: Sequence[DenseMatrix],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        """One update; a missing gradient is treated as all-zero (decay still applies)."""
        if lr is None:
            lr = self.lr
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else 0.0
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= lr * update
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data


def linear_warmup_schedule(step: int, total_steps: int, warmup_frac: float, peak_lr: float) -> float:
    """Linear ramp 0 -> peak over the warmup span, then linear decay to 0 at total_steps."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0.0 <= warmup_frac <= 1.0:
        raise ValueError("warmup_frac must lie in [0, 1]")
    step = max(0, min(step, total_steps))
    warm = int(round(total_steps * warmup_frac))
    if step < warm:
        return peak_lr * step / warm
    if total_steps == warm:
        return 0.0
    return peak_lr * (total_steps - step) / (total_steps - warm)
