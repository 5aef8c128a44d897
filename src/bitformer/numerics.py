"""Double-precision matrices and a replayable reverse-mode gradient tape.

All training math runs on float64 arrays: 2-D matrices, and 3-D stacks of
them (one slice per attention head).  Differentiable operations are free
functions that compute the forward with numpy and append one backward
closure to a :class:`Tape`; ``Tape.backward`` replays the closures in exact
reverse order of recording, accumulating into per-matrix ``.grad`` buffers.
The tape is deliberately explicit (no operator overloading, no graph capture)
so that quantizer ops can register hand-written surrogate gradients as
ordinary closures next to everything else.  ``matmul``, ``transpose`` and
``softmax_rows`` act on the last two axes, so a stack runs as one op;
``split_heads`` and ``merge_heads`` move between a matrix's column blocks and
a stack.

Passing ``tape=None`` runs any op forward-only, which is what inference and
the packed-kernel comparisons use.  ``TAPE_OPS`` names every op a tape may
record, here and in :mod:`bitformer.quant` and :mod:`bitformer.pretrain`;
``Tape.record`` refuses any other name.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Array = np.ndarray

TAPE_OPS = frozenset(
    {
        # numerics
        "matmul", "affine", "transpose", "add", "add_bias", "scale", "add_constant", "gather_rows",
        "slice_cols", "split_heads", "merge_heads", "add_slices", "softmax_rows", "layer_norm", "gelu",
        "cross_entropy",
        # quant
        "binarize_weight", "binarize_activation_pm1", "binarize_attention_01",
        # pretrain
        "kl_to_teacher", "hidden_mse",
    }
)


class DenseMatrix:
    """A float64 matrix (2-D) or stack of matrices (3-D) with a lazily allocated gradient buffer.

    ``rows`` and ``cols`` are the last two axes.  Gradients accumulate
    additively across backward passes and are cleared only by an explicit
    :meth:`zero_grad`.

    ``cache`` holds what :func:`bitformer.quant.weight_bits` derives from
    ``data`` (a block weight's sign bits and row scales).  Caching makes
    ``data`` read-only, so an in-place write to it raises numpy's
    "assignment destination is read-only" error; :meth:`AdamW.step` makes
    its parameters writable again before it updates them.  Rebinding
    ``data`` to another array is always allowed; the next use recomputes.
    """

    __slots__ = ("data", "grad", "name", "cache")

    def __init__(self, data, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ValueError(f"DenseMatrix must be 2-D or 3-D, got shape {arr.shape}")
        self.data: Array = np.ascontiguousarray(arr)
        self.grad: Array | None = None
        self.name = name
        self.cache = None

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    def ensure_grad(self) -> Array:
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        return self.grad

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"DenseMatrix{tag}({'x'.join(map(str, self.data.shape))})"


class Tape:
    """Record of backward closures, replayed last-recorded-first."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[tuple[str, Callable[[], None]]] = []

    def record(self, name: str, backward: Callable[[], None]) -> None:
        if name not in TAPE_OPS:
            raise ValueError(f"unregistered tape op {name!r}; add it to numerics.TAPE_OPS")
        self.ops.append((name, backward))

    def backward(self, loss: DenseMatrix) -> None:
        """Seed d(loss)/d(loss) = 1 and replay every closure in reverse."""
        if loss.data.shape != (1, 1):
            raise ValueError(f"backward needs a 1x1 loss, got {loss.data.shape}")
        loss.ensure_grad()[0, 0] += 1.0
        self.replay()

    def replay(self) -> None:
        """Run every recorded closure, last-recorded first."""
        for _, fn in reversed(self.ops):
            fn()


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def _accumulate(x: DenseMatrix, g: Array) -> None:
    """``x.grad += g``; a 2-D ``x`` broadcast over a stacked ``g`` takes it one slice at a time.

    The slices are added last first, the order in which one tape op per
    slice would have run their backward closures.
    """
    grad = x.ensure_grad()
    if g.ndim == grad.ndim:
        grad += g
    else:
        for part in g[::-1]:
            grad += part


def matmul(tape: Tape | None, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """a (m, k) @ b (k, n) -> (m, n), slice by slice over a stack; dA = dC @ B^T, dB = A^T @ dC.

    Either operand may be a stack, and a 2-D operand is broadcast over the
    other's slices.
    """
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = DenseMatrix(a.data @ b.data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g @ b.data.swapaxes(-1, -2))
            _accumulate(b, a.data.swapaxes(-1, -2) @ g)

        tape.record("matmul", bwd)
    return out


def affine(tape: Tape | None, a: DenseMatrix, w: DenseMatrix, bias: DenseMatrix) -> DenseMatrix:
    """a (m, k) @ w (n, k)^T + bias (1, n), with BLAS reading ``w`` transposed in place.

    dA = dC @ W, dW = dC^T @ A, dbias = column sums of dC.
    """
    if a.cols != w.cols or bias.data.shape != (1, w.rows):
        raise ValueError(
            f"affine shape mismatch: {a.data.shape} @ {w.data.shape}^T + {bias.data.shape}"
        )
    y = a.data @ w.data.T
    y += bias.data
    out = DenseMatrix(y)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g @ w.data
            w.ensure_grad()[...] += g.T @ a.data
            bias.ensure_grad()[...] += g.sum(axis=0, keepdims=True)

        tape.record("affine", bwd)
    return out


def transpose(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Swap the last two axes (each slice of a stack is transposed)."""
    out = DenseMatrix(a.data.swapaxes(-1, -2))
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g.swapaxes(-1, -2)

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


def split_heads(tape: Tape | None, a: DenseMatrix, heads: int) -> DenseMatrix:
    """a (m, heads * d) -> stack (heads, m, d): slice h holds column block h."""
    if a.data.ndim != 2 or heads < 1 or a.cols % heads:
        raise ValueError(f"cannot split shape {a.data.shape} into {heads} heads")
    m, width = a.rows, a.cols // heads
    out = DenseMatrix(a.data.reshape(m, heads, width).transpose(1, 0, 2))
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g.transpose(1, 0, 2).reshape(m, heads * width)

        tape.record("split_heads", bwd)
    return out


def merge_heads(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Stack (heads, m, d) -> (m, heads * d): the inverse of :func:`split_heads`."""
    if a.data.ndim != 3:
        raise ValueError(f"merge_heads needs a 3-D stack, got shape {a.data.shape}")
    heads, m, width = a.data.shape
    out = DenseMatrix(a.data.transpose(1, 0, 2).reshape(m, heads * width))
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g.reshape(m, heads, width).transpose(1, 0, 2)

        tape.record("merge_heads", bwd)
    return out


def add_slices(tape: Tape | None, a: DenseMatrix, parts: Sequence[DenseMatrix | None]) -> DenseMatrix:
    """Stack a (S, m, n) with each 2-D ``parts[s]`` added to slice s; a None part adds nothing."""
    if a.data.ndim != 3 or len(parts) != a.data.shape[0]:
        raise ValueError(f"add_slices needs one part per slice of {a.data.shape}, got {len(parts)}")
    data = a.data.copy()
    for s, p in enumerate(parts):
        if p is not None:
            data[s] += p.data
    out = DenseMatrix(data)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g
            for s, p in enumerate(parts):
                if p is not None:
                    p.ensure_grad()[...] += g[s]

        tape.record("add_slices", bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinear ops
# ---------------------------------------------------------------------------


def softmax_rows(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Row-wise softmax with max subtraction; each output row (of every slice) sums to 1."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = DenseMatrix(p)
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            inner = (g * p).sum(axis=-1, keepdims=True)
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
    """tanh-approximation GeLU: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    The cube is the product ``x * x * x``: numpy runs ``x**3`` through libm
    ``pow`` per element, tens of times slower than two multiplies.  The
    square is bitwise what numpy computes for ``x**2``, so the backward
    reuses it unchanged.
    """
    x = a.data
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    out = DenseMatrix(0.5 * x * (1.0 + t))
    if tape is not None:

        def bwd():
            g = out.grad
            if g is None:
                return
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
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
            p.data.flags.writeable = True  # an evaluation forward may have frozen it
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
