"""Double-precision matrices and a replayable reverse-mode gradient tape.

All training math runs on float64 arrays: 2-D matrices, and 3-D stacks of
them (one slice per attention head).  Differentiable operations are free
functions that compute the forward with numpy, define their backward
``bwd(g)`` on the output's gradient ``g``, and end with
``return record_op(tape, name, out, bwd)``: :func:`record_op` alone
records on a :class:`Tape`, skips a backward that no gradient reached, and
does nothing untaped.  ``Tape.backward`` replays the closures in exact
reverse order of recording, accumulating into per-matrix ``.grad`` buffers.
A closure keeps only what its backward reads (:class:`GradCell`), and
recomputes a cheap temporary from the op's input with the forward's own
expressions rather than store it (recompute-instead-of-store at the
granularity of one op), so its gradients are bitwise a stored copy's.  A
tape replays once, dropping each closure as it runs.
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
from functools import partial

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


class GradCell:
    """One node's gradient buffer, apart from its value; zeros on first use.

    Backward closures hold cells, never nodes, so a value that no backward
    reads (a product the next op copies, say) is freed once the forward's
    caller drops it, not when the backward reaches it.
    """

    __slots__ = ("value", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.value: Array | None = None
        self.shape = shape

    def ensure(self) -> Array:
        if self.value is None:
            self.value = np.zeros(self.shape)
        return self.value

    def add(self, g: Array) -> None:
        """``value += g``; a 2-D node's cell takes a stacked ``g`` one slice at a time.

        The slices are added last first, the order in which one tape op per
        slice would have run their backward closures.
        """
        value = self.ensure()
        if g.ndim > value.ndim:
            for part in g[::-1]:
                value += part
        else:
            value += g


class DenseMatrix:
    """A float64 matrix (2-D) or stack of matrices (3-D) with a lazily allocated gradient buffer.

    ``rows`` and ``cols`` are the last two axes.  Gradients accumulate
    additively across backward passes and are cleared only by an explicit
    :meth:`zero_grad`.  ``grad`` is the value of the node's
    :class:`GradCell`, ``cell``, which the tape's closures hold.

    ``cache`` holds what :func:`bitformer.quant.weight_bits` derives from
    ``data`` (a block weight's sign bits and row scales).  Caching makes
    ``data`` read-only, so an in-place write to it raises numpy's
    "assignment destination is read-only" error; :meth:`AdamW.step` makes
    its parameters writable again before it updates them.  Rebinding
    ``data`` to another array of the same shape is always allowed; the next
    use recomputes.
    """

    __slots__ = ("data", "cell", "name", "cache")

    def __init__(self, data, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ValueError(f"DenseMatrix must be 2-D or 3-D, got shape {arr.shape}")
        self.data: Array = np.ascontiguousarray(arr)
        self.cell = GradCell(arr.shape)
        self.name = name
        self.cache = None

    @property
    def rows(self) -> int:
        return self.data.shape[-2]

    @property
    def cols(self) -> int:
        return self.data.shape[-1]

    @property
    def grad(self) -> Array | None:
        return self.cell.value

    @grad.setter
    def grad(self, value: Array | None) -> None:
        self.cell.value = value

    def ensure_grad(self) -> Array:
        return self.cell.ensure()

    def zero_grad(self) -> None:
        self.cell.value = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"DenseMatrix{tag}({'x'.join(map(str, self.data.shape))})"


class Tape:
    """Record of backward closures, replayed once, last-recorded-first.

    A closure holds the arrays its backward reads and the cells
    (:class:`GradCell`) it reads and adds gradients through.  :meth:`replay`
    pops each closure before running it, so an op's saved arrays and output
    gradient are freed once the backward has passed it.  A replayed tape is
    empty and raises ``ValueError`` on a second replay or backward, rather
    than silently add no gradient.
    """

    __slots__ = ("ops", "replayed")

    def __init__(self):
        self.ops: list[tuple[str, Callable[[], None]]] = []
        self.replayed = False

    def record(self, name: str, backward: Callable[[], None]) -> None:
        if name not in TAPE_OPS:
            raise ValueError(f"unregistered tape op {name!r}; add it to numerics.TAPE_OPS")
        self.ops.append((name, backward))

    def backward(self, loss: DenseMatrix) -> None:
        """Seed d(loss)/d(loss) = 1 and replay every closure in reverse."""
        if loss.data.shape != (1, 1):
            raise ValueError(f"backward needs a 1x1 loss, got {loss.data.shape}")
        self._refuse_replayed()
        loss.ensure_grad()[0, 0] += 1.0
        self.replay()

    def replay(self) -> None:
        """Run every recorded closure, last-recorded first, dropping each as it runs."""
        self._refuse_replayed()
        self.replayed = True
        ops = self.ops
        while ops:
            ops.pop()[1]()

    def _refuse_replayed(self) -> None:
        if self.replayed:
            raise ValueError("this tape was already replayed; record a new tape for another backward")


def record_op(
    tape: Tape | None, name: str, out: DenseMatrix, backward: Callable[[Array], None]
) -> DenseMatrix:
    """Record ``backward`` as op ``name``'s backward on ``tape``, and return ``out``.

    Every tape op ends here.  With no tape nothing is recorded.  Otherwise
    the tape gets a callable that holds ``out``'s cell, not ``out``: when the
    replay reaches it, it calls ``backward(g)`` with ``out``'s gradient, or
    does nothing if no gradient reached ``out``.  ``backward`` holds cells
    and arrays, never nodes.  The callable is a ``partial`` rather than a
    nested closure: two objects the garbage collector tracks instead of
    four, which keeps a smoke training sequence's tape under CPython's
    generation-0 threshold (700 new objects), so no collection runs per
    sequence.
    """
    if tape is not None:
        tape.record(name, partial(_backward_if_reached, out.cell, backward))
    return out


def _backward_if_reached(dout: GradCell, backward: Callable[[Array], None]) -> None:
    g = dout.value
    if g is not None:
        backward(g)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def matmul(tape: Tape | None, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """a (m, k) @ b (k, n) -> (m, n), slice by slice over a stack; dA = dC @ B^T, dB = A^T @ dC.

    Either operand may be a stack, and a 2-D operand is broadcast over the
    other's slices.
    """
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    x, y, da, db = a.data, b.data, a.cell, b.cell

    def bwd(g):
        da.add(g @ y.swapaxes(-1, -2))
        db.add(x.swapaxes(-1, -2) @ g)

    return record_op(tape, "matmul", DenseMatrix(x @ y), bwd)


def affine(tape: Tape | None, a: DenseMatrix, w: DenseMatrix, bias: DenseMatrix) -> DenseMatrix:
    """a (m, k) @ w (n, k)^T + bias (1, n), with BLAS reading ``w`` transposed in place.

    dA = dC @ W, dW = dC^T @ A, dbias = column sums of dC.
    """
    if a.cols != w.cols or bias.data.shape != (1, w.rows):
        raise ValueError(
            f"affine shape mismatch: {a.data.shape} @ {w.data.shape}^T + {bias.data.shape}"
        )
    x, wx, da, dw, dbias = a.data, w.data, a.cell, w.cell, bias.cell
    y = x @ wx.T
    y += bias.data

    def bwd(g):
        da.add(g @ wx)
        dw.add(g.T @ x)
        dbias.add(g.sum(axis=0, keepdims=True))

    return record_op(tape, "affine", DenseMatrix(y), bwd)


def transpose(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Swap the last two axes (each slice of a stack is transposed)."""
    da = a.cell

    def bwd(g):
        da.add(g.swapaxes(-1, -2))

    return record_op(tape, "transpose", DenseMatrix(a.data.swapaxes(-1, -2)), bwd)


def add(tape: Tape | None, a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    da, db = a.cell, b.cell

    def bwd(g):
        da.add(g)
        db.add(g)

    return record_op(tape, "add", DenseMatrix(a.data + b.data), bwd)


def add_bias(tape: Tape | None, a: DenseMatrix, bias: DenseMatrix) -> DenseMatrix:
    """a (m, n) + bias (1, n) broadcast over rows."""
    if bias.rows != 1 or bias.cols != a.cols:
        raise ValueError(f"bias must be 1x{a.cols}, got {bias.data.shape}")
    da, dbias = a.cell, bias.cell

    def bwd(g):
        da.add(g)
        dbias.add(g.sum(axis=0, keepdims=True))

    return record_op(tape, "add_bias", DenseMatrix(a.data + bias.data), bwd)


def scale(tape: Tape | None, a: DenseMatrix, factor: float) -> DenseMatrix:
    da = a.cell

    def bwd(g):
        da.add(g * factor)

    return record_op(tape, "scale", DenseMatrix(a.data * factor), bwd)


def add_constant(tape: Tape | None, a: DenseMatrix, shift: Array) -> DenseMatrix:
    """a + shift where shift is a plain array (no gradient into shift)."""
    return record_op(tape, "add_constant", DenseMatrix(a.data + shift), a.cell.add)


def gather_rows(tape: Tape | None, table: DenseMatrix, indices: Array) -> DenseMatrix:
    """Select table rows by integer index; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather_rows needs a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= table.rows):
        raise IndexError(f"row index out of range for table with {table.rows} rows")
    dtable = table.cell

    def bwd(g):
        np.add.at(dtable.ensure(), idx, g)

    return record_op(tape, "gather_rows", DenseMatrix(table.data[idx]), bwd)


def slice_cols(tape: Tape | None, a: DenseMatrix, start: int, stop: int) -> DenseMatrix:
    if not (0 <= start < stop <= a.cols):
        raise ValueError(f"bad column slice [{start}:{stop}] for {a.cols} columns")
    da = a.cell

    def bwd(g):
        da.ensure()[:, start:stop] += g

    return record_op(tape, "slice_cols", DenseMatrix(a.data[:, start:stop]), bwd)


def split_heads(tape: Tape | None, a: DenseMatrix, heads: int) -> DenseMatrix:
    """a (m, heads * d) -> stack (heads, m, d): slice h holds column block h."""
    if a.data.ndim != 2 or heads < 1 or a.cols % heads:
        raise ValueError(f"cannot split shape {a.data.shape} into {heads} heads")
    m, width = a.rows, a.cols // heads
    da = a.cell

    def bwd(g):
        da.add(g.transpose(1, 0, 2).reshape(m, heads * width))

    out = DenseMatrix(a.data.reshape(m, heads, width).transpose(1, 0, 2))
    return record_op(tape, "split_heads", out, bwd)


def merge_heads(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Stack (heads, m, d) -> (m, heads * d): the inverse of :func:`split_heads`."""
    if a.data.ndim != 3:
        raise ValueError(f"merge_heads needs a 3-D stack, got shape {a.data.shape}")
    heads, m, width = a.data.shape
    da = a.cell

    def bwd(g):
        da.add(g.reshape(m, heads, width).transpose(1, 0, 2))

    out = DenseMatrix(a.data.transpose(1, 0, 2).reshape(m, heads * width))
    return record_op(tape, "merge_heads", out, bwd)


def add_slices(tape: Tape | None, a: DenseMatrix, parts: Sequence[DenseMatrix | None]) -> DenseMatrix:
    """Stack a (S, m, n) with each 2-D ``parts[s]`` added to slice s; a None part adds nothing."""
    if a.data.ndim != 3 or len(parts) != a.data.shape[0]:
        raise ValueError(f"add_slices needs one part per slice of {a.data.shape}, got {len(parts)}")
    data = a.data.copy()
    for s, p in enumerate(parts):
        if p is not None:
            data[s] += p.data
    if tape is not None:
        dparts = [(s, p.cell) for s, p in enumerate(parts) if p is not None]
    da = a.cell

    def bwd(g):
        da.add(g)
        for s, dp in dparts:
            dp.add(g[s])

    return record_op(tape, "add_slices", DenseMatrix(data), bwd)


# ---------------------------------------------------------------------------
# nonlinear ops
# ---------------------------------------------------------------------------


def softmax_rows(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """Row-wise softmax with max subtraction; each output row (of every slice) sums to 1."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    da = a.cell

    def bwd(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        da.add(p * (g - inner))

    return record_op(tape, "softmax_rows", DenseMatrix(p), bwd)


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
    n, x, w = a.cols, a.data, gamma.data
    dx, dgamma, dbeta = a.cell, gamma.cell, beta.cell
    mu = x.mean(axis=1, keepdims=True)
    y = x - mu
    var = (y * y).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y *= inv  # x_hat
    y *= w
    y += beta.data

    def bwd(g):
        xhat = x - mu  # recomputed as the forward computed it, from the input it keeps
        xhat *= inv
        dbeta.add(g.sum(axis=0, keepdims=True))
        dgamma.add((g * xhat).sum(axis=0, keepdims=True))
        dxhat = g * w
        # standard layer-norm input gradient for per-row statistics
        d_in = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True) / n
        )
        dx.add(d_in)

    return record_op(tape, "layer_norm", DenseMatrix(y), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(tape: Tape | None, a: DenseMatrix) -> DenseMatrix:
    """tanh-approximation GeLU: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    The cube is the product ``x * x * x``: numpy runs ``x**3`` through libm
    ``pow`` per element, tens of times slower than two multiplies.  The
    square is bitwise what numpy computes for ``x**2``; the backward
    recomputes it from the input rather than keep it.  The tanh argument is
    built in place in one buffer, in the formula's order, which the backward
    keeps as ``tanh``, the one temporary it stores.
    """
    x, da = a.data, a.cell
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * x
    y *= 1.0 + t

    def bwd(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        dt = (1.0 - t * t) * dinner
        da.add(g * (0.5 * (1.0 + t) + 0.5 * x * dt))

    return record_op(tape, "gelu", DenseMatrix(y), bwd)


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
    dlogits_cell = logits.cell

    def bwd(g):
        if count == 0:
            return
        p = np.exp(logp)
        dlogits = p.copy()
        rows = np.nonzero(keep)[0]
        dlogits[rows, t[rows]] -= 1.0
        dlogits[~keep] = 0.0
        dlogits_cell.add(dlogits * (g[0, 0] / count))

    return record_op(tape, "cross_entropy", DenseMatrix([[value]]), bwd)


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
        """One update; a missing gradient is treated as all-zero (decay still applies).

        Each parameter is updated in place through two scratch buffers the
        size of the largest parameter, with the operations, in order, of
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``,
        ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` and ``p -= lr wd p``:
        bitwise those expressions, without a parameter-sized temporary per
        operation.  Gradients are left for the caller to drop.
        """
        if lr is None:
            lr = self.lr
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        size = max((p.data.size for p in self.params), default=0)
        scratch = np.empty(size), np.empty(size)
        for p, m, v in zip(self.params, self._m, self._v):
            s, u = (buf[: p.data.size].reshape(p.data.shape) for buf in scratch)
            m *= self.beta1
            v *= self.beta2
            if p.grad is not None:
                np.multiply(p.grad, 1.0 - self.beta1, out=s)
                m += s
                np.square(p.grad, out=s)
                s *= 1.0 - self.beta2
                v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=u)
            u /= s
            u *= lr
            p.data.flags.writeable = True  # an evaluation forward may have frozen it
            p.data -= u
            if self.weight_decay:
                np.multiply(p.data, lr * self.weight_decay, out=u)
                p.data -= u


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
