"""Output checks, each against a computation made apart from the program.

Every check returns a list of problems; an empty list means the output is
correct.  The references here are plain numpy written from the method's
definition (sign convention ``sign(0) = +1``, post-norm encoder, tanh GeLU),
not copies of the program's own output.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from bitformer import bitkernel, model

# Packed and simulated logits must agree to this, as binattn documents.
ROUTE_AGREEMENT = 1e-8
# The plain-numpy float encoder sums in another order than the program.
FP_REFERENCE_TOL = 1e-8
# A round of pretraining must lower the held-out masked-token loss by this
# share of its starting value; 8 smoke steps lowered it by 1.5-3.2% on each
# of 10 seeds, and a loop that does not learn lowers it by nothing.
MIN_LOSS_DROP = 0.005


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0, -1.0)


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


def binary_kernel_problems(
    a: np.ndarray, w: np.ndarray, accumulate: Callable = bitkernel.binary_accumulate
) -> list[str]:
    """``accumulate`` of the packed signs equals the float product of the ±1 operands."""
    want = _sign(a) @ _sign(w).T
    got = accumulate(bitkernel.pack_signs(a), bitkernel.pack_signs(w))
    bad = int(np.count_nonzero(np.asarray(got) != want))
    if bad:
        return [f"binary_accumulate {a.shape}x{w.shape[::-1]}: {bad} entries differ"]
    return []


def ternary_kernel_problems(
    sel: np.ndarray, v: np.ndarray, accumulate: Callable = bitkernel.ternary_accumulate
) -> list[str]:
    """``accumulate`` of {0,1} selections and ±1 values equals their float product."""
    want = sel @ _sign(v)
    got = accumulate(bitkernel.pack_signs(2.0 * sel - 1.0), bitkernel.pack_signs(v.T))
    bad = int(np.count_nonzero(np.asarray(got) != want))
    if bad:
        return [f"ternary_accumulate {sel.shape}x{v.shape}: {bad} entries differ"]
    return []


# --------------------------------------------------------------------------
# inference routes
# --------------------------------------------------------------------------


def route_agreement_problems(packed: np.ndarray, sim: np.ndarray, label: str) -> list[str]:
    diff = float(np.abs(packed - sim).max())
    if not diff < ROUTE_AGREEMENT:
        return [f"{label}: packed and simulated logits differ by {diff:.3e}"]
    return []


def _layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_fp_logits(
    params: dict[str, np.ndarray], layers: int, heads: int, ids: np.ndarray, segs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full-precision encoder from its definition: token-prediction and pair-order logits."""
    p = params
    n = len(ids)
    x = p["emb.tok"][ids] + p["emb.pos"][:n] + p["emb.seg"][segs]
    x = _layer_norm(x, p["emb.ln.gamma"], p["emb.ln.beta"])
    for i in range(layers):
        pre = f"layer{i}."
        q, k, v = (x @ p[pre + f"attn.w{c}"].T + p[pre + f"attn.b{c}"] for c in "qkv")
        dk = q.shape[1] // heads
        ctx = np.empty_like(q)
        for h in range(heads):
            cols = slice(h * dk, (h + 1) * dk)
            att = _softmax(q[:, cols] @ k[:, cols].T / math.sqrt(dk))
            ctx[:, cols] = att @ v[:, cols]
        attn = ctx @ p[pre + "attn.wo"].T + p[pre + "attn.bo"]
        x = _layer_norm(x + attn, p[pre + "ln_attn.gamma"], p[pre + "ln_attn.beta"])
        hid = _gelu(x @ p[pre + "ffn.w1"].T + p[pre + "ffn.b1"])
        f = hid @ p[pre + "ffn.w2"].T + p[pre + "ffn.b2"]
        x = _layer_norm(x + f, p[pre + "ln_ffn.gamma"], p[pre + "ln_ffn.beta"])
    mlm = x @ p["head.mlm.w"].T + p["head.mlm.b"]
    nsp = x[:1] @ p["head.nsp.w"].T + p["head.nsp.b"]
    return mlm, nsp


def fp_reference_problems(
    mlm: np.ndarray, nsp: np.ndarray, want: tuple[np.ndarray, np.ndarray], label: str
) -> list[str]:
    diff = max(float(np.abs(mlm - want[0]).max()), float(np.abs(nsp - want[1]).max()))
    if not diff < FP_REFERENCE_TOL:
        return [f"{label}: full-precision logits differ from the reference by {diff:.3e}"]
    return []


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


def finite_loss_problems(losses: Sequence[float]) -> list[str]:
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def loss_drop_problems(before: float, after: float) -> list[str]:
    """Held-out masked-token loss after training is clearly below its value at init."""
    if not after <= before * (1.0 - MIN_LOSS_DROP):
        return [
            f"held-out MLM loss {before:.4f} -> {after:.4f}; "
            f"needs a drop of at least {100 * MIN_LOSS_DROP:.1f}%"
        ]
    return []


def identical_problems(first: Sequence[float], again: Sequence[float], label: str) -> list[str]:
    """Same-seed reruns give bitwise-identical values."""
    if list(first) != list(again):
        return [f"{label}: same-seed rerun differs"]
    return []


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def roundtrip_problems(
    saved: Sequence[tuple[str, np.ndarray]], loaded: Sequence[tuple[str, np.ndarray]]
) -> list[str]:
    """Every loaded tensor equals its saved parameter rounded through float32."""
    want = {name: arr.astype(np.float32).astype(np.float64) for name, arr in saved}
    got = dict(loaded)
    problems = []
    if sorted(want) != sorted(got):
        problems.append("loaded tensor names differ from the saved ones")
    for name in sorted(set(want) & set(got)):
        if want[name].shape != got[name].shape or not np.array_equal(want[name], got[name]):
            problems.append(f"tensor {name!r} does not round-trip through float32")
    return problems


def corruption_problems(
    path: Path, copy_path: Path, offset: int, load: Callable = model.load_checkpoint
) -> list[str]:
    """A copy of ``path`` with the byte at ``offset`` flipped is refused by its checksum."""
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    copy_path.write_bytes(bytes(raw))
    try:
        load(copy_path)
    except model.CheckpointChecksumError:
        return []
    except Exception as err:  # any other refusal is the wrong one
        return [f"flipped byte {offset}: refused with {type(err).__name__}, not a checksum error"]
    finally:
        copy_path.unlink()
    return [f"flipped byte {offset}: corrupted checkpoint was accepted"]
