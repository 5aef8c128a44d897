"""bitformer: a desk-scale 1-bit transformer encoder.

Weights and activations are constrained to two levels and multiplied with
XOR-popcount kernels at eval time (``dot = n - 2 * popcount(a XOR b)``, with
zero padding bits and no mask); training simulates the same quantized
values in float64 with straight-through surrogate gradients on an explicit
tape.  Includes an MLM/NSP pretraining pipeline for toy corpora, optional
distillation from a full-precision twin, and low-rank estimators of the
attention binarization residual.

``BITFORMER_THREADS=N`` sets the BLAS and OpenMP thread pools to N threads.
It is applied here, on import of the package and before any submodule loads
numpy, by setting the ``*_NUM_THREADS`` variables.  A process that loaded
numpy first has already started its pools, so there the import warns
(``RuntimeWarning``) if any of those variables differed from N.
"""

from __future__ import annotations

import os
import sys
import warnings

__version__ = "0.1.0"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# what the process started with, before any cap is applied
STARTUP_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")


def thread_cap() -> int | None:
    """The thread count ``BITFORMER_THREADS`` asks for; None when it is unset."""
    raw = os.environ.get("BITFORMER_THREADS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError as err:
        raise ValueError(f"BITFORMER_THREADS must be an integer, got {raw!r}") from err


def _set_thread_vars() -> None:
    try:
        cap = thread_cap()
    except ValueError:  # the command line reports it and exits 2
        return
    if cap is None:
        return
    started = "numpy" in sys.modules  # its pools read the variables when numpy loaded
    late = [f"{var}={cap}" for var in _THREAD_VARS if started and os.environ.get(var) != str(cap)]
    for var in _THREAD_VARS:
        os.environ[var] = str(cap)
    if late:
        warnings.warn(
            f"BITFORMER_THREADS={cap} does not take effect: numpy was imported before bitformer, "
            f"so its thread pools started without {', '.join(late)}. Set them before Python "
            "starts, or import bitformer before numpy.",
            RuntimeWarning,
            stacklevel=2,
        )


_set_thread_vars()
