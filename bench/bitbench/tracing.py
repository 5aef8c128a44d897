"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each traced function under its name in every
``bitformer`` module that holds it (``binarize_weight`` in ``quant``,
``binattn`` and ``model``, for example), wraps ``Tape.record`` so that every
backward closure is timed under its op name, and wraps ``Tape.backward`` and
``AdamW.step``.  Spans (name, start, end, parent) stay in memory until the
run writes them out; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

import numpy as np

from bitformer import binattn, bitkernel, data, model, numerics, quant

# module -> public functions timed under "<module>.<function>"
TRACED_FUNCTIONS = {
    data: ("assemble_nsp_batch", "mask_tokens"),
    model: ("forward_packed", "build_model", "save_checkpoint", "load_checkpoint", "load_model"),
    binattn: (
        "attention_forward",
        "attention_forward_packed",
        "binary_linear",
        "binary_linear_packed",
        "score_residual",
    ),
    quant: ("binarize_weight", "binarize_activation_pm1", "weight_row_scales"),
    bitkernel: ("pack_signs", "binary_accumulate", "ternary_accumulate"),
}

BACKWARD_OPS = (
    "matmul",
    "binarize_weight",
    "binarize_activation_pm1",
    "binarize_attention_01",
    "softmax_rows",
    "layer_norm",
    "gelu",
    "gather_rows",
    "slice_cols",
    "concat_cols",
    "add",
    "add_bias",
    "scale",
    "transpose",
    "cross_entropy",
)


def _forward_span_name(args, kwargs) -> str:
    """``model.forward`` is three routes: taped training, untaped sim, full precision."""
    if kwargs.get("tape") is not None or (len(args) > 4 and args[4] is not None):
        return "model.forward.taped"
    return "model.forward.fp" if args[0].config.full_precision else "model.forward.sim"


def _count_accumulate(args, kwargs) -> dict[str, int]:
    a, b_t = args[0], args[1]
    return {"macs": a.rows * b_t.rows * a.cols}


def _count_pack(args, kwargs) -> dict[str, int]:
    return {"elems": int(np.asarray(args[0]).size)}


COUNTERS: dict[str, Callable] = {
    "bitkernel.binary_accumulate": _count_accumulate,
    "bitkernel.ternary_accumulate": _count_accumulate,
    "bitkernel.pack_signs": _count_pack,
}


class Tracer:
    """In-memory spans plus named counters, gathered while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # flat records: name id, start, end, parent span index (-1 for a root)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn: Callable, args=(), kwargs=None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self._name_id(name), time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, namer: Callable | None = None) -> Callable:
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(args, kwargs).items():
                    self.counters[f"{name}.{key}"] += value
            return self.call(namer(args, kwargs) if namer else name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("bitformer"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod, names in TRACED_FUNCTIONS.items():
            short = mod.__name__.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(mod, fname)
                self._replace_everywhere(original, self._wrap(f"{short}.{fname}", original))
        self._replace_everywhere(
            model.forward, self._wrap("model.forward", model.forward, _forward_span_name)
        )
        self._replace_everywhere(data.make_nsp_pairs, self._timed_pair_stream(data.make_nsp_pairs))

        tape_record, tape_backward = numerics.Tape.record, numerics.Tape.backward
        adamw_step = numerics.AdamW.step

        def record(tape, name, backward):
            self.counters["numerics.tape_ops"] += 1
            tape_record(tape, name, lambda: self.call(f"numerics.bwd.{name}", backward))

        def backward(tape, loss):
            return self.call("numerics.backward", tape_backward, (tape, loss))

        def step(opt, lr=None):
            return self.call("numerics.adamw_step", adamw_step, (opt, lr))

        self._patch_attr(numerics.Tape, "record", record)
        self._patch_attr(numerics.Tape, "backward", backward)
        self._patch_attr(numerics.AdamW, "step", step)

    def _timed_pair_stream(self, make_pairs: Callable) -> Callable:
        """``make_nsp_pairs`` is an endless generator: time each draw from it."""

        def traced(*args, **kwargs):
            stream = make_pairs(*args, **kwargs)
            while True:
                yield self.call("data.pair_draw", next, (stream,))

        return traced

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so that is the time no child covers.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return dict(total), dict(own), dict(calls)

    def total_under(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans that run inside an ``ancestor`` span."""
        want, anc = self._name_ids.get(name), self._name_ids.get(ancestor)
        if want is None or anc is None:
            return 0.0
        seconds = 0.0
        for nid, start, end, parent in self.spans:
            if nid != want:
                continue
            while parent >= 0 and self.spans[parent][0] != anc:
                parent = self.spans[parent][3]
            if parent >= 0:
                seconds += end - start
        return seconds

    def write(self, path: Path) -> None:
        """Spans and per-name totals as gzipped JSON."""
        total, own, calls = self.totals()
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counters": dict(self.counters),
            "summary": {
                name: {"calls": calls[name], "total_s": total[name], "self_s": own[name]}
                for name in sorted(total)
            },
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
