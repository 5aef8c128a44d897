"""Run one workload: set up, measure whole rounds, check outputs, report.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — start of ``run.py`` to the first timed operation: the
  imports, plus the median of ``SETUP_REPEATS`` workload set-ups (inputs,
  model build, warm-up).
* ``op_ms`` — the median over rounds of the mean operation time in a round.
* ``peak_rss_mb`` — peak resident memory of the process (``getrusage``).

The traced run (``--trace 1``) measures the same rounds twice, untraced and
then traced, and reports the per-layer metrics of the traced rounds plus
the tracer's own overhead on ``op_ms``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bitformer import bitkernel

from .tracing import BACKWARD_OPS, Tracer
from .workloads import WORKLOADS, Workload, bench_rng

SETUP_REPEATS = 3
MIN_ROUNDS = 2


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def build_id(root: Path) -> str:
    """``git describe`` where the tree is a repository, else a hash of ``src``."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                cwd=root, capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def environment(root: Path) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": f"{platform.machine()} {cpu}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_effective": blas_threads(),
        "build_id": build_id(root),
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def measure(wl: Workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed, and at least ``MIN_ROUNDS``."""
    first = len(wl.rounds)
    t0 = time.perf_counter()
    while len(wl.rounds) - first < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        wl.run_round()
    return wl.rounds[first:]


def op_ms(rounds) -> float:
    means = [statistics.fmean(r.op_seconds()) for r in rounds if r.op_seconds()]
    return 1e3 * statistics.median(means)


def gemm_float_over_packed(wl: Workload, reps: int = 5) -> dict[str, float]:
    """float64 GEMM time over ``binary_accumulate`` time at the model's linear shapes.

    Bytes moved are computed from the shapes, per layer and sequence: both
    operands and the output, 8 bytes per float or int64 and per packed word.
    """
    n, shapes = wl.gemm_shapes()
    rng = bench_rng(wl.seed, "gemm")
    t_float = t_packed = mb_float = mb_packed = 0.0
    for m_out, k, count in shapes:
        a = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
        w = np.where(rng.random((m_out, k)) < 0.5, -1.0, 1.0)
        pa, pw = bitkernel.pack_signs(a), bitkernel.pack_signs(w)
        t_float += count * _median_time(lambda: a @ w.T, reps)
        t_packed += count * _median_time(lambda: bitkernel.binary_accumulate(pa, pw), reps)
        words = -(-k // 64)
        mb_float += count * 8 * (n * k + m_out * k + n * m_out) / 1e6
        mb_packed += count * 8 * (n * words + m_out * words + n * m_out) / 1e6
    return {"ratio": t_float / t_packed, "float_mb": mb_float, "packed_mb": mb_packed}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def per_layer_metrics(
    tracer: Tracer, units: int, checkpoint_mb: float, gemm: dict, overhead_pct: float
) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced rounds; ``_ms`` figures are per workload unit."""
    total, _, calls = tracer.totals()
    units = max(units, 1)  # every traced operation failed: report totals
    per_unit = 1e3 / units

    def ms(*names: str) -> float:
        return per_unit * sum(total.get(n, 0.0) for n in names)

    def per_call(name: str, seconds: float | None = None) -> float:
        count = calls.get(name, 0)
        return (total.get(name, 0.0) if seconds is None else seconds) / count if count else 0.0

    acc_s = total.get("bitkernel.binary_accumulate", 0.0)
    macs = tracer.counters.get("bitkernel.binary_accumulate.macs", 0)
    out = {
        "data.batch_ms": (ms("data.pair_draw", "data.assemble_nsp_batch", "data.mask_tokens"), "ms"),
        "model.forward_ms": (ms("model.forward.taped"), "ms"),
        "model.forward_packed_ms": (ms("model.forward_packed"), "ms"),
        "model.forward_sim_ms": (ms("model.forward.sim"), "ms"),
        "model.forward_fp_ms": (ms("model.forward.fp"), "ms"),
        "model.save_checkpoint_s": (per_call("model.save_checkpoint"), "s"),
        "model.load_checkpoint_s": (per_call("model.load_checkpoint"), "s"),
        "model.build_model_s": (
            per_call("model.load_model", tracer.total_under("model.build_model", "model.load_model")),
            "s",
        ),
        "model.checkpoint_mb": (checkpoint_mb, "MB"),
        "binattn.attention_forward_ms": (ms("binattn.attention_forward"), "ms"),
        "binattn.binary_linear_ms": (ms("binattn.binary_linear"), "ms"),
        "binattn.attention_forward_packed_ms": (ms("binattn.attention_forward_packed"), "ms"),
        "binattn.binary_linear_packed_ms": (ms("binattn.binary_linear_packed"), "ms"),
        "binattn.score_residual_ms": (
            per_unit * tracer.total_under("binattn.score_residual", "model.forward_packed"),
            "ms",
        ),
        "quant.binarize_weight_ms": (ms("quant.binarize_weight"), "ms"),
        "quant.binarize_weight_calls": (calls.get("quant.binarize_weight", 0) / units, "count"),
        "quant.binarize_activation_pm1_ms": (ms("quant.binarize_activation_pm1"), "ms"),
        "quant.weight_row_scales_ms": (ms("quant.weight_row_scales"), "ms"),
        "bitkernel.pack_signs_ms": (ms("bitkernel.pack_signs"), "ms"),
        "bitkernel.pack_signs_elems": (
            tracer.counters.get("bitkernel.pack_signs.elems", 0) / units,
            "count",
        ),
        "bitkernel.binary_accumulate_ms": (ms("bitkernel.binary_accumulate"), "ms"),
        "bitkernel.ternary_accumulate_ms": (ms("bitkernel.ternary_accumulate"), "ms"),
        "bitkernel.binary_gmac_per_s": (macs / acc_s / 1e9 if acc_s else 0.0, "GMAC/s"),
        "bitkernel.float_over_packed": (gemm["ratio"], "x"),
        "bitkernel.float_gemm_mb": (gemm["float_mb"], "MB"),
        "bitkernel.packed_gemm_mb": (gemm["packed_mb"], "MB"),
        "numerics.tape_ops": (tracer.counters.get("numerics.tape_ops", 0) / units, "count"),
        "numerics.backward_ms": (ms("numerics.backward"), "ms"),
    }
    for op in BACKWARD_OPS:
        out[f"numerics.bwd.{op}_ms"] = (ms(f"numerics.bwd.{op}"), "ms")
    out["numerics.adamw_step_ms"] = (ms("numerics.adamw_step"), "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


def _metric_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}


def run_benchmark(
    root: Path, name: str, seed: int, seconds: float, trace: bool, process_t0: float
) -> int:
    imports_s = time.perf_counter() - process_t0
    out_dir = root / "bench" / "out"
    scratch = out_dir / f"tmp-{name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, scratch)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = imports_s + statistics.median(setups)

        untraced = measure(wl, seconds)
        if trace:
            units_before = wl.units()
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(wl, seconds)
            finally:
                tracer.uninstall()
            traced_units = wl.units() - units_before

        problems = wl.check()
        attempted = sum(r.attempted for r in wl.rounds)
        failed = sum(r.failed for r in wl.rounds)
        env = environment(root)

        if trace:
            overhead = 100.0 * (op_ms(traced) / op_ms(untraced) - 1.0)
            ckpts = list(scratch.glob("*.ckpt"))
            ckpt_mb = max(p.stat().st_size for p in ckpts) / 1e6 if ckpts else 0.0
            metrics = per_layer_metrics(
                tracer, traced_units, ckpt_mb, gemm_float_over_packed(wl), overhead
            )
            tracer.write(out_dir / f"trace-{name}-seed{seed}.json.gz")
            figures = {}
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_ms": (op_ms(untraced), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            figures = wl.figures()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for key, value in env.items():
        print(f"env {key} {value}")
    print(f"workload {name} seed {seed} rounds {len(wl.rounds)} unit {wl.unit}")
    for label, values in (("figure", figures), ("metric", metrics)):
        for key, (value, unit) in values.items():
            print(f"{label} {key} {value:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_json(metrics),
    }
    record = dict(result, env=env, workload=name, seed=seed, seconds=seconds,
                  trace=trace, setups_s=setups, imports_s=imports_s,
                  round_op_s=[r.seconds for r in wl.rounds],
                  figures=_metric_json(figures), problems=problems)
    (out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0 if not problems else 1
