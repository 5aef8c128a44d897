"""bitformer benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 bench/run.py --workload {pretrain,infer,checkpoint} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source tree (``src/bitformer`` next to ``bench``);
the program is imported from that ``src``, nothing is installed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
report the environment and the workload's own figures.  Result and trace
files go to ``bench/out/``.  See ``bench/README.md``.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the workloads are single-caller closed loops, and a second
# thread on a shared two-core machine mostly adds run-to-run spread.  numpy is
# not yet loaded, so OpenBLAS reads these when it starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pretrain", "infer", "checkpoint")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="bitformer benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bitformer" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'bitformer'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bitbench.harness import run_benchmark

    return run_benchmark(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace), PROCESS_T0
    )


if __name__ == "__main__":
    sys.exit(main())
