"""The benchmark's own tests: every workload runs to its end, and every output
check rejects a deliberately wrong output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from bitbench import checks, harness, workloads  # noqa: E402
from bitbench.tracing import Tracer  # noqa: E402
from bitformer import bitkernel, data, model, pretrain  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.1"]
    return subprocess.run(
        cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_to_its_end(workload):
    proc = _run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"])
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_reports_every_per_layer_metric():
    corpus = data.parse_corpus(data.generate_toy_corpus(seed=1, docs=4, sentences_per_doc=4))
    cfg = model.ModelConfig(
        layers=1, hidden=16, heads=2, ffn=32, max_seq=32, vocab=len(corpus.vocab),
        variant="bipft_b", rank=2,
    ).validate()
    tracer = Tracer()
    tracer.install()
    try:
        m = model.build_model(cfg, seed=0)
        pretrain.pretrain_loop(m, corpus, steps=1, batch_size=2, seed=0)
        model.forward_packed(m, np.array([2, 7, 8, 9]))
    finally:
        tracer.uninstall()
    assert model.forward_packed.__name__ == "forward_packed"  # originals restored
    assert tracer.counters["numerics.tape_ops"] > 0
    gemm = {"ratio": 1.0, "float_mb": 1.0, "packed_mb": 1.0}
    metrics = harness.per_layer_metrics(tracer, 1, 0.0, gemm, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in metrics.items())
    for name in ("model.forward_ms", "model.forward_packed_ms", "numerics.backward_ms",
                 "binattn.score_residual_ms", "bitkernel.binary_gmac_per_s", "data.batch_ms"):
        assert metrics[name][0] > 0, name
    total, own, _ = tracer.totals()
    assert all(0.0 <= own[n] <= total[n] + 1e-12 for n in total)


# --------------------------------------------------------------------------
# each check rejects a wrong output
# --------------------------------------------------------------------------


def _off_by_one(accumulate):
    def wrong(a, b):
        out = accumulate(a, b).copy()
        out[0, 0] += 1
        return out

    return wrong


def test_binary_kernel_check_rejects_off_by_one():
    rng = np.random.default_rng(0)
    a, w = rng.normal(size=(5, 70)), rng.normal(size=(3, 70))
    assert checks.binary_kernel_problems(a, w) == []
    assert checks.binary_kernel_problems(a, w, _off_by_one(bitkernel.binary_accumulate))


def test_ternary_kernel_check_rejects_off_by_one():
    rng = np.random.default_rng(1)
    sel = (rng.random((6, 6)) < 0.5).astype(float)
    v = rng.normal(size=(6, 4))
    assert checks.ternary_kernel_problems(sel, v) == []
    assert checks.ternary_kernel_problems(sel, v, _off_by_one(bitkernel.ternary_accumulate))


def _tiny_model():
    cfg = model.ModelConfig(layers=1, hidden=16, heads=2, ffn=32, max_seq=16, vocab=20).validate()
    return model.build_model(cfg, seed=0)


def test_checkpoint_checks_reject_a_flipped_byte(tmp_path):
    m = _tiny_model()
    path = tmp_path / "m.ckpt"
    model.save_checkpoint(path, m)
    offset = path.stat().st_size - 20
    assert checks.corruption_problems(path, tmp_path / "copy.ckpt", offset) == []
    accept_anything = lambda p: None  # noqa: E731
    assert checks.corruption_problems(path, tmp_path / "copy.ckpt", offset, accept_anything)

    saved = [(n, p.data) for n, p in model.named_parameters(m)]
    loaded = [(n, p.data.copy()) for n, p in model.named_parameters(model.load_model(path))]
    assert checks.roundtrip_problems(saved, loaded) == []
    flipped = loaded[0][1].astype(np.float32)
    flipped.view(np.uint8)[1] ^= 0x01
    loaded[0] = (loaded[0][0], flipped.astype(np.float64))
    assert checks.roundtrip_problems(saved, loaded)


def test_loss_checks_reject_non_decreasing_and_non_finite_loss():
    assert checks.loss_drop_problems(4.0, 3.8) == []
    assert checks.loss_drop_problems(4.0, 4.0)
    assert checks.loss_drop_problems(4.0, 4.1)
    assert checks.finite_loss_problems([3.9, float("nan")])
    assert checks.identical_problems([3.9, 3.8], [3.9, 3.8], "rerun") == []
    assert checks.identical_problems([3.9, 3.8], [3.9, 3.8000000000000003], "rerun")


def test_route_checks_reject_disagreeing_logits():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 20))
    assert checks.route_agreement_problems(logits, logits + 1e-12, "s") == []
    assert checks.route_agreement_problems(logits, logits + 1e-6, "s")

    cfg = model.ModelConfig(
        layers=2, hidden=16, heads=2, ffn=32, max_seq=16, vocab=20, full_precision=True
    ).validate()
    twin = model.build_model(cfg, seed=1)
    ids, segs = np.array([2, 7, 8, 9, 11, 3]), np.array([0, 0, 0, 1, 1, 1])
    out = model.forward(twin, ids, segs)
    params = {n: p.data for n, p in model.named_parameters(twin)}
    want = checks.reference_fp_logits(params, cfg.layers, cfg.heads, ids, segs)
    mlm, nsp = out.mlm_logits.data, out.nsp_logits.data
    assert checks.fp_reference_problems(mlm, nsp, want, "s") == []
    assert checks.fp_reference_problems(mlm + 1e-6, nsp, want, "s")


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    a, b = workloads.Infer(5, tmp_path), workloads.Infer(5, tmp_path)
    seqs = []
    for wl in (a, b):
        wl.LAYERS = 1
        wl.setup()
        seqs.append([ids.tolist() for ids, _ in wl.sequences])
    assert seqs[0] == seqs[1]
    assert [len(s) for s in seqs[0]] == list(workloads.Infer.LENGTHS)
