"""Command-line behavior: artifacts, exit codes, determinism, output formats.

Training invocations use tiny step budgets; the real training behavior is
covered by the library tests and the acceptance suite.
"""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bitformer.cli import EXIT_NUMERIC_ABORT, EXIT_SCHEMA_MISMATCH, EXIT_USAGE, main
from bitformer.data import SPECIAL_TOKENS, generate_toy_corpus, generate_toy_task
from bitformer.model import CheckpointFormatError, load_checkpoint
from bitformer.pretrain import TrainingAbort


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.txt"
    path.write_text(generate_toy_corpus(seed=1, docs=8, sentences_per_doc=6))
    return path


@pytest.fixture(scope="module")
def task_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "task.tsv"
    rows = generate_toy_task(seed=2, count=40)
    path.write_text("".join(f"{label}\t{text}\n" for text, label in rows))
    return path


@pytest.fixture(scope="module")
def pretrained_run(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("runs") / "pt"
    rc = main(
        [
            "pretrain",
            "--corpus",
            str(corpus_file),
            "--out",
            str(out),
            "--steps",
            "2",
            "--batch",
            "2",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return out


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--only", "ternary"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS  ternary-trick")


def test_verify_unknown_suite_is_usage_error():
    assert main(["verify", "--only", "bogus"]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert main([]) == EXIT_USAGE


# --------------------------------------------------------------------------
# pretrain
# --------------------------------------------------------------------------


def test_pretrain_writes_checkpoint_metrics_manifest_vocab(pretrained_run):
    assert (pretrained_run / "model.ckpt").is_file()
    lines = (pretrained_run / "metrics.tsv").read_text().splitlines()
    assert lines[0].split("\t") == [
        "step",
        "loss_mlm",
        "loss_nsp",
        "loss_rep",
        "loss_logit",
        "lr",
        "masked_acc",
    ]
    assert len(lines) == 3  # header + one line per step
    assert all(len(line.split("\t")) == 7 for line in lines)

    manifest = json.loads((pretrained_run / "manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["seed"] == 3
    assert manifest["config"]["hidden"] == 128
    assert manifest["finished"] is not None
    assert manifest["outputs"]["checkpoint"].endswith("model.ckpt")

    vocab_lines = (pretrained_run / "vocab.txt").read_text().splitlines()
    assert vocab_lines[:5] == list(SPECIAL_TOKENS)
    config, _ = load_checkpoint(pretrained_run / "model.ckpt")
    assert config.vocab == len(vocab_lines)


def test_pretrain_missing_corpus_is_usage_error(tmp_path, capsys):
    rc = main(["pretrain", "--corpus", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "corpus" in capsys.readouterr().err


def test_pretrain_same_seed_writes_identical_checkpoints(tmp_path, corpus_file):
    args = ["pretrain", "--corpus", str(corpus_file), "--steps", "2", "--batch", "2", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/model.ckpt").read_bytes() == (tmp_path / "b/model.ckpt").read_bytes()


def test_pretrain_with_full_precision_teacher(tmp_path, corpus_file, capsys):
    teacher_dir = tmp_path / "teacher"
    rc = main(
        [
            "pretrain",
            "--corpus",
            str(corpus_file),
            "--out",
            str(teacher_dir),
            "--steps",
            "1",
            "--batch",
            "2",
            "--full-precision",
        ]
    )
    assert rc == 0
    student_dir = tmp_path / "student"
    rc = main(
        [
            "pretrain",
            "--corpus",
            str(corpus_file),
            "--out",
            str(student_dir),
            "--steps",
            "1",
            "--batch",
            "2",
            "--teacher",
            str(teacher_dir / "model.ckpt"),
        ]
    )
    assert rc == 0
    row = (student_dir / "metrics.tsv").read_text().splitlines()[1].split("\t")
    assert float(row[3]) > 0.0  # distillation representation loss was active


def test_numeric_abort_maps_to_exit_3(tmp_path, corpus_file, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise TrainingAbort("head.mlm.w")

    monkeypatch.setattr("bitformer.cli.pretrain_loop", explode)
    rc = main(
        ["pretrain", "--corpus", str(corpus_file), "--out", str(tmp_path / "x"), "--steps", "1"]
    )
    assert rc == EXIT_NUMERIC_ABORT
    assert "head.mlm.w" in capsys.readouterr().err


# --------------------------------------------------------------------------
# finetune
# --------------------------------------------------------------------------


def test_finetune_from_checkpoint_prints_accuracy(pretrained_run, task_file, tmp_path, capsys):
    out = tmp_path / "ft"
    rc = main(
        [
            "finetune",
            "--checkpoint",
            str(pretrained_run / "model.ckpt"),
            "--task",
            str(task_file),
            "--out",
            str(out),
            "--epochs",
            "0",
        ]
    )
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    result = json.loads((out / "result.json").read_text())
    assert 0.0 <= result["accuracy"] <= 1.0
    assert result["n_train"] + result["n_eval"] == 40
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "finetune"


def test_finetune_variant_mismatch_exits_4(pretrained_run, task_file, tmp_path, capsys):
    rc = main(
        [
            "finetune",
            "--checkpoint",
            str(pretrained_run / "model.ckpt"),
            "--task",
            str(task_file),
            "--out",
            str(tmp_path / "ft"),
            "--variant",
            "bipft-b",
            "--rank",
            "2",
        ]
    )
    assert rc == EXIT_SCHEMA_MISMATCH
    assert "missing" in capsys.readouterr().err


def test_finetune_missing_checkpoint_exits_2(task_file, tmp_path):
    rc = main(
        [
            "finetune",
            "--checkpoint",
            str(tmp_path / "absent.ckpt"),
            "--task",
            str(task_file),
            "--out",
            str(tmp_path / "ft"),
        ]
    )
    assert rc == EXIT_USAGE


def test_finetune_without_checkpoint_or_corpus_exits_2(task_file, tmp_path, capsys):
    rc = main(["finetune", "--task", str(task_file), "--out", str(tmp_path / "ft")])
    assert rc == EXIT_USAGE
    assert "corpus" in capsys.readouterr().err


def test_finetune_from_scratch_with_corpus(task_file, corpus_file, tmp_path):
    rc = main(
        [
            "finetune",
            "--task",
            str(task_file),
            "--corpus",
            str(corpus_file),
            "--out",
            str(tmp_path / "ft"),
            "--epochs",
            "0",
        ]
    )
    assert rc == 0


# --------------------------------------------------------------------------
# bench / corpus / inspect
# --------------------------------------------------------------------------


def test_bench_prints_accounting_and_throughput(capsys):
    rc = main(["bench", "--config", "tiny", "--gemm-size", "128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equiv_gflops=" in out
    assert "size_mb=" in out
    assert "throughput_ratio=" in out


def test_corpus_command_writes_corpus_and_task(tmp_path):
    corpus_path = tmp_path / "c.txt"
    task_path = tmp_path / "t.tsv"
    rc = main(
        [
            "corpus",
            "--out",
            str(corpus_path),
            "--task-out",
            str(task_path),
            "--docs",
            "6",
            "--sentences",
            "4",
            "--task-count",
            "10",
        ]
    )
    assert rc == 0
    assert corpus_path.read_text().count("\n\n") >= 5  # blank lines between documents
    rows = [line.split("\t") for line in task_path.read_text().splitlines()]
    assert len(rows) == 10
    assert {row[0] for row in rows} <= {"0", "1"}


def test_inspect_prints_config_and_tensor_table(pretrained_run, capsys):
    rc = main(["inspect", "--checkpoint", str(pretrained_run / "model.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"hidden": 128' in out
    assert "emb.tok" in out
    assert "payload_bytes=" in out


@pytest.mark.parametrize("version", [0, 1])  # 1: the retired FNV-1a container
def test_inspect_corrupt_checkpoint_exits_4(tmp_path, capsys, version):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"BPFT" + version.to_bytes(4, "little") + b"\x00" * 60)
    rc = main(["inspect", "--checkpoint", str(bad)])
    assert rc == EXIT_SCHEMA_MISMATCH
    err = capsys.readouterr().err
    assert "checkpoint" in err and f"version {version}" in err


def test_inspect_checkpoint_whose_dims_overflow_int64_exits_4(pretrained_run, tmp_path, capsys):
    # dims (2**32, 2**32): a product that wraps to 0 in int64 must still read as truncation
    raw = bytearray((pretrained_run / "model.ckpt").read_bytes())
    ndim_at = raw.index(b"emb.tok") + len(b"emb.tok")
    assert raw[ndim_at] == 2
    raw[ndim_at + 1 : ndim_at + 17] = struct.pack("<QQ", 2**32, 2**32)
    raw[-8:] = hashlib.blake2b(raw[:-8], digest_size=8).digest()  # re-hashed: only the dims are wrong
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(bytes(raw))
    rc = main(["inspect", "--checkpoint", str(bad)])
    assert rc == EXIT_SCHEMA_MISMATCH
    assert "truncated checkpoint" in capsys.readouterr().err


def _rehashed(raw: bytearray) -> bytes:
    """``raw`` with a digest that matches its body, so only the layout is at fault."""
    raw[-8:] = hashlib.blake2b(raw[:-8], digest_size=8).digest()
    return bytes(raw)


def _second_emb_tok(raw: bytearray) -> bytes:
    at = raw.index(b"emb.pos")  # as long as "emb.tok", so the layout still parses
    raw[at : at + 7] = b"emb.tok"
    return _rehashed(raw)


@pytest.mark.parametrize(
    "fault, named",
    [
        (lambda raw: bytes(raw[:15]), "file too short to be a checkpoint (15 bytes)"),
        (_second_emb_tok, "duplicate tensor 'emb.tok'"),
        (lambda raw: _rehashed(raw[:-8] + b"\x00" * 3 + raw[-8:]), "3 trailing bytes after tensors"),
    ],
    ids=["too-short", "duplicate-name", "trailing-bytes"],
)
def test_checkpoint_layout_faults_are_named_and_inspect_exits_4(pretrained_run, tmp_path, capsys, fault, named):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(fault(bytearray((pretrained_run / "model.ckpt").read_bytes())))
    with pytest.raises(CheckpointFormatError, match=re.escape(named)):
        load_checkpoint(bad)
    assert main(["inspect", "--checkpoint", str(bad)]) == EXIT_SCHEMA_MISMATCH
    assert named in capsys.readouterr().err


# --------------------------------------------------------------------------
# environment knobs
# --------------------------------------------------------------------------


def test_thread_cap_env_is_honored(monkeypatch):
    monkeypatch.setenv("BITFORMER_THREADS", "1")
    assert main(["verify", "--only", "ternary"]) == 0


def test_thread_cap_env_rejects_garbage(monkeypatch, capsys):
    monkeypatch.setenv("BITFORMER_THREADS", "lots")
    assert main(["verify", "--only", "ternary"]) == EXIT_USAGE
    assert "BITFORMER_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["1", None])
def test_manifest_records_the_thread_setting(tmp_path, corpus_file, monkeypatch, cap):
    import bitformer

    if cap is None:
        monkeypatch.delenv("BITFORMER_THREADS", raising=False)
    else:
        monkeypatch.setenv("BITFORMER_THREADS", cap)
    out = tmp_path / "run"
    args = ["pretrain", "--corpus", str(corpus_file), "--out", str(out), "--steps", "1", "--batch", "2"]
    assert main(args) == 0
    threads = json.loads((out / "manifest.json").read_text())["threads"]
    assert threads == {
        "bitformer_threads": None if cap is None else int(cap),
        "openblas_num_threads_at_start": bitformer.STARTUP_OPENBLAS_THREADS,
    }


# OpenBLAS's own thread count, read after importing the CLI first; prints
# "none" when numpy bundles no OpenBLAS
_OPENBLAS_THREADS_AFTER_CLI = """
import bitformer.cli
import ctypes, glob, os
import numpy as np
for path in glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            print(int(fn()))
            raise SystemExit
print("none")
"""


def _python(code: str, env: dict[str, str]) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this tree's ``bitformer``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(env, PYTHONPATH=os.pathsep.join([src, env["PYTHONPATH"]]) if env.get("PYTHONPATH") else src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )


def _env_without_thread_vars(**extra: str) -> dict[str, str]:
    return {**{k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}, **extra}


def test_thread_cap_env_reaches_openblas():
    out = _python(_OPENBLAS_THREADS_AFTER_CLI, _env_without_thread_vars(BITFORMER_THREADS="1")).stdout.strip()
    if out == "none":
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be read")
    assert out == "1"


_ALL_AT_ONE = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


@pytest.mark.parametrize(
    "code, preset, warns",
    [
        ("import numpy, bitformer", {}, True),
        ("import numpy, bitformer", {"OPENBLAS_NUM_THREADS": "4"}, True),
        ("import bitformer, numpy", {}, False),
        ("import numpy, bitformer", _ALL_AT_ONE, False),  # the pools already run one thread
    ],
)
def test_thread_cap_that_comes_too_late_for_numpy_warns(code, preset, warns):
    err = _python(code, _env_without_thread_vars(BITFORMER_THREADS="1", **preset)).stderr
    assert ("RuntimeWarning: BITFORMER_THREADS=1 does not take effect" in err) == warns, err
    assert ("import bitformer before numpy" in err) == warns


def test_importing_the_cli_loads_no_thread_pool_or_logging():
    # the checkpoint digest worker's executor is imported where it runs, not by
    # every command: concurrent.futures brings logging, about 5 ms of import
    code = "import sys, bitformer.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    assert _python(code, dict(os.environ)).stdout.strip() == "[]"
