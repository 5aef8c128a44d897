"""Whole-model tests: config checking, forward shapes, parity, checkpoints.

The model is an encoder stack built from the binary attention and binary
feed-forward pieces, with binarized embedding tables and full-precision task
heads.  Tests pin: validation reports every problem at once, builds are
seed-deterministic, the packed evaluation route matches the float simulation
on logits, gradients reach every parameter (checked against directional
finite differences of the relaxed forward), the checkpoint container survives
a byte-exact roundtrip and rejects corruption, and the live parameter
inventory agrees with the cost-accounting formulas.
"""

from __future__ import annotations

import copy
import hashlib
import struct
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitformer.binattn import init_estimators
from bitformer.bitkernel import equivalent_flops
from bitformer.model import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointMismatchError,
    ConfigError,
    ModelConfig,
    binarize_linears,
    build_model,
    encode,
    forward,
    forward_packed,
    load_checkpoint,
    load_model,
    model_binarizers,
    named_parameters,
    parameter_inventory,
    save_checkpoint,
)
from bitformer.numerics import AdamW, Tape, add, cross_entropy

from oracles import block_linears, estimator_factors, full_precision_encoder

TINY = dict(layers=2, hidden=8, heads=2, ffn=16, max_seq=12, vocab=11)


def tiny_config(**over) -> ModelConfig:
    kw = dict(TINY)
    kw.update(over)
    return ModelConfig(**kw).validate()


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def test_valid_config_passes_and_returns_itself():
    cfg = ModelConfig(**TINY)
    assert cfg.validate() is cfg


def test_invalid_config_reports_every_problem_at_once():
    cfg = ModelConfig(
        layers=0, hidden=7, heads=3, ffn=0, max_seq=0, vocab=3, variant="nope", rank=-1
    )
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    for fragment in ("layers", "hidden", "heads", "ffn", "max_seq", "vocab", "variant", "rank"):
        assert fragment in msg, f"missing complaint about {fragment}"


def test_estimator_variant_requires_positive_rank():
    with pytest.raises(ConfigError, match="rank"):
        ModelConfig(**TINY, variant="bipft_b", rank=0).validate()
    tiny_config(variant="bipft_b", rank=2)  # fine


def test_rank_cannot_exceed_hidden():
    with pytest.raises(ConfigError, match="rank"):
        ModelConfig(**TINY, variant="bipft_b", rank=9).validate()


def test_config_json_roundtrip():
    cfg = tiny_config(variant="bipft_b", rank=3, full_precision=False)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


# --------------------------------------------------------------------------
# building and forward
# --------------------------------------------------------------------------


def test_build_is_seed_deterministic():
    cfg = tiny_config()
    m1 = build_model(cfg, seed=7)
    m2 = build_model(cfg, seed=7)
    m3 = build_model(cfg, seed=8)
    for (n1, p1), (n2, p2) in zip(named_parameters(m1), named_parameters(m2)):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    assert any(
        not np.array_equal(p1.data, p3.data)
        for (_, p1), (_, p3) in zip(named_parameters(m1), named_parameters(m3))
    )


def test_forward_shapes():
    cfg = tiny_config()
    model = build_model(cfg, seed=0)
    tokens = np.array([2, 5, 6, 7, 3, 8])
    segs = np.array([0, 0, 0, 1, 1, 1])
    res = forward(model, tokens, segs)
    assert len(res.hidden_states) == cfg.layers + 1
    assert all(h.data.shape == (6, cfg.hidden) for h in res.hidden_states)
    assert res.mlm_logits.data.shape == (6, cfg.vocab)
    assert res.nsp_logits.data.shape == (1, 2)


def test_a_taped_smoke_forward_records_each_attention_step_once_for_all_heads():
    # 2 layers, 4 heads: a per-head loop would record each score, softmax,
    # selection and mix step four times per layer (172 ops in all)
    cfg = ModelConfig(layers=2, hidden=128, heads=4, ffn=256, max_seq=64, vocab=50).validate()
    model = build_model(cfg, seed=0)
    tokens = np.random.default_rng(0).integers(5, 50, size=24)
    tape = Tape()
    forward(model, tokens, np.zeros(24, dtype=np.int64), tape=tape)
    assert len(tape.ops) <= 100


def test_sequence_longer_than_max_seq_is_rejected():
    model = build_model(tiny_config(max_seq=4), seed=0)
    with pytest.raises(ValueError, match="max_seq"):
        forward(model, np.arange(5) % 4)


def test_zeroed_estimators_match_estimator_free_forward():
    plain = build_model(tiny_config(variant="bipft_a"), seed=5)
    est = build_model(tiny_config(variant="bipft_b", rank=2), seed=5)
    for block in est.blocks:
        for f in estimator_factors(block.attn.estimators):
            f.data[...] = 0.0
    tokens = np.array([2, 5, 6, 7, 3])
    out_a = forward(plain, tokens).mlm_logits.data
    out_b = forward(est, tokens).mlm_logits.data
    assert np.allclose(out_a, out_b, atol=0, rtol=0)


def test_full_precision_twin_runs_and_differs_from_binary():
    cfg = tiny_config()
    fp_cfg = tiny_config(full_precision=True)
    tokens = np.array([2, 5, 6, 3])
    binary = forward(build_model(cfg, seed=1), tokens).mlm_logits.data
    full = forward(build_model(fp_cfg, seed=1), tokens).mlm_logits.data
    assert full.shape == binary.shape
    assert not np.allclose(full, binary)


def test_pad_mask_shields_real_positions_from_pad_content():
    cfg = tiny_config()
    model = build_model(cfg, seed=3)
    pad_mask = np.array([True, True, True, True, False, False])
    t1 = np.array([2, 5, 6, 3, 0, 0])
    t2 = np.array([2, 5, 6, 3, 9, 10])  # same reals, different junk under the mask
    r1 = forward(model, t1, pad_mask=pad_mask)
    r2 = forward(model, t2, pad_mask=pad_mask)
    assert np.array_equal(r1.mlm_logits.data[:4], r2.mlm_logits.data[:4])
    assert np.array_equal(r1.nsp_logits.data, r2.nsp_logits.data)


@pytest.mark.parametrize("variant,rank", [("bipft_a", 0), ("bipft_b", 2)])
def test_full_precision_forward_matches_textbook_oracle(variant, rank):
    model = build_model(tiny_config(variant=variant, rank=rank, full_precision=True), seed=6)
    rng = np.random.default_rng(8)
    for _, p in named_parameters(model):  # move biases and norms off their trivial init
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    params = {name: p.data for name, p in named_parameters(model)}
    tokens = np.array([2, 5, 6, 7, 8, 9, 3, 0, 0])
    segs = np.array([0, 0, 0, 0, 1, 1, 1, 0, 0])
    for real in (None, tokens != 0):
        res = forward(model, tokens, segs, pad_mask=real)
        mlm, nsp = full_precision_encoder(params, model.config.layers, model.config.heads, tokens, segs, real)
        keep = slice(None) if real is None else real
        assert np.max(np.abs(res.mlm_logits.data[keep] - mlm[keep])) < 1e-10
        assert np.max(np.abs(res.nsp_logits.data - nsp)) < 1e-10


# --------------------------------------------------------------------------
# packed-evaluation parity
# --------------------------------------------------------------------------


def jitter_model_binarizers(model, rng) -> None:
    # move levels/thresholds off the lattice-degenerate fresh init, where an
    # activation can sit exactly on a sign threshold and the two routes may
    # round it apart (see the attention parity test for the full story)
    for block in model.blocks:
        quants = block.attn.binarizers() + [block.ffn.in_1, block.ffn.in_2]
        for q in quants:
            q.alpha.data[0, 0] *= float(rng.uniform(0.8, 1.25))
            q.beta.data[0, 0] += float(rng.normal(0.0, 0.05))


@pytest.mark.parametrize("variant,rank", [("bipft_a", 0), ("bipft_b", 2)])
def test_packed_forward_matches_float_simulation(variant, rank):
    cfg = tiny_config(variant=variant, rank=rank)
    model = build_model(cfg, seed=21)
    jitter_model_binarizers(model, np.random.default_rng(77))
    tokens = np.array([2, 5, 6, 7, 8, 3, 0, 0])
    segs = np.array([0, 0, 0, 1, 1, 1, 0, 0])
    pad_mask = tokens != 0

    sim = forward(model, tokens, segs, pad_mask=pad_mask, tape=Tape())
    packed = forward_packed(model, tokens, segs, pad_mask=pad_mask)
    assert np.max(np.abs(sim.mlm_logits.data - packed.mlm_logits)) < 1e-8
    assert np.max(np.abs(sim.nsp_logits.data - packed.nsp_logits)) < 1e-8
    assert len(packed.hidden_states) == cfg.layers + 1


@pytest.mark.parametrize("variant,rank", [("bipft_a", 0), ("bipft_b", 2)])
def test_untaped_forward_is_bitwise_the_packed_forward_at_init(variant, rank):
    # no jitter: the fresh init's knife-edge activations are resolved by the
    # one evaluation route, so the two calls cannot round them apart
    model = build_model(tiny_config(variant=variant, rank=rank), seed=21)
    tokens = np.array([2, 5, 6, 7, 8, 3, 0, 0])
    segs = np.array([0, 0, 0, 1, 1, 1, 0, 0])
    for pad_mask in (None, tokens != 0):
        sim = forward(model, tokens, segs, pad_mask=pad_mask)
        packed = forward_packed(model, tokens, segs, pad_mask=pad_mask)
        for got, want in zip(sim.hidden_states, packed.hidden_states):
            assert np.array_equal(got.data, want)
        assert np.array_equal(sim.mlm_logits.data, packed.mlm_logits)
        assert np.array_equal(sim.nsp_logits.data, packed.nsp_logits)


# --------------------------------------------------------------------------
# cached weight bits: frozen, and recomputed after every allowed change
# --------------------------------------------------------------------------


def rebuilt(model):
    """A model freshly built from copies of ``model``'s parameters: nothing cached."""
    fresh = build_model(model.config, seed=99)
    for (_, p), (_, q) in zip(named_parameters(model), named_parameters(fresh)):
        q.data = p.data.copy()
    return fresh


def eval_outputs(model, tokens):
    sim, packed = forward(model, tokens), forward_packed(model, tokens)
    return [h.data for h in sim.hidden_states] + [sim.mlm_logits.data, sim.nsp_logits.data] + (
        packed.hidden_states + [packed.mlm_logits, packed.nsp_logits]
    )


@pytest.mark.parametrize("route", [forward, forward_packed])
def test_an_in_place_write_to_a_cached_weight_raises(route):
    model = build_model(tiny_config(variant="bipft_b", rank=2), seed=4)
    route(model, np.array([2, 5, 6, 3]))
    for w in block_linears(model):
        with pytest.raises(ValueError, match="read-only"):
            w.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            w.data *= 2.0
    model.blocks[0].attn.bq.data[...] = 0.5  # only the binarized block weights are frozen


@pytest.mark.parametrize("change", ["adamw", "rebind", "deepcopy"])
def test_cached_forwards_follow_every_allowed_weight_change(change):
    model = build_model(tiny_config(variant="bipft_b", rank=2), seed=5)
    rng = np.random.default_rng(6)
    jitter_model_binarizers(model, rng)
    tokens = np.array([2, 5, 6, 7, 8, 3])
    before = eval_outputs(model, tokens)  # caches every block weight's bits
    if change == "adamw":
        params = [p for _, p in named_parameters(model)]
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        AdamW(params, lr=0.05).step()
    elif change == "rebind":
        for w in block_linears(model):
            w.data = w.data + rng.normal(0.0, 0.05, size=w.data.shape)
    else:
        model = copy.deepcopy(model)
        for w in block_linears(model):
            w.data += rng.normal(0.0, 0.05, size=w.data.shape)
    after = eval_outputs(model, tokens)
    assert not np.array_equal(after[-2], before[-2])
    for got, want in zip(after, eval_outputs(rebuilt(model), tokens)):
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(
    beta=st.floats(-0.5, -1e-3),
    n_real=st.integers(1, 15),
    seed=st.integers(0, 2**16),
    variant=st.sampled_from([("bipft_a", 0), ("bipft_b", 2)]),
)
@example(beta=-0.2, n_real=10, seed=0, variant=("bipft_a", 0))
def test_padded_keys_never_reach_real_rows_at_negative_attention_thresholds(beta, n_real, seed, variant):
    # a padded key has soft mass 0, which a threshold below -level/2 would
    # select; the key mask must gate it out of the selection in both routes
    cfg = ModelConfig(
        layers=1, hidden=32, heads=2, ffn=64, max_seq=16, vocab=20, variant=variant[0], rank=variant[1]
    ).validate()
    model = build_model(cfg, seed=seed)
    jitter_model_binarizers(model, np.random.default_rng(seed))
    for q in model.blocks[0].attn.head_att:
        q.beta.data[0, 0] = beta
    rng = np.random.default_rng(seed + 1)
    real = rng.integers(5, cfg.vocab, size=n_real)
    real[0] = 2
    pad_mask = np.arange(cfg.max_seq) < n_real
    pad_a = np.concatenate([real, np.zeros(cfg.max_seq - n_real, dtype=np.int64)])
    pad_b = np.concatenate([real, rng.integers(5, cfg.vocab, size=cfg.max_seq - n_real)])
    segs = (np.arange(cfg.max_seq) >= n_real // 2).astype(np.int64)

    for mode in ("hard", "relaxed"):
        sim_a = forward(model, pad_a, segs, pad_mask=pad_mask, tape=Tape(), mode=mode)
        sim_b = forward(model, pad_b, segs, pad_mask=pad_mask, tape=Tape(), mode=mode)
        for h_a, h_b in zip(sim_a.hidden_states, sim_b.hidden_states):
            assert np.array_equal(h_a.data[:n_real], h_b.data[:n_real])
    packed_a = forward_packed(model, pad_a, segs, pad_mask=pad_mask)
    packed_b = forward_packed(model, pad_b, segs, pad_mask=pad_mask)
    for h_a, h_b in zip(packed_a.hidden_states, packed_b.hidden_states):
        assert np.array_equal(h_a[:n_real], h_b[:n_real])
    sim = forward(model, pad_a, segs, pad_mask=pad_mask, tape=Tape())
    assert np.max(np.abs(sim.mlm_logits.data - packed_a.mlm_logits)) < 1e-8
    assert np.max(np.abs(sim.nsp_logits.data - packed_a.nsp_logits)) < 1e-8


# --------------------------------------------------------------------------
# gradients: every parameter, against directional finite differences
# --------------------------------------------------------------------------


def genericize_parameters(model, rng) -> None:
    """Move the model to a generic point in parameter space.

    At the fresh init the binary score spread is tiny, attention is nearly
    uniform, and the score-path gradients sit at rounding level (~1e-13) with
    the saturation gates closed — useless for finite differencing.  Scaling
    the weights up and randomizing biases/norms makes activations span the
    binarizer windows so every gradient path is live and measurable.

    The outlier injection matters: in relaxed mode a weight row whose centered
    entries all stay inside the clip window binarizes to a pure multiple of
    the centered row, which sums to exactly zero.  Gradients flowing back
    through such a matrix then have exactly-zero row sums, and downstream
    activation-level/threshold gradients (plain sums of that gradient) vanish
    identically.  A few large entries per matrix keep the clip active so the
    test state is genuinely generic.
    """
    scale_up = 15.0
    for e in (model.emb.tok, model.emb.pos, model.emb.seg):
        e.data *= scale_up
    for blk in model.blocks:
        a = blk.attn
        for w in (a.wq, a.wk, a.wv, a.wo, blk.ffn.w1, blk.ffn.w2):
            w.data *= scale_up
            spike = rng.random(w.data.shape) < 0.25
            w.data += spike * rng.normal(0.0, 2.5, size=w.data.shape)
        for b in (a.bq, a.bk, a.bv, a.bo, blk.ffn.b1, blk.ffn.b2):
            b.data[...] = rng.normal(0.0, 0.1, size=b.data.shape)
        for g, bt in (
            (blk.ln_attn_gamma, blk.ln_attn_beta),
            (blk.ln_ffn_gamma, blk.ln_ffn_beta),
        ):
            g.data[...] = 1.0 + 0.2 * rng.normal(size=g.data.shape)
            bt.data[...] = 0.1 * rng.normal(size=bt.data.shape)
        if a.estimators is not None:
            for f in estimator_factors(a.estimators):
                f.data[...] = 0.3 * rng.normal(size=f.data.shape)
    model.emb.ln_gamma.data[...] = 1.0 + 0.2 * rng.normal(size=model.emb.ln_gamma.data.shape)
    model.emb.ln_beta.data[...] = 0.1 * rng.normal(size=model.emb.ln_beta.data.shape)
    for h in (model.head.mlm_w, model.head.nsp_w):
        h.data *= 2.0
    for h in (model.head.mlm_b, model.head.nsp_b):
        h.data[...] = rng.normal(0.0, 0.05, size=h.data.shape)
    jitter_model_binarizers(model, rng)
    for blk in model.blocks:
        for q in blk.attn.head_att:
            # low levels so some attention values saturate (u >= 1) and the
            # level's saturation-gated gradient is exercised
            q.alpha.data[0, 0] *= 0.6


def test_gradient_reaches_every_parameter_and_matches_directional_fd():
    cfg = tiny_config(variant="bipft_b", rank=2)
    model = build_model(cfg, seed=13)
    genericize_parameters(model, np.random.default_rng(5))
    tokens = np.array([2, 5, 6, 7, 3, 8])
    segs = np.array([0, 0, 0, 1, 1, 1])
    mlm_targets = np.array([-100, 9, -100, 4, -100, 7])
    nsp_target = np.array([1])

    def loss_value() -> float:
        res = forward(model, tokens, segs, mode="relaxed")
        l_mlm = cross_entropy(None, res.mlm_logits, mlm_targets)
        l_nsp = cross_entropy(None, res.nsp_logits, nsp_target)
        return float(l_mlm.data[0, 0] + l_nsp.data[0, 0])

    tape = Tape()
    res = forward(model, tokens, segs, tape=tape, mode="relaxed")
    l_mlm = cross_entropy(tape, res.mlm_logits, mlm_targets)
    l_nsp = cross_entropy(tape, res.nsp_logits, nsp_target)
    loss = add(tape, l_mlm, l_nsp)
    tape.backward(loss)

    params = named_parameters(model)
    assert any(p.grad is not None and np.any(p.grad != 0) for _, p in params)

    h = 1e-6
    dir_rng = np.random.default_rng(99)
    failures = []
    zero_grads = []
    for name, p in params:
        if p.grad is None or not np.any(p.grad != 0):
            zero_grads.append(name)
            continue
        d = dir_rng.normal(size=p.data.shape)
        analytic = float((p.grad * d).sum())
        keep = p.data.copy()
        p.data[...] = keep + h * d
        up = loss_value()
        p.data[...] = keep - h * d
        down = loss_value()
        p.data[...] = keep
        fd = (up - down) / (2 * h)
        rel = abs(analytic - fd) / max(abs(fd), 1e-4)
        if rel > 2e-3:
            failures.append((name, analytic, fd, rel))
    assert not zero_grads, f"no gradient reached: {zero_grads}"
    assert not failures, f"directional FD mismatches: {failures}"


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_roundtrip_and_byte_determinism(tmp_path):
    cfg = tiny_config(variant="bipft_b", rank=2)
    model = build_model(cfg, seed=2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, model)
    save_checkpoint(p2, model)
    raw = p1.read_bytes()
    assert raw == p2.read_bytes()
    assert raw[-8:] == hashlib.blake2b(raw[:-8], digest_size=8).digest()

    loaded_cfg, tensors = load_checkpoint(p1)
    assert loaded_cfg == cfg
    names = [n for n, _ in named_parameters(model)]
    assert list(tensors) == names
    for n, p in named_parameters(model):
        assert np.array_equal(tensors[n], p.data.astype(np.float32).astype(np.float64))

    again = load_model(p1)
    for (n1, a), (n2, b) in zip(named_parameters(model), named_parameters(again)):
        assert n1 == n2
        assert np.array_equal(b.data, a.data.astype(np.float32).astype(np.float64))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def _flip_payload(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _bad_tensor_name(path):
    """Re-hashed, so only the first tensor name is wrong: a lone 0xFF byte is never UTF-8."""
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"emb.tok")] = 0xFF
    raw[-8:] = hashlib.blake2b(raw[:-8], digest_size=8).digest()
    path.write_bytes(bytes(raw))


def test_checkpoint_rejects_flipped_payload_byte(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    _flip_payload(path)
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_checkpoint_with_a_non_utf8_tensor_name_is_a_format_error(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    _bad_tensor_name(path)
    with pytest.raises(CheckpointFormatError, match="not UTF-8"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _dims_offset(raw, name: bytes) -> int:
    """Offset of the first dim of tensor ``name`` (its name, then ndim, then the dims)."""
    return raw.index(name) + len(name) + 1


def test_checkpoint_with_corrupted_dims_or_name_is_a_checksum_error(tmp_path):
    # the parse runs before the digest is known; a wrong digest still wins
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    good = path.read_bytes()
    dims = bytearray(good)
    at = _dims_offset(dims, b"emb.tok")
    dims[at : at + 8] = struct.pack("<Q", 2**60)
    name = bytearray(good)
    name[name.index(b"emb.tok")] = 0xFF
    for raw in (dims, name):
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointChecksumError):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "offset,patch,match",
    [(0, b"NOPE", "bad magic"), (4, struct.pack("<I", 1), "unsupported checkpoint version 1")],
)
def test_checkpoint_magic_and_version_are_refused_before_any_thread_starts(
    tmp_path, monkeypatch, offset, patch, match
):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(patch)] = patch
    path.write_bytes(bytes(raw))

    def forbidden(self):
        raise AssertionError("no thread may start before magic and version are checked")

    monkeypatch.setattr(threading.Thread, "start", forbidden)
    with pytest.raises(CheckpointFormatError, match=match):
        load_checkpoint(path)


def test_checkpoint_with_rehashed_dims_beyond_the_file_is_truncated_without_allocating(tmp_path):
    # 2**65 bytes of float32: allocating the tensor before the bounds check would fail otherwise
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    raw = bytearray(path.read_bytes())
    at = _dims_offset(raw, b"emb.tok")
    raw[at : at + 8] = struct.pack("<Q", 2**60)
    raw[-8:] = hashlib.blake2b(raw[:-8], digest_size=8).digest()
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


class _TornFile:
    """A binary file that runs out of disk after ``limit`` bytes, mid-write."""

    def __init__(self, f, limit: int):
        self.f, self.left = f, limit

    def write(self, data) -> int:
        data = bytes(data)
        if len(data) > self.left:
            self.f.write(data[: self.left])
            self.left = 0
            raise OSError("disk full")
        self.left -= len(data)
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _tear_writes_at(monkeypatch, limit: int) -> None:
    real_open = Path.open

    def torn_open(self, mode="r", *args, **kwargs):
        f = real_open(self, mode, *args, **kwargs)
        return _TornFile(f, limit) if "w" in mode else f

    monkeypatch.setattr(Path, "open", torn_open)


def _digest_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("checkpoint-digest")]


def test_failed_checkpoint_write_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    model_a = build_model(tiny_config(variant="bipft_b", rank=2), seed=0)
    save_checkpoint(path, model_a)
    before = path.read_bytes()
    threads = threading.active_count()

    _tear_writes_at(monkeypatch, len(before) // 2)  # the new file is as long as the old one
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, build_model(tiny_config(variant="bipft_b", rank=2), seed=1))
    monkeypatch.undo()

    assert threading.active_count() == threads and not _digest_threads()
    assert path.read_bytes() == before
    loaded = load_model(path)
    for (n1, a), (n2, b) in zip(named_parameters(model_a), named_parameters(loaded)):
        assert n1 == n2
        assert np.array_equal(b.data, a.data.astype(np.float32).astype(np.float64))
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class _DigestFailure(RuntimeError):
    pass


def _fail_every_digest(monkeypatch) -> list[str]:
    """Make every BLAKE2b update raise; returns the names of the threads it raised on."""
    raised_on: list[str] = []

    class FailingBlake2b:
        def __init__(self, data=b"", digest_size=64):
            self.digest_size = digest_size
            if data:
                self.update(data)

        def update(self, data) -> None:
            raised_on.append(threading.current_thread().name)
            raise _DigestFailure("hashing failed")

        def digest(self) -> bytes:  # what a save that never awaited the updates would write
            return bytes(self.digest_size)

    monkeypatch.setattr(hashlib, "blake2b", FailingBlake2b)
    return raised_on


def test_a_digest_failure_reaches_the_caller_of_save_and_load(tmp_path, monkeypatch):
    # the one way a futures-based digest can fail silently is a future never awaited
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    before = path.read_bytes()
    other = build_model(tiny_config(), seed=1)
    threads = threading.active_count()
    raised_on = _fail_every_digest(monkeypatch)

    with pytest.raises(_DigestFailure):
        save_checkpoint(path, other)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    assert threading.active_count() == threads and not _digest_threads()

    with pytest.raises(_DigestFailure):
        load_checkpoint(path)
    assert threading.active_count() == threads and not _digest_threads()
    assert raised_on and all(name.startswith("checkpoint-digest") for name in raised_on)


@pytest.mark.parametrize(
    "case", ["save", "load", "checksum failure", "format failure", "torn write"]
)
def test_checkpoint_round_trips_leave_no_thread_behind(tmp_path, monkeypatch, case):
    path = tmp_path / "m.bin"
    model = build_model(tiny_config(), seed=0)
    save_checkpoint(path, model)
    size = path.stat().st_size
    corrupt = {"checksum failure": _flip_payload, "format failure": _bad_tensor_name}
    if case in corrupt:
        corrupt[case](path)
    threads = threading.active_count()
    if case == "save":
        save_checkpoint(path, model)
    elif case == "load":
        load_checkpoint(path)
    elif case == "torn write":
        _tear_writes_at(monkeypatch, size // 2)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model)
        monkeypatch.undo()
    else:
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    assert threading.active_count() == threads
    assert not _digest_threads()


def test_checkpoint_with_an_unsupported_config_is_a_format_error(tmp_path, monkeypatch):
    # e.g. a file written with a variant this version no longer has
    path = tmp_path / "m.bin"
    to_dict = ModelConfig.to_dict
    monkeypatch.setattr(ModelConfig, "to_dict", lambda self: {**to_dict(self), "variant": "retired"})
    save_checkpoint(path, build_model(tiny_config(), seed=0))
    monkeypatch.undo()
    with pytest.raises(CheckpointFormatError, match="retired"):
        load_checkpoint(path)


def test_loading_into_mismatched_architecture_names_the_tensors(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(variant="bipft_a"), seed=0))
    # the estimator variant expects factor tensors the file does not carry
    with pytest.raises(CheckpointMismatchError, match="est"):
        load_model(path, variant="bipft_b", rank=2)


def test_loading_estimators_into_a_plain_variant_lists_them_as_unexpected(tmp_path):
    path = tmp_path / "m.bin"
    model = build_model(tiny_config(variant="bipft_b", rank=2), seed=0)
    save_checkpoint(path, model)
    with pytest.raises(CheckpointMismatchError) as exc:
        load_model(path, variant="bipft_a", rank=0)
    est = sorted(n for n, _ in named_parameters(model) if ".est." in n)
    assert str(exc.value) == f"tensor inventory mismatch: missing none, unexpected {est}"


def test_loading_with_another_estimator_rank_names_the_tensor_and_both_shapes(tmp_path):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(variant="bipft_b", rank=2), seed=0))
    with pytest.raises(CheckpointMismatchError) as exc:
        load_model(path, rank=3)
    assert str(exc.value) == "tensor 'layer0.attn.est.w_q' has shape (8, 2), model expects (8, 3)"


# Digests of build_model's init at the commit before load_model stopped
# building a model; a declaration that draws in another order changes them.
GOLDEN_CHECKPOINTS = {
    ("bipft_a", 0): "34b087d406d921027bbab6711d453baa3396a1e2996a0c2ce9da8e402a6f35bd",
    ("bipft_a", 3): "c154b11bb131282c64ce663a39267f44962fd343f9d3ab068da3094b4b57c06f",
    ("twin", 0): "b40283d0259342853125b9a60f9cacf41b06f30378a4a6fea87b7caeb8ec9675",
    ("twin", 3): "ad2b5cbd9b47b797a4f17b0dd1f33587c144d8e6ecb71acb4ddb1aa9cf849dc9",
}
# Digests of the v2 file of a tiny bipft_b model, recorded while save_checkpoint
# still assembled the whole file in memory; streaming the records must not change them.
GOLDEN_BIPFT_B_FILES = {
    0: "f8d08398e744a70d8e95129e49928801cb4276c402d134d8e039daeef0d3e04c",
    3: "0961d1717578c33d21095e2931506b815b9811c5aa91fa2646f2e5198d589d87",
}
GOLDEN_BIPFT_B_NON_EST = {
    0: "4c3e069f3a36152a66e627e2eb1764f026be2fe8d7ce2f6e0178a4d49285a9a1",
    3: "e14abf175523c72053fd35f9b463f0e17d7850d0dd7cc8e541e964b26ae8b235",
}


@pytest.mark.parametrize("kind,seed", sorted(GOLDEN_CHECKPOINTS))
def test_build_model_init_matches_golden_checkpoint_bytes(tmp_path, kind, seed):
    cfg = tiny_config(full_precision=True) if kind == "twin" else tiny_config(variant=kind)
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(cfg, seed=seed))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINTS[kind, seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_BIPFT_B_FILES))
def test_bipft_b_checkpoint_bytes_match_golden(tmp_path, seed):
    path = tmp_path / "m.bin"
    save_checkpoint(path, build_model(tiny_config(variant="bipft_b", rank=2), seed=seed))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_BIPFT_B_FILES[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_BIPFT_B_NON_EST))
def test_build_model_estimator_variant_init_matches_golden_and_spectral_init(seed):
    cfg = tiny_config(variant="bipft_b", rank=2)
    model = build_model(cfg, seed=seed)
    digest = hashlib.sha256()
    for name, p in named_parameters(model):
        if ".est." not in name:
            digest.update(name.encode("utf-8"))
            digest.update(p.data.astype("<f8").tobytes())
    assert digest.hexdigest() == GOLDEN_BIPFT_B_NON_EST[seed]
    for i, blk in enumerate(model.blocks):
        attn = blk.attn
        want = init_estimators(
            attn.wq.data, attn.wk.data, attn.wv.data, cfg.hidden, cfg.rank, cfg.heads,
            name=f"layer{i}.attn.est",
        )
        for field in fields(want):
            got, ref = getattr(attn.estimators, field.name), getattr(want, field.name)
            assert got.name == ref.name
            assert np.array_equal(got.data, ref.data), ref.name


@pytest.mark.parametrize(
    "over", [dict(variant="bipft_a"), dict(variant="bipft_b", rank=2), dict(full_precision=True)]
)
def test_load_model_draws_nothing_and_adopts_the_file_arrays(tmp_path, monkeypatch, over):
    path = tmp_path / "m.bin"
    model = build_model(tiny_config(**over), seed=4)
    save_checkpoint(path, model)

    def forbidden(*args, **kwargs):
        raise AssertionError("a load must not initialize")

    monkeypatch.setattr("bitformer.model.substream", forbidden)
    monkeypatch.setattr("numpy.linalg.svd", forbidden)
    loaded = load_model(path)
    monkeypatch.undo()

    pairs = list(zip(named_parameters(model), named_parameters(loaded)))
    assert len(pairs) == len(named_parameters(model)) == len(named_parameters(loaded))
    for (n1, a), (n2, b) in pairs:
        assert n1 == n2
        assert np.array_equal(b.data, a.data.astype(np.float32).astype(np.float64)), n1
        flags = b.data.flags
        assert b.data.dtype == np.float64 and b.data.base is None, n1
        assert flags.writeable and flags.c_contiguous and flags.owndata, n1


# --------------------------------------------------------------------------
# parameter inventory vs the cost accounting
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant,rank,full_precision",
    [("bipft_a", 0, False), ("bipft_b", 3, False), ("bipft_a", 0, True)],
)
def test_parameter_inventory_matches_cost_accounting(variant, rank, full_precision):
    cfg = tiny_config(variant=variant, rank=rank, full_precision=full_precision)
    model = build_model(cfg, seed=0)
    inv = parameter_inventory(model)
    report = equivalent_flops(cfg)
    assert inv["binary_param_bits"] == report.binary_param_bits
    assert inv["fp_param_floats"] == report.fp_param_floats
    assert inv["head_param_floats"] == report.head_param_floats


def test_binarizers_are_the_state_walk_and_none_for_the_full_precision_twin():
    cfg = tiny_config(variant="bipft_b", rank=2)
    model = build_model(cfg, seed=0)
    want = [q for blk in model.blocks for q in blk.attn.binarizers() + [blk.ffn.in_1, blk.ffn.in_2]]
    assert {id(q) for q in model_binarizers(model)} == {id(q) for q in want}
    assert len(model_binarizers(model)) == len(want)
    names = {n for n, _ in named_parameters(model)}
    quant_names = {t.name for q in want for t in (q.alpha, q.beta)}
    assert quant_names <= names

    twin = build_model(replace(cfg, full_precision=True), seed=0)
    assert model_binarizers(twin) == []
    twin_names = {n for n, _ in named_parameters(twin)}
    assert not twin_names & quant_names
    assert twin_names == {n for n in names - quant_names if ".est." not in n}


def test_full_precision_twin_builds_no_binarizers():
    twin = build_model(tiny_config(full_precision=True), seed=0)
    for blk in twin.blocks:
        attn = blk.attn
        assert [attn.in_q, attn.in_k, attn.in_v, attn.in_o, blk.ffn.in_1, blk.ffn.in_2] == [None] * 6
        for per_head in (attn.head_q, attn.head_k, attn.head_v, attn.head_att):
            assert per_head == [None] * attn.heads


def test_prepared_weights_are_refused_by_a_relaxed_forward():
    model = build_model(tiny_config(), seed=0)
    ids = np.array([2, 7, 8, 3])
    assert np.array_equal(
        forward(model, ids, tape=Tape(), weights=binarize_linears(model, Tape())).mlm_logits.data,
        forward(model, ids, tape=Tape()).mlm_logits.data,
    )
    with pytest.raises(ValueError, match="hard-mode"):
        forward(model, ids, mode="relaxed", weights=binarize_linears(model, Tape()))


def test_prepared_weights_are_refused_by_an_untaped_encode():
    model = build_model(tiny_config(), seed=0)
    ids = np.array([2, 7, 8, 3])
    with pytest.raises(ValueError, match="taped hard-mode"):
        encode(model, ids, weights=binarize_linears(model, Tape()))
    assert np.array_equal(encode(model, ids, weights={})[-1].data, encode(model, ids)[-1].data)


def test_named_parameters_are_unique_and_stable():
    model = build_model(tiny_config(variant="bipft_b", rank=2), seed=0)
    names = [n for n, _ in named_parameters(model)]
    assert len(names) == len(set(names))
    assert names == [n for n, _ in named_parameters(model)]
