import dataclasses
import json
import resource
import signal
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (assert_same_state, chain_gradients, planted_period_store, quick_config,
                     single_fact_store)
from tkgdiff import dpcl as dpcl_mod
from tkgdiff import engine, evaluate, gndiff
from tkgdiff import numkit as nk
from tkgdiff.corpus import build_periodic_index, token_entropies
from tkgdiff.errors import (CheckpointError, CheckpointVersionError,
                            ConfigError, DataError, NumericError)


def strip_wall(metrics):
    return [{k: v for k, v in m.items() if k != "wall_seconds"} for m in metrics]


def term(value, *names):
    """A loss term as the losses give it, (value, backward), whose gradient
    is 1 for each parameter it names."""
    return value, lambda scale: {name: np.full((1, 1), scale) for name in names}


def test_joint_loss_endpoints():
    # an ablated component's losses are None; the other component's loss is
    # then the objective, unweighted, whatever alpha is
    ce, sup, diff = term(0.5, "w_per"), term(0.25, "w_ctr"), term(1.0, "w1")
    for alpha in (0.2, 0.9):
        value, backward = engine.joint_loss(alpha, ce, None, None)
        assert value == 0.5 and backward(2.0) == {"dpcl.w_per": 2.0}
        value, backward = engine.joint_loss(alpha, ce, sup, None)
        assert value == 0.75 and backward(1.0) == {"dpcl.w_per": 1.0, "dpcl.w_ctr": 1.0}
        value, backward = engine.joint_loss(alpha, None, None, diff)
        assert value == 1.0 and backward(3.0) == {"denoiser.w1": 3.0}


def test_joint_loss_hand_value():
    # the weights that make the value scale each term's gradient; a name two
    # terms reach gets the sum
    value, backward = engine.joint_loss(0.2, term(0.5, "entity_emb", "w_per"),
                                        term(0.25, "entity_emb"), term(1.0, "w2"))
    assert value == pytest.approx(0.2 * 1.0 + 0.8 * 0.75, abs=1e-12)
    grads = backward(1.0)
    assert list(grads) == ["dpcl.entity_emb", "dpcl.w_per", "denoiser.w2"]
    assert grads["dpcl.entity_emb"] == pytest.approx(1.6, abs=1e-15)
    assert grads["dpcl.w_per"] == pytest.approx(0.8, abs=1e-15)
    assert grads["denoiser.w2"] == 0.2


def test_joint_loss_stage_and_ablation_semantics():
    # stage 1 computes no contrastive loss: sup is None
    ce, sup, diff = term(0.5, "w_per"), term(0.25, "w_ctr"), term(1.0, "w1")
    value, backward = engine.joint_loss(0.2, ce, None, diff)
    assert value == pytest.approx(0.2 + 0.8 * 0.5)
    assert backward(1.0) == pytest.approx({"dpcl.w_per": 0.8, "denoiser.w1": 0.2})
    # an ablated component's losses are None
    assert engine.joint_loss(0.2, ce, sup, None)[0] == pytest.approx(0.75)
    assert engine.joint_loss(0.2, None, None, diff)[0] == pytest.approx(1.0)


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nalpha = 0.3\nbatch=16\nno_gndiff = true\n"
                 "mapping_strategy = euc/euc  # trailing comment\n")
    values = engine.parse_config_file(p)
    values = engine.apply_overrides(values, ["lam=4", "seed=7"])
    cfg = engine.TrainConfig.from_dict(values)
    assert cfg.alpha == 0.3 and cfg.batch == 16 and cfg.no_gndiff
    assert cfg.mapping_strategy == "euc/euc"
    assert cfg.lam == 4.0 and cfg.seed == 7


def test_a_config_file_that_sets_a_key_twice_is_refused(tmp_path):
    # the last value used to win without a word: lr = 0.1 ... lr = 0.5 loaded 0.5
    p = tmp_path / "run.cfg"
    p.write_text("lr = 0.1\nbatch = 16\n# lr = 0.3\nlr=0.5\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'lr' is already set on line 1"):
        engine.parse_config_file(p)
    # an override is how a value is replaced; the last one wins
    p.write_text("lr = 0.1\n")
    values = engine.apply_overrides(engine.parse_config_file(p), ["lr=0.5", "lr=0.7"])
    assert values == {"lr": "0.7"}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        engine.TrainConfig(alpha=1.5).validate()
    with pytest.raises(ConfigError):
        engine.TrainConfig(tau=0.0).validate()
    with pytest.raises(ConfigError):
        engine.TrainConfig(no_gndiff=True, no_dpcl=True).validate()
    with pytest.raises(ConfigError):
        engine.TrainConfig(mapping_strategy="ball/flat").validate()
    with pytest.raises(ConfigError):
        engine.TrainConfig.from_dict({"unknown_key": "1"})
    with pytest.raises(ConfigError):
        engine.TrainConfig.from_dict({"alpha": "abc"})


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_alpha_at_an_endpoint_is_rejected(alpha):
    # alpha 0 used to run the denoiser forward on every batch and train
    # nothing into it, and evaluation still averaged its untrained
    # distribution in; alpha 1 did the same with DPCL
    with pytest.raises(ConfigError, match="set no_gndiff or no_dpcl to drop a component"):
        engine.TrainConfig(alpha=alpha).validate()
    with pytest.raises(ConfigError, match=r"alpha must be in \(0, 1\)"):
        engine.train(quick_config(alpha=alpha), single_fact_store())


@pytest.mark.parametrize("spelling", ["HYP/EUC", "Euc/Euc"])
def test_mapping_strategy_is_spelled_exactly(spelling):
    # "HYP/EUC" used to train the "hyp/euc" model, and its checkpoint then
    # refused to resume under "hyp/euc"
    with pytest.raises(ConfigError, match="unknown mapping strategy"):
        engine.TrainConfig(mapping_strategy=spelling).validate()
    with pytest.raises(ConfigError, match="unknown mapping strategy"):
        engine.TrainConfig.from_dict({"mapping_strategy": spelling})


def test_memorize_single_fact():
    store = single_fact_store()
    cfg = quick_config(epochs_stage1=40, epochs_stage2=10, batch=4, steps=6)
    ckpt = engine.train(cfg, store)
    losses = [m["loss_total"] for m in ckpt.metrics]
    assert losses[-1] < losses[0]
    model = engine.model_from_checkpoint(ckpt, store)
    index = build_periodic_index(store, cfg.lam, ("train",))
    batch = dpcl_mod.QueryBatch.from_quads(store.quads, index)
    pd = evaluate.p_dpcl(model.dpcl, batch, model.mapping_strategy)
    pg = gndiff.p_diff_batch(model.denoiser, store.quads[:, :2], cfg.steps, 4,
                             nk.rng_for(0, 99))
    combined = 0.5 * (pg + pd)
    assert int(np.argmax(combined[0])) == 1   # the memorized object


def test_monotone_loss_after_warmup():
    # the diffusion term is a single-sample estimate, so the strict check runs
    # on the deterministic configuration; the full objective must still trend
    # down after warm-up
    store = single_fact_store()
    cfg = quick_config(epochs_stage1=25, epochs_stage2=0, batch=4, steps=6,
                       no_gndiff=True)
    ckpt = engine.train(cfg, store)
    losses = [m["loss_total"] for m in ckpt.metrics]
    tail = losses[3:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))

    full = engine.train(quick_config(epochs_stage1=25, epochs_stage2=0,
                                     batch=4, steps=6), store)
    flosses = [m["loss_total"] for m in full.metrics]
    assert flosses[-1] < flosses[3]
    assert min(flosses[3:]) == flosses[-1] or flosses[-1] < np.mean(flosses[3:6])


def test_determinism_same_seed():
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    cfg = quick_config(batch=16)
    a = engine.train(cfg, store)
    b = engine.train(cfg, store)
    assert strip_wall(a.metrics) == strip_wall(b.metrics)
    assert_same_state(a, b)


def test_different_seed_differs():
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    a = engine.train(quick_config(), store)
    b = engine.train(quick_config(seed=1), store)
    assert a.metrics != b.metrics


def test_ablation_freezes_excluded_parameters(tmp_path):
    # the ablated component has no parameters; the trained one starts from
    # the head of the init stream and moves
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    cfg = quick_config(no_gndiff=True)
    d0 = dpcl_mod.init_params(store.n_entities, store.n_relations, cfg.d_dpcl,
                              nk.rng_for(cfg.seed, 0))
    ckpt = engine.train(cfg, store, out_dir=tmp_path / "dpcl")
    loaded = engine.load_checkpoint(tmp_path / "dpcl" / "best.ckpt")
    assert ckpt.denoiser is None and loaded.denoiser is None
    assert any(not np.array_equal(t.data, d0.named()[name].data)
               for name, t in ckpt.dpcl.named().items())

    cfg2 = quick_config(no_dpcl=True)
    n0 = gndiff.init_denoiser(store.n_entities, store.n_relations, cfg2.d_diff,
                              nk.rng_for(cfg2.seed, 0))
    ckpt2 = engine.train(cfg2, store, out_dir=tmp_path / "gndiff")
    loaded2 = engine.load_checkpoint(tmp_path / "gndiff" / "best.ckpt")
    assert ckpt2.dpcl is None and loaded2.dpcl is None
    assert any(not np.array_equal(t.data, n0.named()[name].data)
               for name, t in ckpt2.denoiser.named().items())


def test_checkpoint_roundtrip_bytes(tmp_path):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=0, batch=16)
    ckpt = engine.train(cfg, store)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    engine.save_checkpoint(ckpt, p1)
    loaded = engine.load_checkpoint(p1)
    engine.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.config == cfg
    assert loaded.epoch == ckpt.epoch
    assert_same_state(ckpt, loaded)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        engine.load_checkpoint(p)


def test_checkpoint_version_mismatch(tmp_path):
    import struct
    p = tmp_path / "v9.ckpt"
    p.write_bytes(b"TKGD" + struct.pack("<I", 9) + struct.pack("<I", 2) + b"{}")
    with pytest.raises(CheckpointVersionError):
        engine.load_checkpoint(p)


def test_checkpoint_of_an_older_version_is_rejected(tmp_path, small_ckpt):
    p = tmp_path / "old.ckpt"
    engine.save_checkpoint(small_ckpt, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:4] + struct.pack("<I", engine.CHECKPOINT_VERSION - 1) + blob[8:])
    with pytest.raises(CheckpointVersionError, match="not supported"):
        engine.load_checkpoint(p)


def test_checkpoint_in_the_format_with_score_combine_is_rejected(tmp_path, small_ckpt):
    # format 2 headers carried config.score_combine, which format 3 dropped
    p = tmp_path / "v2.ckpt"
    engine.save_checkpoint(small_ckpt, p)
    blob = p.read_bytes()
    header, records = split_checkpoint(blob)
    values = json.loads(header)
    values["config"]["score_combine"] = "sum"
    header = json.dumps(values, sort_keys=True).encode("utf-8")
    blob = join_checkpoint(blob, header, records)
    p.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    with pytest.raises(CheckpointVersionError, match="version 2 is not supported"):
        engine.load_checkpoint(p)


@pytest.mark.parametrize("flag, absent, present", [
    ("no_gndiff", "denoiser", "dpcl"), ("no_dpcl", "dpcl", "denoiser")])
def test_an_ablated_component_is_absent_from_the_model(flag, absent, present):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=0, batch=16, **{flag: True})
    ckpt = engine.train(cfg, store)
    model = engine.model_from_checkpoint(ckpt, store)
    assert getattr(model, absent) is None
    assert getattr(model, present) is getattr(ckpt, present)


@pytest.mark.parametrize("n_entities, n_relations", [(6, 2), (8, 3)])
def test_a_checkpoint_is_refused_for_a_store_of_another_vocabulary(n_entities,
                                                                   n_relations):
    # a denoiser-only model would otherwise rank the checkpoint's 8
    # candidates on a 6-entity store without any error
    cfg = quick_config(epochs_stage1=1, epochs_stage2=0, batch=16, no_dpcl=True)
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    ckpt = engine.train(cfg, store)
    other = planted_period_store(n_entities=n_entities, n_relations=n_relations,
                                 n_timestamps=30)
    with pytest.raises(DataError, match=f"8 entities and 2 relations, the store "
                                        f"{n_entities} entities and {n_relations}"):
        engine.model_from_checkpoint(ckpt, other)


def test_checkpoint_truncated(tmp_path):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=0, batch=16)
    ckpt = engine.train(cfg, store)
    p = tmp_path / "full.ckpt"
    engine.save_checkpoint(ckpt, p)
    blob = p.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        engine.load_checkpoint(cut)


def test_resume_matches_uninterrupted(tmp_path):
    # compares the last.ckpt files, the states validation does not choose
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    full_cfg = quick_config(epochs_stage1=2, epochs_stage2=2, batch=16)
    engine.train(full_cfg, store, out_dir=tmp_path / "full")
    full = engine.load_checkpoint(tmp_path / "full" / "last.ckpt")

    short_cfg = quick_config(epochs_stage1=2, epochs_stage2=0, batch=16)
    engine.train(short_cfg, store, out_dir=tmp_path / "run")
    part = engine.load_checkpoint(tmp_path / "run" / "last.ckpt")
    assert part.epoch == 2
    engine.train(full_cfg, store, out_dir=tmp_path / "resumed",
                 resume_from=tmp_path / "run" / "last.ckpt")
    resumed = engine.load_checkpoint(tmp_path / "resumed" / "last.ckpt")

    assert resumed.metrics[-1]["loss_total"] == pytest.approx(
        full.metrics[-1]["loss_total"], abs=1e-12)
    assert strip_wall(resumed.metrics) == strip_wall(full.metrics)
    assert_same_state(full, resumed)


def test_a_resumed_run_steps_with_the_lr_of_its_config(tmp_path, monkeypatch):
    # checkpoints used to carry each Adam state's lr, and a resumed run
    # stepped with it instead of the lr of its config
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16, lr=0.001),
                 store, out_dir=tmp_path / "run")

    def resume(lr, name):
        out = tmp_path / name
        engine.train(quick_config(epochs_stage1=2, epochs_stage2=0, batch=16, lr=lr), store,
                     out_dir=out, resume_from=tmp_path / "run" / "last.ckpt")
        return engine.load_checkpoint(out / "last.ckpt")

    slow, fast = resume(0.001, "slow"), resume(0.05, "fast")
    assert fast.config.lr == 0.05
    assert any(not np.array_equal(t.data, fast.named_tensors()[name].data)
               for name, t in slow.named_tensors().items())

    seen = []
    step = nk.adam_step

    def record(state, params, grads, t, lr):
        seen.append(lr)
        return step(state, params, grads, t, lr)

    monkeypatch.setattr(nk, "adam_step", record)
    resume(0.05, "recorded")
    assert seen and set(seen) == {0.05}


def test_resumed_run_without_gndiff_matches_uninterrupted(tmp_path):
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    full_cfg = quick_config(epochs_stage1=2, epochs_stage2=2, batch=16, no_gndiff=True)
    full = engine.train(full_cfg, store, out_dir=tmp_path / "full")
    engine.train(quick_config(epochs_stage1=2, epochs_stage2=0, batch=16, no_gndiff=True),
                 store, out_dir=tmp_path / "run")
    resumed = engine.train(full_cfg, store, out_dir=tmp_path / "resumed",
                           resume_from=tmp_path / "run" / "last.ckpt")

    assert resumed.denoiser is None
    assert resumed.epoch == full.epoch
    assert strip_wall(resumed.metrics) == strip_wall(full.metrics)
    assert_same_state(full, resumed)
    assert_same_state(engine.load_checkpoint(tmp_path / "full" / "last.ckpt"),
                      engine.load_checkpoint(tmp_path / "resumed" / "last.ckpt"))


@pytest.mark.parametrize("trained, resumed", [
    ({"no_gndiff": True}, {}),
    ({"no_dpcl": True}, {}),
    ({}, {"no_gndiff": True}),
    ({}, {"d_dpcl": 8}),
    ({}, {"d_diff": 8}),
    ({}, {"mapping_strategy": "euc/euc"}),
], ids=["no_gndiff-to-both", "no_dpcl-to-both", "both-to-no_gndiff", "d_dpcl", "d_diff",
        "mapping_strategy"])
def test_resume_refuses_a_checkpoint_of_another_model(tmp_path, trained, resumed):
    # a no_gndiff checkpoint resumed under a combined config used to train
    # the denoiser from its init without a word
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16, **trained),
                 store, out_dir=tmp_path / "run")
    key = next(iter({**trained, **resumed}))
    with pytest.raises(ConfigError, match=f"cannot resume under another {key} "):
        engine.train(quick_config(epochs_stage1=2, epochs_stage2=0, batch=16, **resumed),
                     store, out_dir=tmp_path / "resumed",
                     resume_from=tmp_path / "run" / "last.ckpt")
    assert not (tmp_path / "resumed").exists()


def test_resume_refuses_a_checkpoint_of_another_vocabulary(tmp_path):
    # it used to fail in the first batch with a DimensionError
    engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16),
                 planted_period_store(n_entities=8, n_relations=2, n_timestamps=30),
                 out_dir=tmp_path / "run")
    other = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    with pytest.raises(DataError, match="checkpoint has 8 entities and 2 relations, "
                                        "the store 6 entities and 2 relations"):
        engine.train(quick_config(epochs_stage1=2, epochs_stage2=0, batch=16), other,
                     out_dir=tmp_path / "resumed", resume_from=tmp_path / "run" / "last.ckpt")
    assert not (tmp_path / "resumed").exists()


def test_resumed_run_returns_the_best_before_the_resume(tmp_path):
    # the uninterrupted run's best is its first epoch, and no epoch after
    # the resume beats it
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    full_cfg = quick_config(epochs_stage1=2, epochs_stage2=3, batch=16, seed=2)
    full = engine.train(full_cfg, store)
    assert full.epoch == 1

    engine.train(quick_config(epochs_stage1=2, epochs_stage2=0, batch=16, seed=2), store,
                 out_dir=tmp_path / "run")
    resumed = engine.train(full_cfg, store, resume_from=tmp_path / "run" / "last.ckpt")

    assert resumed.epoch == full.epoch and resumed.config == full_cfg
    assert resumed.best_val_mrr == full.best_val_mrr
    assert strip_wall(resumed.metrics) == strip_wall(full.metrics)
    assert_same_state(full, resumed)


def test_best_snapshot_keeps_its_state_through_later_steps(tmp_path):
    # Adam updates its moments in place after the best epoch's snapshot
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=2, epochs_stage2=3, batch=16, seed=2)
    best = engine.train(cfg, store, out_dir=tmp_path)
    assert best.epoch < cfg.total_epochs
    saved = engine.load_checkpoint(tmp_path / "best.ckpt")
    last = engine.load_checkpoint(tmp_path / "last.ckpt")
    for name, t in best.named_tensors().items():
        np.testing.assert_array_equal(t.data, saved.named_tensors()[name].data)
    for name, state in best.adam.items():
        np.testing.assert_array_equal(state.m, saved.adam[name].m)
        np.testing.assert_array_equal(state.v, saved.adam[name].v)
    assert best.adam_steps == saved.adam_steps < last.adam_steps


SIZES = r"the header implies \d+ bytes of records, the file holds \d+"


def split_checkpoint(blob):
    """The header bytes and the tensor records of a checkpoint file, parsed
    independently of the loader: {name: (record bytes, array)} in file order."""
    (hlen,) = struct.unpack_from("<I", blob, 8)
    pos = 12 + hlen
    records = {}
    while pos < len(blob):
        start = pos
        (nlen,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + nlen].decode("utf-8")
        pos += 4 + nlen
        (rank,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        pos += 4 + 4 * rank
        end = pos + 8 * int(np.prod(dims))
        records[name] = (blob[start:end], np.frombuffer(blob[pos:end], "<f8").reshape(dims))
        pos = end
    return blob[12:12 + hlen], records


def join_checkpoint(blob, header, records):
    """Checkpoint bytes with the header and records of `blob` replaced."""
    return blob[:8] + struct.pack("<I", len(header)) + header + \
        b"".join(rec for rec, _ in records.values())


@pytest.fixture(scope="module")
def small_ckpt():
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    return engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16), store)


def edit_header(change):
    def corrupt(header, records):
        values = json.loads(header)
        change(values)
        return json.dumps(values).encode(), records
    return corrupt


def nan_payload(header, records):
    rec, arr = records["dpcl.entity_emb"]
    records["dpcl.entity_emb"] = (rec[:-8] + struct.pack("<d", float("nan")), arr)
    return header, records


def drop_record(header, records):
    del records["dpcl.entity_emb"]
    return header, records


def stray_record(header, records):
    records["other.x"] = (pack_record("other.x", np.zeros((1, 1))), np.zeros((1, 1)))
    return header, records


@pytest.mark.parametrize("corrupt", [
    nan_payload,
    lambda header, records: (b"{not json", records),
    edit_header(lambda h: h.pop("epoch")),
    edit_header(lambda h: h["config"].update(bogus=1)),
    drop_record,
    stray_record,
    *(edit_header(lambda h, m=metrics: h.update(metrics=m)) for metrics in (5, "x", [1, 2])),
], ids=["non-finite-payload", "header-not-json", "header-missing-key",
        "unknown-config-key", "missing-tensor-record", "unexpected-tensor-record",
        "metrics-number", "metrics-string", "metrics-not-objects"])
def test_every_checkpoint_load_failure_is_a_checkpoint_error(tmp_path, small_ckpt, corrupt):
    # metrics of 5 or "x" used to load and fail the resume after its first
    # epoch; [1, 2] resumed and was written into every later checkpoint
    good = tmp_path / "good.ckpt"
    engine.save_checkpoint(small_ckpt, good)
    blob = good.read_bytes()
    header, records = corrupt(*split_checkpoint(blob))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(join_checkpoint(blob, header, records))
    # a file shorter than its header implies is truncated
    message = "truncated checkpoint" if corrupt is drop_record else "corrupt checkpoint"
    with pytest.raises(CheckpointError, match=message):
        engine.load_checkpoint(bad)


def adam_steps_as(value):
    return edit_header(lambda h: h.update(adam_steps=value))


SIZE_FORMS = {"float": float, "string": str, "bool": lambda n: True, "negative": lambda n: -1}


def size_as(key, form):
    return edit_header(lambda h: h.update({key: SIZE_FORMS[form](h[key])}))


@pytest.mark.parametrize("corrupt", [
    *(adam_steps_as(value) for value in ("3", -5, 2.5, True)),
    edit_header(lambda h: h.update(epoch="1")),
    edit_header(lambda h: h.update(best_val_mrr=None)),
    *(size_as(key, form) for key in ("n_entities", "n_relations") for form in SIZE_FORMS),
], ids=["t-string", "t-negative", "t-fractional", "t-bool", "epoch-string",
        "best-val-mrr-null",
        *(f"{key}-{form}" for key in ("n_entities", "n_relations") for form in SIZE_FORMS)])
def test_a_malformed_header_count_is_a_checkpoint_error(tmp_path, small_ckpt, corrupt):
    # each of these loaded at format 6 before its fields were checked; a
    # resume then failed in its first Adam step, or stepped with a
    # fractional bias correction; a size of 6.0 evaluated with a float
    # vocabulary
    good = tmp_path / "good.ckpt"
    engine.save_checkpoint(small_ckpt, good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(join_checkpoint(blob, *corrupt(*split_checkpoint(blob))))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        engine.load_checkpoint(bad)


@pytest.fixture(scope="module")
def ablated_ckpts():
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    return {flag: engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16,
                                            **{flag: True}), store)
            for flag in ("no_gndiff", "no_dpcl")}


ABLATIONS = [("no_gndiff", "denoiser", "dpcl"), ("no_dpcl", "dpcl", "denoiser")]


@pytest.mark.parametrize("flag, absent, present", ABLATIONS)
def test_an_ablated_component_has_no_checkpoint_records(tmp_path, ablated_ckpts, flag,
                                                        absent, present):
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts[flag], path)
    header, records = split_checkpoint(path.read_bytes())
    params = {n for n in records if not n.startswith("adam.")}
    moments = {n.split(".", 2)[2] for n in records if n.startswith("adam.")}
    assert params and all(n.startswith(present + ".") for n in params)
    assert moments == params
    assert json.loads(header)["adam_steps"] == ablated_ckpts[flag].adam_steps
    loaded = engine.load_checkpoint(path)
    assert getattr(loaded, absent) is None
    assert_same_state(ablated_ckpts[flag], loaded)


@pytest.mark.parametrize("flag, absent, present", ABLATIONS)
def test_component_records_must_match_what_the_config_trains(tmp_path, small_ckpt,
                                                             ablated_ckpts, flag,
                                                             absent, present):
    def load_with(ckpt, ablated):
        path = tmp_path / "x.ckpt"
        engine.save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        header, records = edit_header(
            lambda h: h["config"].update({flag: ablated}))(*split_checkpoint(blob))
        path.write_bytes(join_checkpoint(blob, header, records))
        return engine.load_checkpoint(path)

    # records of a component the header's config ablates
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{SIZES}"):
        load_with(small_ckpt, True)
    # no records of a component the header's config trains
    with pytest.raises(CheckpointError, match=f"truncated checkpoint: {SIZES}"):
        load_with(ablated_ckpts[flag], False)


def test_checkpoint_in_the_format_with_denoiser_meta_is_rejected(tmp_path, small_ckpt):
    # format 3 headers carried the vocabulary in denoiser_meta, which format 4
    # replaced by top-level n_entities and n_relations
    p = tmp_path / "v3.ckpt"
    engine.save_checkpoint(small_ckpt, p)
    blob = p.read_bytes()
    header, records = edit_header(lambda h: h.update(denoiser_meta={
        "n_entities": h.pop("n_entities"), "n_relations": h.pop("n_relations"),
        "width": h["config"]["d_diff"]}))(*split_checkpoint(blob))
    blob = join_checkpoint(blob, header, records)
    p.write_bytes(blob[:4] + struct.pack("<I", 3) + blob[8:])
    with pytest.raises(CheckpointVersionError, match="version 3 is not supported"):
        engine.load_checkpoint(p)


def test_checkpoint_header_holds_one_adam_step_count_per_run(tmp_path, small_ckpt):
    # one per batch of the one epoch small_ckpt trains
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    values = json.loads(split_checkpoint(path.read_bytes())[0])
    assert "adam" not in values
    assert values["adam_steps"] == small_ckpt.adam_steps == -(-len(store.split("train")) // 16)


def per_tensor_step_counts(h, records):
    """A format 7 header edited to format 6's `adam`, one step count per
    parameter, in place of `adam_steps`."""
    h["adam"] = dict.fromkeys((n for n in records if not n.startswith("adam.")),
                              h.pop("adam_steps"))


def test_checkpoint_in_the_format_with_per_tensor_adam_step_counts_is_rejected(tmp_path,
                                                                              small_ckpt):
    # format 6 headers held the same step count once per parameter, under
    # `adam`; format 7 holds it once, as `adam_steps`
    p = tmp_path / "v6.ckpt"
    engine.save_checkpoint(small_ckpt, p)
    blob = p.read_bytes()
    header, records = split_checkpoint(blob)
    header, records = edit_header(lambda h: per_tensor_step_counts(h, records))(header, records)
    blob = join_checkpoint(blob, header, records)
    p.write_bytes(blob[:4] + struct.pack("<I", 6) + blob[8:])
    with pytest.raises(CheckpointVersionError, match="version 6 is not supported"):
        engine.load_checkpoint(p)


def test_checkpoint_in_the_format_with_adam_hyperparameters_is_rejected(tmp_path,
                                                                       small_ckpt):
    # format 5 headers carried each Adam state's lr, beta1, beta2 and eps
    # beside its step count t; format 6 keeps t only
    p = tmp_path / "v5.ckpt"
    engine.save_checkpoint(small_ckpt, p)
    blob = p.read_bytes()
    header, records = split_checkpoint(blob)

    def format5(h):
        per_tensor_step_counts(h, records)
        h["adam"] = {name: {"t": t, "lr": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
                     for name, t in h["adam"].items()}

    header, records = edit_header(format5)(header, records)
    blob = join_checkpoint(blob, header, records)
    p.write_bytes(blob[:4] + struct.pack("<I", 5) + blob[8:])
    with pytest.raises(CheckpointVersionError, match="version 5 is not supported"):
        engine.load_checkpoint(p)


def pack_record(name, arr):
    """The bytes of one checkpoint record."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI2I", len(encoded), encoded, 2, *arr.shape) + \
        np.ascontiguousarray(arr, dtype="<f8").tobytes()


def test_checkpoint_in_the_format_with_role_masked_output_rows_is_rejected(tmp_path,
                                                                          small_ckpt):
    # format 4 files held the denoiser's output layer as (3K, h) rows, one
    # K-wide block per position; format 5 holds one block per token role
    path = tmp_path / "v4.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    blob = path.read_bytes()
    header, records = split_checkpoint(blob)
    n_e, n_r = small_ckpt.denoiser.n_entities, small_ckpt.denoiser.n_relations
    live = oracles.live_rows(n_e, n_r)
    k3 = 3 * (n_e + n_r + 1)
    for name, (_, arr) in records.items():
        if name.endswith("denoiser.w2"):
            wide = np.zeros((k3, arr.shape[1]))
            wide[live] = arr
        elif name.endswith("denoiser.b2"):
            wide = np.zeros((1, k3))
            wide[:, live] = arr
        else:
            continue
        records[name] = (pack_record(name, wide), wide)
    blob = join_checkpoint(blob, header, records)
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{SIZES}"):
        engine.load_checkpoint(path)
    path.write_bytes(blob[:4] + struct.pack("<I", 4) + blob[8:])
    with pytest.raises(CheckpointVersionError, match="version 4 is not supported"):
        engine.load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h.update(n_entities=h["n_entities"] + 1),
    lambda h: h.update(n_relations=h["n_relations"] - 1),
    lambda h: h["config"].update(d_diff=h["config"]["d_diff"] + 1),
], ids=["n_entities", "n_relations", "d_diff"])
def test_denoiser_records_must_have_the_shapes_the_header_gives(tmp_path, ablated_ckpts,
                                                                 edit):
    # without DPCL tables nothing else checks the header's sizes: a file of
    # a 6-entity denoiser would load as a 7-entity model
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_dpcl"], path)
    blob = path.read_bytes()
    header, records = edit_header(edit)(*split_checkpoint(blob))
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match=SIZES):
        engine.load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h["config"].update(d_dpcl=h["config"]["d_dpcl"] + 3),
    lambda h: h.update(n_relations=h["n_relations"] + 1),
    "w_per",
], ids=["d_dpcl", "n_relations", "w_per-width"])
def test_dpcl_records_must_have_the_shapes_the_header_gives(tmp_path, ablated_ckpts, edit):
    # 16-wide tables under a header saying d_dpcl=19 loaded, evaluated, and
    # resumed under d_dpcl=19 while training the 16-wide tables; so did a
    # w_per record of another width
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_gndiff"], path)
    blob = path.read_bytes()
    header, records = split_checkpoint(blob)
    if edit == "w_per":
        rows, cols = records["dpcl.w_per"][1].shape
        wide = np.zeros((rows, cols + 3))
        records["dpcl.w_per"] = (pack_record("dpcl.w_per", wide), wide)
    else:
        header, records = edit_header(edit)(header, records)
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match=SIZES):
        engine.load_checkpoint(path)


@pytest.mark.parametrize("moment", ["m", "v"])
@pytest.mark.parametrize("flag", ["no_gndiff", "no_dpcl"])
def test_adam_moments_must_have_their_parameters_shape(tmp_path, ablated_ckpts, flag, moment):
    # a moment one column wider than its parameter (m), or a v that differs
    # from m, loaded, and the resume failed in its first Adam step
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts[flag], path)
    blob = path.read_bytes()
    header, records = split_checkpoint(blob)
    name = next(n for n in records if n.startswith(f"adam.{moment}."))
    rows, cols = records[name][1].shape
    wide = np.zeros((rows, cols + 1))
    records[name] = (pack_record(name, wide), wide)
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{SIZES}"):
        engine.load_checkpoint(path)


WRONG_TYPES = {"steps": 50.5, "batch": True, "lr": True, "d_dpcl": 16.0, "no_gndiff": 1}


@pytest.mark.parametrize("key", WRONG_TYPES)
def test_a_config_value_of_the_wrong_type_is_refused(tmp_path, ablated_ckpts, key):
    # each of these loaded from a checkpoint header and evaluated: a bool
    # batch size of 1, a float step count, an int ablation flag
    value = WRONG_TYPES[key]
    with pytest.raises(ConfigError, match=f"{key} must be of type"):
        engine.TrainConfig(**{key: value}).validate()
    with pytest.raises(ConfigError, match=f"{key} must be of type"):
        engine.TrainConfig.from_dict({key: value})
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_gndiff"], path)
    blob = path.read_bytes()
    header, records = edit_header(lambda h: h["config"].update({key: value}))(
        *split_checkpoint(blob))
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{key} must be of type"):
        engine.load_checkpoint(path)


def test_a_float_field_takes_an_int():
    cfg = engine.TrainConfig.from_dict({"lr": 1, "lam": 4, "tau": 2, "mu": 0})
    assert (cfg.lr, cfg.lam, cfg.tau, cfg.mu) == (1, 4, 2, 0)
    engine.TrainConfig(lr=1, lam=4).validate()


def test_loaded_parameters_are_read_only_and_adam_moments_writeable(tmp_path, small_ckpt):
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    loaded = engine.load_checkpoint(path)
    for t in loaded.named_tensors().values():
        assert not t.data.flags.writeable
    moments = [a for s in loaded.adam.values() for a in (s.m, s.v)]
    assert all(a.flags.writeable and a.flags.c_contiguous for a in moments)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(moments)
                   for b in moments[i + 1:])


def test_record_dims_past_the_end_of_the_file_are_truncation(tmp_path, small_ckpt):
    # the header's sizes give the record the dims it claims, and the record
    # comes first, before any whose shape those sizes change; so only the
    # bytes left in the file tell the dims false, and the size check that
    # precedes every record refuses them
    good = tmp_path / "good.ckpt"
    engine.save_checkpoint(small_ckpt, good)
    blob = good.read_bytes()
    header, records = edit_header(lambda h: (h.update(n_entities=2 ** 30),
                                             h["config"].update(d_dpcl=2 ** 30)))(
        *split_checkpoint(blob))
    rec, arr = records.pop("dpcl.entity_emb")
    dims_at = len(rec) - arr.nbytes - 8
    records = {"dpcl.entity_emb": (rec[:dims_at] + struct.pack("<2I", 2 ** 30, 2 ** 30)
                                   + rec[dims_at + 8:], arr), **records}
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match="truncated"):
        engine.load_checkpoint(bad)


def test_a_record_that_appears_twice_is_refused(tmp_path, small_ckpt):
    # the later copy used to win
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    again = small_ckpt.dpcl.w_per.data + 1.0
    path.write_bytes(path.read_bytes() + pack_record("dpcl.w_per", again))
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{SIZES}"):
        engine.load_checkpoint(path)


def test_a_trailing_byte_is_refused(tmp_path, small_ckpt):
    # it used to be read as the start of one more record, and refused as
    # truncation
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{SIZES}"):
        engine.load_checkpoint(path)


def swap_names(header, records):
    """The heads of the Adam moments m and v of one parameter exchanged,
    each payload left in its place."""
    m, v = "adam.m.dpcl.entity_emb", "adam.v.dpcl.entity_emb"
    (_, m_arr), (_, v_arr) = records[m], records[v]
    records[m], records[v] = (pack_record(v, m_arr), m_arr), (pack_record(m, v_arr), v_arr)
    return header, records


def transpose_dims(header, records):
    _, arr = records["adam.m.dpcl.entity_emb"]
    records["adam.m.dpcl.entity_emb"] = (pack_record("adam.m.dpcl.entity_emb", arr.T), arr.T)
    return header, records


@pytest.mark.parametrize("corrupt", [swap_names, transpose_dims],
                         ids=["swapped-names", "transposed-dims"])
def test_a_record_head_other_than_the_header_implies_is_refused(tmp_path, ablated_ckpts,
                                                                 corrupt):
    # the file keeps its size, so only the record heads tell it wrong; with
    # swapped names, m loaded as v and v as m without an error
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_gndiff"], path)
    blob = path.read_bytes()
    header, records = split_checkpoint(blob)
    shape = records["adam.m.dpcl.entity_emb"][1].shape
    path.write_bytes(join_checkpoint(blob, *corrupt(header, records)))
    assert len(path.read_bytes()) == len(blob)
    with pytest.raises(CheckpointError, match=rf"the next record is not "
                                              rf"'adam\.m\.dpcl\.entity_emb' of shape "
                                              rf"\({shape[0]}, {shape[1]}\), as the header"):
        engine.load_checkpoint(path)


def test_a_body_larger_than_the_file_is_truncation_before_any_payload_is_allocated(
        tmp_path, small_ckpt, monkeypatch):
    # the first record's head used to be read and its payload allocated
    # before the file's size was compared with what the header implies
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    blob = path.read_bytes()
    path.write_bytes(join_checkpoint(blob, *edit_header(
        lambda h: h.update(n_entities=h["n_entities"] + 10 ** 6))(*split_checkpoint(blob))))
    allocated = []
    empty = np.empty

    def record(*args, **kwargs):
        allocated.append(args)
        return empty(*args, **kwargs)

    monkeypatch.setattr(engine.np, "empty", record)
    with pytest.raises(CheckpointError, match=f"truncated checkpoint: {SIZES}"):
        engine.load_checkpoint(path)
    monkeypatch.undo()
    assert allocated == []


def test_a_header_size_beyond_the_u32_dims_is_refused(tmp_path, small_ckpt):
    # no record head can hold the dims it implies
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(small_ckpt, path)
    blob = path.read_bytes()
    path.write_bytes(join_checkpoint(blob, *edit_header(
        lambda h: h.update(n_entities=2 ** 32))(*split_checkpoint(blob))))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        engine.load_checkpoint(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["lam", "lr", "mu", "tau"])
def test_a_non_finite_config_float_is_refused(tmp_path, ablated_ckpts, key, value):
    # each of these loaded from a checkpoint header, and training stopped at
    # batch 0 with a non-finite loss that named no term
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        engine.TrainConfig(**{key: float(value)}).validate()
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        engine.TrainConfig.from_dict({key: value})
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_gndiff"], path)
    blob = path.read_bytes()
    header, records = edit_header(lambda h: h["config"].update({key: float(value)}))(
        *split_checkpoint(blob))
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match=f"corrupt checkpoint.*{key} must be finite"):
        engine.load_checkpoint(path)


def test_a_negative_seed_is_refused(tmp_path, ablated_ckpts):
    # it passed validation and loaded from a header, and training then
    # failed inside numkit.rng_for with numpy's ValueError
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        engine.TrainConfig(seed=-3).validate()
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        engine.TrainConfig.from_dict({"seed": "-3"})
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_gndiff"], path)
    blob = path.read_bytes()
    header, records = edit_header(lambda h: h["config"].update(seed=-3))(
        *split_checkpoint(blob))
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match="corrupt checkpoint.*seed must be nonnegative"):
        engine.load_checkpoint(path)


@pytest.mark.parametrize("key, value, twin", [("epoch", 1, 7), ("seed", 0, 5)],
                         ids=["top-level", "config"])
def test_a_header_key_repeated_within_one_object_is_refused(tmp_path, ablated_ckpts,
                                                            key, value, twin):
    # json.loads keeps the last of two equal keys: the file loaded with the
    # repeat's value and no error, at the top level and inside the config
    path = tmp_path / "a.ckpt"
    engine.save_checkpoint(ablated_ckpts["no_gndiff"], path)
    blob = path.read_bytes()
    header, records = split_checkpoint(blob)
    pair = f'"{key}": {value}'.encode()
    assert header.count(pair) == 1
    header = header.replace(pair, pair + f', "{key}": {twin}'.encode())
    path.write_bytes(join_checkpoint(blob, header, records))
    with pytest.raises(CheckpointError, match=f"header repeats the key '{key}'"):
        engine.load_checkpoint(path)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(n_entities=st.integers(1, 6), n_relations=st.integers(1, 3),
       d_dpcl=st.integers(1, 4), d_diff=st.integers(1, 4),
       epoch=st.integers(0, 1000), best=FLOATS, seed=st.integers(0, 2 ** 16),
       metrics=st.lists(st.dictionaries(
           st.sampled_from(["epoch", "loss_total", "val_mrr", "wall_seconds"]),
           st.one_of(FLOATS, st.integers(0, 1000))), max_size=4))
def test_checkpoint_roundtrip_bytes_on_random_shapes(n_entities, n_relations, d_dpcl,
                                                     d_diff, epoch, best, seed, metrics):
    rng = nk.rng_for(seed)
    dparams = dpcl_mod.init_params(n_entities, n_relations, d_dpcl, rng)
    nparams = gndiff.init_denoiser(n_entities, n_relations, d_diff, rng)
    adam = {}
    params = engine.Checkpoint(engine.TrainConfig(), dparams, nparams, adam={},
                               adam_steps=0, epoch=0).named_tensors()
    for name, p in params.items():
        adam[name] = nk.AdamState(rng.normal(size=p.shape), rng.random(p.shape))
    ckpt = engine.Checkpoint(
        config=engine.TrainConfig(d_dpcl=d_dpcl, d_diff=d_diff, seed=seed),
        dpcl=dparams, denoiser=nparams, adam=adam, adam_steps=int(rng.integers(0, 100)),
        epoch=epoch, best_val_mrr=best, metrics=metrics)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        engine.save_checkpoint(ckpt, first)
        loaded = engine.load_checkpoint(first)
        engine.save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.metrics == metrics and loaded.epoch == epoch
    assert loaded.adam_steps == ckpt.adam_steps
    assert loaded.best_val_mrr == best and loaded.config == ckpt.config


def test_metrics_log_written(tmp_path):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=2, epochs_stage2=0, batch=16)
    engine.train(cfg, store, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "loss_total", "loss_ce", "loss_sup", "loss_diff",
                        "val_mrr", "val_mrr_new", "val_mrr_periodic", "wall_seconds"}
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()


def read_log(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_a_fresh_run_replaces_the_metrics_log_of_an_earlier_run(tmp_path):
    # the second run used to append its line to the first run's two
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    engine.train(quick_config(epochs_stage1=2, epochs_stage2=0, batch=16), store,
                 out_dir=tmp_path)
    engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16, seed=1), store,
                 out_dir=tmp_path)
    last = engine.load_checkpoint(tmp_path / "last.ckpt")
    assert len(last.metrics) == 1
    assert read_log(tmp_path / "metrics.jsonl") == last.metrics


def test_the_metrics_log_after_a_crash_and_a_resume_matches_the_checkpoint(tmp_path,
                                                                          monkeypatch):
    # a crash between an epoch's log line and its checkpoint used to leave
    # that line in the log, and the resume appended the epoch again
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=3, epochs_stage2=0, batch=16)
    save = engine.save_checkpoint

    def crash_at_epoch_2(ckpt, path):
        if ckpt.epoch == 3:
            raise OSError("disk full")
        save(ckpt, path)

    monkeypatch.setattr(engine, "save_checkpoint", crash_at_epoch_2)
    with pytest.raises(OSError, match="disk full"):
        engine.train(cfg, store, out_dir=tmp_path)
    monkeypatch.undo()
    assert len(read_log(tmp_path / "metrics.jsonl")) == 3
    engine.train(cfg, store, out_dir=tmp_path, resume_from=tmp_path / "last.ckpt")
    last = engine.load_checkpoint(tmp_path / "last.ckpt")
    assert [line["epoch"] for line in last.metrics] == [0, 1, 2]
    assert read_log(tmp_path / "metrics.jsonl") == last.metrics


def test_nan_abort_has_diagnostics(monkeypatch):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=0, batch=16)

    def explode(*args, **kwargs):
        raise NumericError("tensor contains non-finite values")

    monkeypatch.setattr(engine.dpcl_mod, "ce_loss", explode)
    with pytest.raises(NumericError, match="epoch 0, batch 0"):
        engine.train(cfg, store)


def test_a_supcon_overflow_stops_training_naming_its_term():
    # exp(sim / tau) overflows on the diagonal of the similarity block at
    # tau = 1e-4; exp used to raise inside supcon_loss, so the message read
    # sup=None. The overflow now travels to the total loss, which is checked
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=0, epochs_stage2=1, batch=16, tau=1e-4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=r"epoch 0, batch 0: ce=\S+, sup=nan, diff=\S+"):
        engine.train(cfg, store)


def test_joint_gradient_through_everything(monkeypatch):
    # the blended closed-form gradient of train's first batch, as Adam
    # receives it, against the taped chain of the same batch: the scoring
    # chain and its CE, the contrastive chain and the denoiser chain,
    # blended by the taped joint_loss. In stage 1 no loss reaches w_ctr and
    # b_ctr, whose gradients are then 0
    store = planted_period_store(n_entities=5, n_relations=2, n_timestamps=30)
    entropy = token_entropies(store)
    train_quads = store.split("train")
    real = nk.adam_step
    for stage in (1, 2):
        cfg = quick_config(d_dpcl=6, d_diff=6, steps=4, batch=64,
                           epochs_stage1=int(stage == 1), epochs_stage2=int(stage == 2))
        assert len(train_quads) <= cfg.batch
        first_step = []

        def spy(state, params, grads, t, lr):
            if t == 1:
                first_step.append(grads.copy())
            return real(state, params, grads, t, lr)

        monkeypatch.setattr(nk, "adam_step", spy)
        metrics = engine.train(cfg, store).metrics
        monkeypatch.undo()

        init_rng = nk.rng_for(cfg.seed, engine._NS_INIT)
        dparams = dpcl_mod.init_params(5, 2, 6, init_rng)
        nparams = gndiff.init_denoiser(5, 2, 6, init_rng)
        named = engine.Checkpoint(config=cfg, dpcl=dparams, denoiser=nparams, adam={},
                                  adam_steps=0, epoch=0).named_tensors()
        erng = nk.rng_for(cfg.seed, engine._NS_EPOCH, 0)
        quads = train_quads[erng.permutation(len(train_quads))]
        batch = dpcl_mod.QueryBatch.from_quads(quads, build_periodic_index(store, cfg.lam,
                                                                           ("train",)))

        def chain():
            scores = oracles.head_scores(dparams, batch, cfg.mapping_strategy)
            ce = oracles.ce_loss(*scores, batch.gt_ids)
            sup = oracles.supcon_loss(dparams, batch, cfg.tau) if stage == 2 else None
            # the diffusion draws follow the permutation in the epoch's stream
            diff = oracles.batch_loss(nparams, entropy, quads, cfg.steps, cfg.mu, erng)
            return oracles.joint_loss(cfg.alpha, ce, sup, diff)

        want, want_grads = chain_gradients(chain, named)
        assert abs(metrics[0]["loss_total"] - want) <= 1e-10 * max(abs(want), 1.0)
        assert len(first_step) == len(named)
        for name, got in zip(named, first_step):
            w = want_grads[name]
            assert np.abs(got - w).max() <= 1e-10 * max(np.abs(w).max(), 1.0), name
        for name in ("dpcl.w_ctr", "dpcl.b_ctr"):
            assert want_grads[name].any() == (stage == 2), name


def test_a_model_is_ranked_only_at_the_lambda_it_was_trained_at():
    # the checkpoint is the one source of lam: a model trained at 8 used to
    # be ranked at whatever lam its caller passed
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(lam=8.0, no_gndiff=True, epochs_stage1=1, epochs_stage2=0, batch=16)
    model = engine.model_from_checkpoint(engine.train(cfg, store), store)
    assert model.lam == 8.0
    with pytest.raises(ValueError, match="trained at lambda 8.0, not 2.0"):
        evaluate.evaluate_split(model, store, "test", seed=0, lam=2.0)
    assert evaluate.evaluate_split(model, store, "test", seed=0, lam=8.0)["all"].ranks


def test_planted_pattern_quick_recovery():
    # scaled-down version of the acceptance run: it must beat random scoring
    store = planted_period_store()
    cfg = quick_config(d_dpcl=32, d_diff=32, batch=64, epochs_stage1=6,
                       epochs_stage2=2, steps=10, chains=2)
    ckpt = engine.train(cfg, store)
    model = engine.model_from_checkpoint(ckpt, store)
    reports = evaluate.evaluate_split(model, store, "test", seed=3, lam=cfg.lam)
    random_mrr = np.mean([1.0 / r for r in range(1, store.n_entities + 1)])
    assert reports["all"].mrr > 2 * random_mrr


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    ckpt = engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=16), store)
    path = tmp_path / "best.ckpt"
    engine.save_checkpoint(ckpt, path)
    before = path.read_bytes()

    # a file-size limit makes the OS refuse the write part-way, as a full
    # disk would
    ckpt.epoch += 1
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2, hard))
    try:
        with pytest.raises(OSError):
            engine.save_checkpoint(ckpt, path)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def test_train_without_validation_returns_final_state(tmp_path, monkeypatch):
    # each epoch's state is written once, to last.ckpt; the final state is
    # also the best, and best.ckpt holds the same bytes without a second write
    store = single_fact_store()
    assert len(store.split("valid")) == 0
    written = []
    save = engine.save_checkpoint

    def record(ckpt, path):
        written.append((path.name, ckpt.epoch))
        save(ckpt, path)

    monkeypatch.setattr(engine, "save_checkpoint", record)
    cfg = quick_config(epochs_stage1=3, epochs_stage2=2, batch=4, steps=4)
    ckpt = engine.train(cfg, store, out_dir=tmp_path / "five")
    assert ckpt.epoch == cfg.total_epochs
    assert written == [("last.ckpt", epoch) for epoch in range(1, 6)]
    best = engine.load_checkpoint(tmp_path / "five" / "best.ckpt")
    assert best.epoch == cfg.total_epochs
    assert_same_state(ckpt, best)
    assert (tmp_path / "five" / "best.ckpt").read_bytes() == \
        (tmp_path / "five" / "last.ckpt").read_bytes()

    written.clear()
    engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=4, steps=4),
                 store, out_dir=tmp_path / "one")
    assert written == [("last.ckpt", 1)]
    assert (tmp_path / "one" / "best.ckpt").read_bytes() == \
        (tmp_path / "one" / "last.ckpt").read_bytes()


def test_an_improving_epoch_is_written_once(tmp_path, monkeypatch):
    # best.ckpt is a link to the last.ckpt of the epoch that improved; later
    # last.ckpt writes leave its bytes alone
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=2, epochs_stage2=3, batch=16, seed=2)
    written = []
    save = engine.save_checkpoint

    def record(ckpt, path):
        written.append(path.name)
        save(ckpt, path)

    monkeypatch.setattr(engine, "save_checkpoint", record)
    best = engine.train(cfg, store, out_dir=tmp_path)
    assert written == ["last.ckpt"] * cfg.total_epochs
    assert best.epoch == 1
    assert engine.load_checkpoint(tmp_path / "best.ckpt").epoch == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "best.ckpt", "last.ckpt", "metrics.jsonl"]


def test_evaluate_split_runs_inference_on_one_blas_thread(monkeypatch):
    api = nk._openblas_threads_api()
    if api is None:
        pytest.skip("numpy's BLAS is not a findable OpenBLAS")
    get, set_ = api
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=1, batch=16, steps=4)
    model = engine.model_from_checkpoint(engine.train(cfg, store), store)
    seen = []
    for name, module in (("p_dpcl", evaluate), ("p_diff_batch", gndiff)):
        def record(*args, _inner=getattr(module, name), **kwargs):
            seen.append(get())
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, record)
    before = get()
    set_(2)
    try:
        evaluate.evaluate_split(model, store, "test", seed=1, lam=cfg.lam)
        assert get() == 2
    finally:
        set_(before)
    assert set(seen) == {1}
