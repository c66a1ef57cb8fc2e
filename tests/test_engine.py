import dataclasses
import json
import resource
import signal

import numpy as np
import pytest

from helpers import planted_period_store, quick_config, single_fact_store
from tkgdiff import dpcl as dpcl_mod
from tkgdiff import engine, evaluate, gndiff
from tkgdiff import numkit as nk
from tkgdiff.corpus import build_periodic_index, token_entropies
from tkgdiff.errors import (CheckpointError, CheckpointVersionError,
                            ConfigError, NumericError)


def test_joint_loss_endpoints():
    ce = nk.constant(0.5)
    sup = nk.constant(0.25)
    diff = nk.constant(1.0)
    cfg0 = engine.TrainConfig(alpha=0.0)
    assert engine.joint_loss(cfg0, ce, sup, diff).item() == pytest.approx(0.75)
    cfg1 = engine.TrainConfig(alpha=1.0)
    assert engine.joint_loss(cfg1, ce, sup, diff).item() == pytest.approx(1.0)


def test_joint_loss_hand_value():
    cfg = engine.TrainConfig(alpha=0.2)
    out = engine.joint_loss(cfg, nk.constant(0.5), nk.constant(0.25), nk.constant(1.0))
    assert out.item() == pytest.approx(0.2 * 1.0 + 0.8 * 0.75, abs=1e-12)


def test_joint_loss_stage_and_ablation_semantics():
    cfg = engine.TrainConfig(alpha=0.2)
    ce, sup, diff = nk.constant(0.5), nk.constant(0.25), nk.constant(1.0)
    stage1 = engine.joint_loss(cfg, ce, sup, diff, stage=1)
    assert stage1.item() == pytest.approx(0.2 + 0.8 * 0.5)
    no_gn = dataclasses.replace(cfg, no_gndiff=True)
    assert engine.joint_loss(no_gn, ce, sup, None).item() == pytest.approx(0.75)
    no_dp = dataclasses.replace(cfg, no_dpcl=True)
    assert engine.joint_loss(no_dp, None, None, diff).item() == pytest.approx(1.0)


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


def test_memorize_single_fact():
    store = single_fact_store()
    cfg = quick_config(epochs_stage1=40, epochs_stage2=10, batch=4, steps=6)
    ckpt = engine.train(cfg, store)
    losses = [m["loss_total"] for m in ckpt.metrics]
    assert losses[-1] < losses[0]
    model = engine.model_from_checkpoint(ckpt, store)
    index = build_periodic_index(store, cfg.lam, ("train",))
    batch = dpcl_mod.QueryBatch.from_quads(store.quads, index)
    pd = evaluate.p_dpcl(model.dpcl, batch, model.distance_per,
                         model.distance_nonper)
    pg = gndiff.p_diff_batch(model.denoiser, store.quads[:, :2], cfg.steps, 4,
                             nk.rng_for(0, 99))
    combined = evaluate.combine(pg, pd)
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

    def strip_wall(metrics):
        return [{k: v for k, v in m.items() if k != "wall_seconds"} for m in metrics]

    assert strip_wall(a.metrics) == strip_wall(b.metrics)
    for name, t in a.named_tensors().items():
        np.testing.assert_array_equal(t.data, b.named_tensors()[name].data)


def test_different_seed_differs():
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    a = engine.train(quick_config(), store)
    b = engine.train(quick_config(seed=1), store)
    assert a.metrics != b.metrics


def test_ablation_freezes_excluded_parameters():
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    cfg = quick_config(no_gndiff=True)
    init_rng = nk.rng_for(cfg.seed, 0)
    d0 = dpcl_mod.init_params(store.n_entities, store.n_relations, cfg.d_dpcl, init_rng)
    n0 = gndiff.init_denoiser(store.n_entities, store.n_relations, cfg.d_diff, init_rng)
    ckpt = engine.train(cfg, store)
    for name, t in ckpt.denoiser.named().items():
        np.testing.assert_array_equal(t.data, n0.named()[name].data)
    assert any(not np.array_equal(t.data, d0.named()[name].data)
               for name, t in ckpt.dpcl.named().items())

    cfg2 = quick_config(no_dpcl=True)
    ckpt2 = engine.train(cfg2, store)
    for name, t in ckpt2.dpcl.named().items():
        np.testing.assert_array_equal(t.data, d0.named()[name].data)
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
    for name, t in ckpt.named_tensors().items():
        np.testing.assert_array_equal(t.data, loaded.named_tensors()[name].data)
    for name, s in ckpt.adam.items():
        np.testing.assert_array_equal(s.m, loaded.adam[name].m)
        np.testing.assert_array_equal(s.v, loaded.adam[name].v)
        assert s.t == loaded.adam[name].t


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
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    full_cfg = quick_config(epochs_stage1=2, epochs_stage2=2, batch=16)
    full = engine.train(full_cfg, store)

    short_cfg = quick_config(epochs_stage1=2, epochs_stage2=0, batch=16)
    part = engine.train(short_cfg, store, out_dir=tmp_path / "run")
    assert part.epoch == 2
    resumed = engine.train(full_cfg, store, resume_from=tmp_path / "run" / "last.ckpt")

    assert resumed.metrics[-1]["loss_total"] == pytest.approx(
        full.metrics[-1]["loss_total"], abs=1e-12)
    for name, t in full.named_tensors().items():
        np.testing.assert_allclose(t.data, resumed.named_tensors()[name].data,
                                   atol=1e-12)


def test_metrics_log_written(tmp_path):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=2, epochs_stage2=0, batch=16)
    engine.train(cfg, store, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "loss_total", "loss_ce", "loss_sup",
                        "loss_diff", "val_mrr", "wall_seconds"}
    assert (tmp_path / "last.ckpt").exists()
    assert (tmp_path / "best.ckpt").exists()


def test_nan_abort_has_diagnostics(monkeypatch):
    store = planted_period_store(n_entities=6, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=0, batch=16)

    def explode(*args, **kwargs):
        raise NumericError("tensor contains non-finite values")

    monkeypatch.setattr(engine.dpcl_mod, "ce_loss", explode)
    with pytest.raises(NumericError, match="epoch 0, batch 0"):
        engine.train(cfg, store)


def test_joint_gradient_through_everything():
    # tape gradient of the full blended objective on a 5-entity fixture
    store = planted_period_store(n_entities=5, n_relations=2, n_timestamps=30)
    cfg = quick_config(d_dpcl=6, d_diff=6, steps=4)
    entropies = token_entropies(store)
    index = build_periodic_index(store, cfg.lam, ("train",))
    rng = nk.rng_for(5)
    dparams = dpcl_mod.init_params(5, 2, 6, rng)
    nparams = gndiff.init_denoiser(5, 2, 6, rng)
    quads = store.split("train")[:4]
    batch = dpcl_mod.QueryBatch.from_quads(quads, index)
    toks = entropies.quad_tokens(quads)
    d_names = list(dparams.named())
    n_names = list(nparams.named())

    def f(ps):
        dp = dpcl_mod.DpclParams(**dict(zip(d_names, ps[:len(d_names)])))
        np_ = nparams.replace(**dict(zip(n_names, ps[len(d_names):])))
        sp = dpcl_mod.periodic_scores(dp, batch)
        snp = dpcl_mod.nonperiodic_scores(dp, batch)
        ce = dpcl_mod.ce_loss(sp, snp, batch.gt_ids)
        sup = dpcl_mod.supcon_loss(dp, batch, cfg.tau)
        diff = gndiff.batch_loss(np_, entropies, toks, cfg.steps, cfg.mu,
                                 nk.rng_for(6))
        return engine.joint_loss(cfg, ce, sup, diff)

    params = list(dparams.named().values()) + list(nparams.named().values())
    report = nk.grad_check(f, params, tolerance=1e-4)
    assert report.ok, report


def test_planted_pattern_quick_recovery():
    # scaled-down version of the acceptance run: it must beat random scoring
    store = planted_period_store()
    cfg = quick_config(d_dpcl=32, d_diff=32, batch=64, epochs_stage1=6,
                       epochs_stage2=2, steps=10, chains=2)
    ckpt = engine.train(cfg, store)
    model = engine.model_from_checkpoint(ckpt, store)
    reports = evaluate.evaluate_split(model, store, "test", strata=("all",),
                                      seed=3, lam=cfg.lam)
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
    store = single_fact_store()
    assert len(store.split("valid")) == 0
    cfg = quick_config(epochs_stage1=3, epochs_stage2=2, batch=4, steps=4)
    ckpt = engine.train(cfg, store, out_dir=tmp_path / "five")
    assert ckpt.epoch == cfg.total_epochs
    best = engine.load_checkpoint(tmp_path / "five" / "best.ckpt")
    last = engine.load_checkpoint(tmp_path / "five" / "last.ckpt")
    assert best.epoch == last.epoch == cfg.total_epochs
    for name, t in ckpt.named_tensors().items():
        np.testing.assert_array_equal(t.data, best.named_tensors()[name].data)

    written = []
    save = engine.save_checkpoint

    def record(ckpt, path):
        written.append(path.name)
        save(ckpt, path)

    monkeypatch.setattr(engine, "save_checkpoint", record)
    engine.train(quick_config(epochs_stage1=1, epochs_stage2=0, batch=4, steps=4),
                 store, out_dir=tmp_path / "one")
    assert sorted(written) == ["best.ckpt", "last.ckpt"]


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
