import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import grad_check, make_batch, planted_period_store, quick_config, tensor
from tkgdiff import dpcl, engine
from tkgdiff import evaluate as ev
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.errors import ConfigError, DimensionError
from tkgdiff.geometry import project_array_to_ball


def periodic(params, batch):
    return dpcl.head_scores(params, batch, "hyp/euc")[0]


def nonperiodic(params, batch):
    return dpcl.head_scores(params, batch, "hyp/euc")[1]


@pytest.fixture
def setup():
    rng = nk.rng_for(41)
    params = dpcl.init_params(n_entities=5, n_relations=2, dim=4, rng=rng)
    batch = make_batch(rng, 5, 3)
    return params, batch, rng


def scalar_score(params, batch, i, j, head, distance):
    """Independent per-entry recomputation of the dependency scores."""
    e = params.entity_emb.data
    s = e[batch.s_ids[i]]
    r = params.relation_emb.data[batch.r_ids[i]]
    x = np.concatenate([s, r])
    if head == "periodic":
        code = np.tanh(params.w_per.data @ x + params.b_per.data[0])
        z = batch.z_rows[i, j]
    else:
        code = np.tanh(params.w_nonper.data @ x + params.b_nonper.data[0])
        z = -batch.z_rows[i, j]
    affine = float(code @ e[j])
    if distance == "poincare":
        a = project_array_to_ball(s.reshape(1, -1))[0]
        b = project_array_to_ball(e[j].reshape(1, -1))[0]
        num = np.sum((a - b) ** 2)
        dist = np.arccosh(max(1.0, 1.0 + 2.0 * num /
                              ((1 - a @ a) * (1 - b @ b))))
    else:
        dist = float(np.linalg.norm(s - e[j]))
    return affine + z + dist


def test_periodic_scores_match_scalar_oracle(setup):
    params, batch, _ = setup
    scores = periodic(params, batch).data
    for i in range(len(batch)):
        for j in range(5):
            want = scalar_score(params, batch, i, j, "periodic", "poincare")
            assert scores[i, j] == pytest.approx(want, abs=1e-10)


def test_nonperiodic_scores_match_scalar_oracle(setup):
    params, batch, _ = setup
    scores = nonperiodic(params, batch).data
    for i in range(len(batch)):
        for j in range(5):
            want = scalar_score(params, batch, i, j, "nonperiodic", "euclidean")
            assert scores[i, j] == pytest.approx(want, abs=1e-10)


def test_zeroed_affine_isolates_distance(setup):
    params, batch, _ = setup
    params = dataclasses.replace(params, w_per=nk.zeros(4, 8), b_per=nk.zeros(1, 4))
    # subject at the origin, empty history row
    emb = params.entity_emb.data.copy()
    emb[batch.s_ids[0]] = 0.0
    params = dataclasses.replace(params, entity_emb=tensor(emb))
    batch.z_rows[:] = 0.0
    scores = periodic(params, batch).data
    for j in range(5):
        b = project_array_to_ball(emb[j].reshape(1, -1))[0]
        want = np.arccosh(1.0 + 2.0 * (b @ b) / (1.0 - b @ b))
        assert scores[0, j] == pytest.approx(want, abs=1e-10)


def test_score_additivity_in_distance(setup):
    # identical affine scores and z: the farther candidate wins by exactly
    # the distance difference
    params, batch, _ = setup
    params = dataclasses.replace(params, w_per=nk.zeros(4, 8), b_per=nk.zeros(1, 4))
    batch.z_rows[:] = 0.0
    scores = periodic(params, batch).data
    e = params.entity_emb.data
    s = project_array_to_ball(e[batch.s_ids[0]].reshape(1, -1))[0]

    def dist(j):
        b = project_array_to_ball(e[j].reshape(1, -1))[0]
        return np.arccosh(1 + 2 * np.sum((s - b) ** 2) / ((1 - s @ s) * (1 - b @ b)))

    assert scores[0, 1] - scores[0, 2] == pytest.approx(dist(1) - dist(2), abs=1e-10)


def test_z_sign_opposition(setup):
    params, batch, _ = setup
    lam = 2.0
    sp0 = periodic(params, batch).data.copy()
    snp0 = nonperiodic(params, batch).data.copy()
    o = int(batch.gt_ids[0])
    # scoring froze the batch's z rows, which its tensor owns
    z = batch.z_rows.copy()
    z[0, o] += 2 * lam
    batch = dataclasses.replace(batch, z_rows=z)
    sp1 = periodic(params, batch).data
    snp1 = nonperiodic(params, batch).data
    assert sp1[0, o] - sp0[0, o] == pytest.approx(2 * lam, abs=1e-12)
    assert snp1[0, o] - snp0[0, o] == pytest.approx(-2 * lam, abs=1e-12)


def test_nonperiodic_self_distance_zero(setup):
    params, batch, _ = setup
    params = dataclasses.replace(params, w_nonper=nk.zeros(4, 8), b_nonper=nk.zeros(1, 4))
    batch.z_rows[:] = 0.0
    scores = nonperiodic(params, batch).data
    s0 = int(batch.s_ids[0])
    assert scores[0, s0] == pytest.approx(0.0, abs=1e-12)


def test_permutation_equivariance(setup):
    params, batch, _ = setup
    perm = np.array([2, 0, 4, 1, 3])          # new id of each old entity
    inv = np.argsort(perm)
    scores = periodic(params, batch).data
    pparams = dataclasses.replace(params, entity_emb=tensor(params.entity_emb.data[inv]))
    pbatch = dpcl.QueryBatch(perm[batch.s_ids], batch.r_ids, perm[batch.gt_ids],
                             batch.z_rows[:, inv], batch.periodic)
    pscores = periodic(pparams, pbatch).data
    np.testing.assert_allclose(pscores[:, perm], scores, atol=1e-12)


def test_ce_loss_uniform_rows():
    sp = nk.zeros(2, 4)
    snp = nk.zeros(2, 4)
    loss = dpcl.ce_loss(sp, snp, [1, 3])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_loss_dominant_limit():
    # ground truth far ahead in both heads: loss approaches -log 2
    sp = tensor([[100.0, 0.0, 0.0]])
    snp = tensor([[100.0, 0.0, 0.0]])
    loss = dpcl.ce_loss(sp, snp, [0])
    assert loss.item() == pytest.approx(-np.log(2.0), abs=1e-9)


def test_ce_loss_gradient():
    rng = nk.rng_for(42)
    sp = tensor(rng.normal(size=(2, 5)))
    snp = tensor(rng.normal(size=(2, 5)))
    gt = [1, 4]
    report = grad_check(lambda ps: dpcl.ce_loss(ps[0], ps[1], gt), [sp, snp],
                           tolerance=1e-4)
    assert report.ok, report


def test_ce_loss_shift_invariance(setup):
    rng = nk.rng_for(43)
    sp = rng.normal(size=(3, 6))
    snp = rng.normal(size=(3, 6))
    gt = [0, 2, 5]
    base = dpcl.ce_loss(tensor(sp), tensor(snp), gt).item()
    shifted = dpcl.ce_loss(tensor(sp + 7.5), tensor(snp - 3.25), gt).item()
    assert shifted == pytest.approx(base, abs=1e-9)


def test_ce_loss_decreases_with_gt_score():
    rng = nk.rng_for(44)
    sp = rng.normal(size=(1, 5))
    snp = rng.normal(size=(1, 5))
    losses = []
    for bump in (0.0, 0.5, 1.0):
        s = sp.copy()
        s[0, 2] += bump
        losses.append(dpcl.ce_loss(tensor(s), tensor(snp), [2]).item())
    assert losses[0] > losses[1] > losses[2]


PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@PROPERTY
@given(b=st.integers(1, 24), n=st.integers(1, 60), scale=st.sampled_from([0.1, 1.0, 10.0, 40.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ce_loss_is_bit_equal_to_the_two_gather_form(b, n, scale, seed):
    # the mixture halves the summed softmaxes and ce_loss doubles its
    # ground-truth entry; both scalings are exact while the sum is no
    # subnormal, as here, so the value and both gradients keep the bits of
    # one gather per head
    rng = nk.rng_for(seed)
    sp, snp = (tensor(rng.normal(size=(b, n)) * scale) for _ in range(2))
    gt = rng.integers(0, n, b)
    values, grads = [], []
    for loss in (dpcl.ce_loss, oracles.ce_loss):
        with nk.GradTape() as tape:
            out = loss(sp, snp, gt)
        values.append(out.data)
        grads.append(tape.gradient(out, [sp, snp]))
    np.testing.assert_array_equal(values[0], values[1])
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


@PROPERTY
@given(b=st.integers(1, 12), n=st.integers(1, 30), dim=st.integers(1, 8),
       strategy=st.sampled_from(sorted(dpcl.STRATEGY_DISTANCES)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_p_dpcl_is_bit_equal_to_the_mean_of_the_head_softmaxes(b, n, dim, strategy, seed):
    rng = nk.rng_for(seed)
    params = dpcl.init_params(n, 2, dim, rng)
    batch = make_batch(rng, n, b)
    sp, snp = dpcl.head_scores(params, batch, strategy)
    want = 0.5 * (nk.softmax_rows(sp).data + nk.softmax_rows(snp).data)
    np.testing.assert_array_equal(ev.p_dpcl(params, batch, strategy), want)


def test_mixture_and_ce_loss_reject_scores_of_different_shapes():
    # a (B, 1) score column would broadcast against the other head's rows
    for s_nonper in (nk.zeros(2, 1), nk.zeros(3, 4)):
        with pytest.raises(DimensionError, match="score shapes differ"):
            dpcl.mixture(nk.zeros(2, 4), s_nonper)
        with pytest.raises(DimensionError, match="score shapes differ"):
            dpcl.ce_loss(nk.zeros(2, 4), s_nonper, [0, 1])


@pytest.mark.parametrize("n_entities, n_relations, dim", [(5, 2, 4), (1, 1, 1), (9, 3, 16)])
def test_param_shapes_are_those_init_params_draws(n_entities, n_relations, dim):
    params = dpcl.init_params(n_entities, n_relations, dim, nk.rng_for(47))
    assert {name: t.shape for name, t in params.named().items()} == \
        dpcl.param_shapes(n_entities, n_relations, dim)


def scalar_supcon(z, labels, tau, batch_avg=True):
    """Independent plain-float evaluation of the contrastive objective."""
    n = len(labels)
    total = 0.0
    for q in range(n):
        pos = [p for p in range(n) if p != q and labels[p] == labels[q]]
        if not pos:
            continue
        denom = sum(np.exp(z[q] @ z[a] / tau) for a in range(n) if a != q)
        inner = sum(np.log(np.exp(z[q] @ z[p] / tau) / denom) for p in pos)
        total += -inner / len(pos)
    return total / n if batch_avg else total


def hand_placed_params():
    """Parameters whose contrastive codes normalize to exactly (+-1, 0)."""
    atan = np.arctanh(0.9)
    w = np.zeros((2, 4))
    w[0, 0] = atan
    e = np.array([[1.0, 0.0], [-1.0, 0.0]])
    r = np.zeros((1, 2))
    zero_w = nk.zeros(2, 4)
    zero_b = nk.zeros(1, 2)
    return dpcl.DpclParams(tensor(e), tensor(r), zero_w, zero_b,
                           zero_w, zero_b, tensor(w), nk.zeros(1, 2))


def test_supcon_two_identical_same_label():
    params = hand_placed_params()
    z = np.zeros((2, 2))
    batch = dpcl.QueryBatch(np.array([0, 0]), np.array([0, 0]), np.array([0, 0]), z,
                            np.array([True, True]))
    loss = dpcl.supcon_loss(params, batch, tau=0.1)
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def test_supcon_all_same_label_identical_codes():
    # with B identical codes sharing one label the denominator has B-1 equal
    # terms, so each anchor contributes log(B-1); zero only at B=2
    params = hand_placed_params()
    b = 4
    batch = dpcl.QueryBatch(np.zeros(b, int), np.zeros(b, int), np.zeros(b, int),
                            np.zeros((b, 2)), np.ones(b, bool))
    loss = dpcl.supcon_loss(params, batch, tau=0.1)
    z = np.tile([1.0, 0.0], (b, 1))
    assert loss.item() == pytest.approx(scalar_supcon(z, [0] * b, 0.1), abs=1e-12)
    assert loss.item() == pytest.approx(np.log(b - 1), abs=1e-9)


def test_supcon_hand_placed_antipodal():
    # codes at 0 deg / 0 deg / 180 deg on the unit circle, labels {A, A, B}
    params = hand_placed_params()
    batch = dpcl.QueryBatch(np.array([0, 0, 1]), np.zeros(3, int), np.zeros(3, int),
                            np.zeros((3, 5)), np.array([True, True, False]))
    loss = dpcl.supcon_loss(params, batch, tau=0.1)
    z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    want = scalar_supcon(z, [0, 0, 1], 0.1)
    assert loss.item() == pytest.approx(want, abs=1e-12)


def test_supcon_matches_scalar_oracle_random(setup):
    params, _, rng = setup
    batch = make_batch(rng, 5, 6)
    loss = dpcl.supcon_loss(params, batch, tau=0.1).item()
    # recompute z independently
    e = params.entity_emb.data
    zs = []
    for i in range(len(batch)):
        x = np.concatenate([e[batch.s_ids[i]], params.relation_emb.data[batch.r_ids[i]]])
        code = np.tanh(params.w_ctr.data @ x + params.b_ctr.data[0])
        zs.append(code / np.linalg.norm(code))
    want = scalar_supcon(np.array(zs), list(batch.periodic), 0.1)
    assert loss == pytest.approx(want, abs=1e-10)


def test_supcon_rotation_invariance(setup):
    # the objective depends only on inner products of unit codes
    rng = nk.rng_for(45)
    z = rng.normal(size=(5, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
    labels = [0, 0, 1, 1, 0]
    assert scalar_supcon(z, labels, 0.1) == pytest.approx(
        scalar_supcon(z @ rot.T, labels, 0.1), abs=1e-10)


def test_supcon_no_positive_pairs_is_zero():
    params = hand_placed_params()
    batch = dpcl.QueryBatch(np.array([0, 1]), np.zeros(2, int), np.zeros(2, int),
                            np.zeros((2, 2)), np.array([True, False]))
    assert dpcl.supcon_loss(params, batch, tau=0.1).item() == 0.0


def test_supcon_gradient(setup):
    params, _, rng = setup
    batch = make_batch(rng, 5, 4)
    names = list(params.named())

    def f(ps):
        p = dpcl.DpclParams(**dict(zip(names, ps)))
        return dpcl.supcon_loss(p, batch, tau=0.1)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


def test_supcon_rejects_bad_temperature(setup):
    params, batch, _ = setup
    with pytest.raises(ConfigError):
        dpcl.supcon_loss(params, batch, tau=0.0)
    with pytest.raises(ConfigError):
        dpcl.supcon_loss(params, batch, tau=-1.0)


def test_full_dpcl_gradient_suite(setup):
    # combined objective through scores, ce, and supcon on a 5-entity fixture
    params, _, rng = setup
    batch = make_batch(rng, 5, 4)
    names = list(params.named())

    def f(ps):
        p = dpcl.DpclParams(**dict(zip(names, ps)))
        sp, snp = dpcl.head_scores(p, batch, "hyp/euc")
        ce = dpcl.ce_loss(sp, snp, batch.gt_ids)
        sup = dpcl.supcon_loss(p, batch, tau=0.1)
        return nk.add(ce, sup)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
def test_head_scores_match_per_head_oracle(setup, strategy):
    # one shared squared-distance block gives each head what it would get
    # from its own subject rows and its own distances, values and gradients
    params, _, rng = setup
    batch = make_batch(rng, 5, 4)
    per, nonper = dpcl.STRATEGY_DISTANCES[strategy]
    names = list(params.named())
    sources = list(params.named().values())
    weights = tensor(rng.normal(size=(4, 5))), tensor(rng.normal(size=(4, 5)))

    def objective(sp, snp):
        return nk.add(nk.sum_all(nk.mul(sp, weights[0])), nk.sum_all(nk.mul(snp, weights[1])))

    with nk.GradTape() as tape:
        sp, snp = dpcl.head_scores(params, batch, strategy)
        shared = objective(sp, snp)
    got = tape.gradient(shared, sources)
    with nk.GradTape() as tape:
        osp = oracles.head_score(params, batch, "periodic", per)
        osnp = oracles.head_score(params, batch, "nonperiodic", nonper)
        apart = objective(osp, osnp)
    want = tape.gradient(apart, sources)
    np.testing.assert_allclose(sp.data, osp.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(snp.data, osnp.data, rtol=0, atol=1e-12)
    for name, g, w in zip(names, got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
def test_head_scores_gradient(setup, strategy):
    params, _, rng = setup
    batch = make_batch(rng, 5, 3)
    names = list(params.named())

    def f(ps):
        p = dpcl.DpclParams(**dict(zip(names, ps)))
        sp, snp = dpcl.head_scores(p, batch, strategy)
        return dpcl.ce_loss(sp, snp, batch.gt_ids)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
def test_each_distance_kind_is_derived_once(monkeypatch, setup, strategy):
    params, batch, _ = setup
    derived = []
    for name in ("poincare_from_sqdist", "euclidean_from_sqdist"):
        real = getattr(geo, name)

        def counted(*args, _real=real, _name=name):
            derived.append(_name)
            return _real(*args)

        monkeypatch.setattr(geo, name, counted)
    dpcl.head_scores(params, batch, strategy)
    kinds = set(dpcl.STRATEGY_DISTANCES[strategy])
    assert sorted(derived) == sorted(f"{kind}_from_sqdist" for kind in kinds)


def test_head_scores_reject_rows_past_the_ball_margin(setup):
    # a row between 1 - BALL_MARGIN and the unit sphere is an error for a
    # Poincare head, not something scoring re-projects
    params, batch, _ = setup
    emb = params.entity_emb.data.copy()
    emb[3] = 0.0
    emb[3, 0] = 1.0 - geo.BALL_MARGIN / 2
    params = dataclasses.replace(params, entity_emb=tensor(emb))
    for strategy in ("hyp/euc", "euc/hyp"):
        with pytest.raises(ValueError, match="unit ball"):
            dpcl.head_scores(params, batch, strategy)
    sp, snp = dpcl.head_scores(params, batch, "euc/euc")
    assert np.isfinite(sp.data).all() and np.isfinite(snp.data).all()


def test_head_scores_reject_unknown_distance(setup):
    params, batch, _ = setup
    with pytest.raises(ConfigError, match="unknown mapping strategy"):
        dpcl.head_scores(params, batch, "hyp/manhattan")


def _count_sqdist_calls(monkeypatch) -> list:
    calls = []
    real = geo.pairwise_sqdist

    def counted(a, b):
        calls.append(a.shape[0])
        return real(a, b)

    monkeypatch.setattr(geo, "pairwise_sqdist", counted)
    return calls


@pytest.mark.parametrize("strategy", ["hyp/euc", "hyp/hyp"])
def test_one_difference_block_per_training_batch(monkeypatch, strategy):
    store = planted_period_store()
    cfg = quick_config(mapping_strategy=strategy, no_gndiff=True, batch=64,
                       epochs_stage1=1, epochs_stage2=1)
    calls = _count_sqdist_calls(monkeypatch)
    engine.train(cfg, store)
    n_train, n_valid = len(store.split("train")), len(store.split("valid"))
    full, last = divmod(n_train, cfg.batch)
    # per epoch: one block per training batch, then one per validation chunk
    assert 0 < n_valid <= 256
    epoch = [cfg.batch] * full + [last] * bool(last) + [n_valid]
    assert calls == epoch * cfg.total_epochs


def test_one_difference_block_per_eval_chunk(monkeypatch):
    store = planted_period_store(n_entities=40, n_timestamps=100)
    n_test = len(store.split("test"))
    assert n_test > 256
    params = dpcl.init_params(store.n_entities, store.n_relations, 8, nk.rng_for(46))
    model = ev.Model(dpcl=params, denoiser=None, mapping_strategy="hyp/euc", steps=50,
                     chains=8)
    calls = _count_sqdist_calls(monkeypatch)
    ev.evaluate_split(model, store, "test")
    assert calls == [256] * (n_test // 256) + [n_test % 256] * bool(n_test % 256)


@pytest.mark.parametrize("strategy", ["hyp/euc", "hyp/hyp"])
def test_training_keeps_entity_rows_inside_the_ball_margin(monkeypatch, tmp_path, strategy):
    # a large step pushes rows past the boundary; the engine's projection
    # after every step must keep each row within 1 - BALL_MARGIN
    store = planted_period_store()
    cfg = quick_config(mapping_strategy=strategy, no_gndiff=True, lr=0.5,
                       epochs_stage1=2, epochs_stage2=1)
    norms = []
    real = engine.save_checkpoint

    def record(ckpt, path):
        norms.append(np.linalg.norm(ckpt.dpcl.entity_emb.data, axis=1).max())
        return real(ckpt, path)

    monkeypatch.setattr(engine, "save_checkpoint", record)
    engine.train(cfg, store, out_dir=tmp_path)
    assert len(norms) >= cfg.total_epochs
    assert max(norms) <= 1.0 - geo.BALL_MARGIN
    assert max(norms) > 0.99   # the step did reach the boundary
