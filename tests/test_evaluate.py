import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import make_batch, new_event_mix_store, planted_period_store, quick_config
from tkgdiff import dpcl, engine, evaluate, gndiff
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.corpus import SPLITS, QuadStore, build_periodic_index
from tkgdiff.dpcl import QueryBatch
from tkgdiff.errors import NumericError

# ---------------------------------------------------------------------------
# Batched ranks: invariants and the per-query oracle
# ---------------------------------------------------------------------------


@st.composite
def rank_cases(draw):
    """(p, gt, same-time objects per row): a few rows of probabilities on a
    coarse grid, so ties are common."""
    n = draw(st.integers(1, 12))
    b = draw(st.integers(1, 4))
    p = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                               min_size=b, max_size=b))) / 4.0
    gt = np.array(draw(st.lists(st.integers(0, n - 1), min_size=b, max_size=b)))
    same_time = [draw(st.sets(st.integers(0, n - 1))) for _ in range(b)]
    return p, gt, same_time


def batched_ranks(p, gt, same_time):
    """evaluate.ranks with the same-time sets as (row, object) pairs."""
    rows = np.array([i for i, objs in enumerate(same_time) for _ in objs], dtype=np.int64)
    objs = np.array([o for objs in same_time for o in objs], dtype=np.int64)
    return evaluate.ranks(p, gt, (rows, objs))


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PROPERTY
@given(case=rank_cases())
def test_ranks_match_the_per_query_oracle(case):
    p, gt, same_time = case
    filtered, raw = batched_ranks(p, gt, same_time)
    assert filtered.tolist() == [oracles.filtered_rank(p[i], gt[i], same_time[i])
                                 for i in range(len(gt))]
    assert raw.tolist() == [oracles.raw_rank(p[i], gt[i]) for i in range(len(gt))]


@PROPERTY
@given(case=rank_cases(), data=st.data())
def test_filtered_rank_invariant_under_candidate_permutation(case, data):
    p, gt, same_time = case
    perm = np.array(data.draw(st.permutations(range(p.shape[1]))))
    moved = np.empty_like(p)
    moved[:, perm] = p
    got = batched_ranks(moved, perm[gt], [{perm[o] for o in objs} for objs in same_time])
    want = batched_ranks(p, gt, same_time)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@PROPERTY
@given(case=rank_cases())
def test_filtered_rank_ties_rank_pessimistically(case):
    p, gt, same_time = case
    n = p.shape[1]
    competitors = [[j for j in range(n) if j != g and j not in objs]
                   for g, objs in zip(gt, same_time)]
    filtered, _ = batched_ranks(p, gt, same_time)
    assert filtered.tolist() == [1 + sum(p[i, j] >= p[i, gt[i]] for j in competitors[i])
                                 for i in range(len(gt))]
    flat = np.full(p.shape, 1.0 / n)
    filtered, _ = batched_ranks(flat, gt, same_time)
    assert filtered.tolist() == [1 + len(c) for c in competitors]


@PROPERTY
@given(case=rank_cases())
def test_filtered_rank_bounded_by_raw_rank(case):
    p, gt, same_time = case
    filtered, raw = batched_ranks(p, gt, same_time)
    assert np.all((1 <= filtered) & (filtered <= raw) & (raw <= p.shape[1]))


@st.composite
def split_cases(draw):
    """(store, split, probs): a few time-sorted quads over small vocabularies,
    with some quads repeated so that a split holds duplicate (s, r, o, t)
    facts, split at arbitrary boundaries; one evaluated split; and one row
    of coarse-grid probabilities per query of that split. A query's own
    object is always in its same-time group."""
    n_ent, n_rel, n_ts = draw(st.integers(1, 5)), draw(st.integers(1, 2)), draw(st.integers(1, 6))
    quads = draw(st.lists(st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                                     st.integers(0, n_ent - 1), st.integers(0, n_ts - 1)),
                          max_size=24))
    quads += draw(st.lists(st.sampled_from(quads), max_size=6)) if quads else []
    arr = np.array(sorted(quads, key=lambda q: q[3]), dtype=np.int64).reshape(-1, 4)
    train_end = draw(st.integers(0, len(arr)))
    valid_end = draw(st.integers(train_end, len(arr)))
    store = QuadStore(arr, [f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)],
                      [str(t) for t in range(n_ts)], train_end, valid_end)
    split = draw(st.sampled_from(SPLITS))
    n = len(store.split(split))
    probs = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n_ent, max_size=n_ent),
                                   min_size=n, max_size=n))).reshape(n, n_ent) / 3.0
    return store, split, probs


@PROPERTY
@given(case=split_cases(), chunk=st.sampled_from([1, 3, 256]))
def test_evaluate_split_matches_the_per_query_loop(case, chunk):
    store, split, probs = case
    quads = store.split(split)
    scoped = np.concatenate([store.split(name) for name in evaluate._SCOPE_FOR_SPLIT[split]])

    def drawn(model, batch, seed):
        return probs[seed:seed + len(batch)]   # evaluate_split passes seed + start

    model = evaluate.Model(dpcl=object(), denoiser=None, mapping_strategy="hyp/euc",
                           steps=50, chains=8, lam=2.0)
    with mock.patch.object(evaluate, "_query_distributions", drawn), \
            mock.patch.object(evaluate, "CHUNK", chunk):
        reports = evaluate.evaluate_split(model, store, split, seed=0, lam=2.0)
    assert_reports_match(reports, oracles.split_ranks(probs, quads, scoped))


def assert_reports_match(reports, oracle):
    ranks, raw, new = oracle
    assert reports["all"].ranks == ranks
    assert reports["all"].raw_ranks == raw
    for name, member in (("new-events", new), ("periodic", [not x for x in new])):
        assert reports[name].ranks == [k for k, m in zip(ranks, member) if m]
        assert reports[name].raw_ranks == [k for k, m in zip(raw, member) if m]


# ---------------------------------------------------------------------------
# The gold object stays out of the candidate distributions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained():
    store = planted_period_store(n_entities=8, n_relations=2, n_timestamps=30)
    cfg = quick_config(epochs_stage1=1, epochs_stage2=1, batch=16, steps=4)
    model = engine.model_from_checkpoint(engine.train(cfg, store), store)
    index = build_periodic_index(store, cfg.lam, ("train", "valid", "test"))
    return store, model, index


COMPONENTS = {"combined": {}, "gndiff": {"dpcl": None}, "dpcl": {"denoiser": None}}


@pytest.mark.parametrize("component", COMPONENTS)
def test_query_distributions_ignore_the_gold_object(trained, component):
    store, model, index = trained
    model = dataclasses.replace(model, **COMPONENTS[component])
    quads = store.split("test")
    swapped = quads.copy()
    swapped[:, 2] = nk.rng_for(7).permutation(quads[:, 2])
    assert np.any(swapped[:, 2] != quads[:, 2])
    probs = evaluate._query_distributions(model, QueryBatch.from_quads(quads, index), seed=3)
    probs_swapped = evaluate._query_distributions(model, QueryBatch.from_quads(swapped, index),
                                                  seed=3)
    np.testing.assert_array_equal(probs, probs_swapped)


def test_evaluate_split_matches_the_per_query_loop_on_model_scores():
    store = new_event_mix_store()
    rng = nk.rng_for(15)
    model = evaluate.Model(
        dpcl=dpcl.init_params(store.n_entities, store.n_relations, 8, rng),
        denoiser=gndiff.init_denoiser(store.n_entities, store.n_relations, 8, rng),
        mapping_strategy="hyp/euc", steps=4, chains=2, lam=2.0)
    index = build_periodic_index(store, 2.0, evaluate._SCOPE_FOR_SPLIT["test"])
    quads = store.split("test")
    with nk.single_threaded_blas():
        probs = np.concatenate([
            evaluate._query_distributions(
                model, QueryBatch.from_quads(quads[i:i + evaluate.CHUNK], index), 5 + i)
            for i in range(0, len(quads), evaluate.CHUNK)])
    reports = evaluate.evaluate_split(model, store, "test", seed=5, lam=2.0)
    assert_reports_match(reports, oracles.split_ranks(probs, quads, store.quads))
    assert 0 < len(reports["new-events"].ranks) < len(quads)


def test_a_model_with_no_component_is_refused_before_any_work(trained, monkeypatch):
    store, model, _ = trained
    built = []
    monkeypatch.setattr(evaluate, "build_periodic_index",
                        lambda *args, **kwargs: built.append(args))
    empty = dataclasses.replace(model, dpcl=None, denoiser=None)
    with pytest.raises(ValueError, match="neither"):
        evaluate.evaluate_split(empty, store, "test", seed=0, lam=2.0)
    assert built == []


@pytest.mark.parametrize("lam", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_evaluate_split_refuses_a_non_finite_lambda(trained, lam):
    # the index it built held z rows of +-nan or +-inf, and scoring failed
    # far from the cause, on "tensor contains non-finite values"
    store, model, _ = trained
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        evaluate.evaluate_split(model, store, "test", seed=0, lam=lam)


# ---------------------------------------------------------------------------
# The ranked distribution is where evaluation checks finiteness
# ---------------------------------------------------------------------------

def test_a_non_finite_candidate_distribution_is_refused_not_ranked(trained, monkeypatch):
    # a NaN compares false with every competitor, so each gold answer ranked
    # first and the split reported MRR 1.0
    store, model, _ = trained
    monkeypatch.setattr(evaluate, "p_dpcl",
                        lambda params, batch, strategy: np.full(
                            (len(batch), params.entity_emb.shape[0]), np.nan))
    with pytest.raises(NumericError, match="candidate distributions contain non-finite"):
        evaluate.evaluate_split(dataclasses.replace(model, denoiser=None), store, "test",
                                seed=0, lam=2.0)


def test_an_overflow_in_scoring_surfaces_at_the_ranked_distribution(trained):
    # entity rows past 1e154 overflow their squared norms; no op scans its
    # result, and the NaN scores reach the distribution's check
    store, model, _ = trained
    huge = nk.Tensor(model.dpcl.entity_emb.data * 1e300)
    model = dataclasses.replace(model, dpcl=dataclasses.replace(model.dpcl, entity_emb=huge),
                                denoiser=None, mapping_strategy="euc/euc")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="candidate distributions contain non-finite"):
        evaluate.evaluate_split(model, store, "test", seed=0, lam=2.0)


# ---------------------------------------------------------------------------
# DPCL scores the distribution its loss trains
# ---------------------------------------------------------------------------

def test_p_dpcl_rises_with_a_candidates_history_value():
    # the signed history row enters the periodic head as +z and the
    # non-periodic head as -z, so a sum of the two scores cancels it; here
    # one candidate's history value flips on an otherwise empty history
    lam, n = 2.0, 20
    params = dpcl.init_params(n, 2, 8, nk.rng_for(13))
    batch = make_batch(nk.rng_for(12), n, 4, lam)
    rows = np.arange(len(batch))
    empty = np.zeros(0, dtype=np.int64)
    batch = dataclasses.replace(batch, history=(empty, empty))
    seen = dataclasses.replace(batch, history=(rows, batch.gt_ids))
    before = evaluate.p_dpcl(params, batch, "hyp/euc")[rows, batch.gt_ids]
    after = evaluate.p_dpcl(params, seen, "hyp/euc")[rows, batch.gt_ids]
    assert np.all(after > 3.0 * before)


@pytest.mark.parametrize("strategy", ["hyp/euc", "euc/hyp"])
def test_p_dpcl_is_the_distribution_ce_loss_trains(strategy):
    params = dpcl.init_params(7, 2, 6, nk.rng_for(14))
    batch = make_batch(nk.rng_for(12), 7, 6)
    rows = np.arange(len(batch))
    p = evaluate.p_dpcl(params, batch, strategy)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    terms = -np.log(2.0 * p[rows, batch.gt_ids])
    loss = dpcl.ce_loss(params, batch, strategy)
    assert abs(terms.mean() - loss.item()) <= 1e-12
    hist_rows, hist_objects = batch.history
    for i in rows:
        mine = hist_rows == i
        one = dpcl.QueryBatch(batch.s_ids[i:i + 1], batch.r_ids[i:i + 1],
                              batch.gt_ids[i:i + 1], (hist_rows[mine] - i, hist_objects[mine]),
                              batch.lam, batch.periodic[i:i + 1])
        term = dpcl.ce_loss(params, one, strategy)
        assert abs(terms[i] - term.item()) <= 1e-12


# ---------------------------------------------------------------------------
# The Gram-form distance block ranks as the explicit differences do
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["hyp/euc", "hyp/hyp"])
def test_ranks_are_those_of_the_explicit_difference_block(strategy, monkeypatch):
    store = planted_period_store()
    cfg = quick_config(no_gndiff=True, mapping_strategy=strategy)
    model = engine.model_from_checkpoint(engine.train(cfg, store), store)
    probs = []
    real = evaluate.p_dpcl

    def recorded(*args):
        probs.append(real(*args))
        return probs[-1]

    monkeypatch.setattr(evaluate, "p_dpcl", recorded)
    gram = evaluate.evaluate_split(model, store, "test", seed=0, lam=cfg.lam)
    n_chunks = len(probs)
    real_sqdist = geo.pairwise_sqdist

    def explicit_sqdist(a, b, b_sqnorms):
        close = real_sqdist(a, b, b_sqnorms)[1]
        return oracles.pairwise_sqdist(nk.Tensor(a), nk.Tensor(b)).data, close

    monkeypatch.setattr(geo, "pairwise_sqdist", explicit_sqdist)
    explicit = evaluate.evaluate_split(model, store, "test", seed=0, lam=cfg.lam)
    assert n_chunks > 0 and len(probs) == 2 * n_chunks
    for name, report in gram.items():
        assert report.ranks == explicit[name].ranks, name
        assert report.raw_ranks == explicit[name].raw_ranks, name
    for got, want in zip(probs[:n_chunks], probs[n_chunks:]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
