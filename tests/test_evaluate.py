import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_batch, planted_period_store, quick_config
from tkgdiff import dpcl, engine, evaluate
from tkgdiff import numkit as nk
from tkgdiff.corpus import build_periodic_index

# ---------------------------------------------------------------------------
# filtered_rank invariants
# ---------------------------------------------------------------------------


@st.composite
def rank_cases(draw):
    """(p, gt, same-time objects): probabilities on a coarse grid, so ties
    are common."""
    n = draw(st.integers(1, 12))
    p = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))) / 4.0
    gt = draw(st.integers(0, n - 1))
    same_time = draw(st.sets(st.integers(0, n - 1)))
    return p, gt, same_time


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PROPERTY
@given(case=rank_cases(), data=st.data())
def test_filtered_rank_invariant_under_candidate_permutation(case, data):
    p, gt, same_time = case
    perm = np.array(data.draw(st.permutations(range(len(p)))))
    moved = np.empty_like(p)
    moved[perm] = p
    assert evaluate.filtered_rank(moved, perm[gt], {perm[o] for o in same_time}) == \
        evaluate.filtered_rank(p, gt, same_time)


@PROPERTY
@given(case=rank_cases())
def test_filtered_rank_ties_rank_pessimistically(case):
    p, gt, same_time = case
    competitors = [j for j in range(len(p)) if j != gt and j not in same_time]
    assert evaluate.filtered_rank(p, gt, same_time) == \
        1 + sum(p[j] >= p[gt] for j in competitors)
    flat = np.full(len(p), 1.0 / len(p))
    assert evaluate.filtered_rank(flat, gt, same_time) == 1 + len(competitors)


@PROPERTY
@given(case=rank_cases())
def test_filtered_rank_bounded_by_raw_rank(case):
    p, gt, same_time = case
    filtered = evaluate.filtered_rank(p, gt, same_time)
    raw = evaluate.raw_rank(p, gt)
    assert 1 <= filtered <= raw <= len(p)


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
    probs = evaluate._query_distributions(model, quads, index, seed=3)
    probs_swapped = evaluate._query_distributions(model, swapped, index, seed=3)
    np.testing.assert_array_equal(probs, probs_swapped)


def test_a_model_with_no_component_is_refused_before_any_work(trained, monkeypatch):
    store, model, _ = trained
    built = []
    monkeypatch.setattr(evaluate, "build_periodic_index",
                        lambda *args, **kwargs: built.append(args))
    empty = dataclasses.replace(model, dpcl=None, denoiser=None)
    with pytest.raises(ValueError, match="neither"):
        evaluate.evaluate_split(empty, store, "test")
    assert built == []


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
    batch.z_rows[:] = -lam
    seen = dataclasses.replace(batch, z_rows=batch.z_rows.copy())
    seen.z_rows[rows, batch.gt_ids] = lam
    before = evaluate.p_dpcl(params, batch)[rows, batch.gt_ids]
    after = evaluate.p_dpcl(params, seen)[rows, batch.gt_ids]
    assert np.all(after > 3.0 * before)


@pytest.mark.parametrize("strategy", ["hyp/euc", "euc/hyp"])
def test_p_dpcl_is_the_distribution_ce_loss_trains(strategy):
    per, nonper = evaluate.strategy_distances(strategy)
    params = dpcl.init_params(7, 2, 6, nk.rng_for(14))
    batch = make_batch(nk.rng_for(12), 7, 6)
    rows = np.arange(len(batch))
    p = evaluate.p_dpcl(params, batch, per, nonper)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    terms = -np.log(2.0 * p[rows, batch.gt_ids])
    loss = dpcl.ce_loss(*dpcl.head_scores(params, batch, per, nonper), batch.gt_ids)
    assert abs(terms.mean() - loss.item()) <= 1e-12
    for i in rows:
        one = dpcl.QueryBatch(*(getattr(batch, f.name)[i:i + 1]
                                for f in dataclasses.fields(batch)))
        term = dpcl.ce_loss(*dpcl.head_scores(params, one, per, nonper), one.gt_ids)
        assert abs(terms[i] - term.item()) <= 1e-12

