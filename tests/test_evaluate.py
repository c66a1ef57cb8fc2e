import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import planted_period_store, quick_config
from tkgdiff import engine, evaluate
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


@pytest.mark.parametrize("component", evaluate.COMPONENTS)
def test_query_distributions_ignore_the_gold_object(trained, component):
    store, model, index = trained
    quads = store.split("test")
    swapped = quads.copy()
    swapped[:, 2] = nk.rng_for(7).permutation(quads[:, 2])
    assert np.any(swapped[:, 2] != quads[:, 2])
    probs = evaluate._query_distributions(model, quads, index, component, seed=3)
    probs_swapped = evaluate._query_distributions(model, swapped, index, component, seed=3)
    np.testing.assert_array_equal(probs, probs_swapped)
