import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (assert_matches_the_chain, chain_gradients, grad_check, make_batch,
                     planted_period_store, quick_config, small_chunks, taped, tensor)
from tkgdiff import dpcl, engine
from tkgdiff import evaluate as ev
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.errors import ConfigError, DimensionError, NumericError
from tkgdiff.geometry import project_array_to_ball


def head_log_probs(params, batch, strategy="hyp/euc"):
    """The log-softmax rows of each head from the fused forward: a head's
    scores less a per-row constant."""
    probs = dpcl.head_softmaxes(params, batch, strategy)[0]
    return np.log(probs[:len(batch)]), np.log(probs[len(batch):])


def centered(rows):
    """Rows less their means: scores compared up to a per-row constant."""
    return rows - rows.mean(axis=1, keepdims=True)


NO_HISTORY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


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
    z = oracles.z_rows(batch, len(e))[i, j]
    if head == "periodic":
        code = np.tanh(params.w_per.data @ x + params.b_per.data[0])
    else:
        code = np.tanh(params.w_nonper.data @ x + params.b_nonper.data[0])
        z = -z
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


def assert_head_matches_the_scalar_oracle(params, batch, head, distance):
    got = head_log_probs(params, batch)[head == "nonperiodic"]
    want = np.array([[scalar_score(params, batch, i, j, head, distance) for j in range(5)]
                     for i in range(len(batch))])
    np.testing.assert_allclose(centered(got), centered(want), rtol=0, atol=1e-10)


def test_periodic_scores_match_scalar_oracle(setup):
    assert_head_matches_the_scalar_oracle(*setup[:2], "periodic", "poincare")


def test_nonperiodic_scores_match_scalar_oracle(setup):
    assert_head_matches_the_scalar_oracle(*setup[:2], "nonperiodic", "euclidean")


def test_zeroed_affine_isolates_distance(setup):
    params, batch, _ = setup
    params = dataclasses.replace(params, w_per=nk.zeros(4, 8), b_per=nk.zeros(1, 4))
    # subject at the origin
    emb = params.entity_emb.data.copy()
    emb[batch.s_ids[0]] = 0.0
    params = dataclasses.replace(params, entity_emb=tensor(emb))
    z = oracles.z_rows(batch, 5)
    want = [np.arccosh(1.0 + 2.0 * (b @ b) / (1.0 - b @ b)) for b in emb]
    got = head_log_probs(params, batch)[0][0] - z[0]
    np.testing.assert_allclose(got - got[0], np.subtract(want, want[0]), rtol=0, atol=1e-10)


def test_score_additivity_in_distance(setup):
    # identical affine scores and history values: the farther candidate
    # wins by exactly the distance difference
    params, batch, _ = setup
    params = dataclasses.replace(params, w_per=nk.zeros(4, 8), b_per=nk.zeros(1, 4))
    batch = dataclasses.replace(batch, history=NO_HISTORY)
    scores = head_log_probs(params, batch)[0]
    e = params.entity_emb.data
    s = project_array_to_ball(e[batch.s_ids[0]].reshape(1, -1))[0]

    def dist(j):
        b = project_array_to_ball(e[j].reshape(1, -1))[0]
        return np.arccosh(1 + 2 * np.sum((s - b) ** 2) / ((1 - s @ s) * (1 - b @ b)))

    assert scores[0, 1] - scores[0, 2] == pytest.approx(dist(1) - dist(2), abs=1e-10)


def test_z_sign_opposition(setup):
    # a candidate that joins the history gains 2 lam in the periodic head
    # and loses 2 lam in the non-periodic head, against every other
    params, batch, _ = setup
    o = int(batch.gt_ids[0])
    rows, objects = batch.history
    keep = ~((rows == 0) & (objects == o))
    without = dataclasses.replace(batch, history=(rows[keep], objects[keep]))
    added = dataclasses.replace(batch, history=(np.append(rows[keep], 0),
                                                np.append(objects[keep], o)))
    (sp0, snp0), (sp1, snp1) = head_log_probs(params, without), head_log_probs(params, added)
    other = (o + 1) % 5
    lam = batch.lam
    assert (sp1[0, o] - sp1[0, other]) - (sp0[0, o] - sp0[0, other]) == \
        pytest.approx(2 * lam, abs=1e-12)
    assert (snp1[0, o] - snp1[0, other]) - (snp0[0, o] - snp0[0, other]) == \
        pytest.approx(-2 * lam, abs=1e-12)


def test_nonperiodic_self_distance_zero(setup):
    # a subject's own column is at distance exactly 0, in either space
    params, batch, _ = setup
    e = params.entity_emb.data
    sqnorms = geo.row_sqnorms(e)
    gap = geo.ball_gap(sqnorms, "entities")
    expansion, inverse, _ = geo.pairwise_sqdist(e[batch.s_ids], e, sqnorms)
    for kind in ("euclidean", "poincare"):
        dist = geo.distance(kind, expansion[inverse], gap[batch.s_ids], gap.T)
        assert (dist[np.arange(len(batch)), batch.s_ids] == 0.0).all(), kind


def test_permutation_equivariance(setup):
    params, batch, _ = setup
    perm = np.array([2, 0, 4, 1, 3])          # new id of each old entity
    inv = np.argsort(perm)
    probs = dpcl.head_softmaxes(params, batch, "hyp/euc")[0]
    pparams = dataclasses.replace(params, entity_emb=tensor(params.entity_emb.data[inv]))
    rows, objects = batch.history
    pbatch = dpcl.QueryBatch(perm[batch.s_ids], batch.r_ids, perm[batch.gt_ids],
                             (rows, perm[objects]), batch.lam, batch.periodic)
    pprobs = dpcl.head_softmaxes(pparams, pbatch, "hyp/euc")[0]
    np.testing.assert_allclose(pprobs[:, perm], probs, atol=1e-12)


def test_ce_loss_uniform_rows():
    sp = nk.zeros(2, 4)
    snp = nk.zeros(2, 4)
    loss = oracles.ce_loss(sp, snp, [1, 3])
    assert oracles.item(loss) == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_loss_dominant_limit():
    # ground truth far ahead in both heads: loss approaches -log 2
    sp = tensor([[100.0, 0.0, 0.0]])
    snp = tensor([[100.0, 0.0, 0.0]])
    loss = oracles.ce_loss(sp, snp, [0])
    assert oracles.item(loss) == pytest.approx(-np.log(2.0), abs=1e-9)


def test_ce_loss_gradient():
    rng = nk.rng_for(42)
    sp = tensor(rng.normal(size=(2, 5)))
    snp = tensor(rng.normal(size=(2, 5)))
    gt = [1, 4]
    report = grad_check(lambda ps: oracles.ce_loss(ps[0], ps[1], gt), [sp, snp],
                           tolerance=1e-4)
    assert report.ok, report


def test_ce_loss_shift_invariance(setup):
    rng = nk.rng_for(43)
    sp = rng.normal(size=(3, 6))
    snp = rng.normal(size=(3, 6))
    gt = [0, 2, 5]
    base = oracles.item(oracles.ce_loss(tensor(sp), tensor(snp), gt))
    shifted = oracles.item(oracles.ce_loss(tensor(sp + 7.5), tensor(snp - 3.25), gt))
    assert shifted == pytest.approx(base, abs=1e-9)


def test_ce_loss_decreases_with_gt_score():
    rng = nk.rng_for(44)
    sp = rng.normal(size=(1, 5))
    snp = rng.normal(size=(1, 5))
    losses = []
    for bump in (0.0, 0.5, 1.0):
        s = sp.copy()
        s[0, 2] += bump
        losses.append(oracles.item(oracles.ce_loss(tensor(s), tensor(snp), [2])))
    assert losses[0] > losses[1] > losses[2]


PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)
NEAR_COPY_GAPS = [0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9]


@st.composite
def scoring_cases(draw):
    """DPCL parameters and a batch: some entity rows at the ball margin, some
    entity rows equal to another (so a subject can sit at zero distance from
    two candidates), a weight scale that spreads the scores, and gold answers
    alternately inside and outside the history.

    A margin row within 1e-9 of an earlier one (in one dimension they all
    are) is made a near-copy of it: the earlier row moved 0 or 1e-13 ...
    1e-9 further in. The last copies are exact or a few ulps off: there the
    squared distance is a few ulps^2. Both the fused backward and the chain
    form these pairs' gradients from their explicit differences, and both
    take the Poincare distance as 2 asinh(sqrt(q)), which keeps its digits
    at pairs this close (as arcosh(1 + 2q) does not)."""
    n = draw(st.integers(2, 24))
    b = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 6))
    rng = nk.rng_for(draw(st.integers(0, 2 ** 32 - 1)))
    params = dpcl.init_params(n, 2, dim, rng)
    emb = params.entity_emb.data.copy()
    at_margin = draw(st.integers(0, n // 2))
    emb[:at_margin] = geo.project_array_to_ball(emb[:at_margin] * 1e3)
    for i in range(at_margin):
        near = np.flatnonzero(np.abs(emb[:i] - emb[i]).max(axis=1, initial=0.0) < 1e-9)
        if near.size:
            emb[i] = emb[near[0]] * (1.0 - draw(st.sampled_from(NEAR_COPY_GAPS)))
    copies = draw(st.integers(0, n // 2))
    emb[n - copies:] = emb[:copies] + draw(st.integers(0, 4)) * np.spacing(emb[:copies])
    scale = draw(st.sampled_from([1.0, 4.0]))
    params = dataclasses.replace(
        params, entity_emb=tensor(emb), w_per=tensor(params.w_per.data * scale),
        w_nonper=tensor(params.w_nonper.data * scale),
        b_per=tensor(rng.normal(size=(1, dim))), b_nonper=tensor(rng.normal(size=(1, dim))))
    s = rng.integers(0, n, b)
    s[0] = n - 1          # a copied row when there are copies
    gt = rng.integers(0, n, b)
    seen = rng.random((b, n)) < 0.3
    seen[np.arange(b), gt] = np.arange(b) % 2 == 0
    batch = dpcl.QueryBatch(s, rng.integers(0, 2, b), gt, np.nonzero(seen), 2.0,
                            np.arange(b) % 2 == 0)
    return params, batch


@PROPERTY
@given(case=scoring_cases(), strategy=st.sampled_from(sorted(dpcl.STRATEGY_DISTANCES)))
def test_fused_record_matches_the_taped_chain(case, strategy):
    # the fused forward and its closed-form backward against the taped chain
    # of ops it replaced (tests/oracles.py), whose history rows are -+lam
    params, batch = case
    want, want_grads = chain_gradients(
        lambda: oracles.ce_loss(*oracles.head_scores(params, batch, strategy), batch.gt_ids),
        params.named())
    loss = dpcl.ce_loss(params, batch, strategy)
    assert sorted(loss[1](1.0)) == sorted(list(params.named())[:6])
    assert_matches_the_chain(loss, want, want_grads, 1e-10)
    np.testing.assert_allclose(ev.p_dpcl(params, batch, strategy),
                               oracles.mixture(*oracles.head_scores(params, batch, strategy)).data,
                               rtol=1e-10, atol=0)


def test_the_distance_gradient_of_rows_ulps_apart_matches_central_differences():
    # one dimension, rows at the ball margin: entity 1 is one ulp inside the
    # subject, entity 0, so their squared distance is 1 ulp^2. With zero code
    # maps and lam = 0 the scores are the distances themselves, so steps of
    # one ulp resolve them exactly; the Gram form cancels to no correct digit
    margin = -(1.0 - geo.BALL_MARGIN)
    ulp = np.spacing(-margin)
    params = dpcl.init_params(3, 1, 1, nk.rng_for(48))
    zero = nk.zeros(1, 2)
    params = dataclasses.replace(
        params, entity_emb=tensor([[margin], [margin + ulp], [0.5]]),
        w_per=zero, w_nonper=zero)
    batch = dpcl.QueryBatch(np.array([0]), np.array([0]), np.array([2]), NO_HISTORY, 0.0,
                            np.array([False]))
    # a tenth of both heads' scores at the subject's own column and at entity 1
    g = np.zeros((3, 3))
    g[:2, :2] = 0.1

    def scored(emb):
        varied = dataclasses.replace(params, entity_emb=tensor(emb))
        heads = oracles.head_scores(varied, batch, "euc/euc")
        return sum(h.data[0, 0] + h.data[0, 1] for h in heads)

    emb = params.entity_emb.data
    want = np.zeros((3, 1))
    for k in range(3):
        up, down = emb.copy(), emb.copy()
        up[k] += ulp
        down[k] -= ulp
        want[k] = (scored(up) - scored(down)) / (2 * ulp)
    np.testing.assert_array_equal(want, [[-2.0], [2.0], [0.0]])
    got = dpcl.head_softmaxes(params, batch, "euc/euc")[1](g)["entity_emb"]
    np.testing.assert_allclose(got, 0.1 * want, rtol=1e-12, atol=0)


@PROPERTY
@given(b=st.integers(1, 12), n=st.integers(1, 30), dim=st.integers(1, 8),
       strategy=st.sampled_from(sorted(dpcl.STRATEGY_DISTANCES)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_p_dpcl_is_bit_equal_to_the_mean_of_the_head_softmaxes(b, n, dim, strategy, seed):
    rng = nk.rng_for(seed)
    params = dpcl.init_params(n, 2, dim, rng)
    batch = make_batch(rng, n, b)
    probs = dpcl.head_softmaxes(params, batch, strategy)[0]
    want = 0.5 * (probs[:b] + probs[b:])
    np.testing.assert_array_equal(ev.p_dpcl(params, batch, strategy), want)


def scored_bits(params, batch, strategy, g):
    """Everything DPCL scoring returns for one batch: both heads' softmax
    rows, their backward of the score gradient `g` (2B, |E|), the mixture,
    and the CE loss with its gradients."""
    probs, backward = dpcl.head_softmaxes(params, batch, strategy)
    g_full = np.empty((3 * len(batch), probs.shape[1]))
    g_full[:2 * len(batch)] = g
    loss, loss_backward = dpcl.ce_loss(params, batch, strategy)
    return {"probs": probs, "mixture": ev.p_dpcl(params, batch, strategy), "loss": loss,
            **{f"g.{k}": v for k, v in backward(g_full).items()},
            **{f"ce.{k}": v for k, v in loss_backward(0.75).items()}}


def assert_blocks_keep_the_bits(params, batch, strategy, values, helper):
    """Scoring with numkit's runner in chunks of `values` values, on two
    threads, is bit for bit that of the one block of the default chunk."""
    n = params.entity_emb.shape[0]
    assert len(nk._row_blocks(len(batch), n)) == 1
    g = nk.rng_for(49, len(batch), n).normal(size=(2 * len(batch), n))
    want = scored_bits(params, batch, strategy, g)
    with small_chunks(values, helper):
        got = scored_bits(params, batch, strategy, g)
    assert got.keys() == want.keys()
    for name, value in want.items():
        np.testing.assert_array_equal(got[name], value, err_msg=name)


@PROPERTY
@given(case=scoring_cases(), strategy=st.sampled_from(sorted(dpcl.STRATEGY_DISTANCES)),
       values=st.sampled_from([8, 64]), helper=st.sampled_from(["thread", "late", "eager"]),
       one_subject=st.booleans())
def test_row_blocks_do_not_change_the_bits(case, strategy, values, helper, one_subject):
    # at 8 values a block holds 2 rows (the last one 1 when B is odd) and
    # at 64 up to 32, and a pass of 4 chunks' worth runs on two threads
    params, batch = case
    if one_subject:
        batch = dataclasses.replace(batch, s_ids=np.full(len(batch), batch.s_ids[0]))
    assert_blocks_keep_the_bits(params, batch, strategy, values, helper)


def margin_case(b, n, one_subject):
    """Parameters with entity rows at the ball margin and, for each, a copy
    1e-12 further in, a batch of `b` queries whose subjects are margin rows
    (one shared subject, or all of them in turn), and the rows with a close
    pair."""
    rng = nk.rng_for(50, b, n)
    params = dpcl.init_params(n, 2, 3, rng)
    emb = params.entity_emb.data.copy()
    half = n // 2
    emb[:half] = geo.project_array_to_ball(emb[:half] * 1e3)
    emb[half:2 * half] = emb[:half] * (1.0 - 1e-12)
    params = dataclasses.replace(params, entity_emb=tensor(emb))
    s = np.zeros(b, dtype=np.int64) if one_subject else np.arange(b) % half
    batch = dataclasses.replace(make_batch(rng, n, b), s_ids=s)
    close_rows = geo.pairwise_sqdist(emb[s], emb, geo.row_sqnorms(emb))[2][0]
    return params, batch, np.unique(close_rows)


@pytest.mark.parametrize("helper", ["thread", "late", "eager"])
@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
@pytest.mark.parametrize("one_subject", [False, True], ids=["subjects", "one-subject"])
def test_block_edges_and_close_pairs_at_the_margin_keep_the_bits(strategy, helper,
                                                                one_subject):
    # 9 queries over 12 entities in chunks of 8 values: blocks of 2 rows and
    # a last block of 1, each with its subjects' close pairs at the margin
    params, batch, close_rows = margin_case(9, 12, one_subject)
    with small_chunks(8, helper):
        blocks = nk._row_blocks(len(batch), 12)
    assert [blk.stop - blk.start for blk in blocks] == [2, 2, 2, 2, 1]
    assert close_rows.tolist() == list(range(9))
    assert_blocks_keep_the_bits(params, batch, strategy, 8, helper)


def test_dpcl_scoring_keeps_no_full_size_temporaries():
    # the mixture's peak under tracemalloc, its own (2B, |E|) block
    # included: 8.15 B |E| float64 values when the forward kept the
    # (B, |E|) squared distances, quotients, roots, denominators and
    # distances of each head
    b, n = 64, 4096
    rng = nk.rng_for(51)
    params = dpcl.init_params(n, 4, 16, rng)
    batch = make_batch(rng, n, b)
    for strategy in sorted(dpcl.STRATEGY_DISTANCES):
        ev.p_dpcl(params, batch, strategy)
        tracemalloc.start()
        try:
            ev.p_dpcl(params, batch, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * b * n * 8, (strategy, peak / (b * n * 8))


def test_mixture_and_ce_loss_reject_scores_of_different_shapes():
    # a (B, 1) score column would broadcast against the other head's rows
    for s_nonper in (nk.zeros(2, 1), nk.zeros(3, 4)):
        with pytest.raises(DimensionError, match="score shapes differ"):
            oracles.mixture(nk.zeros(2, 4), s_nonper)
        with pytest.raises(DimensionError, match="score shapes differ"):
            oracles.ce_loss(nk.zeros(2, 4), s_nonper, [0, 1])


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
    batch = dpcl.QueryBatch(np.array([0, 0]), np.array([0, 0]), np.array([0, 0]), NO_HISTORY,
                            2.0, np.array([True, True]))
    loss = dpcl.supcon_loss(params, batch, tau=0.1)[0]
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_supcon_all_same_label_identical_codes():
    # with B identical codes sharing one label the denominator has B-1 equal
    # terms, so each anchor contributes log(B-1); zero only at B=2
    params = hand_placed_params()
    b = 4
    batch = dpcl.QueryBatch(np.zeros(b, int), np.zeros(b, int), np.zeros(b, int),
                            NO_HISTORY, 2.0, np.ones(b, bool))
    loss = dpcl.supcon_loss(params, batch, tau=0.1)[0]
    z = np.tile([1.0, 0.0], (b, 1))
    assert loss == pytest.approx(scalar_supcon(z, [0] * b, 0.1), abs=1e-12)
    assert loss == pytest.approx(np.log(b - 1), abs=1e-9)


def test_supcon_hand_placed_antipodal():
    # codes at 0 deg / 0 deg / 180 deg on the unit circle, labels {A, A, B}
    params = hand_placed_params()
    batch = dpcl.QueryBatch(np.array([0, 0, 1]), np.zeros(3, int), np.zeros(3, int),
                            NO_HISTORY, 2.0, np.array([True, True, False]))
    loss = dpcl.supcon_loss(params, batch, tau=0.1)[0]
    z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    want = scalar_supcon(z, [0, 0, 1], 0.1)
    assert loss == pytest.approx(want, abs=1e-12)


def test_supcon_matches_scalar_oracle_random(setup):
    params, _, rng = setup
    batch = make_batch(rng, 5, 6)
    loss = dpcl.supcon_loss(params, batch, tau=0.1)[0]
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
                            NO_HISTORY, 2.0, np.array([True, False]))
    assert dpcl.supcon_loss(params, batch, tau=0.1)[0] == 0.0


def test_supcon_gradient(setup):
    params, _, rng = setup
    batch = make_batch(rng, 5, 4)
    names = list(params.named())

    def f(ps):
        p = dpcl.DpclParams(**dict(zip(names, ps)))
        return taped(dpcl.supcon_loss(p, batch, tau=0.1), p)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


@PROPERTY
@given(n=st.integers(2, 12), b=st.integers(2, 16), dim=st.integers(1, 6),
       tau=st.sampled_from([0.05, 0.1, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_supcon_matches_the_taped_chain(n, b, dim, tau, seed):
    # the closed-form backward against the chain of ops it replaced
    # (tests/oracles.py), over subjects and relations that repeat in the
    # batch, with and without same-label partners
    rng = nk.rng_for(seed)
    params = dpcl.init_params(n, 3, dim, rng)
    params = dataclasses.replace(params, b_ctr=tensor(rng.normal(size=(1, dim))))
    batch = make_batch(rng, n, b)
    batch.r_ids = rng.integers(0, 3, b)
    want, want_grads = chain_gradients(lambda: oracles.supcon_loss(params, batch, tau),
                                       params.named())
    loss = dpcl.supcon_loss(params, batch, tau)
    assert sorted(loss[1](1.0)) == ["b_ctr", "entity_emb", "relation_emb", "w_ctr"]
    assert_matches_the_chain(loss, want, want_grads, 1e-10)


def test_supcon_refuses_a_zero_code():
    # zero w_ctr and b_ctr give every query the code tanh(0) = 0, which has
    # no direction to normalize
    params = hand_placed_params()
    params = dataclasses.replace(params, w_ctr=nk.zeros(2, 4), b_ctr=nk.zeros(1, 2))
    batch = dpcl.QueryBatch(np.array([0, 1]), np.zeros(2, int), np.zeros(2, int),
                            NO_HISTORY, 2.0, np.array([True, True]))
    with pytest.raises(NumericError):
        dpcl.supcon_loss(params, batch, tau=0.1)


def test_full_dpcl_gradient_suite(setup):
    # combined objective through scores, ce, and supcon on a 5-entity fixture
    params, _, rng = setup
    batch = make_batch(rng, 5, 4)
    names = list(params.named())

    def f(ps):
        p = dpcl.DpclParams(**dict(zip(names, ps)))
        ce = taped(dpcl.ce_loss(p, batch, "hyp/euc"), p)
        sup = taped(dpcl.supcon_loss(p, batch, tau=0.1), p)
        return oracles.add(ce, sup)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
def test_head_scores_match_per_head_oracle(setup, strategy):
    # one shared block gives each head what it would get from its own subject
    # rows and its own row-wise distances: the loss, the mixture and the
    # gradients of the six scoring tensors
    params, _, rng = setup
    batch = make_batch(rng, 5, 4)
    per, nonper = dpcl.STRATEGY_DISTANCES[strategy]

    def heads():
        return (oracles.head_score(params, batch, "periodic", per),
                oracles.head_score(params, batch, "nonperiodic", nonper))

    apart, want = chain_gradients(lambda: oracles.ce_loss(*heads(), batch.gt_ids),
                                  params.named())
    shared, backward = dpcl.ce_loss(params, batch, strategy)
    assert shared == pytest.approx(apart, rel=1e-12, abs=0)
    np.testing.assert_allclose(ev.p_dpcl(params, batch, strategy),
                               oracles.mixture(*heads()).data, rtol=1e-12, atol=0)
    for name, g in backward(1.0).items():
        np.testing.assert_allclose(g, want[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
def test_head_scores_gradient(setup, strategy):
    params, _, rng = setup
    batch = make_batch(rng, 5, 3)
    names = list(params.named())

    def f(ps):
        p = dpcl.DpclParams(**dict(zip(names, ps)))
        return taped(dpcl.ce_loss(p, batch, strategy), p)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


@pytest.mark.parametrize("strategy", sorted(dpcl.STRATEGY_DISTANCES))
def test_each_distance_kind_is_derived_once(monkeypatch, setup, strategy):
    params, batch, _ = setup
    derived = []
    real = geo.distance

    def counted(kind, *args):
        derived.append(kind)
        return real(kind, *args)

    monkeypatch.setattr(geo, "distance", counted)
    dpcl.head_softmaxes(params, batch, strategy)
    assert sorted(derived) == sorted(set(dpcl.STRATEGY_DISTANCES[strategy]))


def test_head_scores_reject_rows_past_the_ball_margin(setup):
    # a row between 1 - BALL_MARGIN and the unit sphere is an error for a
    # Poincare head, not something scoring re-projects
    params, batch, _ = setup
    emb = params.entity_emb.data.copy()
    emb[3] = 0.0
    emb[3, 0] = 1.0 - geo.BALL_MARGIN / 2
    params = dataclasses.replace(params, entity_emb=tensor(emb))
    for strategy in ("hyp/euc", "euc/hyp", "hyp/hyp"):
        with pytest.raises(ValueError, match="unit ball"):
            dpcl.ce_loss(params, batch, strategy)
        with pytest.raises(ValueError, match="unit ball"):
            ev.p_dpcl(params, batch, strategy)
    assert np.isfinite(dpcl.ce_loss(params, batch, "euc/euc")[0])
    assert np.isfinite(ev.p_dpcl(params, batch, "euc/euc")).all()


def test_head_scores_reject_unknown_distance(setup):
    params, batch, _ = setup
    with pytest.raises(ConfigError, match="unknown mapping strategy"):
        dpcl.ce_loss(params, batch, "hyp/manhattan")
    with pytest.raises(ConfigError, match="unknown mapping strategy"):
        ev.p_dpcl(params, batch, "hyp/manhattan")


def _count_sqdist_calls(monkeypatch) -> list:
    calls = []
    real = geo.pairwise_sqdist

    def counted(a, b, b_sqnorms):
        calls.append(a.shape[0])
        return real(a, b, b_sqnorms)

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
                     chains=8, lam=2.0)
    calls = _count_sqdist_calls(monkeypatch)
    ev.evaluate_split(model, store, "test", seed=0, lam=2.0)
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
