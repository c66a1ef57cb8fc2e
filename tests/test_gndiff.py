import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import assert_matches_the_chain, chain_gradients, grad_check, taped, tensor
from tkgdiff import gndiff
from tkgdiff import numkit as nk
from tkgdiff.errors import NumericError


def make_entropies(n_entities=3, n_relations=1, seed=61):
    """A token entropy vector with randomized positive entries."""
    return nk.rng_for(seed).uniform(0.5, 3.0, size=n_entities + n_relations + 1)


def make_sequence(entropy, s=0, r=0, o=1, n_entities=3):
    return oracles.NodeSequence.from_quad(entropy, n_entities, s, r, o)


def quads_of(s, r, o):
    """(B, 4) quads of the facts (s[i], r[i], o[i]) at timestamp 0."""
    return np.column_stack([s, r, o, np.zeros(len(s), dtype=np.int64)])


class FakeRng:
    """Deterministic stand-in for a Generator: scripted integer and uniform draws."""

    def __init__(self, ints, uniforms):
        self._ints = list(ints)
        self._unis = list(uniforms)

    def integers(self, low, high=None, size=None):
        v = self._ints.pop(0)
        if size is None:
            return v
        return np.full(size, v) if np.isscalar(v) else np.asarray(v)

    def random(self, size=None):
        v = self._unis.pop(0)
        return np.asarray(v) if size is not None else float(v)


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

def test_schedule_linear_when_mu_zero():
    ent = make_entropies()
    sched = oracles.build_schedule(ent, make_sequence(ent), steps=10, mu=0.0)
    t = np.arange(11) / 10.0
    for i in range(3):
        np.testing.assert_allclose(sched.alpha_bar[:, i], 1.0 - t, atol=1e-15)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_schedule_identity_preclamp():
    # sum_i alpha_raw[t, i] H_i == (1 - t/T) sum_i H_i for every t
    for seed in range(5):
        ent = make_entropies(seed=100 + seed)
        seq = make_sequence(ent, 0, 0, 2)
        sched = oracles.build_schedule(ent, seq, steps=50, mu=0.6)
        h = ent[seq.tokens]
        lhs = sched.alpha_bar_raw @ h
        t = np.arange(51) / 50.0
        rhs = (1.0 - t) * h.sum()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)


@pytest.mark.parametrize("mu", [0.0, 0.25, 5.0])
def test_the_schedule_is_the_clamped_raw_schedule(mu):
    h = np.random.default_rng(7).random((4, 3)) * 3.0
    h[0, 1] = 0.0
    raw = oracles.raw_schedule(h, 12, mu)
    clamped = np.minimum.accumulate(np.clip(raw, 0.0, 1.0), axis=0)
    clamped[0], clamped[12] = 1.0, 0.0
    np.testing.assert_array_equal(gndiff._schedule_arrays(h, 12, mu), clamped)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(h=st.lists(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
                  min_size=1, max_size=4).map(np.array),
       steps=st.integers(2, 400), mu=st.floats(0.0, 10.0))
def test_the_clipped_schedule_is_non_increasing(h, steps, mu):
    # each pre-clamp curve 1 - x - mu h_tilde sin(pi x) runs from 1 to 0 and
    # is convex, concave or linear, so it rises only below 0 or above 1, where
    # the clip flattens it; _schedule_arrays needs no running minimum
    clipped = np.clip(oracles.raw_schedule(h, steps, mu), 0.0, 1.0)
    np.testing.assert_array_equal(clipped, np.minimum.accumulate(clipped, axis=0))
    clipped[0], clipped[steps] = 1.0, 0.0
    np.testing.assert_array_equal(gndiff._schedule_arrays(h, steps, mu), clipped)


def test_schedule_boundaries_exact():
    ent = make_entropies()
    sched = oracles.build_schedule(ent, make_sequence(ent), steps=50, mu=0.25)
    assert np.all(sched.alpha_bar[0] == 1.0)
    assert np.all(sched.alpha_bar[50] == 0.0)
    assert np.all(np.diff(sched.alpha_bar, axis=0) <= 0)
    assert np.all((sched.beta >= 0) & (sched.beta <= 1))


def test_schedule_equal_entropy_equal_curves():
    ent = make_entropies()
    ent[:] = 1.7
    sched = oracles.build_schedule(ent, make_sequence(ent), steps=20, mu=0.4)
    np.testing.assert_array_equal(sched.alpha_bar[:, 0], sched.alpha_bar[:, 1])
    np.testing.assert_array_equal(sched.alpha_bar[:, 0], sched.alpha_bar[:, 2])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_schedule_entropy_ordering():
    # lower entropy -> higher survival at every interior step, pre-clamp
    ent = make_entropies()
    ent[0] = 0.5   # subject token
    ent[1] = 2.5   # object token
    seq = make_sequence(ent, s=0, r=0, o=1)
    sched = oracles.build_schedule(ent, seq, steps=30, mu=0.3)
    interior = sched.alpha_bar_raw[1:30]
    assert np.all(interior[:, 0] > interior[:, 2])


def test_schedule_warns_when_clamp_saturates():
    ent = make_entropies()
    ent[:] = [0.1, 4.0, 4.0, 4.0, 4.0][:len(ent)]
    seq = make_sequence(ent, 0, 0, 1)
    with pytest.warns(UserWarning, match="saturates"):
        oracles.build_schedule(ent, seq, steps=10, mu=5.0)


# ---------------------------------------------------------------------------
# Forward process and posterior
# ---------------------------------------------------------------------------

def test_forward_marginal_endpoints():
    ent = make_entropies()
    seq = make_sequence(ent)
    sched = oracles.build_schedule(ent, seq, steps=8, mu=0.25)
    m0 = oracles.forward_marginal(sched, seq, 0)
    for i in range(3):
        assert m0[i, seq.tokens[i]] == 1.0
    mT = oracles.forward_marginal(sched, seq, 8)
    for i in range(3):
        assert mT[i, seq.mask_token] == 1.0
        assert mT[i].sum() == 1.0


def constant_beta_schedule(beta, steps, k_entropies):
    a = np.cumprod(np.full((steps, 3), 1.0 - beta), axis=0)
    alpha = np.vstack([np.ones((1, 3)), a])
    b = np.full((steps + 1, 3), beta)
    b[0] = 0.0
    return oracles.DiffusionSchedule(steps, 0.0, alpha, alpha.copy(), b,
                                     np.ones(3))


def test_forward_marginal_matches_stepwise_monte_carlo():
    # beta = 0.1 for two steps: closed-form survival 0.81; 100k stepwise chains
    ent = make_entropies()
    seq = make_sequence(ent)
    sched = constant_beta_schedule(0.1, 2, ent)
    marg = oracles.forward_marginal(sched, seq, 2)
    assert marg[0, seq.tokens[0]] == pytest.approx(0.81, abs=1e-12)

    rng = nk.rng_for(62)
    n = 100_000
    surviving = np.ones((n, 3), dtype=bool)
    for t in (1, 2):
        surviving &= rng.random((n, 3)) >= sched.beta[t]
    frac = surviving.mean(axis=0)
    for i in range(3):
        assert abs(frac[i] - marg[i, seq.tokens[i]]) < 0.005


def test_forward_marginal_mc_full_schedule():
    # stepwise simulation through the entropy schedule agrees with the
    # closed form at every t (K=5 fixture, T=3, 100k chains per check)
    ent = make_entropies()
    seq = make_sequence(ent, 0, 0, 2)
    sched = oracles.build_schedule(ent, seq, steps=3, mu=0.3)
    rng = nk.rng_for(63)
    n = 100_000
    surviving = np.ones((n, 3), dtype=bool)
    for t in (1, 2, 3):
        surviving &= rng.random((n, 3)) >= sched.beta[t]
        marg = oracles.forward_marginal(sched, seq, t)
        for i in range(3):
            assert abs(surviving[:, i].mean() - marg[i, seq.tokens[i]]) < 0.005
            assert abs((1 - surviving[:, i].mean()) - marg[i, seq.mask_token]) < 0.005


def test_posterior_point_mass_on_unmasked():
    ent = make_entropies()
    seq = make_sequence(ent)
    sched = oracles.build_schedule(ent, seq, steps=6, mu=0.2)
    post = oracles.posterior(sched, seq, seq, 3)   # nothing masked
    for i in range(3):
        assert post[i, seq.tokens[i]] == 1.0
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)


def test_posterior_terminal_revert_half():
    ent = make_entropies()
    seq = make_sequence(ent)
    alpha = np.array([[1.0] * 3, [0.5] * 3, [0.0] * 3])
    beta = np.array([[0.0] * 3, [0.5] * 3, [1.0] * 3])
    sched = oracles.DiffusionSchedule(2, 0.0, alpha, alpha.copy(), beta, np.ones(3))
    masked = seq.with_tokens([seq.mask_token] * 3)
    post = oracles.posterior(sched, masked, seq, 2)
    for i in range(3):
        assert post[i, seq.tokens[i]] == pytest.approx(0.5, abs=1e-15)
        assert post[i, seq.mask_token] == pytest.approx(0.5, abs=1e-15)


def test_posterior_rejects_inconsistent_xt():
    ent = make_entropies()
    seq = make_sequence(ent, 0, 0, 1)
    sched = oracles.build_schedule(ent, seq, steps=4, mu=0.2)
    bad = seq.with_tokens([2, seq.tokens[1], seq.tokens[2]])  # wrong subject
    with pytest.raises(ValueError, match="inconsistent"):
        oracles.posterior(sched, bad, seq, 2)


def test_transition_matrix_rows():
    ent = make_entropies()
    seq = make_sequence(ent)
    sched = oracles.build_schedule(ent, seq, steps=5, mu=0.3)
    for t in range(1, 6):
        for pos in range(3):
            q = oracles.transition_matrix(sched, seq, pos, t)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
            m = seq.mask_token
            assert q[m, m] == 1.0 and q[m, :m].sum() == 0.0


def test_posterior_matches_general_matrix_form():
    # rowwise Bayes inversion with the explicit transition matrices
    ent = make_entropies()
    seq = make_sequence(ent, 0, 0, 2)
    sched = oracles.build_schedule(ent, seq, steps=3, mu=0.3)
    k = seq.vocab_size
    for pos in range(3):
        qs = [oracles.transition_matrix(sched, seq, pos, t) for t in range(1, 4)]
        qbar = [np.eye(k)]
        for q in qs:
            qbar.append(qbar[-1] @ q)
        x0 = np.zeros(k)
        x0[seq.tokens[pos]] = 1.0
        for t in range(1, 4):
            for xt_tok in (int(seq.tokens[pos]), seq.mask_token):
                xt = np.zeros(k)
                xt[xt_tok] = 1.0
                denom = x0 @ qbar[t] @ xt
                if denom == 0.0:
                    continue
                general = (xt @ qs[t - 1].T) * (x0 @ qbar[t - 1]) / denom
                toks = seq.tokens.copy()
                toks[pos] = xt_tok
                post = oracles.posterior(sched, seq.with_tokens(toks), seq, t)
                np.testing.assert_allclose(post[pos], general, atol=1e-12)


def test_bayes_consistency_chain():
    # sum_{x_{t-1}} q(x_{t-1}|x_t,x_0) q(x_t|x_{t-1}) prop-to q(x_t|x_0)
    ent = make_entropies(n_entities=2, n_relations=1)   # K = 4
    seq = make_sequence(ent, 0, 0, 1, n_entities=2)
    sched = oracles.build_schedule(ent, seq, steps=3, mu=0.4)
    k = seq.vocab_size
    for pos in range(3):
        qs = [oracles.transition_matrix(sched, seq, pos, t) for t in range(1, 4)]
        qbar = [np.eye(k)]
        for q in qs:
            qbar.append(qbar[-1] @ q)
        x0_vec = np.zeros(k)
        x0_vec[seq.tokens[pos]] = 1.0
        for t in range(1, 4):
            marg_t = x0_vec @ qbar[t]
            for xt_tok in (int(seq.tokens[pos]), seq.mask_token):
                if marg_t[xt_tok] == 0.0:
                    continue
                toks = seq.tokens.copy()
                toks[pos] = xt_tok
                post = oracles.posterior(sched, seq.with_tokens(toks), seq, t)[pos]
                # Bayes: q(x_{t-1}|x_t,x_0) q(x_t|x_0) == q(x_t|x_{t-1}) q(x_{t-1}|x_0)
                for v in range(k):
                    rhs = qs[t - 1][v, xt_tok] * qbar[t - 1][seq.tokens[pos], v]
                    assert post[v] * marg_t[xt_tok] == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# Denoiser
# ---------------------------------------------------------------------------

def test_denoiser_output_has_one_block_per_role():
    # each position's block holds the live logits of the role-masked layout
    rng = nk.rng_for(64)
    masked = oracles.init_role_masked(3, 2, width=8, rng=rng)
    masked = dataclasses.replace(masked, b2=tensor(rng.normal(size=masked.b2.shape)))
    params = oracles.role_sized(masked)
    assert {n: t.shape for n, t in params.named().items()} == gndiff.param_shapes(3, 2, 8)
    xt = np.array([[0, 3, 5], [5, 5, 1]])            # K = 6, the mask is 5
    ts = np.array([2, 1])
    logits = gndiff.denoise_x0_batch(params, xt, ts)[0]
    assert logits.shape == (2, 2 * 3 + 2)
    ref = oracles.role_masked_logits(masked, xt, ts).data.reshape(2, 3, 6)
    live = (slice(0, 3), slice(3, 5), slice(0, 3))    # entities, relations, entities
    for pos, block in enumerate(params.role_blocks()):
        np.testing.assert_allclose(logits[:, block], ref[:, pos, live[pos]],
                                   rtol=1e-14, atol=0)
        assert np.all(np.delete(ref[:, pos], live[pos], axis=1) <= oracles.NEG_INF / 2)


@pytest.mark.parametrize("n_entities, n_relations, width", [(5, 2, 4), (1, 1, 1), (9, 3, 16)])
def test_param_shapes_are_those_init_denoiser_draws(n_entities, n_relations, width):
    params = gndiff.init_denoiser(n_entities, n_relations, width, nk.rng_for(47))
    assert {name: t.shape for name, t in params.named().items()} == \
        gndiff.param_shapes(n_entities, n_relations, width)


def test_denoiser_cross_entropy_gradient():
    # the per-role record through the denoiser: masked and unmasked positions,
    # and one sequence whose weights are all zero
    params = gndiff.init_denoiser(3, 1, width=6, rng=nk.rng_for(65))
    params = dataclasses.replace(
        params, b2=tensor(nk.rng_for(65, 1).normal(size=params.b2.shape)))
    xt = np.array([[4, 3, 4], [0, 4, 4], [2, 3, 1]])  # K = 5, the mask is 4
    ids = np.array([[0, 0, 1], [0, 0, 2], [2, 0, 1]])
    weights = np.array([[0.5, 0.0, 1.0], [0.0, 0.25, 0.75], [0.0, 0.0, 0.0]])
    names = list(params.named())

    def f(ps):
        p = dataclasses.replace(params, **dict(zip(names, ps)))
        logits, logits_backward = gndiff.denoise_x0_batch(p, xt, np.array([2, 3, 1]))
        loss, backward = gndiff._role_cross_entropy(logits, p.role_blocks(), ids, weights)
        return taped((loss, lambda scale: logits_backward(backward(scale))), p)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


def test_role_cross_entropy_gradient_on_its_logits():
    rng = nk.rng_for(96)
    blocks = (slice(0, 4), slice(4, 6), slice(6, 10))
    logits = tensor(rng.normal(scale=3.0, size=(4, 10)))
    ids = np.array([[1, 0, 3], [3, 1, 0], [0, 0, 1], [2, 1, 2]])
    weights = np.array([[1.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.2, 0.7, 0.0], [0.0, 1.0, 1.0]])

    def f(ps):
        loss, backward = gndiff._role_cross_entropy(ps[0].data, blocks, ids, weights)
        return oracles._tape_record(nk._wrap(np.array([[loss]])), (ps[0],),
                                    lambda g: (backward(g[0, 0]),))

    report = grad_check(f, [logits], tolerance=1e-6)
    assert report.ok, report
    grad = gndiff._role_cross_entropy(logits.data, blocks, ids, weights)[1](1.0)
    expected = np.zeros((4, 10))
    for pos, block in enumerate(blocks):
        z = logits.data[:, block]
        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(4), ids[:, pos]] -= 1.0
        expected[:, block] = weights[:, pos, None] / 4 * probs
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)
    # a position of zero weight gets exactly zero gradient in its block
    assert not grad[1].any() and not grad[0, 4:6].any() and not grad[2, 6:].any()


# ---------------------------------------------------------------------------
# Diffusion loss
# ---------------------------------------------------------------------------

def perfect_logits(seq):
    """(1, 2|E|+|R|) logits putting all mass on the clean tokens."""
    n_e, n_r = seq.n_entities, seq.n_relations
    out = np.full((1, 2 * n_e + n_r), oracles.NEG_INF)
    out[0, seq.tokens + [0, 0, n_e + n_r]] = 0.0
    return out


def test_loss_zero_for_perfect_denoiser(monkeypatch):
    ent = make_entropies()
    seq = make_sequence(ent, 0, 0, 2)
    sched = oracles.build_schedule(ent, seq, steps=6, mu=0.25)
    params = gndiff.init_denoiser(3, 1, width=4, rng=nk.rng_for(66))
    monkeypatch.setattr(gndiff, "denoise_x0_batch",
                        lambda p, xt, ts: (perfect_logits(seq), None))
    for t in range(1, 7):
        loss = oracles.diffusion_loss(sched, params, seq,
                                      FakeRng([t], [[0.99, 0.99, 0.99]]))
        assert oracles.item(loss) == 0.0


def test_prior_term_zero_for_every_x0():
    ent = make_entropies()
    for o in range(3):
        seq = make_sequence(ent, 0, 0, o)
        sched = oracles.build_schedule(ent, seq, steps=5, mu=0.3)
        # terminal marginal is the all-mask point mass == the prior
        mT = oracles.forward_marginal(sched, seq, 5)
        prior = np.zeros_like(mT)
        prior[:, seq.mask_token] = 1.0
        np.testing.assert_array_equal(mT, prior)


def exhaustive_expected_loss(sched, params, seq):
    """Enumerate (t, masked-pattern) outcomes of the single-sample objective."""
    total = 0.0
    steps = sched.steps
    for t in range(1, steps + 1):
        a = sched.alpha_bar[t]
        revert = sched.revert_prob(t)
        for bits in range(8):
            masked = np.array([(bits >> i) & 1 for i in range(3)], dtype=bool)
            prob = np.prod(np.where(masked, 1.0 - a, a))
            if prob == 0.0:
                continue
            toks = np.where(masked, seq.mask_token, seq.tokens)
            logits = gndiff.denoise_x0_batch(params, toks[None, :], np.array([t]))[0][0]
            cols = seq.tokens + [0, 0, params.n_entities + params.n_relations]
            val = 0.0
            for pos, block in enumerate(params.role_blocks()):
                p = np.exp(logits[block] - logits[block].max())
                p /= p.sum()
                val -= (revert[pos] if masked[pos] else 0.0) * np.log(p[cols[pos] - block.start])
            total += prob * val / steps
    return total


def test_loss_matches_exhaustive_expectation():
    # 2-entity vocabulary (K=4), T=2: Monte-Carlo mean of the sampled loss
    # approaches the exhaustively enumerated expectation
    ent = make_entropies(n_entities=2, n_relations=1)
    seq = make_sequence(ent, 0, 0, 1, n_entities=2)
    sched = oracles.build_schedule(ent, seq, steps=2, mu=0.3)
    params = gndiff.init_denoiser(2, 1, width=4, rng=nk.rng_for(67))
    expected = exhaustive_expected_loss(sched, params, seq)

    # cache the loss of each (t, pattern) outcome, then draw 100k outcomes
    cache = {}
    for t in (1, 2):
        for bits in range(8):
            masked = [(bits >> i) & 1 for i in range(3)]
            us = [0.99 if m else 0.0 for m in masked]  # keep iff u < alpha
            loss = oracles.diffusion_loss(sched, params, seq, FakeRng([t], [us]))
            cache[(t, bits)] = oracles.item(loss)

    rng = nk.rng_for(68)
    n = 100_000
    ts = rng.integers(1, 3, size=n)
    us = rng.random((n, 3))
    alpha = sched.alpha_bar[ts]                      # (n, 3)
    masked = us >= alpha
    bits = (masked * [1, 2, 4]).sum(axis=1)
    mc = np.mean([cache[(int(t), int(b))] for t, b in zip(ts, bits)])
    assert abs(mc - expected) < 0.01


def test_loss_mask_pattern_edge_cases():
    # u just below/above alpha flips masking; cached-value path must agree
    # with a direct run on a real generator
    ent = make_entropies(n_entities=2, n_relations=1)
    seq = make_sequence(ent, 0, 0, 1, n_entities=2)
    sched = oracles.build_schedule(ent, seq, steps=2, mu=0.3)
    params = gndiff.init_denoiser(2, 1, width=4, rng=nk.rng_for(69))
    real = oracles.diffusion_loss(sched, params, seq, nk.rng_for(70))
    assert np.isfinite(oracles.item(real)) and oracles.item(real) >= 0.0


def test_sequence_tokens_layout():
    # |E| = 4: relation ids follow the entities, and one tail id fills every row
    params = gndiff.init_denoiser(4, 2, width=2, rng=nk.rng_for(98))
    toks = gndiff._tokens(params, np.array([1]), np.array([1]), np.array([3]))[0]
    np.testing.assert_array_equal(toks, [1, 4 + 1, 3])
    quads = quads_of([0, 3, 2], [1, 0, 1], [2, 1, 0])
    batch = gndiff._tokens(params, quads[:, 0], quads[:, 1], quads[:, 2])
    assert batch.shape == (3, 3)
    assert np.all(batch[:, 1] >= 4)
    masked = gndiff._tokens(params, quads[:, 0], quads[:, 1], params.vocab_size - 1)
    np.testing.assert_array_equal(masked[:, 2], [6, 6, 6])


def test_batch_loss_feeds_the_denoiser_clean_tokens_or_the_mask(monkeypatch):
    # every corrupted position holds its clean token [s, |E|+r, o] or the
    # mask |E|+|R|, and the draws leave some of each
    n_e, n_r, batch = 5, 3, 64
    ent = make_entropies(n_e, n_r)
    params = gndiff.init_denoiser(n_e, n_r, width=4, rng=nk.rng_for(99))
    rng = nk.rng_for(100)
    quads = quads_of(rng.integers(n_e, size=batch), rng.integers(n_r, size=batch),
                     rng.integers(n_e, size=batch))
    seen = []
    full = gndiff.denoise_x0_batch

    def spy(p, xt, ts):
        seen.append(xt.copy())
        return full(p, xt, ts)

    monkeypatch.setattr(gndiff, "denoise_x0_batch", spy)
    gndiff.batch_loss(params, ent, quads, 6, 0.25, nk.rng_for(101))
    (xt,) = seen
    clean = quads[:, :3] + [0, n_e, 0]
    assert np.all((xt == clean) | (xt == n_e + n_r))
    assert (xt == clean).any() and (xt == n_e + n_r).any()


def test_batch_loss_matches_single_path():
    ent = make_entropies(n_entities=3, n_relations=1)
    params = gndiff.init_denoiser(3, 1, width=6, rng=nk.rng_for(71))
    quads = quads_of([0, 2], [0, 0], [1, 0])
    # scripted draws: t=2 for both, first fully masked, second untouched
    fake = FakeRng([[2, 2]], [np.array([[0.999, 0.999, 0.999], [0.0, 0.0, 0.0]])])
    loss = gndiff.batch_loss(params, ent, quads, 4, 0.3, fake)[0]
    seq0 = oracles.NodeSequence([0, 3, 1], 3, 1)
    sched0 = oracles.build_schedule(ent, seq0, 4, 0.3)
    l0 = oracles.diffusion_loss(sched0, params, seq0, FakeRng([2], [[0.999] * 3]))
    seq1 = oracles.NodeSequence([2, 3, 0], 3, 1)
    sched1 = oracles.build_schedule(ent, seq1, 4, 0.3)
    l1 = oracles.diffusion_loss(sched1, params, seq1, FakeRng([2], [[0.0] * 3]))
    assert loss == pytest.approx((oracles.item(l0) + oracles.item(l1)) / 2, abs=1e-12)


def test_batch_loss_gradient():
    ent = make_entropies(n_entities=3, n_relations=1)
    params = gndiff.init_denoiser(3, 1, width=6, rng=nk.rng_for(72))
    quads = quads_of([0, 2, 1], [0, 0, 0], [1, 0, 1])
    names = list(params.named())

    def f(ps):
        p = dataclasses.replace(params, **dict(zip(names, ps)))
        return taped(gndiff.batch_loss(p, ent, quads, steps=5, mu=0.25, rng=nk.rng_for(73)), p)

    report = grad_check(f, list(params.named().values()), tolerance=1e-4)
    assert report.ok, report


def test_batch_loss_is_finite_when_a_clean_token_underflows():
    # the clean subject's logit is 1000 below its block's maximum, so its
    # softmax probability underflows to 0; its log-probability is finite
    n_e, n_r = 4, 2
    ent = make_entropies(n_e, n_r)
    params = gndiff.init_denoiser(n_e, n_r, width=6, rng=nk.rng_for(97))
    b2 = np.zeros(params.b2.shape)
    b2[0, 2] = -1000.0            # subject 2: the subject block starts at column 0
    params = dataclasses.replace(params, w2=nk.zeros(*params.w2.shape), b2=tensor(b2))
    # mu = 0 keeps the schedule linear: at t = 1 draws of 0.999 mask all three
    # positions, and each reverts with probability 1
    rng = FakeRng([[1]], [np.full((1, 3), 0.999)])
    loss = gndiff.batch_loss(params, ent, quads_of([2], [0], [1]), 4, 0.0, rng)[0]
    expected = (1000.0 + np.log(n_e - 1)) + np.log(n_r) + np.log(n_e)
    assert loss == pytest.approx(expected, rel=1e-12)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(n_e=st.integers(1, 8), n_r=st.integers(1, 4), width=st.integers(1, 6),
       batch=st.integers(1, 8), steps=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_loss_matches_the_taped_chain(n_e, n_r, width, batch, steps, seed):
    # the closed-form backward of the cross-entropy and the denoiser against
    # the chain of ops they replaced (tests/oracles.py), with the same draws;
    # tokens repeat within a batch, so token_emb rows gather several rows
    rng = nk.rng_for(seed)
    params = gndiff.init_denoiser(n_e, n_r, width, rng)
    params = dataclasses.replace(params, b1=tensor(rng.normal(size=params.b1.shape)),
                                 b2=tensor(rng.normal(size=params.b2.shape)))
    ent = make_entropies(n_e, n_r, seed=seed)
    quads = quads_of(rng.integers(n_e, size=batch), rng.integers(n_r, size=batch),
                     rng.integers(n_e, size=batch))
    want, want_grads = chain_gradients(
        lambda: oracles.batch_loss(params, ent, quads, steps, 0.25, nk.rng_for(seed, 1)),
        params.named())
    loss = gndiff.batch_loss(params, ent, quads, steps, 0.25, nk.rng_for(seed, 1))
    assert list(loss[1](1.0)) == list(params.named())
    assert_matches_the_chain(loss, want, want_grads, 1e-10)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(n_e=st.integers(1, 6), n_r=st.integers(1, 3), width=st.integers(1, 5),
       batch=st.integers(1, 6), steps=st.integers(2, 6), seed=st.integers(0, 2 ** 16))
def test_role_sized_denoiser_matches_the_role_masked_layout(n_e, n_r, width, batch,
                                                            steps, seed):
    # the role-sized denoiser made of a role-masked one's live rows gives its
    # loss and live-row gradients to rounding, and the same tail
    # distributions bit for bit; the masked rows get no gradient at all
    rng = nk.rng_for(seed)
    masked = oracles.init_role_masked(n_e, n_r, width, rng)
    masked = dataclasses.replace(masked, b2=tensor(rng.normal(size=masked.b2.shape)))
    params = oracles.role_sized(masked)
    ent = make_entropies(n_e, n_r, seed=seed)
    queries = np.stack([rng.integers(n_e, size=batch), rng.integers(n_r, size=batch)], 1)
    quads = quads_of(queries[:, 0], queries[:, 1], rng.integers(n_e, size=batch))

    loss, backward = gndiff.batch_loss(params, ent, quads, steps, 0.25, nk.rng_for(seed, 1))
    grads = backward(1.0)
    ref, ref_grads = chain_gradients(
        lambda: oracles.role_masked_loss(masked, ent, quads, steps, 0.25, nk.rng_for(seed, 1)),
        masked.named())
    np.testing.assert_allclose(loss, ref, rtol=1e-12, atol=0)
    live = oracles.live_rows(n_e, n_r)
    for name, axis in (("w2", 0), ("b2", 1)):
        assert not np.delete(ref_grads[name], live, axis=axis).any()
        ref_grads[name] = np.take(ref_grads[name], live, axis=axis)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)

    out = gndiff.p_diff_batch(params, queries, steps, 3, nk.rng_for(seed, 2))
    with mock.patch.object(gndiff, "_tail_probs", oracles.role_masked_tail_probs):
        ref_out = gndiff.p_diff_batch(masked, queries, steps, 3, nk.rng_for(seed, 2))
    np.testing.assert_array_equal(out, ref_out)


# ---------------------------------------------------------------------------
# Reverse sampling
# ---------------------------------------------------------------------------

def test_sample_conditional_clamps_and_degenerate_denoiser(monkeypatch):
    ent = make_entropies(n_entities=4, n_relations=2)
    params = gndiff.init_denoiser(4, 2, width=4, rng=nk.rng_for(74))
    seq = oracles.NodeSequence([1, 4, 0], 4, 2)
    sched = oracles.build_schedule(ent, seq, steps=5, mu=0.2)

    seen_states = []
    target = 2

    def fake_denoise(p, xt, ts):
        seen_states.append(xt.copy())
        out = np.full((len(xt), p.b2.shape[1]), oracles.NEG_INF)
        out[:, 1] = 0.0             # subject entity 1
        out[:, 4 + 0] = 0.0         # relation 0; the relation block starts at |E|
        out[:, 6 + target] = 0.0    # the tail block starts at |E|+|R|
        return out, None

    monkeypatch.setattr(gndiff, "denoise_x0_batch", fake_denoise)
    o_id, dist = oracles.sample_conditional(sched, params, 1, 0, nk.rng_for(75))
    assert o_id == target
    # the first state seen is the clamped start (s, r, mask); K = 4+2+1
    np.testing.assert_array_equal(seen_states[0][0], [1, 4, 6])
    # subject/relation positions never change
    for st in seen_states:
        assert st[0][0] == 1 and st[0][1] == 4
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist[target] == pytest.approx(1.0, abs=1e-12)


def test_tail_distribution_normalized_over_entities():
    ent = make_entropies(n_entities=5, n_relations=2)
    params = gndiff.init_denoiser(5, 2, width=8, rng=nk.rng_for(76))
    seq = oracles.NodeSequence([0, 5, 1], 5, 2)
    sched = oracles.build_schedule(ent, seq, steps=6, mu=0.25)
    o_id, dist = oracles.sample_conditional(sched, params, 0, 0, nk.rng_for(77))
    assert 0 <= o_id < 5
    assert dist.shape == (5,)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_p_diff_single_greedy_chain_identity():
    ent = make_entropies(n_entities=4, n_relations=1)
    params = gndiff.init_denoiser(4, 1, width=6, rng=nk.rng_for(78))
    sched = oracles.inference_schedule(ent, 4, 1, 0, steps=5, mu=0.25)
    rng = nk.rng_for(79)
    dist = oracles.p_diff(sched, params, 1, 0, rng, chains=1, greedy=True)
    child = nk.rng_for(79).spawn(1)[0]
    _, single = oracles.sample_conditional(sched, params, 1, 0, child, greedy=True)
    np.testing.assert_allclose(dist, single, atol=1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_p_diff_deterministic_given_seed():
    ent = make_entropies(n_entities=4, n_relations=1)
    params = gndiff.init_denoiser(4, 1, width=6, rng=nk.rng_for(80))
    sched = oracles.inference_schedule(ent, 4, 0, 0, steps=4, mu=0.25)
    a = oracles.p_diff(sched, params, 0, 0, nk.rng_for(81), chains=4)
    b = oracles.p_diff(sched, params, 0, 0, nk.rng_for(81), chains=4)
    np.testing.assert_array_equal(a, b)


def test_overfit_single_fact_dominates_p_diff():
    # train the denoiser on one repeated fact; its object should carry the mass
    n_e, n_r = 5, 1
    ent = make_entropies(n_entities=n_e, n_relations=n_r)
    params = gndiff.init_denoiser(n_e, n_r, width=16, rng=nk.rng_for(82))
    quads = np.tile([1, 0, 3, 0], (8, 1))
    states = {name: nk.AdamState.zeros(p.shape)
              for name, p in params.named().items()}
    for step in range(300):
        grads = gndiff.batch_loss(params, ent, quads, steps=8, mu=0.25,
                                  rng=nk.rng_for(83, step))[1](1.0)
        updates = {name: nk.adam_step(states[name], p, grads[name], t=step + 1, lr=0.01)
                   for name, p in params.named().items()}
        params = dataclasses.replace(params, **updates)
    sched = oracles.inference_schedule(ent, n_e, 1, 0, steps=8, mu=0.25)
    dist = oracles.p_diff(sched, params, 1, 0, nk.rng_for(84), chains=8)
    assert dist[3] > 0.9


def test_p_diff_batch_properties():
    params = gndiff.init_denoiser(6, 2, width=8, rng=nk.rng_for(85))
    queries = np.array([[0, 0], [3, 1], [5, 0]])
    out1 = gndiff.p_diff_batch(params, queries, steps=6, chains=3, rng=nk.rng_for(86))
    out2 = gndiff.p_diff_batch(params, queries, steps=6, chains=3, rng=nk.rng_for(86))
    np.testing.assert_array_equal(out1, out2)
    assert out1.shape == (3, 6)
    np.testing.assert_allclose(out1.sum(axis=1), 1.0, atol=1e-9)


class ConstantRng:
    """Generator stand-in whose uniform draws are all `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


@pytest.mark.parametrize("n_e, n_r, width, steps, chains, queries, seed", [
    (6, 2, 8, 6, 3, [[0, 0], [3, 1], [5, 0]], 87),
    (5, 1, 4, 2, 1, [[1, 0], [4, 0]], 88),                  # steps=2, chains=1
    (7, 3, 6, 9, 8, [[2, 1], [2, 1], [6, 2], [2, 1]], 89),  # duplicate queries
    (40, 4, 16, 30, 5, [[s, s % 4] for s in range(0, 40, 3)], 90),
])
def test_p_diff_batch_matches_chain_oracle(n_e, n_r, width, steps, chains, queries, seed):
    ent = make_entropies(n_entities=n_e, n_relations=n_r)
    params = gndiff.init_denoiser(n_e, n_r, width=width, rng=nk.rng_for(seed))
    queries = np.array(queries)
    rng_new, rng_ref = nk.rng_for(seed, 1), nk.rng_for(seed, 1)
    out = gndiff.p_diff_batch(params, queries, steps, chains, rng_new)
    ref = oracles.p_diff_batch(params, ent, queries, steps, 0.25, chains, rng_ref)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    # the same draws in the same order leave the generators in the same state
    np.testing.assert_array_equal(rng_new.random(4), rng_ref.random(4))


@pytest.mark.parametrize("draw", [0.0, 0.999])
def test_p_diff_batch_matches_oracle_when_every_chain_reveals_at_once(draw):
    # every draw 0: all tails reveal at t = T and pick entity 0; every draw
    # 0.999: tails stay masked until t = 1 reveals them
    ent = make_entropies(n_entities=5, n_relations=2)
    params = gndiff.init_denoiser(5, 2, width=6, rng=nk.rng_for(91))
    queries = np.array([[0, 1], [4, 0], [0, 1]])
    out = gndiff.p_diff_batch(params, queries, 7, 4, ConstantRng(draw))
    ref = oracles.p_diff_batch(params, ent, queries, 7, 0.25, 4, ConstantRng(draw))
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


def test_p_diff_batch_shares_one_row_per_query_before_t1(monkeypatch):
    n_e, steps, chains = 12, 10, 8
    ent = make_entropies(n_entities=n_e, n_relations=2)
    params = gndiff.init_denoiser(n_e, 2, width=8, rng=nk.rng_for(92))
    queries = np.array([[s, s % 2] for s in range(6)] + [[0, 0]])

    # queries with a masked chain at each step, from the full chain simulation
    masked_queries = {}
    full = gndiff.denoise_x0_batch

    def record_masked(p, xt, ts):
        masked = np.flatnonzero(xt[:, 2] == p.vocab_size - 1)
        masked_queries[int(ts[0])] = len(np.unique(masked // chains))
        return full(p, xt, ts)

    monkeypatch.setattr(gndiff, "denoise_x0_batch", record_masked)
    oracles.p_diff_batch(params, ent, queries, steps, 0.25, chains, nk.rng_for(93))

    def no_full_denoiser(*args):
        raise AssertionError("inference must not run the full denoiser")

    rows = {}
    hidden = gndiff._hidden

    def record_rows(p, xt, ts):
        for t, n in zip(*np.unique(ts, return_counts=True)):
            rows[int(t)] = rows.get(int(t), 0) + int(n)
        return hidden(p, xt, ts)

    monkeypatch.setattr(gndiff, "denoise_x0_batch", no_full_denoiser)
    monkeypatch.setattr(gndiff, "_hidden", record_rows)
    gndiff.p_diff_batch(params, queries, steps, chains, nk.rng_for(93))
    assert rows.pop(1) == len(queries) * chains
    assert rows, "some chain reveals before t = 1"
    for t, n in rows.items():
        assert n <= masked_queries[t], (t, n, masked_queries[t])
    assert sum(rows.values()) < sum(masked_queries.values()) - masked_queries[1]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_p_diff_batch_raises_on_non_finite_logits(monkeypatch):
    # finite weights whose tail logits overflow: a hidden layer of ones times
    # output rows of 1e308 sums past the float64 range
    params = gndiff.init_denoiser(4, 1, width=6, rng=nk.rng_for(94))
    w2 = params.w2.data.copy()
    w2[params.role_blocks()[2]] = 1e308
    params = dataclasses.replace(params, w2=tensor(w2))
    monkeypatch.setattr(gndiff, "_hidden", lambda p, xt, ts: (np.full((len(xt), 6), 1.0), None))
    with pytest.raises(NumericError, match="non-finite"):
        gndiff.p_diff_batch(params, np.array([[0, 0]]), 4, 2, nk.rng_for(95))


def test_node_sequence_role_validation():
    with pytest.raises(ValueError):
        oracles.NodeSequence([0, 0, 1], 3, 1)   # entity token at relation slot
    with pytest.raises(ValueError):
        oracles.NodeSequence([3, 3, 1], 3, 1)   # relation token at subject slot
    seq = oracles.NodeSequence([0, 3, 4], 3, 1)  # mask allowed anywhere
    assert seq.mask_token == 4
