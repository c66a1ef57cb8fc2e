"""Reference implementations that tests compare the production code against.

The reverse-chain samplers below simulate every chain through the full taped
denoiser at every step. `gndiff.p_diff_batch` must reproduce
`p_diff_batch` here while computing only the rows it reads.
"""

import numpy as np

from tkgdiff import gndiff
from tkgdiff.corpus import TokenEntropy
from tkgdiff.gndiff import N_POSITIONS, DenoiserParams, DiffusionSchedule

# The samplers call gndiff.denoise_x0_batch through the module, so tests can
# monkeypatch the denoiser.


def _entity_dist(params: DenoiserParams, logits_row: np.ndarray) -> np.ndarray:
    """Softmax of a tail-position logit row restricted to entity ids."""
    row = logits_row[:params.n_entities]
    row = row - row.max()
    e = np.exp(row)
    return e / e.sum()


def sample_conditional(schedule: DiffusionSchedule, params: DenoiserParams,
                       s_id: int, r_id: int, rng: np.random.Generator,
                       greedy: bool = False) -> tuple[int, np.ndarray]:
    """Reverse chain from the all-mask state with the subject and relation
    clamped throughout; returns the final tail entity id and the final step's
    predicted clean-tail distribution over entities."""
    n_e, n_r = params.n_entities, params.n_relations
    mask = params.vocab_size - 1
    x = np.array([s_id, n_e + r_id, mask], dtype=np.int64)
    tail_dist = None
    for t in range(schedule.steps, 0, -1):
        logits = gndiff.denoise_x0_batch(params, x[None, :], np.array([t])).data
        tail_dist = _entity_dist(params, logits[2])
        if x[2] == mask:
            revert = schedule.revert_prob(t)[2]
            if rng.random() < revert:
                if greedy:
                    x[2] = int(np.argmax(tail_dist))
                else:
                    x[2] = int(rng.choice(n_e, p=tail_dist))
        # unmasked positions are point masses under the posterior; the clamped
        # subject/relation never re-mask
    assert x[2] != mask, "revert probability at t=1 is 1, the tail must be set"
    return int(x[2]), tail_dist


def p_diff(schedule: DiffusionSchedule, params: DenoiserParams,
           s_id: int, r_id: int, rng: np.random.Generator,
           chains: int = 8, greedy: bool = False) -> np.ndarray:
    """Candidate-entity distribution: mean of the final-step predicted tail
    distribution over independent reverse chains; deterministic given the
    generator (per-chain streams are spawned from it)."""
    dists = []
    for child in rng.spawn(chains):
        _, dist = sample_conditional(schedule, params, s_id, r_id, child, greedy)
        dists.append(dist)
    return np.mean(dists, axis=0)


def p_diff_batch(params: DenoiserParams, entropies: TokenEntropy,
                 queries: np.ndarray, steps: int, mu: float,
                 chains: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized p_diff for (B, 2) [s, r] query rows -> (B, |E|).

    Runs B * chains reverse chains in lockstep with one batched denoiser call
    per step; random draws come from `rng` in a fixed order, so results are
    deterministic given the generator.
    """
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    b = queries.shape[0]
    n_e = params.n_entities
    mask = params.vocab_size - 1
    rows = b * chains
    # the unknown tail's schedule is linear (see inference_schedule), shared
    # across queries: revert prob at t is (a[t-1]-a[t])/(1-a[t])
    t_grid = np.arange(steps + 1, dtype=np.float64)
    a_tail = 1.0 - t_grid / steps
    x = np.empty((rows, N_POSITIONS), dtype=np.int64)
    x[:, 0] = np.repeat(queries[:, 0], chains)
    x[:, 1] = n_e + np.repeat(queries[:, 1], chains)
    x[:, 2] = mask
    tail_dist = np.zeros((rows, n_e))
    for t in range(steps, 0, -1):
        logits = gndiff.denoise_x0_batch(params, x, np.full(rows, t)).data
        tail_logits = logits[2::N_POSITIONS, :n_e]
        shifted = tail_logits - tail_logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        tail_dist = e / e.sum(axis=1, keepdims=True)
        masked = x[:, 2] == mask
        if masked.any():
            denom = 1.0 - a_tail[t]
            revert = (a_tail[t - 1] - a_tail[t]) / denom if denom > 0 else 0.0
            do_revert = masked & (rng.random(rows) < revert)
            if do_revert.any():
                u = rng.random(rows)
                cum = np.cumsum(tail_dist, axis=1)
                picks = (cum < u[:, None]).sum(axis=1).clip(0, n_e - 1)
                x[do_revert, 2] = picks[do_revert]
    return tail_dist.reshape(b, chains, n_e).mean(axis=1)
