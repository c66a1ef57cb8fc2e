"""Reference implementations that tests compare the production code against.

Each item is the plain, one-sequence, one-row or op-by-op taped form of a
computation that `tkgdiff` runs batched or fused; only tests call them.

Diffusion, one sequence at a time (checks `gndiff.batch_loss` and
`gndiff.p_diff_batch`):
- `NodeSequence`: a validated (subject, relation, object) token triple.
- `DiffusionSchedule`, `build_schedule`, `inference_schedule`: per-sequence
  survival and step-mask probabilities, from the same
  `gndiff._schedule_arrays` that `batch_loss` uses.
- `raw_schedule`: the survival probabilities before the clamp;
  `gndiff._schedule_arrays` must be their clamp, bit for bit.
- `transition_matrix`, `forward_marginal`, `sample_forward`, `posterior`:
  the forward chain and its Bayes posterior, as explicit distributions.
- `diffusion_loss`: the single-sample bound of one sequence; the mean of
  these over a batch is `gndiff.batch_loss`.
- `sample_conditional`, `p_diff`, `p_diff_batch`: reverse chains that run
  every chain through the full taped denoiser at every step.
  `gndiff.p_diff_batch` must reproduce `p_diff_batch` here while computing
  only the rows it reads.

The role-masked output layer (checks `gndiff.denoise_x0_batch`,
`gndiff.batch_loss` and `gndiff._tail_probs`):
- `init_role_masked`, `role_mask`, `role_masked_logits`: a denoiser whose
  output layer has one K-wide block of rows per position, and whose logits
  are masked to NEG_INF where a clean sequence cannot hold the token.
- `role_masked_loss`, `role_masked_tail_probs`: the loss and the tail
  distribution of that layout, a softmax over all K columns of a position.
- `live_rows`, `role_sized`: the rows the mask leaves live, which make the
  role-sized denoiser that gives the same loss, gradients and tail
  distribution.

Distances (check `geometry.pairwise_sqdist` and, through the scoring chain
below, `geometry.distance`):
- `PoincarePoint`: a point projected into the ball on construction.
- `poincare_distance`, `euclidean_distance`: row-wise distances, taped.
- `pairwise_sqdist`: the all-pairs squared distances from explicit
  differences, one row per row of `a`, repeated rows included;
  `geometry.pairwise_sqdist` must reproduce it to rounding with one matrix
  product over the distinct rows, and bit for bit on close pairs. Its
  backward forms every pair's gradient from its difference, so it keeps
  its digits where the Gram form cancels.
- `gram_sqdist`, `poincare_from_sqdist`, `euclidean_from_sqdist`,
  `poincare_pairwise`, `euclidean_pairwise`: the taped all-pairs distances
  the package had before its fused scoring record, over
  `geometry.pairwise_sqdist` with `pairwise_sqdist`'s backward; the
  row-wise distances check them.

Optimizer (checks `numkit.adam_step`):
- `adam_step`: the textbook Adam update, which rebinds fresh moment arrays;
  `numkit.adam_step` must reproduce it bit for bit while updating in place.

Scoring as a taped chain of ops (checks `dpcl.head_softmaxes`,
`dpcl.ce_loss` and `evaluate.p_dpcl`, the one fused record that replaced
it, to 1e-10):
- `acosh`, `softmax_rows`, `gather_cols`: the taped ops the chain needs,
  which no module of the package uses any more.
- `z_rows`: a batch's dense signed history rows, -lam with +lam at its
  history pairs, where the fused record adds only +-2 lam.
- `head_scores`: both heads' (B, |E|) scores from one squared-distance
  block; `softmax_sum`, `mixture`: their softmaxes, summed and halved.
- `ce_loss`: the cross-entropy from each head's own ground-truth
  probability, -log(softmax(S_per)[gt] + softmax(S_nonper)[gt]).
- `head_score`: one head's scores with its own subject rows and a row-wise
  distance per (query, candidate) pair, which checks `head_scores` apart
  from the shared block.

Ranking, one query at a time (checks `evaluate.ranks` and
`evaluate.evaluate_split`):
- `filtered_rank`, `raw_rank`: one query's rank with pessimistic ties, with
  and without the same-time objects removed.
- `split_ranks`: the per-query loop over a split, with same-time groups from
  a dict and new-event flags from a scan of the scoped facts.

The diffusion oracles call `gndiff.denoise_x0_batch` through the module, so
tests can monkeypatch the denoiser.

Some items check no production function; their tests check only the oracle:
`transition_matrix`, `forward_marginal` and `posterior` (the forward chain
and its posterior, which `batch_loss` never forms), `NodeSequence`'s role
validation, the clamp-saturation warning of `build_schedule`, and
`PoincarePoint`. They stay because together they derive what the batched
code takes as given: the posterior's weight on reverting to the clean token
is the revert weight `batch_loss` computes in closed form, over validated
sequences, from a schedule whose clamp is visible, and `PoincarePoint` is
the ball projection the row-pair distances start from.
"""

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from tkgdiff import dpcl, gndiff
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.corpus import TokenEntropy
from tkgdiff.errors import DimensionError
from tkgdiff.geometry import project_array_to_ball
from tkgdiff.gndiff import N_POSITIONS, DenoiserParams
from tkgdiff.numkit import Tensor


# ---------------------------------------------------------------------------
# Diffusion: one sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSequence:
    """Three combined-vocabulary token ids with fixed roles
    (subject-entity, relation, object-entity)."""

    tokens: np.ndarray
    n_entities: int
    n_relations: int

    def __post_init__(self):
        toks = np.asarray(self.tokens, dtype=np.int64).reshape(-1)
        if toks.size != N_POSITIONS:
            raise ValueError(f"a node sequence has {N_POSITIONS} tokens, got {toks.size}")
        object.__setattr__(self, "tokens", toks)
        for pos in range(N_POSITIONS):
            if not self._valid(pos, int(toks[pos])):
                raise ValueError(f"token {toks[pos]} is not valid at position {pos}")

    @property
    def vocab_size(self) -> int:
        return self.n_entities + self.n_relations + 1

    @property
    def mask_token(self) -> int:
        return self.vocab_size - 1

    def _valid(self, pos: int, token: int) -> bool:
        if token == self.mask_token:
            return True
        if pos == 1:
            return self.n_entities <= token < self.n_entities + self.n_relations
        return 0 <= token < self.n_entities

    def with_tokens(self, tokens) -> "NodeSequence":
        return NodeSequence(tokens, self.n_entities, self.n_relations)

    @classmethod
    def from_quad(cls, entropies: TokenEntropy, s: int, r: int, o: int) -> "NodeSequence":
        return cls([s, entropies.n_entities + r, o],
                   entropies.n_entities, entropies.n_relations)


@dataclass
class DiffusionSchedule:
    """Per-position survival and step-mask probabilities for one sequence."""

    steps: int
    mu: float
    alpha_bar: np.ndarray       # (T+1, 3), clamped; [0] = 1, [T] = 0
    alpha_bar_raw: np.ndarray   # (T+1, 3), pre-clamp (schedule-identity checks)
    beta: np.ndarray            # (T+1, 3); beta[t] = 1 - a[t]/a[t-1], beta[0] = 0
    entropies: np.ndarray       # (3,) token entropies the schedule was built from

    def revert_prob(self, t: int) -> np.ndarray:
        """Posterior probability that a masked position reverts at step t."""
        a_prev, a_t = self.alpha_bar[t - 1], self.alpha_bar[t]
        denom = 1.0 - a_t
        return np.where(denom > 0.0, (a_prev - a_t) / np.where(denom > 0, denom, 1.0), 0.0)


def raw_schedule(h: np.ndarray, steps: int, mu: float) -> np.ndarray:
    """1 - t/T - G(t) * h_tilde, (T+1, ..., n), before `_schedule_arrays`
    confines it to [0, 1] and pins its endpoints."""
    n = h.shape[-1]
    h = np.maximum(h, 1e-12)
    h_tilde = 1.0 - h.sum(axis=-1, keepdims=True) / (n * h)
    t = np.arange(steps + 1, dtype=np.float64)
    g = mu * np.sin(np.pi * t / steps)
    g[0] = 0.0
    g[steps] = 0.0
    shape = (steps + 1,) + (1,) * h.ndim
    return 1.0 - (t / steps).reshape(shape) - g.reshape(shape) * h_tilde[None, ...]


def build_schedule(entropies: TokenEntropy, sequence: NodeSequence,
                   steps: int, mu: float) -> DiffusionSchedule:
    """Entropy-informed schedule for one sequence.

    Pre-clamp values satisfy sum_i alpha_bar[t, i] * H_i = (1 - t/T) sum_i H_i
    for every t; tokens with lower entropy keep higher survival at interior t.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    h = entropies.entropy[sequence.tokens]
    raw, clamped = raw_schedule(h, steps, mu), gndiff._schedule_arrays(h, steps, mu)
    interior = np.arange(1, steps)
    if interior.size:
        touched = np.any(np.abs(clamped[interior] - raw[interior]) > 0, axis=1)
        if touched.mean() > 0.5:
            warnings.warn(f"mu={mu} saturates the schedule clamp on "
                          f"{touched.mean():.0%} of interior steps", stacklevel=2)
    beta = np.zeros_like(clamped)
    prev = clamped[:-1]
    beta[1:] = np.where(prev > 0.0, 1.0 - clamped[1:] / np.where(prev > 0, prev, 1.0), 1.0)
    beta = np.clip(beta, 0.0, 1.0)
    return DiffusionSchedule(steps, mu, clamped, raw, beta, h)


def inference_schedule(entropies: TokenEntropy, s: int, r: int,
                       steps: int, mu: float) -> DiffusionSchedule:
    """Schedule for answering (s, r, ?): the unknown tail gets the mean of the
    known positions' entropies, which makes its normalized-entropy term vanish
    and its survival exactly linear."""
    hs = entropies.entropy[int(s)]
    hr = entropies.entropy[entropies.n_entities + int(r)]
    h = np.array([hs, hr, 0.5 * (hs + hr)])
    raw, clamped = raw_schedule(h, steps, mu), gndiff._schedule_arrays(h, steps, mu)
    beta = np.zeros_like(clamped)
    prev = clamped[:-1]
    beta[1:] = np.where(prev > 0.0, 1.0 - clamped[1:] / np.where(prev > 0, prev, 1.0), 1.0)
    return DiffusionSchedule(steps, mu, clamped, raw, np.clip(beta, 0.0, 1.0), h)


def transition_matrix(schedule: DiffusionSchedule, sequence: NodeSequence,
                      position: int, t: int) -> np.ndarray:
    """One-step forward matrix Q_t at a position: stay with 1 - beta, jump to
    the mask with beta, and the mask row is absorbing."""
    k = sequence.vocab_size
    m = sequence.mask_token
    beta = schedule.beta[t, position]
    q = np.eye(k) * (1.0 - beta)
    q[:, m] += beta
    q[m] = 0.0
    q[m, m] = 1.0
    return q


def forward_marginal(schedule: DiffusionSchedule, x0: NodeSequence, t: int) -> np.ndarray:
    """Per-position distribution of x_t given x_0: original token with
    probability alpha_bar[t], mask otherwise; shape (3, K)."""
    if not 0 <= t <= schedule.steps:
        raise ValueError(f"t must be in [0, {schedule.steps}], got {t}")
    k = x0.vocab_size
    out = np.zeros((N_POSITIONS, k))
    a = schedule.alpha_bar[t]
    for i in range(N_POSITIONS):
        out[i, x0.tokens[i]] += a[i]
        out[i, x0.mask_token] += 1.0 - a[i]
    return out


def sample_forward(schedule: DiffusionSchedule, x0: NodeSequence, t: int,
                   rng: np.random.Generator) -> NodeSequence:
    keep = rng.random(N_POSITIONS) < schedule.alpha_bar[t]
    toks = np.where(keep, x0.tokens, x0.mask_token)
    return x0.with_tokens(toks)


def posterior(schedule: DiffusionSchedule, x_t: NodeSequence, x0: NodeSequence,
              t: int) -> np.ndarray:
    """q(x_{t-1} | x_t, x_0) per position, shape (3, K): a point mass on any
    unmasked token; a masked token reverts to x_0 with the revert probability
    and otherwise stays masked."""
    if not 1 <= t <= schedule.steps:
        raise ValueError(f"t must be in [1, {schedule.steps}], got {t}")
    mask = x0.mask_token
    out = np.zeros((N_POSITIONS, x0.vocab_size))
    revert = schedule.revert_prob(t)
    for i in range(N_POSITIONS):
        tok = int(x_t.tokens[i])
        if tok == mask:
            out[i, x0.tokens[i]] += revert[i]
            out[i, mask] += 1.0 - revert[i]
        elif tok == int(x0.tokens[i]):
            out[i, tok] = 1.0
        else:
            raise ValueError(f"inconsistent x_t at position {i}: token {tok} is "
                             f"neither x_0 ({x0.tokens[i]}) nor the mask")
    return out


def diffusion_loss(schedule: DiffusionSchedule, params: DenoiserParams,
                   x0: NodeSequence, rng: np.random.Generator) -> Tensor:
    """Single-sample variational bound term: draws t uniform in [1, T] and x_t
    from the forward marginal, then scores the reverse step.

    For the absorbing chain the step KL collapses per masked position to
    -revert_prob * log p_hat(x_0 token), with p_hat the softmax over the
    position's role block; at t = 1 the revert probability is 1,
    which is exactly the reconstruction term. The terminal prior term is
    identically zero (both sides are the all-mask point mass) and is asserted,
    not computed.
    """
    assert np.all(schedule.alpha_bar[schedule.steps] == 0.0), \
        "terminal state must be all-mask"
    t = int(rng.integers(1, schedule.steps + 1))
    x_t = sample_forward(schedule, x0, t, rng)
    masked = x_t.tokens == x0.mask_token
    weights = np.where(masked, schedule.revert_prob(t), 0.0)
    logits = gndiff.denoise_x0_batch(params, x_t.tokens[None, :], np.array([t])).data[0]
    total = 0.0
    for pos, block in enumerate(params.role_blocks()):
        if masked[pos]:
            # a relation token's id counts the entities before it
            index = x0.tokens[pos] - (params.n_entities if pos == 1 else 0)
            e = np.exp(logits[block] - logits[block].max())
            total -= weights[pos] * np.log(e[index] / e.sum())
    return nk.constant(total)


# ---------------------------------------------------------------------------
# Diffusion: full reverse chains
# ---------------------------------------------------------------------------

def _entity_dist(params: DenoiserParams, logits_row: np.ndarray) -> np.ndarray:
    """Softmax of a sequence's logit row over its tail block."""
    row = logits_row[params.role_blocks()[2]]
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
        tail_dist = _entity_dist(params, logits[0])
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
        tail_logits = logits[:, params.role_blocks()[2]]
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


# ---------------------------------------------------------------------------
# Denoiser: the role-masked output layer
# ---------------------------------------------------------------------------

NEG_INF = -1e30  # finite stand-in for -inf so tensors stay finite


def init_role_masked(n_entities: int, n_relations: int, width: int,
                     rng: np.random.Generator) -> DenoiserParams:
    """A denoiser whose `w2` is (3K, h) and `b2` (1, 3K): one K-wide block of
    output rows per position, drawn like gndiff.init_denoiser's rows."""
    k = n_entities + n_relations + 1

    def uniform(rows, cols, fan):
        return Tensor(rng.uniform(-1.0, 1.0, size=(rows, cols)) * np.sqrt(3.0 / fan))

    return DenoiserParams(
        token_emb=uniform(k, width, width),
        w1=uniform(width, 4 * width, 4 * width), b1=nk.zeros(1, width),
        w2=uniform(3 * k, width, width), b2=nk.zeros(1, 3 * k),
        n_entities=n_entities, n_relations=n_relations, width=width)


def role_mask(params: DenoiserParams) -> np.ndarray:
    """(3, K) additive mask: 0 for tokens a clean sequence may hold at the
    position, NEG_INF elsewhere (the mask token is never a clean token)."""
    n_e, n_r = params.n_entities, params.n_relations
    m = np.full((N_POSITIONS, params.vocab_size), NEG_INF)
    m[0, :n_e] = 0.0
    m[2, :n_e] = 0.0
    m[1, n_e:n_e + n_r] = 0.0
    return m


def role_masked_logits(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> Tensor:
    """(3B, K) logits of a role-masked denoiser for (B, 3) corrupted token ids
    and (B,) step indices, rows grouped per sequence; taped."""
    h = gndiff._hidden(params, xt, ts)
    b = h.shape[0]
    logits = nk.add(nk.matmul(h, nk.transpose(params.w2)), params.b2)  # (B, 3K)
    logits = nk.reshape(logits, N_POSITIONS * b, params.vocab_size)
    return nk.add(logits, Tensor(np.tile(role_mask(params), (b, 1))))


def role_masked_loss(params: DenoiserParams, entropies: TokenEntropy,
                     quad_tokens: np.ndarray, steps: int, mu: float,
                     rng: np.random.Generator) -> Tensor:
    """gndiff.batch_loss of a role-masked denoiser, with the same draws: the
    log of each position's softmax over all K columns, picked at the clean
    token; taped."""
    toks = np.asarray(quad_tokens, dtype=np.int64).reshape(-1, N_POSITIONS)
    xt, ts, weights = gndiff._corrupt(entropies, toks, steps, mu, rng)
    probs = softmax_rows(role_masked_logits(params, xt, ts))
    picked = gather_cols(probs, toks.reshape(-1))
    weighted = nk.mul(Tensor(weights.reshape(-1, 1)), nk.log(picked))
    return nk.mul(nk.constant(-1.0 / len(toks)), nk.sum_all(weighted))


def role_masked_tail_probs(params: DenoiserParams, xt: np.ndarray,
                           ts: np.ndarray) -> np.ndarray:
    """gndiff._tail_probs of a role-masked denoiser: rows 2K : 2K+|E| of its
    output layer, where the mask is exactly 0."""
    h = gndiff._hidden(params, xt, ts).data
    k = params.vocab_size
    cols = slice(2 * k, 2 * k + params.n_entities)
    probs = h @ params.w2.data[cols].T
    probs += params.b2.data[:, cols]
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def live_rows(n_entities: int, n_relations: int) -> np.ndarray:
    """The rows of a role-masked (3K, h) output layer that the mask leaves
    live, in the role-sized order: subject entities, relations, tail
    entities."""
    k = n_entities + n_relations + 1
    return np.concatenate([np.arange(n_entities),
                           k + np.arange(n_entities, n_entities + n_relations),
                           2 * k + np.arange(n_entities)])


def role_sized(params: DenoiserParams) -> DenoiserParams:
    """The role-sized denoiser made of a role-masked one's live output rows."""
    rows = live_rows(params.n_entities, params.n_relations)
    return dataclasses.replace(params, w2=Tensor(params.w2.data[rows]),
                               b2=Tensor(params.b2.data[:, rows]))


# ---------------------------------------------------------------------------
# Distances: one row pair at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoincarePoint:
    """A point strictly inside the unit ball; construction projects if needed."""

    coords: np.ndarray = field()

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64).reshape(1, -1)
        object.__setattr__(self, "coords", project_array_to_ball(arr)[0])

    @property
    def dim(self) -> int:
        return self.coords.size


def _as_rows(p) -> Tensor:
    if isinstance(p, Tensor):
        return p
    if isinstance(p, PoincarePoint):
        return Tensor(p.coords.reshape(1, -1))
    return Tensor(np.asarray(p, dtype=np.float64).reshape(1, -1))


def _row_sqnorm(x: Tensor) -> Tensor:
    return nk.sum_cols(nk.mul(x, x))


def _check_inside(rows: Tensor, name: str) -> None:
    """ValueError for a row past the ball margin, by geometry's own rule."""
    geo.ball_gap(geo.row_sqnorms(rows.data), name)


def _rowwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    d = nk.sub(a, b)
    return nk.sum_cols(nk.mul(d, d))


def euclidean_distance(a, b) -> Tensor:
    """Row-wise L2 distance |a_i - b_i|, shape (m, 1); taped."""
    a, b = _as_rows(a), _as_rows(b)
    if a.shape != b.shape:
        raise DimensionError(f"euclidean_distance needs equal shapes: {a.shape} vs {b.shape}")
    return nk.sqrt(_rowwise_sqdist(a, b))


def poincare_distance(a, b) -> Tensor:
    """Row-wise ball distance arcosh(1 + 2 |a-b|^2 / ((1-|a|^2)(1-|b|^2))); taped.

    Rows must already lie within 1 - BALL_MARGIN of the origin.
    """
    a, b = _as_rows(a), _as_rows(b)
    if a.shape != b.shape:
        raise DimensionError(f"poincare_distance needs equal shapes: {a.shape} vs {b.shape}")
    _check_inside(a, "first argument")
    _check_inside(b, "second argument")
    one = nk.constant(1.0)
    denom = nk.mul(nk.sub(one, _row_sqnorm(a)), nk.sub(one, _row_sqnorm(b)))
    arg = nk.add(one, nk.mul(nk.constant(2.0), nk.div(_rowwise_sqdist(a, b), denom)))
    return acosh(arg)


def _differences(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Every a_i - b_j, in one (m, n, d) block."""
    return ad[:, None, :] - bd[None, :, :]


def _sqdist_backward(ad: np.ndarray, bd: np.ndarray):
    """The backward of all-pairs |a_i - b_j|^2 from the explicit differences:
    2 sum_j g_ij (a_i - b_j) for `a` and -2 sum_i g_ij (a_i - b_j) for `b`,
    which keeps its digits at pairs a few ulps apart."""

    def backward(g):
        diff = _differences(ad, bd)
        return (2.0 * np.einsum("ij,ijk->ik", g, diff),
                -2.0 * np.einsum("ij,ijk->jk", g, diff))

    return backward


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs |a_i - b_j|^2, shape (m, n); taped. Forms every difference
    explicitly, in the forward and in the backward."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    diff = _differences(a.data, b.data)
    result = Tensor(np.einsum("ijk,ijk->ij", diff, diff))
    return nk._tape_record(result, (a, b), _sqdist_backward(a.data, b.data))


def gram_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """geometry.pairwise_sqdist of two tensors' rows, taped, with the
    explicit-difference backward of `pairwise_sqdist`."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"point dimensions differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    result = nk._wrap(geo.pairwise_sqdist(ad, bd, geo.row_sqnorms(bd))[0])
    return nk._tape_record(result, (a, b), _sqdist_backward(ad, bd))


def euclidean_from_sqdist(sqdist: Tensor) -> Tensor:
    """L2 distances from `sqdist = gram_sqdist(a, b)`; taped. Its entries are
    never negative and identical rows give +0, where sqrt's gradient is 0
    (numkit.sqrt), so no clamp is needed."""
    return nk.sqrt(sqdist)


def poincare_from_sqdist(sqdist: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Ball distances from `sqdist = gram_sqdist(a, b)`; taped. Rows of `a`
    and `b` must have norm <= 1 - BALL_MARGIN (ValueError otherwise)."""
    if sqdist.shape != (a.shape[0], b.shape[0]):
        raise DimensionError(f"squared distances {sqdist.shape} do not pair "
                             f"{a.shape} with {b.shape}")
    _check_inside(a, "first argument")
    _check_inside(b, "second argument")
    one = nk.constant(1.0)
    na = nk.sub(one, _row_sqnorm(a))                 # (m, 1)
    nb = nk.transpose(nk.sub(one, _row_sqnorm(b)))   # (1, n)
    arg = nk.add(one, nk.mul(nk.constant(2.0), nk.div(sqdist, nk.mul(na, nb))))
    return acosh(arg)


def euclidean_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs L2 distances, shape (m, n); taped."""
    return euclidean_from_sqdist(gram_sqdist(a, b))


def poincare_pairwise(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs ball distances, shape (m, n); taped. Rows must be inside the ball."""
    return poincare_from_sqdist(gram_sqdist(a, b), a, b)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def adam_step(state: nk.AdamState, params: Tensor, g: np.ndarray, t: int,
              lr: float) -> Tensor:
    """Adam update number `t` with numkit's decay rates and offset; returns
    the updated parameter tensor."""
    if g.shape != params.data.shape:
        raise DimensionError(f"gradient shape {g.shape} != parameter shape {params.shape}")
    if state.m.shape != params.data.shape:
        raise DimensionError(f"optimizer state shape {state.m.shape} != parameter shape {params.shape}")
    beta1, beta2 = nk.ADAM_BETA1, nk.ADAM_BETA2
    state.m = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * (g * g)
    m_hat = state.m / (1.0 - beta1 ** t)
    v_hat = state.v / (1.0 - beta2 ** t)
    return Tensor(params.data - lr * m_hat / (np.sqrt(v_hat) + nk.ADAM_EPS))


# ---------------------------------------------------------------------------
# Scoring: the taped chain
# ---------------------------------------------------------------------------

def acosh(a: Tensor) -> Tensor:
    """Inverse hyperbolic cosine; inputs below 1 are clamped to 1 and receive
    zero gradient there; taped."""
    clamped = np.maximum(a.data, 1.0)
    out = nk._wrap(np.arccosh(clamped))
    active = a.data > 1.0

    def backward(g):
        denom = np.sqrt(np.where(active, clamped * clamped - 1.0, 1.0))
        return (np.where(active, g / denom, 0.0),)

    return nk._tape_record(out, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, computed with row-max subtraction for stability;
    taped."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = nk._wrap(e / e.sum(axis=1, keepdims=True))
    p = out.data

    def backward(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return nk._tape_record(out, (a,), backward)


def gather_cols(a: Tensor, cols) -> Tensor:
    """Per-row column picks: out[i, 0] = a[i, cols[i]]; taped."""
    idx = np.asarray(cols, dtype=np.int64).reshape(-1)
    if idx.size != a.shape[0]:
        raise DimensionError(f"need one column id per row: {idx.size} ids, {a.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise DimensionError(f"column ids out of range for {a.shape}")
    rows = np.arange(a.shape[0])
    out = nk._wrap(a.data[rows, idx].reshape(-1, 1))

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g[:, 0])
        return (ga,)

    return nk._tape_record(out, (a,), backward)


def z_rows(batch: dpcl.QueryBatch, n_entities: int) -> np.ndarray:
    """The batch's signed history rows, (B, |E|): +lam at its history pairs
    and -lam everywhere else."""
    z = np.full((len(batch), n_entities), -batch.lam)
    z[batch.history] = batch.lam
    return z


def head_scores(params: dpcl.DpclParams, batch: dpcl.QueryBatch,
                strategy: str) -> tuple[Tensor, Tensor]:
    """(periodic, non-periodic) dependency scores per candidate, each
    (B, |E|); taped.

    A head's score is its affine-code match against the entity table, plus
    (periodic) or minus (non-periodic) the signed history row (`z_rows`),
    plus the subject-candidate distance of the kind `strategy` gives the
    head. Both distances come from one subject x entity squared-distance
    block (`gram_sqdist`), and a kind both heads use is computed once.
    """
    kinds = dpcl.strategy_distances(strategy)
    entities = params.entity_emb
    s_emb = nk.take_rows(entities, batch.s_ids)
    x = nk.concat_cols(s_emb, nk.take_rows(params.relation_emb, batch.r_ids))
    sqdist = gram_sqdist(s_emb, entities)
    dist = {kind: poincare_from_sqdist(sqdist, s_emb, entities) if kind == "poincare"
            else euclidean_from_sqdist(sqdist)
            for kind in dict.fromkeys(kinds)}
    entities_t = nk.transpose(entities)
    z = Tensor(z_rows(batch, entities.shape[0]))

    def head(w, b, history, kind):
        code = nk.tanh(nk.add(nk.matmul(x, nk.transpose(w)), b))
        return nk.add(history(nk.matmul(code, entities_t), z), dist[kind])

    return (head(params.w_per, params.b_per, nk.add, kinds[0]),
            head(params.w_nonper, params.b_nonper, nk.sub, kinds[1]))


def softmax_sum(s_per: Tensor, s_nonper: Tensor) -> Tensor:
    """softmax(S_per) + softmax(S_nonper), (B, |E|); taped."""
    if s_per.shape != s_nonper.shape:
        raise DimensionError(f"score shapes differ: {s_per.shape} vs {s_nonper.shape}")
    return nk.add(softmax_rows(s_per), softmax_rows(s_nonper))


def mixture(s_per: Tensor, s_nonper: Tensor) -> Tensor:
    """The scored distribution 0.5 * (softmax(S_per) + softmax(S_nonper)),
    (B, |E|) rows that sum to 1; taped."""
    return nk.mul(nk.constant(0.5), softmax_sum(s_per, s_nonper))


def ce_loss(s_per: Tensor, s_nonper: Tensor, gt_ids) -> Tensor:
    """-log(softmax(S_per)[gt] + softmax(S_nonper)[gt]), averaged over the
    batch, from one gather per head; taped."""
    if s_per.shape != s_nonper.shape:
        raise DimensionError(f"score shapes differ: {s_per.shape} vs {s_nonper.shape}")
    p1 = gather_cols(softmax_rows(s_per), gt_ids)
    p2 = gather_cols(softmax_rows(s_nonper), gt_ids)
    per_query = nk.log(nk.add(p1, p2))
    return nk.mul(nk.constant(-1.0 / s_per.shape[0]), nk.sum_all(per_query))


def head_score(params: dpcl.DpclParams, batch: dpcl.QueryBatch, head: str,
               distance: str) -> Tensor:
    """One head's dependency scores, (B, |E|), computed apart from the other
    head: affine-code match, plus (periodic) or minus (non-periodic) the
    history row, plus the row-wise distance of every (subject, candidate)
    pair; taped."""
    history, weight, bias = {
        "periodic": (nk.add, params.w_per, params.b_per),
        "nonperiodic": (nk.sub, params.w_nonper, params.b_nonper),
    }[head]
    entities = params.entity_emb
    n, b = entities.shape[0], len(batch)
    x = nk.concat_cols(nk.take_rows(entities, batch.s_ids),
                       nk.take_rows(params.relation_emb, batch.r_ids))
    code = nk.tanh(nk.add(nk.matmul(x, nk.transpose(weight)), bias))
    scores = history(nk.matmul(code, nk.transpose(entities)), Tensor(z_rows(batch, n)))
    subjects = nk.take_rows(entities, np.repeat(batch.s_ids, n))
    candidates = nk.take_rows(entities, np.tile(np.arange(n), b))
    rowwise = {"poincare": poincare_distance, "euclidean": euclidean_distance}[distance]
    dist = nk.reshape(rowwise(subjects, candidates), b, n)
    return nk.add(scores, dist)


# ---------------------------------------------------------------------------
# Ranking: one query at a time
# ---------------------------------------------------------------------------

def filtered_rank(p: np.ndarray, gt: int, same_time_objects) -> int:
    """1-based rank of the ground truth after removing the other objects that
    are also true at the same (s, r, t); pessimistic tie-breaking."""
    p = np.asarray(p).reshape(-1)
    gt = int(gt)
    drop = {int(o) for o in same_time_objects} - {gt}
    score = p[gt]
    ahead = p >= score
    ahead[gt] = False
    if drop:
        ahead[list(drop)] = False
    return int(ahead.sum()) + 1


def raw_rank(p: np.ndarray, gt: int) -> int:
    return filtered_rank(p, gt, ())


def split_ranks(probs: np.ndarray, quads: np.ndarray,
                scoped: np.ndarray) -> tuple[list[int], list[int], list[bool]]:
    """Per query of `quads` (one row of `probs` each): the filtered rank, the
    raw rank, and whether its object is a new event, i.e. never seen with
    its (s, r) before its t among the `scoped` facts."""
    same_time: dict[tuple[int, int, int], set[int]] = {}
    for s, r, o, t in quads:
        same_time.setdefault((int(s), int(r), int(t)), set()).add(int(o))
    ranks, raw, new = [], [], []
    for i, (s, r, o, t) in enumerate(quads):
        ranks.append(filtered_rank(probs[i], o, same_time[(int(s), int(r), int(t))]))
        raw.append(raw_rank(probs[i], o))
        new.append(not any(ss == s and rr == r and oo == o and tt < t
                           for ss, rr, oo, tt in scoped))
    return ranks, raw, new
