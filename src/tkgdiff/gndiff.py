"""Absorbing-state discrete diffusion over (subject, relation, object) token
triples.

Forward corruption masks each position independently; a token survives t steps
with probability alpha_bar[t] from an entropy-informed schedule (rarer tokens
mask earlier, so the reverse process reveals common tokens first). The reverse
process predicts the clean sequence and combines it with the analytic
posterior, which for the absorbing chain collapses to: unmasked positions stay
put, masked positions revert to a predicted token with probability
(alpha_bar[t-1] - alpha_bar[t]) / (1 - alpha_bar[t]).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .corpus import TokenEntropy
from .errors import NumericError
from .numkit import Tensor

__all__ = [
    "N_POSITIONS", "NEG_INF", "NodeSequence", "DiffusionSchedule",
    "DenoiserParams", "build_schedule", "inference_schedule",
    "transition_matrix", "forward_marginal", "sample_forward", "posterior",
    "init_denoiser", "denoise_x0", "denoise_x0_batch",
    "diffusion_loss", "batch_loss", "p_diff_batch",
]

N_POSITIONS = 3
NEG_INF = -1e30  # finite stand-in for -inf so tensors stay finite


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
        return cls(entropies.sequence_tokens(s, r, o),
                   entropies.n_entities, entropies.n_relations)


def _schedule_arrays(h: np.ndarray, steps: int, mu: float):
    """Survival probabilities for token entropies h, shape (..., n).

    Returns (raw, clamped): raw = 1 - t/T - G(t) * h_tilde with
    G(t) = mu sin(pi t / T) and h_tilde = 1 - mean(h)/h; clamped is confined
    to [0, 1] and forced non-increasing in t. The t=0 and t=T endpoints are
    exactly 1 and 0 (sin vanishes there; float sin(pi) does not, so they are
    pinned explicitly).
    """
    n = h.shape[-1]
    h = np.maximum(h, 1e-12)  # a zero-entropy token would divide by zero
    h_tilde = 1.0 - h.sum(axis=-1, keepdims=True) / (n * h)
    t = np.arange(steps + 1, dtype=np.float64)
    g = mu * np.sin(np.pi * t / steps)
    g[0] = 0.0
    g[steps] = 0.0
    shape = (steps + 1,) + (1,) * h.ndim
    raw = 1.0 - (t / steps).reshape(shape) - g.reshape(shape) * h_tilde[None, ...]
    clamped = np.minimum.accumulate(np.clip(raw, 0.0, 1.0), axis=0)
    clamped[0] = 1.0
    clamped[steps] = 0.0
    return raw, clamped


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
    raw, clamped = _schedule_arrays(h, steps, mu)
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
    hs = entropies.entropy[entropies.entity_token(s)]
    hr = entropies.entropy[entropies.relation_token(r)]
    h = np.array([hs, hr, 0.5 * (hs + hr)])
    raw, clamped = _schedule_arrays(h, steps, mu)
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


# ---------------------------------------------------------------------------
# Denoiser
# ---------------------------------------------------------------------------

@dataclass
class DenoiserParams:
    """Token embeddings plus a two-layer tanh perceptron producing logits for
    the clean sequence; invalid (position, token) pairs are masked off."""

    token_emb: Tensor   # (K, w)
    w1: Tensor          # (h, 4w): 3 token embeddings + time embedding
    b1: Tensor          # (1, h)
    w2: Tensor          # (3K, h)
    b2: Tensor          # (1, 3K)
    n_entities: int
    n_relations: int
    width: int

    @property
    def vocab_size(self) -> int:
        return self.n_entities + self.n_relations + 1

    def named(self) -> dict[str, Tensor]:
        return {f: getattr(self, f)
                for f in ("token_emb", "w1", "b1", "w2", "b2")}

    def replace(self, **updates) -> "DenoiserParams":
        fields = {f: getattr(self, f) for f in self.__dataclass_fields__}
        fields.update(updates)
        return DenoiserParams(**fields)

    def role_mask(self) -> np.ndarray:
        """(3, K) additive mask: 0 for tokens a clean sequence may hold at the
        position, NEG_INF elsewhere (the mask token is never a clean token)."""
        k = self.vocab_size
        m = np.full((N_POSITIONS, k), NEG_INF)
        m[0, :self.n_entities] = 0.0
        m[2, :self.n_entities] = 0.0
        m[1, self.n_entities:self.n_entities + self.n_relations] = 0.0
        return m


def init_denoiser(n_entities: int, n_relations: int, width: int,
                  rng: np.random.Generator) -> DenoiserParams:
    k = n_entities + n_relations + 1
    hidden = width

    def uniform(rows, cols, fan):
        return Tensor(rng.uniform(-1.0, 1.0, size=(rows, cols)) * np.sqrt(3.0 / fan))

    return DenoiserParams(
        token_emb=uniform(k, width, width),
        w1=uniform(hidden, 4 * width, 4 * width), b1=nk.zeros(1, hidden),
        w2=uniform(3 * k, hidden, hidden), b2=nk.zeros(1, 3 * k),
        n_entities=n_entities, n_relations=n_relations, width=width,
    )


def _time_embedding(ts: np.ndarray, width: int) -> np.ndarray:
    """Sinusoidal step embedding, rows per time value."""
    half = width // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = np.asarray(ts, dtype=np.float64)[:, None] * freqs[None, :]
    out = np.zeros((len(ts), width))
    out[:, :half] = np.sin(ang)
    out[:, half:2 * half] = np.cos(ang)
    return out


def _hidden(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> Tensor:
    """Hidden layer for (B, 3) corrupted token ids and (B,) step indices:
    tanh of the first dense layer over the three token embeddings and the
    step embedding; (B, h), taped when a tape is active."""
    xt = np.asarray(xt, dtype=np.int64).reshape(-1, N_POSITIONS)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    b = xt.shape[0]
    emb = nk.take_rows(params.token_emb, xt.reshape(-1))        # (3B, w)
    emb = nk.reshape(emb, b, 3 * params.width)
    x = nk.concat_cols(emb, Tensor(_time_embedding(ts, params.width)))
    return nk.tanh(nk.add(nk.matmul(x, nk.transpose(params.w1)), params.b1))


def denoise_x0_batch(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> Tensor:
    """Clean-sequence logits for a batch: (B, 3) corrupted token ids and (B,)
    step indices -> (3B, K) logits, rows grouped per sequence; taped."""
    h = _hidden(params, xt, ts)
    b = h.shape[0]
    logits = nk.add(nk.matmul(h, nk.transpose(params.w2)), params.b2)  # (B, 3K)
    logits = nk.reshape(logits, N_POSITIONS * b, params.vocab_size)
    mask = np.tile(params.role_mask(), (b, 1))
    return nk.add(logits, Tensor(mask))


def denoise_x0(params: DenoiserParams, x_t: NodeSequence, t: int) -> Tensor:
    """Logits for the clean sequence given one corrupted sequence; (3, K)."""
    return denoise_x0_batch(params, x_t.tokens[None, :], np.array([t]))


# ---------------------------------------------------------------------------
# Training loss
# ---------------------------------------------------------------------------

def diffusion_loss(schedule: DiffusionSchedule, params: DenoiserParams,
                   x0: NodeSequence, rng: np.random.Generator) -> Tensor:
    """Single-sample variational bound term: draws t uniform in [1, T] and x_t
    from the forward marginal, then scores the reverse step.

    For the absorbing chain the step KL collapses per masked position to
    -revert_prob * log p_hat(x_0 token); at t = 1 the revert probability is 1,
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
    logits = denoise_x0(params, x_t, t)
    probs = nk.softmax_rows(logits)
    picked = nk.gather_cols(probs, x0.tokens)
    return nk.neg(nk.sum_all(nk.mul(Tensor(weights.reshape(-1, 1)), nk.log(picked))))


def batch_loss(params: DenoiserParams, entropies: TokenEntropy,
               quad_tokens: np.ndarray, steps: int, mu: float,
               rng: np.random.Generator) -> Tensor:
    """Mean single-sample bound over a batch of (B, 3) clean token triples,
    with per-sequence entropy schedules; one batched denoiser call."""
    toks = np.asarray(quad_tokens, dtype=np.int64).reshape(-1, N_POSITIONS)
    b = toks.shape[0]
    h = entropies.entropy[toks]                                  # (B, 3)
    _, alpha = _schedule_arrays(h, steps, mu)                    # (T+1, B, 3)
    ts = rng.integers(1, steps + 1, size=b)
    rows_ix = np.arange(b)[:, None]
    cols_ix = np.arange(N_POSITIONS)[None, :]
    a_t = alpha[ts[:, None], rows_ix, cols_ix]
    a_prev = alpha[ts[:, None] - 1, rows_ix, cols_ix]
    keep = rng.random((b, N_POSITIONS)) < a_t
    xt = np.where(keep, toks, entropies.mask_token)
    denom = 1.0 - a_t
    revert = np.where(denom > 0.0, (a_prev - a_t) / np.where(denom > 0, denom, 1.0), 0.0)
    weights = np.where(xt == entropies.mask_token, revert, 0.0)

    logits = denoise_x0_batch(params, xt, ts)                    # (3B, K)
    probs = nk.softmax_rows(logits)
    picked = nk.gather_cols(probs, toks.reshape(-1))
    weighted = nk.mul(Tensor(weights.reshape(-1, 1)), nk.log(picked))
    return nk.mul(nk.constant(-1.0 / b), nk.sum_all(weighted))


# ---------------------------------------------------------------------------
# Reverse sampling / inference
# ---------------------------------------------------------------------------

def _tail_probs(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Predicted clean-tail distribution over entities for (B, 3) corrupted
    token ids and (B,) step indices; (B, |E|), untaped.

    Applies only rows 2K : 2K+|E| of the output layer (the tail position's
    entity logits). The role mask is exactly 0 there, so these logits equal
    the matching slice of denoise_x0_batch.
    """
    h = _hidden(params, xt, ts).data
    k = params.vocab_size
    cols = slice(2 * k, 2 * k + params.n_entities)
    probs = h @ params.w2.data[cols].T     # the logits, then softmax in place
    probs += params.b2.data[:, cols]
    if not np.all(np.isfinite(probs)):
        raise NumericError("tail logits contain non-finite values")
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def p_diff_batch(params: DenoiserParams, queries: np.ndarray, steps: int,
                 chains: int, rng: np.random.Generator) -> np.ndarray:
    """Candidate-entity distribution for (B, 2) [s, r] query rows -> (B, |E|):
    the mean, over `chains` reverse chains per query, of the predicted
    clean-tail distribution at the last step (t = 1).

    The chains run with the subject and relation clamped. From t = T down to
    1, each step draws `rng.random(B * chains)` for the reveals of masked
    tails and, if any tail reveals, another for the inverse-CDF picks, so
    results are deterministic given the generator. No draw depends on the
    denoiser, so the draws come first, and only rows that are read are then
    computed: a tail revealed at t > 1 is picked from its query's shared
    row [s, r, MASK] at t, and stays fixed; t = 1 evaluates each chain's own
    [s, r, tail] row.
    """
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    b = queries.shape[0]
    n_e = params.n_entities
    mask = params.vocab_size - 1
    rows = b * chains
    # the unknown tail's schedule is linear (see inference_schedule), shared
    # across queries: revert prob at t is (a[t-1]-a[t])/(1-a[t])
    a_tail = 1.0 - np.arange(steps + 1, dtype=np.float64) / steps
    reveal_t = np.zeros(rows, dtype=np.int64)     # 0: still masked
    u = np.empty(rows)
    for t in range(steps, 0, -1):
        masked = reveal_t == 0
        if not masked.any():
            break
        revert = (a_tail[t - 1] - a_tail[t]) / (1.0 - a_tail[t])
        do_revert = masked & (rng.random(rows) < revert)
        if do_revert.any():
            reveal_t[do_revert] = t
            u[do_revert] = rng.random(rows)[do_revert]

    query_of = np.repeat(np.arange(b), chains)
    x = np.empty((rows, N_POSITIONS), dtype=np.int64)
    x[:, 0] = queries[query_of, 0]
    x[:, 1] = n_e + queries[query_of, 1]
    x[:, 2] = mask
    early = np.flatnonzero(reveal_t > 1)  # picks at t = 1 are never read
    if early.size:
        # one shared row per (query, reveal step); x still holds [s, r, MASK]
        keys, slot = np.unique(query_of[early] * (steps + 1) + reveal_t[early],
                               return_inverse=True)
        query, step = np.divmod(keys, steps + 1)
        cum = _tail_probs(params, x[query * chains], step)
        np.cumsum(cum, axis=1, out=cum)
        x[early, 2] = (cum[slot] < u[early, None]).sum(axis=1).clip(0, n_e - 1)
    probs = _tail_probs(params, x, np.ones(rows))
    return probs.reshape(b, chains, n_e).mean(axis=1)
