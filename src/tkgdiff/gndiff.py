"""Absorbing-state discrete diffusion over (subject, relation, object) token
triples.

Forward corruption masks each position independently; a token survives t steps
with probability alpha_bar[t] from an entropy-informed schedule (rarer tokens
mask earlier, so the reverse process reveals common tokens first). The reverse
process predicts the clean sequence and combines it with the analytic
posterior, which for the absorbing chain collapses to: unmasked positions stay
put, masked positions revert to a predicted token with probability
(alpha_bar[t-1] - alpha_bar[t]) / (1 - alpha_bar[t]).

Each position of a clean sequence holds tokens of one role: an entity at the
subject and tail, a relation in between, never the mask. So the denoiser
predicts each position over its role's tokens only, with one block of output
rows per role, and the training loss is a cross-entropy per role block.

The denoiser and the loss compute on plain arrays, each with its closed-form
backward: `batch_loss` chains the cross-entropy's backward into the
denoiser's (`denoise_x0_batch`) and returns the gradient of every denoiser
tensor. The taped chain of ops is the test suite's reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkit as nk
from .corpus import TokenEntropy
from .errors import NumericError
from .numkit import Tensor

__all__ = [
    "N_POSITIONS", "DenoiserParams", "param_shapes", "init_denoiser",
    "denoise_x0_batch", "batch_loss", "p_diff_batch",
]

N_POSITIONS = 3


def _schedule_arrays(h: np.ndarray, steps: int, mu: float):
    """Survival probabilities for token entropies h, shape (T+1, ..., n):
    1 - t/T - G(t) * h_tilde with G(t) = mu sin(pi t / T) and
    h_tilde = 1 - mean(h)/h, confined to [0, 1]. The t=0 and t=T endpoints
    are exactly 1 and 0 (sin vanishes there; float sin(pi) does not, so they
    are pinned explicitly). The clip alone is non-increasing in t: each curve
    runs from 1 to 0 and is concave, convex or linear, so it rises only above
    1 or below 0; where such a rise meets 1 or 0, consecutive steps differ by
    about pi^2 / T^3, far above rounding for T below about 10^5.
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
    clamped = np.clip(raw, 0.0, 1.0)
    clamped[0] = 1.0
    clamped[steps] = 0.0
    return clamped


# ---------------------------------------------------------------------------
# Denoiser
# ---------------------------------------------------------------------------

@dataclass
class DenoiserParams:
    """Token embeddings plus a two-layer tanh perceptron producing logits for
    the clean sequence, each position over the tokens of its role. The output
    rows come in blocks: subject entities, relations, then tail entities
    (`role_blocks`). A clean token's output column is its combined-vocabulary
    id, plus |E|+|R| at the tail position."""

    token_emb: Tensor   # (K, w)
    w1: Tensor          # (h, 4w): 3 token embeddings + time embedding
    b1: Tensor          # (1, h)
    w2: Tensor          # (2|E|+|R|, h): subject, relation, tail blocks
    b2: Tensor          # (1, 2|E|+|R|)
    n_entities: int
    n_relations: int
    width: int

    @property
    def vocab_size(self) -> int:
        return self.n_entities + self.n_relations + 1

    def named(self) -> dict[str, Tensor]:
        return {f: getattr(self, f)
                for f in ("token_emb", "w1", "b1", "w2", "b2")}

    def role_blocks(self) -> tuple[slice, slice, slice]:
        """Output columns of the subject, relation and tail positions."""
        e, r = self.n_entities, self.n_relations
        return slice(0, e), slice(e, e + r), slice(e + r, 2 * e + r)


def param_shapes(n_entities: int, n_relations: int, width: int) -> dict[str, tuple[int, int]]:
    """The shape of each DenoiserParams tensor for this vocabulary and width:
    K = |E|+|R|+1 token rows, a hidden layer as wide as the embeddings, and
    2|E|+|R| output rows."""
    k, n_out = n_entities + n_relations + 1, 2 * n_entities + n_relations
    return {"token_emb": (k, width), "w1": (width, 4 * width), "b1": (1, width),
            "w2": (n_out, width), "b2": (1, n_out)}


def init_denoiser(n_entities: int, n_relations: int, width: int,
                  rng: np.random.Generator) -> DenoiserParams:
    shapes = param_shapes(n_entities, n_relations, width)

    def uniform(name, fan):
        return Tensor(rng.uniform(-1.0, 1.0, size=shapes[name]) * np.sqrt(3.0 / fan))

    return DenoiserParams(
        token_emb=uniform("token_emb", width),
        w1=uniform("w1", 4 * width), b1=nk.zeros(*shapes["b1"]),
        w2=uniform("w2", width), b2=nk.zeros(*shapes["b2"]),
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


def _hidden(params: DenoiserParams, xt: np.ndarray,
            ts: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], dict]]:
    """Hidden layer for (B, 3) corrupted token ids and (B,) step indices:
    tanh of the first dense layer over the three token embeddings and the
    step embedding, (B, h), and its backward, which maps the layer's
    gradient to those of token_emb, w1 and b1, by name."""
    xt = np.asarray(xt, dtype=np.int64).reshape(-1, N_POSITIONS)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    table, w1 = params.token_emb.data, params.w1.data
    b, width = xt.shape[0], params.width
    x = np.concatenate([table[xt].reshape(b, N_POSITIONS * width),
                        _time_embedding(ts, width)], axis=1)
    h = x @ w1.T
    h += params.b1.data
    np.tanh(h, out=h)

    def backward(g):
        g_pre = g * (1.0 - h * h)
        g_emb = (g_pre @ w1)[:, :N_POSITIONS * width].reshape(-1, width)
        g_table = np.zeros_like(table)
        np.add.at(g_table, xt.reshape(-1), g_emb)
        return {"token_emb": g_table, "w1": g_pre.T @ x,
                "b1": g_pre.sum(axis=0, keepdims=True)}

    return h, backward


def denoise_x0_batch(params: DenoiserParams, xt: np.ndarray,
                     ts: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], dict]]:
    """Clean-sequence logits for a batch: (B, 3) corrupted token ids and (B,)
    step indices -> (B, 2|E|+|R|) logits, one row per sequence holding the
    subject, relation and tail blocks (`DenoiserParams.role_blocks`), and
    their backward, which maps the logits' gradient to those of the five
    denoiser tensors, by name. The output product reads w2 transposed in
    place, and its gradient comes out C-ordered."""
    h, hidden_backward = _hidden(params, xt, ts)
    w2 = params.w2.data
    logits = h @ w2.T
    logits += params.b2.data

    def backward(g):
        grads = hidden_backward(g @ w2)
        grads["w2"] = g.T @ h
        grads["b2"] = g.sum(axis=0, keepdims=True)
        return grads

    return logits, backward


# ---------------------------------------------------------------------------
# Training loss
# ---------------------------------------------------------------------------

def batch_loss(params: DenoiserParams, entropies: TokenEntropy,
               quad_tokens: np.ndarray, steps: int, mu: float,
               rng: np.random.Generator) -> tuple[float, Callable[[float], dict]]:
    """Mean single-sample bound over a batch of (B, 3) clean token triples,
    with per-sequence entropy schedules; one batched denoiser call. Returns
    the loss and its backward: `backward(scale)` gives the gradient of
    scale x loss for each denoiser tensor, by name."""
    toks = np.asarray(quad_tokens, dtype=np.int64).reshape(-1, N_POSITIONS)
    xt, ts, weights = _corrupt(entropies, toks, steps, mu, rng)
    logits, logits_backward = denoise_x0_batch(params, xt, ts)    # (B, 2|E|+|R|)
    cols = toks + np.array([0, 0, params.n_entities + params.n_relations])
    loss, loss_backward = _role_cross_entropy(logits, params.role_blocks(), cols, weights)
    return loss, lambda scale: logits_backward(loss_backward(scale))


def _corrupt(entropies: TokenEntropy, toks: np.ndarray, steps: int, mu: float,
             rng: np.random.Generator):
    """One forward draw per (B, 3) clean triple: a step t uniform in [1, T],
    x_t from its per-sequence schedule, and each position's loss weight, the
    revert probability where x_t is masked and 0 elsewhere. Returns (x_t, t,
    weights)."""
    b = toks.shape[0]
    h = entropies.entropy[toks]                                  # (B, 3)
    alpha = _schedule_arrays(h, steps, mu)                       # (T+1, B, 3)
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
    return xt, ts, weights


def _role_cross_entropy(logits: np.ndarray, blocks: tuple[slice, ...], cols: np.ndarray,
                        weights: np.ndarray) -> tuple[float, Callable[[float], np.ndarray]]:
    """-(1/B) sum of w * log softmax(block)[col] over the (B, 3) positions,
    each position's softmax over its own block of `logits`, and its
    backward, which maps a scale to the gradient of scale x the loss with
    respect to the logits.

    Only positions with a nonzero weight are computed. The log-probability is
    the shifted logit less the log of the block's sum, so a clean token whose
    probability underflows still gives its exact, finite term. Backward puts
    scale * (w/B) * (softmax - onehot) into each computed row's block.
    """
    b = logits.shape[0]
    terms = np.zeros(cols.shape)
    parts = []
    for pos, block in enumerate(blocks):
        rows = np.flatnonzero(weights[:, pos])
        if rows.size == 0:
            continue
        at = (np.arange(rows.size), cols[rows, pos] - block.start)
        shifted = logits[rows, block]
        shifted -= shifted.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        total = probs.sum(axis=1)
        probs /= total[:, None]
        terms[rows, pos] = weights[rows, pos] * (shifted[at] - np.log(total))
        parts.append((rows, block, at, probs, weights[rows, pos] / b))

    def backward(scale):
        grad = np.zeros_like(logits)
        for rows, block, at, probs, w_over_b in parts:
            w_scaled = scale * w_over_b
            d = probs * w_scaled[:, None]
            d[at] -= w_scaled
            grad[rows, block] = d
        return grad

    return float((-1.0 / b) * terms.sum()), backward


# ---------------------------------------------------------------------------
# Reverse sampling / inference
# ---------------------------------------------------------------------------

def _tail_probs(params: DenoiserParams, xt: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Predicted clean-tail distribution over entities for (B, 3) corrupted
    token ids and (B,) step indices; (B, |E|).

    Applies only the tail block of the output layer, rows
    |E|+|R| : 2|E|+|R|; these logits are that block of denoise_x0_batch.
    """
    h = _hidden(params, xt, ts)[0]
    cols = params.role_blocks()[2]
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
    # the unknown tail takes the mean entropy of s and r, so its normalized
    # entropy term vanishes and its survival is linear, shared across
    # queries: revert prob at t is (a[t-1]-a[t])/(1-a[t])
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
