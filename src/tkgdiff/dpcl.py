"""Dual-domain candidate scoring and its training losses.

A query (s, r, ?, t) gets one score per candidate object from each of two
heads. Both heads share one entity table; the periodic head adds the signed
history value and the non-periodic head subtracts it, and each adds a
distance between the query subject and each candidate. The mapping strategy
(STRATEGY_DISTANCES) names the space of each head's distance: the Poincare
ball or Euclidean space. `mixture` is the scored distribution, the mean of
the two heads' softmaxes; the cross-entropy objective is -log of twice its
ground-truth entry, and a supervised contrastive objective pulls together
query codes whose ground truth is / is not already in the history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import numkit as nk
from .corpus import PeriodicIndex
from .errors import ConfigError, DimensionError
from .numkit import Tensor

__all__ = [
    "STRATEGY_DISTANCES", "strategy_distances", "DpclParams", "QueryBatch",
    "param_shapes", "init_params", "head_scores", "mixture", "ce_loss",
    "supcon_loss",
]

STRATEGY_DISTANCES = {
    "hyp/euc": ("poincare", "euclidean"),
    "euc/hyp": ("euclidean", "poincare"),
    "hyp/hyp": ("poincare", "poincare"),
    "euc/euc": ("euclidean", "euclidean"),
}


def strategy_distances(name: str) -> tuple[str, str]:
    """Distance kinds feeding the (periodic, non-periodic) heads. `name` is
    one of the STRATEGY_DISTANCES keys, spelled exactly."""
    if name not in STRATEGY_DISTANCES:
        raise ConfigError(f"unknown mapping strategy '{name}'; "
                          f"expected one of {sorted(STRATEGY_DISTANCES)}")
    return STRATEGY_DISTANCES[name]


@dataclass
class DpclParams:
    """Trainable tensors: entity/relation tables, the two affine score maps,
    and the contrastive query projection."""

    entity_emb: Tensor      # (|E|, d)
    relation_emb: Tensor    # (|R|, d)
    w_per: Tensor           # (d, 2d)
    b_per: Tensor           # (1, d)
    w_nonper: Tensor        # (d, 2d)
    b_nonper: Tensor        # (1, d)
    w_ctr: Tensor           # (d, 2d)
    b_ctr: Tensor           # (1, d)

    def named(self) -> dict[str, Tensor]:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def param_shapes(n_entities: int, n_relations: int, dim: int) -> dict[str, tuple[int, int]]:
    """The shape of each DpclParams tensor for this vocabulary and width."""
    weight, bias = (dim, 2 * dim), (1, dim)
    return {"entity_emb": (n_entities, dim), "relation_emb": (n_relations, dim),
            "w_per": weight, "b_per": bias, "w_nonper": weight, "b_nonper": bias,
            "w_ctr": weight, "b_ctr": bias}


def init_params(n_entities: int, n_relations: int, dim: int,
                rng: np.random.Generator) -> DpclParams:
    """Embeddings start well inside the unit ball; affine maps use a fan-based
    uniform range; biases start at zero."""
    half = 0.5 / np.sqrt(dim)
    bound = np.sqrt(6.0 / (3 * dim))

    def emb(n):
        return Tensor(rng.uniform(-half, half, size=(n, dim)), copy=False)

    def weight():
        return Tensor(rng.uniform(-bound, bound, size=(dim, 2 * dim)), copy=False)

    return DpclParams(
        entity_emb=emb(n_entities), relation_emb=emb(n_relations),
        w_per=weight(), b_per=nk.zeros(1, dim),
        w_nonper=weight(), b_nonper=nk.zeros(1, dim),
        w_ctr=weight(), b_ctr=nk.zeros(1, dim),
    )


@dataclass
class QueryBatch:
    """Object-prediction queries with their per-entity signed history values
    and the periodic / non-periodic label of the ground truth."""

    s_ids: np.ndarray       # (B,)
    r_ids: np.ndarray       # (B,)
    gt_ids: np.ndarray      # (B,)
    z_rows: np.ndarray      # (B, |E|), entries in {+lam, -lam}
    periodic: np.ndarray    # (B,) bool: ground truth already in history

    def __len__(self) -> int:
        return len(self.s_ids)

    @classmethod
    def from_quads(cls, quads: np.ndarray, index: PeriodicIndex) -> "QueryBatch":
        """The z rows are -lam with +lam scattered at the batch's history
        pairs."""
        s, r, o, t = (quads[:, i].astype(np.int64) for i in range(4))
        z = np.full((len(quads), index.n_entities), -index.lam)
        z[index.history_pairs(s, r, t)] = index.lam
        periodic = z[np.arange(len(quads)), o] > 0
        return cls(s_ids=s, r_ids=r, gt_ids=o, z_rows=z, periodic=periodic)


def _query_input(params: DpclParams, batch: QueryBatch) -> tuple[Tensor, Tensor]:
    """Subject rows (B, d) and the code input s concat r (B, 2d); taped."""
    s_emb = nk.take_rows(params.entity_emb, batch.s_ids)
    r_emb = nk.take_rows(params.relation_emb, batch.r_ids)
    return s_emb, nk.concat_cols(s_emb, r_emb)


def _code(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A query code tanh(W x + b), shape (B, d), from the code input x of
    _query_input; taped."""
    return nk.tanh(nk.add(nk.matmul(x, nk.transpose(w)), b))


def head_scores(params: DpclParams, batch: QueryBatch, strategy: str) -> tuple[Tensor, Tensor]:
    """(periodic, non-periodic) dependency scores per candidate, each
    (B, |E|); taped.

    A head's score is its affine-code match against the entity table, plus
    (periodic) or minus (non-periodic) the signed history row, plus the
    subject-candidate distance of the kind `strategy` gives the head
    (strategy_distances; ConfigError for an unknown name). Both distances
    come from one subject x entity squared-distance block, one matrix
    product over the batch's distinct subjects (geometry.pairwise_sqdist),
    and a kind both heads use is computed once. A Poincare distance needs
    every entity row inside the ball (geometry.poincare_from_sqdist).
    """
    kinds = strategy_distances(strategy)
    entities = params.entity_emb
    s_emb, x = _query_input(params, batch)
    sqdist = geo.pairwise_sqdist(s_emb, entities)
    dist = {kind: geo.poincare_from_sqdist(sqdist, s_emb, entities) if kind == "poincare"
            else geo.euclidean_from_sqdist(sqdist)
            for kind in dict.fromkeys(kinds)}
    entities_t = nk.transpose(entities)
    z = Tensor(batch.z_rows)

    def head(w, b, history, kind):
        affine = nk.matmul(_code(x, w, b), entities_t)
        return nk.add(history(affine, z), dist[kind])

    return (head(params.w_per, params.b_per, nk.add, kinds[0]),
            head(params.w_nonper, params.b_nonper, nk.sub, kinds[1]))


def _softmax_sum(s_per: Tensor, s_nonper: Tensor) -> Tensor:
    """softmax(S_per) + softmax(S_nonper), (B, |E|); taped."""
    if s_per.shape != s_nonper.shape:
        raise DimensionError(f"score shapes differ: {s_per.shape} vs {s_nonper.shape}")
    return nk.add(nk.softmax_rows(s_per), nk.softmax_rows(s_nonper))


def mixture(s_per: Tensor, s_nonper: Tensor) -> Tensor:
    """The scored distribution 0.5 * (softmax(S_per) + softmax(S_nonper)),
    (B, |E|) rows that sum to 1; taped."""
    return nk.mul(nk.constant(0.5), _softmax_sum(s_per, s_nonper))


def ce_loss(s_per: Tensor, s_nonper: Tensor, gt_ids) -> Tensor:
    """-log(2 * mixture[gt]) = -log(softmax(S_per)[gt] + softmax(S_nonper)[gt]),
    averaged over the batch, read from the un-halved sum of the two
    softmaxes. The sum of two probabilities can exceed 1, so the loss can go
    below -log 2; that is the objective as defined."""
    per_query = nk.log(nk.gather_cols(_softmax_sum(s_per, s_nonper), gt_ids))
    batch = s_per.shape[0]
    return nk.mul(nk.constant(-1.0 / batch), nk.sum_all(per_query))


def supcon_loss(params: DpclParams, batch: QueryBatch, tau: float) -> Tensor:
    """Supervised contrastive loss over unit-normalized query codes.

    Anchors attract batch members with the same periodic label; anchors with
    no same-label partner contribute nothing. Averaged over the batch.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    n = len(batch)
    if n < 2:
        raise ConfigError("supcon_loss needs at least 2 queries in the batch")
    code = _code(_query_input(params, batch)[1], params.w_ctr, params.b_ctr)
    norms = nk.sqrt(nk.sum_cols(nk.mul(code, code)))
    z = nk.div(code, norms)
    sim = nk.mul(nk.constant(1.0 / tau), nk.matmul(z, nk.transpose(z)))

    off_diag = 1.0 - np.eye(n)
    exp_sim = nk.mul(nk.exp(sim), Tensor(off_diag))
    log_denom = nk.log(nk.sum_cols(exp_sim))            # (B, 1)

    same = (batch.periodic[:, None] == batch.periodic[None, :]) & (off_diag > 0)
    pos_count = same.sum(axis=1)
    weights = np.where(same, 1.0, 0.0)
    nonzero = pos_count > 0
    weights[nonzero] = weights[nonzero] / pos_count[nonzero, None]

    log_prob = nk.sub(sim, log_denom)                   # broadcast over columns
    total = nk.sum_all(nk.mul(log_prob, Tensor(weights)))
    return nk.mul(nk.constant(-1.0 / n), total)
