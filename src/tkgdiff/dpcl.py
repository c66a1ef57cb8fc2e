"""Dual-domain candidate scoring and its training losses.

A query (s, r, ?, t) gets one score per candidate object from each of two
heads. Both heads share one entity table; the periodic head adds the signed
history value and the non-periodic head subtracts it, and each adds a
distance between the query subject and each candidate. The mapping strategy
(STRATEGY_DISTANCES) names the space of each head's distance: the Poincare
ball or Euclidean space. The scored distribution is the mean of the two
heads' softmaxes (evaluate.p_dpcl); the cross-entropy objective is -log of
twice its ground-truth entry, and a supervised contrastive objective pulls
together query codes whose ground truth is / is not already in the history.

Both heads are one computation, `head_softmaxes`: their scores and
softmaxes fill one (2B, |E|) block in place, and the history term is a
sparse +-2 lam at the batch's history pairs. `ce_loss` tapes it as one
record with a closed-form backward, so no taped op of a training batch is
|E| wide; the taped chain it replaced is the test suite's reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry as geo
from . import numkit as nk
from .corpus import PeriodicIndex
from .errors import ConfigError, NumericError
from .numkit import Tensor

__all__ = [
    "STRATEGY_DISTANCES", "strategy_distances", "DpclParams", "QueryBatch",
    "param_shapes", "init_params", "head_softmaxes", "ce_loss", "supcon_loss",
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
        return Tensor(rng.uniform(-half, half, size=(n, dim)))

    def weight():
        return Tensor(rng.uniform(-bound, bound, size=(dim, 2 * dim)))

    return DpclParams(
        entity_emb=emb(n_entities), relation_emb=emb(n_relations),
        w_per=weight(), b_per=nk.zeros(1, dim),
        w_nonper=weight(), b_nonper=nk.zeros(1, dim),
        w_ctr=weight(), b_ctr=nk.zeros(1, dim),
    )


@dataclass
class QueryBatch:
    """Object-prediction queries with their history: the (row, object) pairs
    of the objects each query's (subject, relation) had before its time, each
    once per row (PeriodicIndex.history_pairs), the signed history value
    `lam` of those objects (every other object's is -lam), and the periodic /
    non-periodic label of the ground truth."""

    s_ids: np.ndarray       # (B,)
    r_ids: np.ndarray       # (B,)
    gt_ids: np.ndarray      # (B,)
    history: tuple[np.ndarray, np.ndarray]  # (rows, objects), unique per row
    lam: float
    periodic: np.ndarray    # (B,) bool: ground truth already in history

    def __len__(self) -> int:
        return len(self.s_ids)

    @classmethod
    def from_quads(cls, quads: np.ndarray, index: PeriodicIndex) -> "QueryBatch":
        """One history lookup for the batch; a query is periodic iff its
        ground truth is among its history pairs."""
        s, r, o, t = (quads[:, i].astype(np.int64) for i in range(4))
        rows, objects = index.history_pairs(s, r, t)
        periodic = np.zeros(len(quads), dtype=bool)
        periodic[rows[objects == o[rows]]] = True
        return cls(s_ids=s, r_ids=r, gt_ids=o, history=(rows, objects), lam=index.lam,
                   periodic=periodic)


def _query_input(params: DpclParams, batch: QueryBatch) -> tuple[Tensor, Tensor]:
    """Subject rows (B, d) and the code input s concat r (B, 2d); taped."""
    s_emb = nk.take_rows(params.entity_emb, batch.s_ids)
    r_emb = nk.take_rows(params.relation_emb, batch.r_ids)
    return s_emb, nk.concat_cols(s_emb, r_emb)


def _code(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """A query code tanh(W x + b), shape (B, d), from the code input x of
    _query_input; taped."""
    return nk.tanh(nk.add(nk.matmul(x, nk.transpose(w)), b))


def head_softmaxes(params: DpclParams, batch: QueryBatch,
                   strategy: str) -> tuple[np.ndarray, Callable[[np.ndarray], list]]:
    """Both heads' softmax rows in one (2B, |E|) block, the periodic head's
    over the first B rows and the non-periodic head's over the last B, and
    their backward. Untaped.

    A head's score is its affine-code match against the entity table, plus
    the subject-candidate distance of the kind `strategy` gives the head
    (strategy_distances; ConfigError for an unknown name), plus (periodic)
    or minus (non-periodic) the signed history value z = -lam + 2 lam H,
    where H marks the batch's history pairs. softmax(x + c) = softmax(x) for
    a per-row constant c, so each head adds only its +-2 lam at the history
    pairs, which are unique per row. The two codes make one product with the
    entity table, both distances come from one subject x entity
    squared-distance block (geometry.pairwise_sqdist), a kind both heads use
    is computed once, and the scores become softmax rows in place. The
    entity table's squared row norms are taken once, for the block and the
    ball gaps. A Poincare distance needs every entity row inside the ball
    (geometry.ball_gap, ValueError otherwise). The backward forms the
    distance gradient of the block's close pairs from their differences.

    `backward(g)` takes a (3B, |E|) array whose first 2B rows are the
    gradient of the block's scores and whose last B rows it overwrites, and
    returns the gradients of entity_emb, relation_emb, w_per, b_per,
    w_nonper and b_nonper.
    """
    kinds = strategy_distances(strategy)
    entities = params.entity_emb.data
    b, d = len(batch), entities.shape[1]
    # the codes, then the subject rows: the rows the backward's products pair
    # with the score and the squared-distance gradients
    rows_in = np.empty((3 * b, d))
    subjects = rows_in[2 * b:]
    np.take(entities, batch.s_ids, axis=0, out=subjects)
    x = np.concatenate([subjects, params.relation_emb.data[batch.r_ids]], axis=1)
    maps = ((params.w_per.data, params.b_per.data),
            (params.w_nonper.data, params.b_nonper.data))
    for k, (w, bias) in enumerate(maps):
        np.tanh(x @ w.T + bias, out=rows_in[k * b:(k + 1) * b])
    codes = rows_in[:2 * b]
    block = codes @ entities.T
    sqnorms = geo.row_sqnorms(entities)
    sqdist, (close_s, close_e) = geo.pairwise_sqdist(subjects, entities, sqnorms)
    gap_s = gap_e = None
    if "poincare" in kinds:
        gap = geo.ball_gap(sqnorms, "the entity table")
        gap_s, gap_e = gap[batch.s_ids], gap.T
    dist = {kind: geo.distance(kind, sqdist, gap_s, gap_e) for kind in dict.fromkeys(kinds)}
    heads = block[:b], block[b:]
    for head, kind in zip(heads, kinds):
        head += dist[kind][0]
    rows, objects = batch.history
    heads[0][rows, objects] += 2.0 * batch.lam
    heads[1][rows, objects] -= 2.0 * batch.lam
    block -= block.max(axis=1, keepdims=True)
    np.exp(block, out=block)
    block /= block.sum(axis=1, keepdims=True)

    def backward(g):
        g_dist: dict[str, np.ndarray] = {}
        for g_head, kind in zip((g[:b], g[b:2 * b]), kinds):
            g_dist[kind] = g_dist[kind] + g_head if kind in g_dist else g_head
        g_sq = g_gap = None
        for kind, g_kind in g_dist.items():
            g_sq_kind, g_gap_s, g_gap_e = dist[kind][1](g_kind)
            g_sq = g_sq_kind if g_sq is None else g_sq + g_sq_kind
            if g_gap_s is not None:
                g_gap = g_gap_s, g_gap_e
        # the close pairs' terms would cancel in the Gram form: they are
        # formed from their differences below
        g_close = g_sq[close_s, close_e]
        g_sq[close_s, close_e] = 0.0
        # block = codes entities^T and sqdist = |s|^2 + |e|^2 - 2 s e^T: with
        # -2 g_sq below the score gradient, one product with each side
        np.multiply(g_sq, -2.0, out=g[2 * b:])
        g_entities = g.T @ rows_in
        g_entities += 2.0 * g_sq.sum(axis=0)[:, None] * entities
        g_rows = g @ entities
        g_subjects = g_rows[2 * b:]
        g_subjects += 2.0 * g_sq.sum(axis=1, keepdims=True) * subjects
        g_pairs = 2.0 * g_close[:, None] * (subjects[close_s] - entities[close_e])
        np.add.at(g_subjects, close_s, g_pairs)
        np.subtract.at(g_entities, close_e, g_pairs)
        if g_gap is not None:   # gap = 1 - |x|^2
            g_subjects -= 2.0 * g_gap[0] * subjects
            g_entities -= 2.0 * g_gap[1].T * entities
        g_pre = g_rows[:2 * b]
        g_pre *= 1.0 - codes * codes
        g_x = g_pre[:b] @ maps[0][0] + g_pre[b:] @ maps[1][0]
        g_subjects += g_x[:, :d]
        np.add.at(g_entities, batch.s_ids, g_subjects)
        g_relations = np.zeros_like(params.relation_emb.data)
        np.add.at(g_relations, batch.r_ids, g_x[:, d:])
        grads = [g_entities, g_relations]
        for g_head in (g_pre[:b], g_pre[b:]):
            grads += [g_head.T @ x, g_head.sum(axis=0, keepdims=True)]
        return grads

    return block, backward


def ce_loss(params: DpclParams, batch: QueryBatch, strategy: str) -> Tensor:
    """-log(softmax(S_per)[gt] + softmax(S_nonper)[gt]) averaged over the
    batch, which is -log(2 p[gt]) for the mixture p that evaluate.p_dpcl
    ranks. The sum of two probabilities can exceed 1, so the loss can go
    below -log 2; that is the objective as defined.

    One taped record over the six scoring tensors (head_softmaxes), whose
    backward is the closed form: with q = P_per[gt] + P_nonper[gt], a head's
    score gradient is P[gt] / (B q) * (P - onehot(gt)). A ground truth with
    probability 0 in both heads raises NumericError.
    """
    probs, backward = head_softmaxes(params, batch, strategy)
    b = len(batch)
    rows, cols = np.arange(2 * b), np.tile(batch.gt_ids, 2)
    picked = probs[rows, cols]
    q = picked[:b] + picked[b:]
    if np.any(q <= 0.0):
        raise NumericError("a ground truth has probability 0 in both heads")
    loss = nk._wrap(np.array([[(-1.0 / b) * np.log(q).sum()]]))
    coef = picked / (b * np.tile(q, 2))

    def record_backward(g):
        scale = coef * g[0, 0]
        g_scores = np.empty((3 * b, probs.shape[1]))
        np.multiply(probs, scale[:, None], out=g_scores[:2 * b])
        g_scores[rows, cols] -= scale
        return backward(g_scores)

    inputs = (params.entity_emb, params.relation_emb, params.w_per, params.b_per,
              params.w_nonper, params.b_nonper)
    return nk._tape_record(loss, inputs, record_backward)


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
