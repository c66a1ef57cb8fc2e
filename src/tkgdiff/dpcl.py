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
sparse +-2 lam at the batch's history pairs. Each loss returns its value
and a closed-form backward on plain arrays: `ce_loss` over that block,
`supcon_loss` over the (B, B) similarities of the batch's query codes. The
taped chains they replaced are the test suite's reference.
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
    shapes = param_shapes(n_entities, n_relations, dim)
    half, bound = 0.5 / np.sqrt(dim), np.sqrt(6.0 / (3 * dim))

    def uniform(name, limit):
        return Tensor(rng.uniform(-limit, limit, size=shapes[name]))

    return DpclParams(
        entity_emb=uniform("entity_emb", half), relation_emb=uniform("relation_emb", half),
        w_per=uniform("w_per", bound), b_per=nk.zeros(*shapes["b_per"]),
        w_nonper=uniform("w_nonper", bound), b_nonper=nk.zeros(*shapes["b_nonper"]),
        w_ctr=uniform("w_ctr", bound), b_ctr=nk.zeros(*shapes["b_ctr"]),
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


def head_softmaxes(params: DpclParams, batch: QueryBatch,
                   strategy: str) -> tuple[np.ndarray, Callable[[np.ndarray], dict]]:
    """Both heads' softmax rows in one (2B, |E|) block, the periodic head's
    over the first B rows and the non-periodic head's over the last B, and
    their backward.

    A head's score is its affine-code match against the entity table, plus
    the subject-candidate distance of the kind `strategy` gives the head
    (strategy_distances; ConfigError for an unknown name), plus (periodic)
    or minus (non-periodic) the signed history value z = -lam + 2 lam H,
    where H marks the batch's history pairs. softmax(x + c) = softmax(x) for
    a per-row constant c, so each head adds only its +-2 lam at the history
    pairs, which are unique per row. The two codes make one product with the
    entity table, both distances come from one subject x entity
    squared-distance expansion over the distinct subjects
    (geometry.pairwise_sqdist), and the entity table's squared row norms are
    taken once, for the expansion and the ball gaps. A Poincare distance
    needs every entity row inside the ball (geometry.ball_gap, ValueError
    otherwise).

    Each product is one BLAS call over the whole batch, and the two big
    ones of each direction run as a pair on numkit's two threads
    (numkit._matmul_beside): the codes' product with the entity table
    beside the squared-distance expansion, and in the backward the entity
    table's gradient product beside the rows'. The per-cell work runs in
    blocks of query rows on numkit's chunk runner (numkit._row_blocks,
    numkit._run_chunks): a block gathers its rows of the expansion, derives
    each distance kind its heads use once, adds it and the history terms
    to both heads' rows, and turns them into softmax rows in place. So the
    forward keeps the expansion, not the (B, |E|) squared distances or any
    distance, and a block's temporaries are block-sized. The bits do not
    depend on the blocks: every per-cell operation is the same, and a
    reduction along a row reads that row only.

    `backward(g)` takes a (3B, |E|) array whose first 2B rows are the
    gradient of the block's scores and whose last B rows it overwrites, and
    returns the gradients of entity_emb, relation_emb, w_per, b_per,
    w_nonper and b_nonper, by name. Its blocks recompute the squared
    distances and what each distance derives from them
    (geometry.distance_backward), write the squared-distance gradient to
    the last B rows of `g`, and take its row sums; the column sums, of that
    gradient and of the gaps' terms, are whole-array reductions, and the
    close pairs' gradient is formed from their differences.
    """
    kinds = strategy_distances(strategy)
    entities = params.entity_emb.data
    (n, d), b = entities.shape, len(batch)
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
    sqnorms = geo.row_sqnorms(entities)
    gap_s = gap_e = None
    if "poincare" in kinds:
        gap = geo.ball_gap(sqnorms, "the entity table")
        gap_s, gap_e = gap[batch.s_ids], gap.T
    block, (expansion, inverse, (close_s, close_e)) = nk._matmul_beside(
        codes, entities.T, np.empty((2 * b, n)),
        lambda: geo.pairwise_sqdist(subjects, entities, sqnorms))
    heads, flat = block.reshape(2, b, n), block.reshape(-1)
    history = nk._sorted_cells(batch.history, n)
    blocks = nk._row_blocks(b, n)

    def gather(rows):
        """The block's squared distances and subject gaps."""
        return expansion[inverse[rows]], None if gap_s is None else gap_s[rows]

    def forward(rows):
        sq, gap_rows = gather(rows)
        h = heads[:, rows]
        dist = {kind: geo.distance(kind, sq, gap_rows, gap_e) for kind in dict.fromkeys(kinds)}
        for head, kind in zip(h, kinds):
            head += dist[kind]
        # a history pair's flat position in the periodic head, and b n
        # further on in the non-periodic one
        at = nk._block_cells(history, rows, n)
        flat[at] += 2.0 * batch.lam
        flat[at + b * n] -= 2.0 * batch.lam
        h -= h.max(axis=2, keepdims=True)
        np.exp(h, out=h)
        h /= h.sum(axis=2, keepdims=True)

    nk._run_chunks(forward, blocks, 2 * b * n)

    def backward(g):
        g_heads, g_sq = g[:2 * b].reshape(2, b, n), g[2 * b:]
        sq_sums = np.empty((b, 1))
        g_close = np.empty(len(close_s))
        gap_terms = gap_sums = None
        if gap_s is not None:
            gap_terms, gap_sums = np.empty((b, n)), np.empty((b, 1))

        def backward_rows(rows):
            sq, gap_rows = gather(rows)
            g_dist: dict[str, np.ndarray] = {}
            for g_head, kind in zip(g_heads[:, rows], kinds):
                g_dist[kind] = g_dist[kind] + g_head if kind in g_dist else g_head
            g_sq_rows = g_sq[rows]
            for k, (kind, g_kind) in enumerate(g_dist.items()):
                g_sq_kind, terms = geo.distance_backward(kind, g_kind, sq, gap_rows, gap_e)
                if k == 0:
                    g_sq_rows[...] = g_sq_kind
                else:
                    g_sq_rows += g_sq_kind
                if terms is not None:
                    gap_terms[rows] = terms
                    gap_sums[rows] = terms.sum(axis=1, keepdims=True)
            # the close pairs' terms would cancel in the Gram form: they are
            # formed from their differences below
            lo, hi = np.searchsorted(close_s, (rows.start, rows.stop))
            at = close_s[lo:hi] - rows.start, close_e[lo:hi]
            g_close[lo:hi] = g_sq_rows[at]
            g_sq_rows[at] = 0.0
            sq_sums[rows] = g_sq_rows.sum(axis=1, keepdims=True)

        nk._run_chunks(backward_rows, blocks, 2 * b * n)
        # block = codes entities^T and sqdist = |s|^2 + |e|^2 - 2 s e^T: with
        # -2 g_sq below the score gradient, one product with each side
        g_sq_cols = g_sq.sum(axis=0)
        g_sq *= -2.0
        # the entity table's product is taken transposed, (d, 3B) x (3B, |E|):
        # as (|E|, 3B) x (3B, d), OpenBLAS packs a (3B, |E|) panel (11 MB at
        # ICEWS14 size) into the buffer of whichever call of the pair starts
        # second, so over a run both of its buffers come to hold one
        g_entities_t, g_rows = nk._matmul_beside(rows_in.T, g, np.empty((d, n)),
                                                 lambda: g @ entities)
        g_entities = 2.0 * g_sq_cols[:, None] * entities
        g_entities += g_entities_t.T
        g_subjects = g_rows[2 * b:]
        g_subjects += 2.0 * sq_sums * subjects
        g_pairs = 2.0 * g_close[:, None] * (subjects[close_s] - entities[close_e])
        np.add.at(g_subjects, close_s, g_pairs)
        np.subtract.at(g_entities, close_e, g_pairs)
        if gap_terms is not None:   # gap = 1 - |x|^2
            g_gap_s = -gap_sums / gap_s
            g_gap_e = -gap_terms.sum(axis=0, keepdims=True) / gap_e
            g_subjects -= 2.0 * g_gap_s * subjects
            g_entities -= 2.0 * g_gap_e.T * entities
        g_pre = g_rows[:2 * b]
        g_pre *= 1.0 - codes * codes
        g_x = g_pre[:b] @ maps[0][0] + g_pre[b:] @ maps[1][0]
        g_subjects += g_x[:, :d]
        np.add.at(g_entities, batch.s_ids, g_subjects)
        g_relations = np.zeros_like(params.relation_emb.data)
        np.add.at(g_relations, batch.r_ids, g_x[:, d:])
        grads = {"entity_emb": g_entities, "relation_emb": g_relations}
        for head, g_head in (("per", g_pre[:b]), ("nonper", g_pre[b:])):
            grads[f"w_{head}"] = g_head.T @ x
            grads[f"b_{head}"] = g_head.sum(axis=0, keepdims=True)
        return grads

    return block, backward


def ce_loss(params: DpclParams, batch: QueryBatch,
            strategy: str) -> tuple[float, Callable[[float], dict]]:
    """-log(softmax(S_per)[gt] + softmax(S_nonper)[gt]) averaged over the
    batch, which is -log(2 p[gt]) for the mixture p that evaluate.p_dpcl
    ranks, and its backward. The sum of two probabilities can exceed 1, so
    the loss can go below -log 2; that is the objective as defined.

    `backward(scale)` gives the gradient of scale x loss for the six scoring
    tensors (head_softmaxes), by name. With q = P_per[gt] + P_nonper[gt], a
    head's score gradient is scale P[gt] / (B q) * (P - onehot(gt)). A
    ground truth with probability 0 in both heads raises NumericError.
    """
    probs, backward = head_softmaxes(params, batch, strategy)
    b = len(batch)
    rows, cols = np.arange(2 * b), np.tile(batch.gt_ids, 2)
    picked = probs[rows, cols]
    q = picked[:b] + picked[b:]
    if np.any(q <= 0.0):
        raise NumericError("a ground truth has probability 0 in both heads")
    coef = picked / (b * np.tile(q, 2))

    def loss_backward(scale):
        coef_scaled = coef * scale
        g_scores = np.empty((3 * b, probs.shape[1]))
        np.multiply(probs, coef_scaled[:, None], out=g_scores[:2 * b])
        g_scores[rows, cols] -= coef_scaled
        return backward(g_scores)

    return float((-1.0 / b) * np.log(q).sum()), loss_backward


def supcon_loss(params: DpclParams, batch: QueryBatch,
                tau: float) -> tuple[float, Callable[[float], dict]]:
    """Supervised contrastive loss over unit-normalized query codes (Khosla
    et al. 2020), and its backward.

    A query's code is c = tanh(W_ctr [s; r] + b_ctr), and z = c / |c|. With
    the similarities S = z z^T / tau, an anchor's term is the mean over its
    same-label partners p of -(S_ap - log sum_{k != a} exp(S_ak)); anchors
    with no same-label partner contribute nothing. Averaged over the batch.
    The exponentials are of the unshifted similarities, so a temperature
    that overflows them gives a NaN loss, which engine.train refuses. A zero
    code, or a denominator that is not positive, raises NumericError.

    `backward(scale)` gives the gradient of scale x loss for entity_emb,
    relation_emb, w_ctr and b_ctr, by name.
    """
    entities, relations = params.entity_emb.data, params.relation_emb.data
    w = params.w_ctr.data
    n, d = len(batch), entities.shape[1]
    x = np.concatenate([entities[batch.s_ids], relations[batch.r_ids]], axis=1)
    code = x @ w.T
    code += params.b_ctr.data
    np.tanh(code, out=code)
    norms = np.sqrt((code * code).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise NumericError("a contrastive query code is zero")
    z = code / norms
    sim = (1.0 / tau) * (z @ z.T)
    off_diag = 1.0 - np.eye(n)
    exp_sim = np.exp(sim) * off_diag
    denom = exp_sim.sum(axis=1, keepdims=True)
    if np.any(denom <= 0.0):
        raise NumericError("a contrastive denominator is not positive")

    same = (batch.periodic[:, None] == batch.periodic[None, :]) & (off_diag > 0)
    pos_count = same.sum(axis=1, keepdims=True)
    weights = same / np.maximum(pos_count, 1)
    loss = (-1.0 / n) * ((sim - np.log(denom)) * weights).sum()

    def backward(scale):
        # the rows of `weights` sum to 1 or 0: d loss / d sim
        g_sim = weights * (scale * (-1.0 / n))
        g_sim -= (g_sim.sum(axis=1, keepdims=True) / denom) * exp_sim
        g_sim *= 1.0 / tau
        g_z = (g_sim + g_sim.T) @ z
        g_pre = g_z - z * (g_z * z).sum(axis=1, keepdims=True)
        g_pre /= norms
        g_pre *= 1.0 - code * code
        g_x = g_pre @ w
        g_entities, g_relations = np.zeros_like(entities), np.zeros_like(relations)
        np.add.at(g_entities, batch.s_ids, g_x[:, :d])
        np.add.at(g_relations, batch.r_ids, g_x[:, d:])
        return {"entity_emb": g_entities, "relation_emb": g_relations,
                "w_ctr": g_pre.T @ x, "b_ctr": g_pre.sum(axis=0, keepdims=True)}

    return float(loss), backward
