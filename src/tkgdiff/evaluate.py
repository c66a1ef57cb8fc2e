"""Inference-time probability combination and time-filtered ranking metrics.

A model scores with the components whose parameters it holds: the DPCL
mixture under its mapping strategy (`p_dpcl`, the mean of the two heads'
softmaxes from dpcl.head_softmaxes), the diffusion-chain distribution
(GNDiff), or, with both, the average of the two. A model is ranked at the
history value `lam` it was trained at. Ranks are time-filtered: other
objects that are also true for the same (s, r, t) within the evaluated
split are removed, and ties break pessimistically (the ground truth ranks
behind equal-probability competitors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dpcl as dpcl_mod
from . import gndiff
from . import numkit as nk
from .corpus import QuadStore, build_periodic_index, check_lam, segments
from .dpcl import DpclParams, QueryBatch
from .errors import NumericError
from .gndiff import DenoiserParams

__all__ = ["Model", "RankReport", "p_dpcl", "ranks", "evaluate_split"]


@dataclass
class Model:
    """Everything evaluation needs from a trained run: its parameters and the
    config values they score with, the history value `lam` included. A
    component scores iff its parameters are set; to evaluate one component
    alone, replace the other's with None
    (`dataclasses.replace(model, denoiser=None)`)."""

    dpcl: DpclParams | None
    denoiser: DenoiserParams | None
    mapping_strategy: str
    steps: int
    chains: int
    lam: float


def p_dpcl(params: DpclParams, batch: QueryBatch, strategy: str) -> np.ndarray:
    """The distribution dpcl.ce_loss trains: the mean of the softmaxes of the
    two heads that `strategy` maps (dpcl.head_softmaxes), formed in place
    over the periodic head's rows in blocks of query rows. (B, |E|) rows
    sum to 1, and -log(2 p[gt]) is a query's term of the loss."""
    probs = dpcl_mod.head_softmaxes(params, batch, strategy)[0]
    b, n = len(batch), probs.shape[1]
    mixture, other = probs[:b], probs[b:]

    def mix(rows):
        m = mixture[rows]
        m += other[rows]
        m *= 0.5

    nk._run_chunks(mix, nk._row_blocks(b, n), b * n)
    return mixture


def ranks(p: np.ndarray, gt: np.ndarray,
          same_time: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """1-based (filtered, raw) ranks of each row's ground truth in (B, |E|)
    probabilities, with pessimistic tie-breaking. `same_time` holds (row,
    object) pairs: the objects also true at that row's (s, r, t), which the
    filtered rank removes from the competitors. Ranked in blocks of rows."""
    b, n = p.shape
    filtered, raw = np.empty(b, dtype=np.int64), np.empty(b, dtype=np.int64)
    competitors = nk._sorted_cells(same_time, n)

    def rank_rows(rows):
        own = np.arange(rows.stop - rows.start), gt[rows]
        values = p[rows]
        ahead = values >= values[own][:, None]
        ahead[own] = False
        raw[rows] = ahead.sum(axis=1) + 1
        ahead.reshape(-1)[nk._block_cells(competitors, rows, n) - rows.start * n] = False
        filtered[rows] = ahead.sum(axis=1) + 1

    nk._run_chunks(rank_rows, nk._row_blocks(b, n), b * n)
    return filtered, raw


@dataclass
class RankReport:
    """Per-query filtered ranks and the aggregate ranking metrics."""

    stratum: str
    ranks: list[int] = field(default_factory=list)
    raw_ranks: list[int] = field(default_factory=list)

    @property
    def mrr(self) -> float:
        return float(np.mean([1.0 / r for r in self.ranks])) if self.ranks else 0.0

    def hits(self, k: int) -> float:
        if not self.ranks:
            return 0.0
        return float(np.mean([r <= k for r in self.ranks]))


CHUNK = 256

_SCOPE_FOR_SPLIT = {
    "train": ("train",),
    "valid": ("train", "valid"),
    "test": ("train", "valid", "test"),
}


def _query_distributions(model: Model, batch: QueryBatch, seed: int) -> np.ndarray:
    """(B, |E|) candidate distribution per query from the model's components,
    the mean of both formed in place over DPCL's, and scanned once, in
    blocks of rows: a NaN would rank every gold answer first
    (NumericError)."""
    pd = pg = None
    if model.dpcl is not None:
        pd = p_dpcl(model.dpcl, batch, model.mapping_strategy)
    if model.denoiser is not None:
        queries = np.stack([batch.s_ids, batch.r_ids], axis=1)
        pg = gndiff.p_diff_batch(model.denoiser, queries, model.steps, model.chains,
                                 nk.rng_for(seed, 9))
    p = pg if pd is None else pd
    if pd is not None and pg is not None:
        p += pg
        p *= 0.5

    def scan(rows):
        if not np.isfinite(p[rows]).all():
            raise NumericError("candidate distributions contain non-finite values")

    nk._run_chunks(scan, nk._row_blocks(*p.shape), p.size)
    return p


def evaluate_split(model: Model, store: QuadStore, split: str, seed: int,
                   lam: float) -> dict[str, RankReport]:
    """Time-filtered rank reports for a split, keyed by stratum: "all",
    "new-events" and "periodic".

    It builds the periodic index it ranks with from the split and the splits
    before it (`_SCOPE_FOR_SPLIT`) at `lam`, which must equal `model.lam`,
    the value the model was trained at (ValueError otherwise).
    The split is scored in chunks of CHUNK queries, each with one
    QueryBatch, whose history lookup serves every component and the strata;
    the diffusion chains of the chunk that starts at query `start` are
    seeded with `seed + start`. Each chunk is ranked with one comparison
    against its ground-truth probabilities (see `ranks`); a query's same-time
    objects are one run of the split's facts sorted by (s, r, t) key, and it
    is a new event when its batch row is not periodic: its ground truth is
    none of its history pairs in the index. A stratum is a mask over the
    split's queries.

    The candidate distributions' matrix products are each one BLAS call
    over the chunk, on one thread (numkit's BLAS policy), and DPCL's two
    big ones run as a pair on numkit's two threads; their per-cell work,
    from the distances to the ranks, runs on numkit's chunk runner, in
    blocks of query rows on up to two threads. The results depend on
    neither: a product's bits do not depend on the thread it ran on, and a
    block's operations are those of the whole chunk. A model with neither
    component, a `lam` that is not positive and finite, or one other than
    the model's raises ValueError before any work is done, a non-finite
    distribution NumericError.
    """
    if model.dpcl is None and model.denoiser is None:
        raise ValueError("model has neither scoring parameters nor a denoiser")
    check_lam(lam)
    if lam != model.lam:
        raise ValueError(f"the model was trained at lambda {model.lam}, not {lam}")
    quads = store.split(split)
    index = build_periodic_index(store, lam, _SCOPE_FOR_SPLIT[split])
    # the split's facts sorted by (s, r, t) key: a query's same-time objects
    # are one run of them
    split_keys = index.key(quads[:, 0], quads[:, 1], quads[:, 3])
    by_key = np.argsort(split_keys, kind="stable")
    sorted_keys, sorted_objects = split_keys[by_key], quads[by_key, 2]

    n = len(quads)
    filtered, raw = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    new = np.empty(n, dtype=bool)
    for start in range(0, n, CHUNK):
        batch = QueryBatch.from_quads(quads[start:start + CHUNK], index)
        probs = _query_distributions(model, batch, seed + start)
        done = slice(start, start + len(batch))
        rows, pos = segments(sorted_keys, split_keys[done], split_keys[done] + 1)
        filtered[done], raw[done] = ranks(probs, batch.gt_ids, (rows, sorted_objects[pos]))
        new[done] = ~batch.periodic

    masks = {"all": np.ones(n, dtype=bool), "new-events": new, "periodic": ~new}
    return {name: RankReport(name, filtered[mask].tolist(), raw[mask].tolist())
            for name, mask in masks.items()}
