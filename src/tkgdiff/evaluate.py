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
from .corpus import QuadStore, build_periodic_index, segments
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
    two heads that `strategy` maps (dpcl.head_softmaxes, untaped). (B, |E|)
    rows sum to 1, and -log(2 p[gt]) is a query's term of the loss."""
    probs = dpcl_mod.head_softmaxes(params, batch, strategy)[0]
    b = len(batch)
    mixture = probs[:b]
    mixture += probs[b:]
    mixture *= 0.5
    return mixture


def ranks(p: np.ndarray, gt: np.ndarray,
          same_time: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """1-based (filtered, raw) ranks of each row's ground truth in (B, |E|)
    probabilities, with pessimistic tie-breaking. `same_time` holds (row,
    object) pairs: the objects also true at that row's (s, r, t), which the
    filtered rank removes from the competitors."""
    rows = np.arange(len(gt))
    ahead = p >= p[rows, gt][:, None]
    ahead[rows, gt] = False
    raw = ahead.sum(axis=1) + 1
    ahead[same_time] = False
    return ahead.sum(axis=1) + 1, raw


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
    scanned once: a NaN would rank every gold answer first (NumericError)."""
    pd = pg = None
    if model.dpcl is not None:
        pd = p_dpcl(model.dpcl, batch, model.mapping_strategy)
    if model.denoiser is not None:
        queries = np.stack([batch.s_ids, batch.r_ids], axis=1)
        pg = gndiff.p_diff_batch(model.denoiser, queries, model.steps, model.chains,
                                 nk.rng_for(seed, 9))
    p = pg if pd is None else pd if pg is None else 0.5 * (pg + pd)
    if not np.isfinite(p).all():
        raise NumericError("candidate distributions contain non-finite values")
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

    The candidate distributions are computed with BLAS on one thread, so
    they and their timing do not depend on the process's BLAS thread count
    (see numkit.single_threaded_blas). A model with neither component, a
    `lam` other than the model's, or one that is not positive and finite
    raises ValueError, a non-finite distribution NumericError.
    """
    if model.dpcl is None and model.denoiser is None:
        raise ValueError("model has neither scoring parameters nor a denoiser")
    quads = store.split(split)
    index = build_periodic_index(store, lam, _SCOPE_FOR_SPLIT[split])
    if lam != model.lam:
        raise ValueError(f"the model was trained at lambda {model.lam}, not {lam}")
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
        with nk.single_threaded_blas():
            probs = _query_distributions(model, batch, seed + start)
        done = slice(start, start + len(batch))
        rows, pos = segments(sorted_keys, split_keys[done], split_keys[done] + 1)
        filtered[done], raw[done] = ranks(probs, batch.gt_ids, (rows, sorted_objects[pos]))
        new[done] = ~batch.periodic

    masks = {"all": np.ones(n, dtype=bool), "new-events": new, "periodic": ~new}
    return {name: RankReport(name, filtered[mask].tolist(), raw[mask].tolist())
            for name, mask in masks.items()}
