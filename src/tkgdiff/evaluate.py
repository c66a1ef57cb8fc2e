"""Inference-time probability combination and time-filtered ranking metrics,
plus the mapping-strategy comparison harness.

A query's candidate distribution is the average of the diffusion-chain
distribution and the softmax of the summed dependency scores (either side
alone under ablation). Ranks are time-filtered: other objects that are also
true for the same (s, r, t) within the evaluated split are removed, and ties
break pessimistically (the ground truth ranks behind equal-probability
competitors).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dpcl as dpcl_mod
from . import gndiff
from . import numkit as nk
from .corpus import PeriodicIndex, QuadStore, TokenEntropy, build_periodic_index, is_new_event
from .dpcl import DpclParams, QueryBatch
from .errors import ConfigError, DimensionError
from .gndiff import DenoiserParams

__all__ = [
    "Model", "RankReport", "STRATEGY_DISTANCES", "strategy_distances",
    "p_dpcl", "combine", "filtered_rank", "raw_rank",
    "evaluate_split", "mapping_strategy_harness",
]

STRATEGY_DISTANCES = {
    "hyp/euc": ("poincare", "euclidean"),
    "euc/hyp": ("euclidean", "poincare"),
    "hyp/hyp": ("poincare", "poincare"),
    "euc/euc": ("euclidean", "euclidean"),
}

STRATA = ("all", "new-events", "periodic")
COMPONENTS = ("combined", "gndiff", "dpcl")


def strategy_distances(name: str) -> tuple[str, str]:
    """Distance kinds feeding the (periodic, non-periodic) heads."""
    key = name.strip().lower()
    if key not in STRATEGY_DISTANCES:
        raise ConfigError(f"unknown mapping strategy '{name}'; "
                          f"expected one of {sorted(STRATEGY_DISTANCES)}")
    return STRATEGY_DISTANCES[key]


@dataclass
class Model:
    """Everything evaluation needs from a trained run."""

    dpcl: DpclParams | None
    denoiser: DenoiserParams | None
    entropies: TokenEntropy
    distance_per: str = "poincare"
    distance_nonper: str = "euclidean"
    distance_sign: float = 1.0
    score_combine: str = "sum"
    steps: int = 50
    chains: int = 8
    no_gndiff: bool = False
    no_dpcl: bool = False
    route_by_novelty: bool = False

    @property
    def n_entities(self) -> int:
        return self.entropies.n_entities


def p_dpcl(params: DpclParams, batch: QueryBatch, distance_per: str = "poincare",
           distance_nonper: str = "euclidean", distance_sign: float = 1.0,
           score_combine: str = "sum") -> np.ndarray:
    """Softmax over the combined candidate score (sum of the two heads, or
    their elementwise max under the variant flag); (B, |E|) rows sum to 1."""
    sp = dpcl_mod.periodic_scores(params, batch, distance_per, distance_sign).data
    snp = dpcl_mod.nonperiodic_scores(params, batch, distance_nonper, distance_sign).data
    if score_combine == "sum":
        s = sp + snp
    elif score_combine == "max":
        s = np.maximum(sp, snp)
    else:
        raise ValueError(f"score_combine must be 'sum' or 'max', got '{score_combine}'")
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def combine(p_diff: np.ndarray, p_dpcl_: np.ndarray,
            no_gndiff: bool = False, no_dpcl: bool = False) -> np.ndarray:
    """Average the two candidate distributions; under an ablation flag the
    surviving component passes through alone."""
    if no_gndiff and no_dpcl:
        raise ValueError("cannot ablate both components")
    if no_gndiff:
        return np.asarray(p_dpcl_)
    if no_dpcl:
        return np.asarray(p_diff)
    a, b = np.asarray(p_diff), np.asarray(p_dpcl_)
    if a.shape != b.shape:
        raise DimensionError(f"distribution shapes differ: {a.shape} vs {b.shape}")
    return 0.5 * (a + b)


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


@dataclass
class RankReport:
    """Per-query filtered ranks and the aggregate ranking metrics."""

    stratum: str
    ranks: list[int] = field(default_factory=list)
    raw_ranks: list[int] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.ranks

    @property
    def mrr(self) -> float:
        return float(np.mean([1.0 / r for r in self.ranks])) if self.ranks else 0.0

    def hits(self, k: int) -> float:
        if not self.ranks:
            return 0.0
        return float(np.mean([r <= k for r in self.ranks]))

    def to_dict(self, include_ranks: bool = False) -> dict:
        out = {
            "stratum": self.stratum,
            "queries": len(self.ranks),
            "empty": self.empty,
            "mrr": self.mrr,
            "hits@1": self.hits(1),
            "hits@3": self.hits(3),
            "hits@10": self.hits(10),
        }
        if include_ranks:
            out["ranks"] = list(self.ranks)
            out["raw_ranks"] = list(self.raw_ranks)
        return out


_SCOPE_FOR_SPLIT = {
    "train": ("train",),
    "valid": ("train", "valid"),
    "test": ("train", "valid", "test"),
}


def _query_distributions(model: Model, quads: np.ndarray, index: PeriodicIndex,
                         component: str, seed: int) -> np.ndarray:
    """(B, |E|) candidate distribution per query under the chosen component."""
    use_dpcl = component in ("combined", "dpcl") and not (
        component == "combined" and model.no_dpcl)
    use_diff = component in ("combined", "gndiff") and not (
        component == "combined" and model.no_gndiff)
    pd = pg = None
    if use_dpcl:
        if model.dpcl is None:
            raise ValueError("model has no scoring parameters for a dpcl evaluation")
        batch = QueryBatch.from_quads(quads, index)
        pd = p_dpcl(model.dpcl, batch, model.distance_per, model.distance_nonper,
                    model.distance_sign, model.score_combine)
    if use_diff:
        if model.denoiser is None:
            raise ValueError("model has no denoiser for a gndiff evaluation")
        pg = gndiff.p_diff_batch(model.denoiser, quads[:, :2], model.steps,
                                 model.chains, nk.rng_for(seed, 9))
    if pd is None and pg is None:
        raise ValueError(f"component '{component}' leaves nothing to evaluate")
    if pd is None:
        return pg
    if pg is None:
        return pd
    if model.route_by_novelty:
        # hard routing: diffusion answers new-event queries, scoring the rest
        new = np.array([is_new_event(index, s, r, o, t) for s, r, o, t in quads])
        return np.where(new[:, None], pg, pd)
    return combine(pg, pd)


def evaluate_split(model: Model, store: QuadStore, split: str,
                   strata=STRATA, component: str = "combined",
                   seed: int = 0, index: PeriodicIndex | None = None,
                   lam: float = 2.0) -> dict[str, RankReport]:
    """Time-filtered rank reports for a split, overall and per stratum.

    The candidate distributions are computed with BLAS on one thread, so
    they and their timing do not depend on the process's BLAS thread count
    (see numkit.single_threaded_blas).
    """
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {COMPONENTS}, got '{component}'")
    quads = store.split(split)
    if index is None:
        index = build_periodic_index(store, lam, _SCOPE_FOR_SPLIT[split])
    reports = {name: RankReport(name) for name in strata}

    same_time: dict[tuple[int, int, int], set[int]] = {}
    for s, r, o, t in quads:
        same_time.setdefault((int(s), int(r), int(t)), set()).add(int(o))

    chunk = 256
    for start in range(0, len(quads), chunk):
        block = quads[start:start + chunk]
        with nk.single_threaded_blas():
            probs = _query_distributions(model, block, index, component, seed + start)
        for i, (s, r, o, t) in enumerate(block):
            objs = same_time[(int(s), int(r), int(t))]
            rank = filtered_rank(probs[i], int(o), objs)
            rr = raw_rank(probs[i], int(o))
            new = is_new_event(index, int(s), int(r), int(o), int(t))
            for name in strata:
                if name == "all" or (name == "new-events" and new) or \
                        (name == "periodic" and not new):
                    reports[name].ranks.append(rank)
                    reports[name].raw_ranks.append(rr)
    return reports


def mapping_strategy_harness(base_config, store: QuadStore,
                             strategies=tuple(STRATEGY_DISTANCES),
                             split: str = "test") -> dict[str, RankReport]:
    """Train the scoring component alone under each spatial mapping strategy
    (one shared seed) and report test metrics per strategy."""
    from . import engine  # deferred: engine drives training, we drive scoring

    out: dict[str, RankReport] = {}
    for strat in strategies:
        cfg = replace(base_config, mapping_strategy=strat, no_gndiff=True)
        ckpt = engine.train(cfg, store)
        model = engine.model_from_checkpoint(ckpt, store)
        reports = evaluate_split(model, store, split, strata=("all",),
                                 seed=cfg.seed, lam=cfg.lam)
        out[strat] = reports["all"]
    return out
