"""Joint training: two-stage schedule, the blended objective, Adam updates,
validation-selected checkpoints, flat-file configuration, and a JSON-lines
metrics log.

Per-epoch randomness (shuffling, diffusion corruption) is derived statelessly
from (seed, epoch), so a resumed run replays the exact stream of the
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dpcl as dpcl_mod
from . import evaluate as ev
from . import gndiff
from . import numkit as nk
from .corpus import PeriodicIndex, QuadStore, build_periodic_index, token_entropies
from .dpcl import DpclParams, QueryBatch
from .errors import (CheckpointError, CheckpointVersionError, ConfigError,
                     DataError, NumericError)
from .geometry import project_array_to_ball
from .gndiff import DenoiserParams
from .numkit import AdamState, Tensor

__all__ = [
    "TrainConfig", "Checkpoint", "train", "joint_loss",
    "save_checkpoint", "load_checkpoint", "model_from_checkpoint",
    "parse_config_file", "apply_overrides", "config_hash",
]

CHECKPOINT_MAGIC = b"TKGD"
CHECKPOINT_VERSION = 1

# namespaces for stateless rng derivation
_NS_INIT = 0
_NS_EPOCH = 1
_NS_EVAL = 2


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of a run; defaults follow the reference setup."""

    d_dpcl: int = 200          # scoring embedding width
    d_diff: int = 128          # denoiser embedding width
    batch: int = 64
    lr: float = 0.001
    epochs_stage1: int = 30    # blended objective without the contrastive term
    epochs_stage2: int = 20    # contrastive term joins
    alpha: float = 0.2         # weight of the diffusion loss in the blend
    lam: float = 2.0           # magnitude of the signed history values
    tau: float = 0.1           # contrastive temperature
    steps: int = 50            # diffusion steps T
    mu: float = 0.25           # schedule amplitude
    chains: int = 8            # reverse chains averaged at inference
    seed: int = 0
    distance_sign: float = 1.0
    mapping_strategy: str = "hyp/euc"
    no_gndiff: bool = False
    no_dpcl: bool = False
    route_by_novelty: bool = False
    score_combine: str = "sum"
    # recorded resolutions of underdetermined choices
    entropy_counting: str = "per-position"
    loss_reduction: str = "mean"

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("lam", "tau", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("d_dpcl", "d_diff", "batch", "chains"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.steps < 2:
            raise ConfigError(f"steps must be at least 2, got {self.steps}")
        if self.mu < 0:
            raise ConfigError(f"mu must be nonnegative, got {self.mu}")
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ConfigError("epoch counts must be nonnegative")
        if self.no_gndiff and self.no_dpcl:
            raise ConfigError("cannot ablate both components")
        ev.strategy_distances(self.mapping_strategy)
        if self.score_combine not in ("sum", "max"):
            raise ConfigError(f"score_combine must be 'sum' or 'max', got '{self.score_combine}'")
        if self.entropy_counting != "per-position":
            raise ConfigError("only per-position entropy counting is implemented")
        if self.loss_reduction != "mean":
            raise ConfigError("only batch-mean loss reduction is implemented")

    @property
    def total_epochs(self) -> int:
        return self.epochs_stage1 + self.epochs_stage2

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in values.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key '{key}'")
            kwargs[key] = _coerce(key, raw, known[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _coerce(key: str, raw, type_name):
    if isinstance(raw, (int, float, bool)):
        return raw
    text = str(raw).strip()
    kind = type_name if isinstance(type_name, str) else type_name.__name__
    try:
        if kind == "bool":
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError as e:
        raise ConfigError(f"cannot parse '{raw}' for key '{key}' as {kind}") from e


def parse_config_file(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, value = text.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def apply_overrides(values: dict, overrides) -> dict:
    """Merge repeatable 'key=value' strings over a config dict."""
    merged = dict(values)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def config_hash(config: TrainConfig) -> str:
    import hashlib
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Joint objective
# ---------------------------------------------------------------------------

def joint_loss(config: TrainConfig, ce: Tensor | None, sup: Tensor | None,
               diff: Tensor | None, stage: int = 2) -> Tensor:
    """Blend: alpha * diffusion + (1 - alpha) * (ce + sup). Stage 1 replaces
    the contrastive term with 0; ablations pin alpha to 0 or 1."""
    alpha = config.alpha
    if config.no_gndiff:
        alpha = 0.0
    if config.no_dpcl:
        alpha = 1.0
    parts = []
    if alpha > 0.0:
        if diff is None:
            raise ValueError("diffusion loss required while its weight is nonzero")
        parts.append(nk.mul(nk.constant(alpha), diff))
    if alpha < 1.0:
        if ce is None:
            raise ValueError("scoring losses required while their weight is nonzero")
        dp = ce if (stage == 1 or sup is None) else nk.add(ce, sup)
        parts.append(nk.mul(nk.constant(1.0 - alpha), dp))
    total = parts[0]
    for p in parts[1:]:
        total = nk.add(total, p)
    return total


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A resumable training state; save/load round-trips bit-identically."""

    config: TrainConfig
    dpcl: DpclParams
    denoiser: DenoiserParams
    adam: dict[str, AdamState]
    epoch: int                   # next epoch to run
    rng_state: dict = field(default_factory=dict)
    best_val_mrr: float = -1.0
    version: int = CHECKPOINT_VERSION
    metrics: list = field(default_factory=list, repr=False)

    def named_tensors(self) -> dict[str, Tensor]:
        out = {f"dpcl.{k}": v for k, v in self.dpcl.named().items()}
        out.update({f"denoiser.{k}": v for k, v in self.denoiser.named().items()})
        return out


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint atomically: records stream into `<name>.tmp` in
    the same directory, which is flushed, synced and renamed over `path`. A
    write that fails leaves any previous file at `path` untouched."""
    arrays = {name: t.data for name, t in ckpt.named_tensors().items()}
    adam_meta = {}
    for name, state in ckpt.adam.items():
        arrays[f"adam.m.{name}"] = state.m
        arrays[f"adam.v.{name}"] = state.v
        adam_meta[name] = {"t": state.t, "lr": state.lr, "beta1": state.beta1,
                           "beta2": state.beta2, "eps": state.eps}
    header = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "adam": adam_meta,
        "best_val_mrr": ckpt.best_val_mrr,
        "denoiser_meta": {"n_entities": ckpt.denoiser.n_entities,
                          "n_relations": ckpt.denoiser.n_relations,
                          "width": ckpt.denoiser.width},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
            fh.write(blob)
            for name in sorted(arrays):
                data = np.ascontiguousarray(arrays[name], dtype="<f8")
                encoded = name.encode("utf-8")
                fh.write(struct.pack(f"<I{len(encoded)}sI{data.ndim}I", len(encoded),
                                     encoded, data.ndim, *data.shape))
                fh.write(memoryview(data).cast("B"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a checkpoint file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {version} is not supported (expected {CHECKPOINT_VERSION})")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = json.loads(_read_exact(fh, hlen, "header"))
        tensors: dict[str, Tensor] = {}
        while True:
            raw = fh.read(4)
            if not raw:
                break
            if len(raw) != 4:
                raise CheckpointError("truncated checkpoint while reading record")
            (nlen,) = struct.unpack("<I", raw)
            name = _read_exact(fh, nlen, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            dims = [struct.unpack("<I", _read_exact(fh, 4, "dims"))[0]
                    for _ in range(rank)]
            count = int(np.prod(dims)) if dims else 1
            payload = _read_exact(fh, 8 * count, f"tensor '{name}'")
            arr = np.frombuffer(payload, dtype="<f8").reshape(dims)
            tensors[name] = Tensor(arr)

    config = TrainConfig.from_dict(header["config"])
    dpcl_fields = {k.split(".", 1)[1]: v for k, v in tensors.items()
                   if k.startswith("dpcl.")}
    den_fields = {k.split(".", 1)[1]: v for k, v in tensors.items()
                  if k.startswith("denoiser.")}
    meta = header["denoiser_meta"]
    denoiser = DenoiserParams(**den_fields, n_entities=meta["n_entities"],
                              n_relations=meta["n_relations"], width=meta["width"])
    adam = {}
    for name, info in header["adam"].items():
        state = AdamState(tensors[f"adam.m.{name}"].shape, lr=info["lr"],
                          beta1=info["beta1"], beta2=info["beta2"], eps=info["eps"])
        state.m = tensors[f"adam.m.{name}"].numpy()
        state.v = tensors[f"adam.v.{name}"].numpy()
        state.t = info["t"]
        adam[name] = state
    return Checkpoint(config=config, dpcl=DpclParams(**dpcl_fields),
                      denoiser=denoiser, adam=adam, epoch=header["epoch"],
                      rng_state=header["rng_state"],
                      best_val_mrr=header["best_val_mrr"])


def model_from_checkpoint(ckpt: Checkpoint, store: QuadStore) -> ev.Model:
    """Evaluation bundle for a checkpoint; entropies are derived from the
    store's training split (cheap, and not persisted in the file)."""
    cfg = ckpt.config
    dist_per, dist_nonper = ev.strategy_distances(cfg.mapping_strategy)
    return ev.Model(
        dpcl=ckpt.dpcl, denoiser=ckpt.denoiser, entropies=token_entropies(store),
        distance_per=dist_per, distance_nonper=dist_nonper,
        distance_sign=cfg.distance_sign, score_combine=cfg.score_combine,
        steps=cfg.steps, chains=cfg.chains,
        no_gndiff=cfg.no_gndiff, no_dpcl=cfg.no_dpcl,
        route_by_novelty=cfg.route_by_novelty)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _all_params(dparams: DpclParams, nparams: DenoiserParams) -> dict[str, Tensor]:
    out = {f"dpcl.{k}": v for k, v in dparams.named().items()}
    out.update({f"denoiser.{k}": v for k, v in nparams.named().items()})
    return out


def _copy_adam(states: dict[str, AdamState]) -> dict[str, AdamState]:
    out = {}
    for name, s in states.items():
        c = AdamState(s.m.shape, lr=s.lr, beta1=s.beta1, beta2=s.beta2, eps=s.eps)
        c.m = s.m.copy()
        c.v = s.v.copy()
        c.t = s.t
        out[name] = c
    return out


def train(config: TrainConfig, store: QuadStore, index: PeriodicIndex | None = None,
          out_dir=None, resume_from=None, log=None) -> Checkpoint:
    """Run the two-stage loop and return the checkpoint with the best
    validation MRR (final state if validation is empty)."""
    config.validate()
    train_quads = store.split("train")
    if len(train_quads) == 0:
        raise DataError("training split is empty")
    dist_per, dist_nonper = ev.strategy_distances(config.mapping_strategy)
    needs_ball = (not config.no_dpcl) and "poincare" in (dist_per, dist_nonper)
    entropies = token_entropies(store)
    if index is None:
        index = build_periodic_index(store, config.lam, ("train",))
    valid_quads = store.split("valid")
    valid_index = build_periodic_index(store, config.lam, ("train", "valid")) \
        if len(valid_quads) else None

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        dparams, nparams, adam = ckpt.dpcl, ckpt.denoiser, ckpt.adam
        start_epoch = ckpt.epoch
        best_mrr = ckpt.best_val_mrr
    else:
        init_rng = nk.rng_for(config.seed, _NS_INIT)
        dparams = dpcl_mod.init_params(store.n_entities, store.n_relations,
                                       config.d_dpcl, init_rng)
        nparams = gndiff.init_denoiser(store.n_entities, store.n_relations,
                                       config.d_diff, init_rng)
        adam = {name: AdamState(p.shape, lr=config.lr)
                for name, p in _all_params(dparams, nparams).items()}
        start_epoch = 0
        best_mrr = -1.0

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    metrics: list[dict] = []
    best = None

    def snapshot(epoch_next: int) -> Checkpoint:
        return Checkpoint(config=config, dpcl=dparams, denoiser=nparams,
                          adam=_copy_adam(adam), epoch=epoch_next,
                          rng_state={"seed": config.seed, "next_epoch": epoch_next},
                          best_val_mrr=best_mrr, metrics=list(metrics))

    for epoch in range(start_epoch, config.total_epochs):
        t0 = time.perf_counter()
        stage = 1 if epoch < config.epochs_stage1 else 2
        erng = nk.rng_for(config.seed, _NS_EPOCH, epoch)
        order = erng.permutation(len(train_quads))
        sums = {"ce": 0.0, "sup": 0.0, "diff": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, len(order), config.batch):
            quads = train_quads[order[start:start + config.batch]]
            ce_t = sup_t = diff_t = None
            try:
                with nk.GradTape() as tape:
                    if not config.no_dpcl:
                        batch = QueryBatch.from_quads(quads, index)
                        sp = dpcl_mod.periodic_scores(dparams, batch, dist_per,
                                                      config.distance_sign)
                        snp = dpcl_mod.nonperiodic_scores(dparams, batch, dist_nonper,
                                                          config.distance_sign)
                        ce_t = dpcl_mod.ce_loss(sp, snp, batch.gt_ids)
                        if stage == 2 and len(batch) >= 2:
                            sup_t = dpcl_mod.supcon_loss(dparams, batch, config.tau)
                    if not config.no_gndiff:
                        toks = entropies.quad_tokens(quads)
                        diff_t = gndiff.batch_loss(nparams, entropies, toks,
                                                   config.steps, config.mu, erng)
                    total_t = joint_loss(config, ce_t, sup_t, diff_t, stage)
            except NumericError as e:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}: "
                    f"ce={_maybe(ce_t)}, sup={_maybe(sup_t)}, diff={_maybe(diff_t)}"
                ) from e

            trainable = {}
            if not config.no_dpcl:
                trainable.update({f"dpcl.{k}": v for k, v in dparams.named().items()})
            if not config.no_gndiff:
                trainable.update({f"denoiser.{k}": v for k, v in nparams.named().items()})
            names = list(trainable)
            grads = tape.gradient(total_t, [trainable[n] for n in names])
            updated = {n: nk.adam_step(adam[n], trainable[n], g)
                       for n, g in zip(names, grads)}
            if not config.no_dpcl:
                dpcl_updates = {k.split(".", 1)[1]: v for k, v in updated.items()
                                if k.startswith("dpcl.")}
                if needs_ball:
                    emb = dpcl_updates["entity_emb"]
                    dpcl_updates["entity_emb"] = Tensor(
                        project_array_to_ball(emb.data), copy=False)
                dparams = dparams.replace(**dpcl_updates)
            if not config.no_gndiff:
                den_updates = {k.split(".", 1)[1]: v for k, v in updated.items()
                               if k.startswith("denoiser.")}
                nparams = nparams.replace(**den_updates)

            sums["ce"] += _maybe(ce_t) or 0.0
            sums["sup"] += _maybe(sup_t) or 0.0
            sums["diff"] += _maybe(diff_t) or 0.0
            sums["total"] += total_t.item()
            n_batches += 1

        val_mrr = 0.0
        if valid_index is not None:
            model = ev.Model(
                dpcl=dparams, denoiser=nparams, entropies=entropies,
                distance_per=dist_per, distance_nonper=dist_nonper,
                distance_sign=config.distance_sign, score_combine=config.score_combine,
                steps=config.steps, chains=config.chains,
                no_gndiff=config.no_gndiff, no_dpcl=config.no_dpcl,
                route_by_novelty=config.route_by_novelty)
            seed_eval = int(nk.rng_for(config.seed, _NS_EVAL, epoch).integers(2 ** 31))
            reports = ev.evaluate_split(model, store, "valid", strata=("all",),
                                        seed=seed_eval, index=valid_index,
                                        lam=config.lam)
            val_mrr = reports["all"].mrr

        line = {
            "epoch": epoch,
            "loss_total": sums["total"] / max(n_batches, 1),
            "loss_ce": sums["ce"] / max(n_batches, 1),
            "loss_sup": sums["sup"] / max(n_batches, 1),
            "loss_diff": sums["diff"] / max(n_batches, 1),
            "val_mrr": val_mrr,
            "wall_seconds": time.perf_counter() - t0,
        }
        metrics.append(line)
        if log is not None:
            log(line)
        if out_path is not None:
            with open(out_path / "metrics.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")

        if valid_index is not None and val_mrr > best_mrr:
            best_mrr = val_mrr
            best = snapshot(epoch + 1)
            if out_path is not None:
                save_checkpoint(best, out_path / "best.ckpt")
        if out_path is not None:
            save_checkpoint(snapshot(epoch + 1), out_path / "last.ckpt")

    final = snapshot(config.total_epochs)
    if best is None:
        best = final
        if out_path is not None and valid_index is None:
            save_checkpoint(final, out_path / "best.ckpt")
    best.metrics = list(metrics)
    if out_path is not None and not (out_path / "last.ckpt").exists():
        save_checkpoint(final, out_path / "last.ckpt")
    return best


def _maybe(t: Tensor | None):
    return None if t is None else t.item()
