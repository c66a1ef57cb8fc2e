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
import math
import os
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dpcl as dpcl_mod
from . import evaluate as ev
from . import gndiff
from . import numkit as nk
from .corpus import QuadStore, build_periodic_index, token_entropies
from .dpcl import DpclParams, QueryBatch
from .errors import (CheckpointError, CheckpointVersionError, ConfigError,
                     DataError, NumericError)
from .geometry import project_array_to_ball
from .gndiff import DenoiserParams
from .numkit import AdamState, Tensor

__all__ = [
    "TrainConfig", "Checkpoint", "train", "joint_loss",
    "save_checkpoint", "load_checkpoint", "model_from_checkpoint",
    "parse_config_file", "apply_overrides",
]

CHECKPOINT_MAGIC = b"TKGD"
CHECKPOINT_VERSION = 6

# namespaces for stateless rng derivation
_NS_INIT = 0
_NS_EPOCH = 1
_NS_EVAL = 2


# the values a TrainConfig field of each declared type takes; a bool is
# taken only by a bool field
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass(frozen=True)
class TrainConfig:
    """Every setting a run sets; defaults follow the reference setup.

    `alpha` lies strictly between 0 and 1: to drop a component, set
    `no_gndiff` or `no_dpcl`, which leaves its parameters out of the run.
    `mapping_strategy` is one of dpcl.STRATEGY_DISTANCES's keys, spelled
    exactly. `validate` checks each value's type too: an int field takes an
    int and a float field a finite int or float, neither a bool; a bool field
    takes a bool and `mapping_strategy` a str. Adam's decay rates and offset
    are numkit's constants; `lr` is the step size of every Adam step, also
    after a resume.
    """

    d_dpcl: int = 200          # scoring embedding width
    d_diff: int = 128          # denoiser embedding width
    batch: int = 64
    lr: float = 0.001
    epochs_stage1: int = 30    # blended objective without the contrastive term
    epochs_stage2: int = 20    # contrastive term joins
    alpha: float = 0.2         # weight of the diffusion loss in the blend, in (0, 1)
    lam: float = 2.0           # magnitude of the signed history values
    tau: float = 0.1           # contrastive temperature
    steps: int = 50            # diffusion steps T
    mu: float = 0.25           # schedule amplitude
    chains: int = 8            # reverse chains averaged at inference
    seed: int = 0
    mapping_strategy: str = "hyp/euc"
    no_gndiff: bool = False
    no_dpcl: bool = False

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or \
                    (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}; set no_gndiff "
                              f"or no_dpcl to drop a component")
        for name in ("lam", "tau", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
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
        dpcl_mod.strategy_distances(self.mapping_strategy)

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


def _coerce(key: str, raw, kind: str):
    if isinstance(raw, (int, float, bool)):
        return raw
    text = str(raw).strip()
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


# ---------------------------------------------------------------------------
# Joint objective
# ---------------------------------------------------------------------------

def joint_loss(alpha: float, ce: Tensor | None, sup: Tensor | None,
               diff: Tensor | None) -> Tensor:
    """Blend: alpha * diff + (1 - alpha) * (ce + sup). A term passed as None
    is left out: `sup` in stage 1 and in a batch too small to contrast, the
    losses of the component a run ablates. With one component's loss only,
    that loss is the objective, unweighted."""
    if ce is None:
        return diff
    dp = ce if sup is None else nk.add(ce, sup)
    if diff is None:
        return dp
    return nk.add(nk.mul(nk.constant(alpha), diff), nk.mul(nk.constant(1.0 - alpha), dp))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A resumable training state; save/load round-trips bit-identically.
    The component a run ablates has no parameters (None)."""

    config: TrainConfig
    dpcl: DpclParams | None
    denoiser: DenoiserParams | None
    adam: dict[str, AdamState]
    epoch: int                   # next epoch to run
    best_val_mrr: float = -1.0
    metrics: list = field(default_factory=list, repr=False)  # one line per epoch run

    def named_tensors(self) -> dict[str, Tensor]:
        return _named_tensors(self.dpcl, self.denoiser)

    @property
    def vocabulary(self) -> tuple[int, int]:
        """The entity and relation counts the parameters cover."""
        if self.dpcl is not None:
            return self.dpcl.entity_emb.shape[0], self.dpcl.relation_emb.shape[0]
        return self.denoiser.n_entities, self.denoiser.n_relations


def _named_tensors(dparams: DpclParams | None,
                   nparams: DenoiserParams | None) -> dict[str, Tensor]:
    out = {}
    for prefix, params in (("dpcl", dparams), ("denoiser", nparams)):
        if params is not None:
            out.update({f"{prefix}.{k}": v for k, v in params.named().items()})
    return out


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint atomically: records stream into `<name>.tmp` in
    the same directory, which is flushed, synced and renamed over `path`. A
    write that fails leaves any previous file at `path` untouched, and no
    write changes the bytes of a file that shares the old inode of `path`.

    Layout (little-endian): the magic `TKGD`; u32 format version; u32 header
    length; a JSON header with sorted keys (`config`, `epoch`, `adam`, which
    maps each parameter name to its Adam step count, `best_val_mrr`, the
    vocabulary sizes `n_entities` and `n_relations`, and the per-epoch
    `metrics` lines); then one record per tensor in name order: u32 name
    length, the UTF-8 name, u32 rank, u32 dims, float64 payload. The records are the parameters
    (`dpcl.*`, `denoiser.*`) and their Adam moments (`adam.m.<name>`,
    `adam.v.<name>`); the component the config ablates has none. The
    denoiser's output rows are one block per token role (`w2` is
    (2|E|+|R|, h)). This is format version 6; `load_checkpoint` rejects any
    other version with CheckpointVersionError.
    """
    arrays = {name: t.data for name, t in ckpt.named_tensors().items()}
    for name, state in ckpt.adam.items():
        arrays[f"adam.m.{name}"] = state.m
        arrays[f"adam.v.{name}"] = state.v
    n_entities, n_relations = ckpt.vocabulary
    header = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "adam": {name: state.t for name, state in ckpt.adam.items()},
        "best_val_mrr": ckpt.best_val_mrr,
        "n_entities": n_entities,
        "n_relations": n_relations,
        "metrics": ckpt.metrics,
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
    """Read a checkpoint written by save_checkpoint.

    One rule fixes the records: the header's config, `n_entities` and
    `n_relations` give the name and shape of each parameter the config
    trains (`_param_shapes`), and the file holds exactly those records and
    each one's two Adam moments of its shape, once each. The header's `adam`
    names the same parameters. So the component the config ablates has no
    records and loads as None. Each record is checked before its payload is
    read.

    CheckpointError for any breach of the rule, and for a bad magic, an
    unknown version (CheckpointVersionError), truncation (also dims that
    claim more bytes than the file has left), a non-finite payload, a header
    that is not the expected JSON or repeats a key within one of its
    objects, a config that TrainConfig.from_dict
    refuses, an `epoch`, Adam step count, `n_entities` or `n_relations` that
    is not a non-negative int, a `best_val_mrr` that is not a finite number,
    or `metrics` that are not a list of JSON objects.

    Parameter tensors are read-only views of the arrays read from the file;
    the Adam moments are those arrays, writeable.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a checkpoint file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {version} is not supported (expected {CHECKPOINT_VERSION})")
        try:
            return _read_body(fh)
        except (KeyError, TypeError, ValueError, AttributeError, NumericError) as e:
            raise CheckpointError(
                f"corrupt checkpoint {path}: {type(e).__name__}: {e}") from e


def _count(value, what: str) -> int:
    """A header count: an int (not a bool) that is at least 0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object of the header as a dict; a key it repeats raises
    ValueError, where json.loads alone would keep the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"header repeats the key '{key}' in one object")
        out[key] = value
    return out


def _param_shapes(config: TrainConfig, n_entities: int,
                  n_relations: int) -> dict[str, tuple[int, int]]:
    """The shape of each parameter that a run of `config` trains on this
    vocabulary, by record name."""
    components = (
        ("dpcl", config.no_dpcl, dpcl_mod.param_shapes(n_entities, n_relations, config.d_dpcl)),
        ("denoiser", config.no_gndiff,
         gndiff.param_shapes(n_entities, n_relations, config.d_diff)))
    return {f"{prefix}.{name}": shape for prefix, ablated, shapes in components
            if not ablated for name, shape in shapes.items()}


def _unprefixed(named: dict, prefix: str) -> dict:
    """The entries of `named` under `<prefix>.`, keyed by the rest of the name."""
    cut = len(prefix) + 1
    return {name[cut:]: v for name, v in named.items() if name.startswith(prefix + ".")}


def _read_body(fh) -> Checkpoint:
    size = os.fstat(fh.fileno()).st_size
    (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    header = json.loads(_read_exact(fh, hlen, "header"), object_pairs_hook=_unique_keys)
    config = TrainConfig.from_dict(header["config"])
    n_entities, n_relations = (_count(header[key], key) for key in ("n_entities", "n_relations"))
    epoch = _count(header["epoch"], "epoch")
    best = header["best_val_mrr"]
    if type(best) not in (int, float) or not math.isfinite(best):
        raise ValueError(f"best_val_mrr must be a finite number, got {best!r}")
    metrics = header["metrics"]
    if type(metrics) is not list or any(type(line) is not dict for line in metrics):
        raise ValueError(f"metrics must be a list of JSON objects, got {metrics!r}")
    steps = {name: _count(t, f"Adam step count of '{name}'") for name, t in header["adam"].items()}
    params = _param_shapes(config, n_entities, n_relations)
    if steps.keys() != params.keys():
        raise ValueError(f"the header's Adam states and the parameters its config trains "
                         f"differ in {sorted(steps.keys() ^ params.keys())}")
    expected = {kind + name: shape for name, shape in params.items()
                for kind in ("", "adam.m.", "adam.v.")}

    arrays: dict[str, np.ndarray] = {}
    while fh.tell() < size:
        (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "record"))
        name = _read_exact(fh, nlen, "tensor name").decode("utf-8")
        shape = expected.pop(name, None)
        if shape is None:
            raise ValueError(f"record '{name}' " + ("appears twice" if name in arrays
                                                    else "is not one the header implies"))
        rank, *dims = struct.unpack("<3I", _read_exact(fh, 12, f"dims of '{name}'"))
        if (rank, *dims) != (2, *shape):
            raise ValueError(f"record '{name}' has rank {rank} and dims {tuple(dims)}, "
                             f"the header implies {shape}")
        if 8 * math.prod(dims) > size - fh.tell():
            raise CheckpointError(f"truncated checkpoint while reading tensor '{name}'")
        arr = np.empty(dims, dtype="<f8")
        if fh.readinto(arr) != arr.nbytes:
            raise CheckpointError(f"truncated checkpoint while reading tensor '{name}'")
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor '{name}' contains non-finite values")
        arrays[name] = arr
    if expected:
        raise ValueError(f"missing records {sorted(expected)}")

    tensors = {name: nk._wrap(arrays[name]) for name in params}
    dparams = None if config.no_dpcl else DpclParams(**_unprefixed(tensors, "dpcl"))
    nparams = None if config.no_gndiff else DenoiserParams(
        **_unprefixed(tensors, "denoiser"), n_entities=n_entities, n_relations=n_relations,
        width=config.d_diff)
    adam = {}
    for name, t in steps.items():
        state = adam[name] = AdamState(params[name])
        state.m, state.v, state.t = arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"], t
    return Checkpoint(config=config, dpcl=dparams, denoiser=nparams, adam=adam, epoch=epoch,
                      best_val_mrr=best, metrics=metrics)


def _model(config: TrainConfig, dparams: DpclParams | None,
           nparams: DenoiserParams | None) -> ev.Model:
    """The evaluation view of a run's parameters."""
    return ev.Model(dpcl=dparams, denoiser=nparams, mapping_strategy=config.mapping_strategy,
                    steps=config.steps, chains=config.chains)


def _check_vocabulary(ckpt: Checkpoint, store: QuadStore) -> None:
    sizes = ckpt.vocabulary
    if sizes != (store.n_entities, store.n_relations):
        raise DataError(
            f"checkpoint has {sizes[0]} entities and {sizes[1]} relations, the store "
            f"{store.n_entities} entities and {store.n_relations} relations")


def model_from_checkpoint(ckpt: Checkpoint, store: QuadStore) -> ev.Model:
    """Evaluation bundle for a checkpoint whose vocabulary is the store's.

    Raises DataError when the checkpoint's entity or relation count differs
    from the store's."""
    _check_vocabulary(ckpt, store)
    return _model(ckpt.config, ckpt.dpcl, ckpt.denoiser)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _copy_adam(states: dict[str, AdamState]) -> dict[str, AdamState]:
    out = {}
    for name, s in states.items():
        c = out[name] = AdamState(s.m.shape)
        c.m, c.v, c.t = s.m.copy(), s.v.copy(), s.t
    return out


# The config fields a checkpoint's parameters are shaped or trained by: a run
# resumes a checkpoint only under the same values.
_RESUME_KEYS = ("no_gndiff", "no_dpcl", "d_dpcl", "d_diff", "mapping_strategy")


def _check_resumable(ckpt: Checkpoint, config: TrainConfig, store: QuadStore) -> None:
    differ = [k for k in _RESUME_KEYS if getattr(ckpt.config, k) != getattr(config, k)]
    if differ:
        raise ConfigError("cannot resume under another " + ", ".join(
            f"{k} ({getattr(ckpt.config, k)!r} in the checkpoint, {getattr(config, k)!r} "
            f"in the config)" for k in differ))
    _check_vocabulary(ckpt, store)


def _link(src: Path, dst: Path) -> None:
    """Make `dst` name the file at `src`, atomically: a hard link at
    `<dst>.tmp` is renamed over `dst`."""
    tmp = dst.with_name(dst.name + ".tmp")
    tmp.unlink(missing_ok=True)
    os.link(src, tmp)
    os.replace(tmp, dst)


def train(config: TrainConfig, store: QuadStore, out_dir=None, resume_from=None) -> Checkpoint:
    """Run the two-stage loop and return the checkpoint with the best
    validation MRR (final state if validation is empty). Training batches
    take their history from the train split's periodic index, and each
    validation from the train and valid splits', both built at `config.lam`.
    DPCL scores with `config.mapping_strategy`. The component the config
    ablates is never initialised or trained, and is None in every checkpoint
    of the run. The returned `metrics` hold one line per epoch, including
    the epochs before a resume; a line carries the validation MRR overall
    (`val_mrr`, which selects the best state) and of the new-event and
    periodic strata.

    With `out_dir`, every epoch writes its state to `last.ckpt` and appends
    its line to `metrics.jsonl`. `best.ckpt` holds the best state; when that
    is the state just written to `last.ckpt` (an epoch that improves the
    validation MRR, or the final state when validation is empty), it is a
    hard link to that file, which the next `last.ckpt` write replaces by a
    new file and leaves as it is.

    A resumed run first checks that `resume_from` was trained with the same
    components, widths and mapping strategy as `config` (ConfigError) and on
    the store's vocabulary (DataError). It starts its best from the
    `best.ckpt` beside `resume_from` when that file's `best_val_mrr` equals
    the resumed checkpoint's, so it returns the same state as the
    uninterrupted run. When there is no such file, or its MRR differs, the
    best before the resume is unknown: the run returns the best epoch after
    the resume that beats the resumed checkpoint's `best_val_mrr`, or else
    the final state."""
    config.validate()
    train_quads = store.split("train")
    if len(train_quads) == 0:
        raise DataError("training split is empty")
    needs_ball = (not config.no_dpcl) and \
        "poincare" in dpcl_mod.strategy_distances(config.mapping_strategy)
    entropies = None if config.no_gndiff else token_entropies(store)
    index = build_periodic_index(store, config.lam, ("train",))
    valid_quads = store.split("valid")
    valid_index = build_periodic_index(store, config.lam, ("train", "valid")) \
        if len(valid_quads) else None

    best = None
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        _check_resumable(ckpt, config, store)
        dparams, nparams, adam = ckpt.dpcl, ckpt.denoiser, ckpt.adam
        start_epoch = ckpt.epoch
        best_mrr = ckpt.best_val_mrr
        metrics = ckpt.metrics
        best_path = Path(resume_from).with_name("best.ckpt")
        if valid_index is not None and best_path.exists():
            saved = load_checkpoint(best_path)
            if saved.best_val_mrr == best_mrr:
                best = dataclasses.replace(saved, config=config)
    else:
        init_rng = nk.rng_for(config.seed, _NS_INIT)
        dparams = None if config.no_dpcl else dpcl_mod.init_params(
            store.n_entities, store.n_relations, config.d_dpcl, init_rng)
        nparams = None if config.no_gndiff else gndiff.init_denoiser(
            store.n_entities, store.n_relations, config.d_diff, init_rng)
        adam = {name: AdamState(shape) for name, shape in
                _param_shapes(config, store.n_entities, store.n_relations).items()}
        start_epoch = 0
        best_mrr = -1.0
        metrics = []

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    def state(epoch_next: int) -> Checkpoint:
        """The live state; the next Adam step updates its moments in place."""
        return Checkpoint(config=config, dpcl=dparams, denoiser=nparams, adam=adam,
                          epoch=epoch_next, best_val_mrr=best_mrr, metrics=list(metrics))

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
                        sp, snp = dpcl_mod.head_scores(dparams, batch, config.mapping_strategy)
                        ce_t = dpcl_mod.ce_loss(sp, snp, batch.gt_ids)
                        if stage == 2 and len(batch) >= 2:
                            sup_t = dpcl_mod.supcon_loss(dparams, batch, config.tau)
                    if not config.no_gndiff:
                        toks = entropies.quad_tokens(quads)
                        diff_t = gndiff.batch_loss(nparams, entropies, toks,
                                                   config.steps, config.mu, erng)
                    total_t = joint_loss(config.alpha, ce_t, sup_t, diff_t)
                if not math.isfinite(total_t.item()):
                    raise NumericError("the total loss is not finite")
            except NumericError as e:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}: "
                    f"ce={_maybe(ce_t)}, sup={_maybe(sup_t)}, diff={_maybe(diff_t)}"
                ) from e

            trainable = _named_tensors(dparams, nparams)
            grads = tape.gradient(total_t, list(trainable.values()))
            updated = {n: nk.adam_step(adam[n], p, g, config.lr)
                       for (n, p), g in zip(trainable.items(), grads)}
            if not config.no_dpcl:
                dpcl_updates = _unprefixed(updated, "dpcl")
                if needs_ball:
                    emb = dpcl_updates["entity_emb"]
                    dpcl_updates["entity_emb"] = Tensor(project_array_to_ball(emb.data))
                dparams = dataclasses.replace(dparams, **dpcl_updates)
            if not config.no_gndiff:
                nparams = dataclasses.replace(nparams, **_unprefixed(updated, "denoiser"))

            sums["ce"] += _maybe(ce_t) or 0.0
            sums["sup"] += _maybe(sup_t) or 0.0
            sums["diff"] += _maybe(diff_t) or 0.0
            sums["total"] += total_t.item()
            n_batches += 1

        val_mrr = val_mrr_new = val_mrr_periodic = 0.0
        if valid_index is not None:
            seed_eval = int(nk.rng_for(config.seed, _NS_EVAL, epoch).integers(2 ** 31))
            reports = ev.evaluate_split(_model(config, dparams, nparams), store, "valid",
                                        seed=seed_eval, index=valid_index, lam=config.lam)
            val_mrr = reports["all"].mrr
            val_mrr_new = reports["new-events"].mrr
            val_mrr_periodic = reports["periodic"].mrr

        line = {
            "epoch": epoch,
            "loss_total": sums["total"] / max(n_batches, 1),
            "loss_ce": sums["ce"] / max(n_batches, 1),
            "loss_sup": sums["sup"] / max(n_batches, 1),
            "loss_diff": sums["diff"] / max(n_batches, 1),
            "val_mrr": val_mrr,
            "val_mrr_new": val_mrr_new,
            "val_mrr_periodic": val_mrr_periodic,
            "wall_seconds": time.perf_counter() - t0,
        }
        metrics.append(line)
        if out_path is not None:
            with open(out_path / "metrics.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")

        improved = valid_index is not None and val_mrr > best_mrr
        if improved:
            best_mrr = val_mrr
        current = state(epoch + 1)
        if out_path is not None:
            save_checkpoint(current, out_path / "last.ckpt")
            if improved:
                _link(out_path / "last.ckpt", out_path / "best.ckpt")
        if improved:
            # only a best that later epochs would step keeps its own moments
            best = current if epoch + 1 == config.total_epochs else \
                dataclasses.replace(current, adam=_copy_adam(adam))

    final = state(config.total_epochs)
    if out_path is not None:
        if start_epoch >= config.total_epochs:   # no epoch wrote last.ckpt
            save_checkpoint(final, out_path / "last.ckpt")
        if valid_index is None:
            _link(out_path / "last.ckpt", out_path / "best.ckpt")
    if best is None:
        best = final
    best.metrics = list(metrics)
    return best


def _maybe(t: Tensor | None):
    return None if t is None else t.item()
