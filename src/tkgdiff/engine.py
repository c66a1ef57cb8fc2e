"""Joint training: two-stage schedule, the blended objective, Adam updates,
validation-selected checkpoints, flat-file configuration, and a JSON-lines
metrics log.

Per-epoch randomness (shuffling, diffusion corruption) is derived statelessly
from (seed, epoch), so a resumed run replays the exact stream of the
uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

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
CHECKPOINT_VERSION = 7

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
    """Flat `key = value` lines; '#' starts a comment. A key set on two lines
    is refused (ConfigError), as a checkpoint header refuses a repeated key;
    `apply_overrides` is where a value is replaced."""
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            if key in set_on:
                raise ConfigError(f"{path}:{line_no}: key '{key}' is already set on "
                                  f"line {set_on[key]}")
            set_on[key] = line_no
            out[key] = value
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

def joint_loss(alpha: float, ce, sup, diff) -> tuple[float, Callable[[float], dict]]:
    """Blend: alpha * diff + (1 - alpha) * (ce + sup), of losses given as
    (value, backward) pairs (dpcl.ce_loss, dpcl.supcon_loss,
    gndiff.batch_loss). A term passed as None is left out: `sup` in stage 1
    and in a batch too small to contrast, the losses of the component a run
    ablates. With one component's losses only, they are unweighted.

    Returns the blend's value and its backward. Each term's weight scales
    its value and its backward: `backward(scale)` gives the gradient of
    scale x the blend for each parameter a term reaches, by record name
    (`dpcl.*`, `denoiser.*`), adding the terms' gradients in the order ce,
    sup, diff.
    """
    dpcl_weight = 1.0 if diff is None else 1.0 - alpha
    diff_weight = 1.0 if ce is None else alpha
    terms = [(weight, prefix, term) for weight, prefix, term in (
        (dpcl_weight, "dpcl", ce), (dpcl_weight, "dpcl", sup), (diff_weight, "denoiser", diff))
        if term is not None]

    def backward(scale):
        grads = {}
        for weight, prefix, (_, term_backward) in terms:
            for name, grad in term_backward(scale * weight).items():
                key = f"{prefix}.{name}"
                if key in grads:
                    grads[key] += grad
                else:
                    grads[key] = grad
        return grads

    return sum(weight * value for weight, _, (value, _) in terms), backward


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
    adam_steps: int              # Adam steps taken, one per batch, each over every tensor
    epoch: int                   # next epoch to run
    best_val_mrr: float = -1.0
    metrics: list = field(default_factory=list, repr=False)  # one line per epoch run

    def named_tensors(self) -> dict[str, Tensor]:
        """The parameters by record name (`dpcl.*`, `denoiser.*`)."""
        out = {}
        for prefix, params in (("dpcl", self.dpcl), ("denoiser", self.denoiser)):
            if params is not None:
                out.update({f"{prefix}.{k}": v for k, v in params.named().items()})
        return out

    @property
    def vocabulary(self) -> tuple[int, int]:
        """The entity and relation counts the parameters cover."""
        if self.dpcl is not None:
            return self.dpcl.entity_emb.shape[0], self.dpcl.relation_emb.shape[0]
        return self.denoiser.n_entities, self.denoiser.n_relations


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """The bytes before a record's payload: u32 name length, name, rank, dims."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}I", len(encoded), encoded,
                       len(shape), *shape)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint atomically: records stream into `<name>.tmp` in
    the same directory, which is flushed, synced and renamed over `path`. A
    write that fails leaves any previous file at `path` untouched, and no
    write changes the bytes of a file that shares the old inode of `path`.

    Layout (little-endian): the magic `TKGD`; u32 format version; u32 header
    length; a JSON header with sorted keys (`config`, `epoch`, `adam_steps`,
    the run's one Adam step count, `best_val_mrr`, the vocabulary sizes
    `n_entities` and `n_relations`, and the per-epoch `metrics` lines); then
    one record per tensor in name order: its head (`_record_head`) and its
    float64 payload. The records are the parameters (`dpcl.*`, `denoiser.*`)
    and their Adam moments (`adam.m.<name>`, `adam.v.<name>`); the component
    the config ablates has none. The denoiser's output rows are one block per
    token role (`w2` is (2|E|+|R|, h)). This is format version 7, whose
    records are format 6's byte for byte; `load_checkpoint` rejects any other
    version with CheckpointVersionError.
    """
    arrays = {name: t.data for name, t in ckpt.named_tensors().items()}
    for name, state in ckpt.adam.items():
        arrays[f"adam.m.{name}"] = state.m
        arrays[f"adam.v.{name}"] = state.v
    n_entities, n_relations = ckpt.vocabulary
    header = {
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "adam_steps": ckpt.adam_steps,
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
                fh.write(_record_head(name, data.shape))
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

    The header is the file's only schema. Its config, `n_entities` and
    `n_relations` give the name and shape of each parameter the config
    trains (`_param_shapes`); the records are those parameters and each
    one's two Adam moments of its shape, in the name order save_checkpoint
    writes. So the header fixes the size of the rest of the file and every
    record head in it. A file of another size is refused before any payload
    is read or allocated: a shorter one as truncated. Every record head is
    then compared with the one the header implies before any payload is
    read. The payloads are read by their offsets, in chunks that the
    caller's thread and numkit's helper thread share, and each chunk is
    scanned as it is read. Of several faults, the first in file order is
    reported. The component the config ablates has no records and loads as
    None.

    CheckpointError for a bad magic, an unknown version
    (CheckpointVersionError), truncation, a size or a record head other than
    the header implies, a non-finite payload, a header that is not the
    expected JSON or repeats a key within one of its objects, a config that
    TrainConfig.from_dict refuses, an `epoch`, `adam_steps`, `n_entities` or
    `n_relations` that is not a non-negative int, a `best_val_mrr` that is
    not a finite number, or `metrics` that are not a list of JSON objects.

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
        except (KeyError, TypeError, ValueError, AttributeError, NumericError, struct.error) as e:
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
    n_entities, n_relations, epoch, adam_steps = (
        _count(header[key], key) for key in ("n_entities", "n_relations", "epoch", "adam_steps"))
    best = header["best_val_mrr"]
    if type(best) not in (int, float) or not math.isfinite(best):
        raise ValueError(f"best_val_mrr must be a finite number, got {best!r}")
    metrics = header["metrics"]
    if type(metrics) is not list or any(type(line) is not dict for line in metrics):
        raise ValueError(f"metrics must be a list of JSON objects, got {metrics!r}")
    params = _param_shapes(config, n_entities, n_relations)
    records = sorted((kind + name, shape) for name, shape in params.items()
                     for kind in ("", "adam.m.", "adam.v."))
    heads = [_record_head(name, shape) for name, shape in records]
    # the file offset of each record, and of the end of the last
    starts = list(itertools.accumulate(
        (len(head) + 8 * math.prod(shape) for head, (_, shape) in zip(heads, records)),
        initial=fh.tell()))
    body, left = starts[-1] - starts[0], size - starts[0]
    if left != body:
        sizes = f"the header implies {body} bytes of records, the file holds {left}"
        if left < body:
            raise CheckpointError(f"truncated checkpoint: {sizes}")
        raise ValueError(sizes)

    # every record head is compared before any payload is read; the payloads
    # before the first head that differs are then read by offset, in chunks
    fd = fh.fileno()
    bad = next((i for i, head in enumerate(heads)
                if os.pread(fd, len(head), starts[i]) != head), len(records))
    arrays: dict[str, np.ndarray] = {}
    chunks = []
    for (name, shape), head, start in zip(records[:bad], heads, starts):
        arrays[name] = np.empty(shape, dtype="<f8")
        flat = arrays[name].reshape(-1)
        chunks += [(name, flat[i:i + nk._CHUNK], start + len(head) + 8 * i)
                   for i in range(0, flat.size, nk._CHUNK)]
    nk._run_chunks(functools.partial(_read_chunk, fd), chunks,
                   sum(arr.size for arr in arrays.values()))
    if bad < len(records):
        name, shape = records[bad]
        raise ValueError(f"the next record is not '{name}' of shape {shape}, "
                         f"as the header implies")

    tensors = {name: nk._wrap(arrays[name]) for name in params}
    dparams = None if config.no_dpcl else DpclParams(**_unprefixed(tensors, "dpcl"))
    nparams = None if config.no_gndiff else DenoiserParams(
        **_unprefixed(tensors, "denoiser"), n_entities=n_entities, n_relations=n_relations,
        width=config.d_diff)
    adam = {name: AdamState(arrays[f"adam.m.{name}"], arrays[f"adam.v.{name}"])
            for name in params}
    return Checkpoint(config=config, dpcl=dparams, denoiser=nparams, adam=adam,
                      adam_steps=adam_steps, epoch=epoch, best_val_mrr=best, metrics=metrics)


def _read_chunk(fd: int, chunk: tuple[str, np.ndarray, int]) -> None:
    """Read one chunk of a record's payload into its place at its file
    offset, and scan it."""
    name, values, offset = chunk
    if os.preadv(fd, [values], offset) != values.nbytes:
        raise CheckpointError(f"truncated checkpoint while reading tensor '{name}'")
    if not np.isfinite(values).all():
        raise NumericError(f"tensor '{name}' contains non-finite values")


def _check_vocabulary(ckpt: Checkpoint, store: QuadStore) -> None:
    sizes = ckpt.vocabulary
    if sizes != (store.n_entities, store.n_relations):
        raise DataError(
            f"checkpoint has {sizes[0]} entities and {sizes[1]} relations, the store "
            f"{store.n_entities} entities and {store.n_relations} relations")


def model_from_checkpoint(ckpt: Checkpoint, store: QuadStore) -> ev.Model:
    """Evaluation bundle for a checkpoint whose vocabulary is the store's:
    its parameters and the config values they score with.

    Raises DataError when the checkpoint's entity or relation count differs
    from the store's."""
    _check_vocabulary(ckpt, store)
    config = ckpt.config
    return ev.Model(dpcl=ckpt.dpcl, denoiser=ckpt.denoiser,
                    mapping_strategy=config.mapping_strategy, steps=config.steps,
                    chains=config.chains, lam=config.lam)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

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
    validation MRR (final state if validation is empty).

    The run is one Checkpoint, `resume_from`'s run under `config` or a fresh
    one, that each batch and epoch update in place: `last.ckpt` is written
    from it, and the best is a snapshot of it (or, after a resume, the
    `best.ckpt` described below). Training batches take their history from
    the train split's periodic index at `config.lam`, and each validation is
    `evaluate_split` of the valid split at `config.lam`. DPCL scores with
    `config.mapping_strategy`. The component the config ablates is never
    initialised or trained, and is None in every checkpoint of the run. The
    returned `metrics` hold one line per epoch, including the epochs before a
    resume; a line carries the validation MRR overall (`val_mrr`, which
    selects the best state) and of the new-event and periodic strata.

    With `out_dir`, `metrics.jsonl` starts as the run's `metrics` (none for
    a fresh run, the resumed checkpoint's lines for a resume), so it never
    holds another run's lines or an epoch twice; every epoch appends its line
    and writes its state to `last.ckpt`. `best.ckpt` holds the best state;
    when that is the state just written to `last.ckpt` (an epoch that
    improves the validation MRR, or the final state when validation is
    empty), it is a hard link to that file, which the next `last.ckpt` write
    replaces by a new file and leaves as it is.

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
    entropy = None if config.no_gndiff else token_entropies(store)
    index = build_periodic_index(store, config.lam, ("train",))
    has_valid = len(store.split("valid")) > 0

    best = None
    if resume_from is not None:
        run = load_checkpoint(resume_from)
        _check_resumable(run, config, store)
        run.config = config
        best_path = Path(resume_from).with_name("best.ckpt")
        if has_valid and best_path.exists():
            saved = load_checkpoint(best_path)
            if saved.best_val_mrr == run.best_val_mrr:
                best = dataclasses.replace(saved, config=config)
    else:
        init_rng = nk.rng_for(config.seed, _NS_INIT)
        run = Checkpoint(
            config=config,
            dpcl=None if config.no_dpcl else dpcl_mod.init_params(
                store.n_entities, store.n_relations, config.d_dpcl, init_rng),
            denoiser=None if config.no_gndiff else gndiff.init_denoiser(
                store.n_entities, store.n_relations, config.d_diff, init_rng),
            adam={name: AdamState.zeros(shape) for name, shape in
                  _param_shapes(config, store.n_entities, store.n_relations).items()},
            adam_steps=0, epoch=0)
    start_epoch = run.epoch

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        with open(out_path / "metrics.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(line) + "\n" for line in run.metrics)

    for epoch in range(start_epoch, config.total_epochs):
        t0 = time.perf_counter()
        stage = 1 if epoch < config.epochs_stage1 else 2
        erng = nk.rng_for(config.seed, _NS_EPOCH, epoch)
        order = erng.permutation(len(train_quads))
        sums = {"ce": 0.0, "sup": 0.0, "diff": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, len(order), config.batch):
            quads = train_quads[order[start:start + config.batch]]
            losses = {"ce": None, "sup": None, "diff": None}
            try:
                if not config.no_dpcl:
                    batch = QueryBatch.from_quads(quads, index)
                    losses["ce"] = dpcl_mod.ce_loss(run.dpcl, batch, config.mapping_strategy)
                    if stage == 2 and len(batch) >= 2:
                        losses["sup"] = dpcl_mod.supcon_loss(run.dpcl, batch, config.tau)
                if not config.no_gndiff:
                    losses["diff"] = gndiff.batch_loss(run.denoiser, entropy, quads,
                                                       config.steps, config.mu, erng)
                total, backward = joint_loss(config.alpha, **losses)
                if not math.isfinite(total):
                    raise NumericError("the total loss is not finite")
            except NumericError as e:
                values = ", ".join(f"{name}={None if loss is None else loss[0]}"
                                   for name, loss in losses.items())
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {n_batches}: "
                                   f"{values}") from e
            for name, loss in losses.items():
                sums[name] += 0.0 if loss is None else loss[0]
            sums["total"] += total

            grads = backward(1.0)
            # the forward's intermediates, which the backwards hold, and each
            # gradient once it is applied, go back to the allocator before the
            # next array of the step is made
            del backward, losses
            trainable = run.named_tensors()
            run.adam_steps += 1
            # a parameter no loss of the batch reaches (w_ctr and b_ctr in
            # stage 1) steps with a zero gradient
            updated = {n: nk.adam_step(run.adam[n], p,
                                       grads.pop(n) if n in grads else np.zeros(p.shape),
                                       run.adam_steps, config.lr)
                       for n, p in trainable.items()}
            if not config.no_dpcl:
                dpcl_updates = _unprefixed(updated, "dpcl")
                if needs_ball:
                    emb = dpcl_updates["entity_emb"]
                    dpcl_updates["entity_emb"] = nk._wrap(project_array_to_ball(emb.data))
                run.dpcl = dataclasses.replace(run.dpcl, **dpcl_updates)
            if not config.no_gndiff:
                run.denoiser = dataclasses.replace(run.denoiser,
                                                   **_unprefixed(updated, "denoiser"))
            n_batches += 1

        val_mrr = val_mrr_new = val_mrr_periodic = 0.0
        if has_valid:
            seed_eval = int(nk.rng_for(config.seed, _NS_EVAL, epoch).integers(2 ** 31))
            reports = ev.evaluate_split(model_from_checkpoint(run, store), store, "valid",
                                        seed=seed_eval, lam=config.lam)
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
        run.metrics.append(line)
        if out_path is not None:
            with open(out_path / "metrics.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(line) + "\n")

        improved = has_valid and val_mrr > run.best_val_mrr
        if improved:
            run.best_val_mrr = val_mrr
        run.epoch = epoch + 1
        if out_path is not None:
            save_checkpoint(run, out_path / "last.ckpt")
            if improved:
                _link(out_path / "last.ckpt", out_path / "best.ckpt")
        if improved:
            # only a best that later epochs would step keeps its own moments
            adam = run.adam if run.epoch == config.total_epochs else {
                name: AdamState(s.m.copy(), s.v.copy()) for name, s in run.adam.items()}
            best = dataclasses.replace(run, adam=adam)

    run.epoch = config.total_epochs
    if out_path is not None:
        if start_epoch >= config.total_epochs:   # no epoch wrote last.ckpt
            save_checkpoint(run, out_path / "last.ckpt")
        if not has_valid:
            _link(out_path / "last.ckpt", out_path / "best.ckpt")
    return run if best is None else dataclasses.replace(best, metrics=run.metrics)
