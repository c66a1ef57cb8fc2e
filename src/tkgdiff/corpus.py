"""Quadruple corpora: TSV loading, vocabularies, time-ordered splits, the
sorted (subject, relation, timestamp) history index with signed frequency
values and batched lookups, and the per-token entropy vector that sets the
diffusion noise schedule, indexed by GNDiff's combined-vocabulary id (the
layout `gndiff` defines).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError

__all__ = [
    "QuadStore", "PeriodicIndex", "load_quads", "segments",
    "check_lam", "build_periodic_index", "is_new_event", "token_entropies",
]

SPLITS = ("train", "valid", "test")


@dataclass
class QuadStore:
    """Time-sorted (subject, relation, object, timestamp-index) facts with
    vocabularies and contiguous-in-time split boundaries."""

    quads: np.ndarray                   # (n, 4) int64, ascending timestamp-index
    entity_names: list[str]
    relation_names: list[str]
    timestamps: list[str]               # raw values by dense index
    train_end: int                      # quad index: quads[:train_end] is train
    valid_end: int

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    @property
    def n_timestamps(self) -> int:
        return len(self.timestamps)

    def split(self, name: str) -> np.ndarray:
        if name == "train":
            return self.quads[:self.train_end]
        if name == "valid":
            return self.quads[self.train_end:self.valid_end]
        if name == "test":
            return self.quads[self.valid_end:]
        raise KeyError(f"unknown split '{name}'")

    def split_counts(self) -> dict[str, int]:
        return {s: len(self.split(s)) for s in SPLITS}

    def check_invariants(self) -> None:
        q = self.quads
        if len(q):
            if np.any(np.diff(q[:, 3]) < 0):
                raise DataError("quads are not sorted by timestamp")
            if q[:, 0].max() >= self.n_entities or q[:, 2].max() >= self.n_entities:
                raise DataError("entity id out of vocabulary range")
            if q[:, 1].max() >= self.n_relations:
                raise DataError("relation id out of vocabulary range")
            if q[0, 3] < 0 or q[-1, 3] >= self.n_timestamps:
                raise DataError("timestamp index out of range")
        for earlier, later in (("train", "valid"), ("valid", "test")):
            a, b = self.split(earlier), self.split(later)
            if len(a) and len(b) and a[:, 3].max() >= b[:, 3].min():
                raise DataError(f"{earlier}/{later} splits overlap in time")


def _parse_lines(path: Path, entity_ids, relation_ids, entity_names, relation_names):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (4, 5):           # optional 5th field ignored
                raise ParseError(path, line_no,
                                 f"expected 4 tab-separated fields, got {len(fields)}")
            s, r, o, t = fields[:4]
            for name, table, names in ((s, entity_ids, entity_names),
                                       (r, relation_ids, relation_names),
                                       (o, entity_ids, entity_names)):
                if name not in table:
                    table[name] = len(names)
                    names.append(name)
            rows.append((entity_ids[s], relation_ids[r], entity_ids[o], t))
    return rows


def _timestamp_order(raw_values: set[str]) -> list[str]:
    try:
        return sorted(raw_values, key=lambda v: int(v))
    except ValueError:
        return sorted(raw_values)


def load_quads(path) -> QuadStore:
    """Load a quadruple corpus from TSV.

    `path` may be one file (auto-split 80/10/10 by timestamp), a directory
    holding train/valid/test files, or a sequence of exactly three paths.
    """
    paths = _resolve_paths(path)

    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    entity_names: list[str] = []
    relation_names: list[str] = []
    per_file = [_parse_lines(p, entity_ids, relation_ids, entity_names, relation_names)
                for p in paths]
    if sum(len(rows) for rows in per_file) == 0:
        raise DataError(f"empty dataset: {', '.join(str(p) for p in paths)}")

    raw_ts = {t for rows in per_file for (_, _, _, t) in rows}
    ts_order = _timestamp_order(raw_ts)
    ts_index = {t: i for i, t in enumerate(ts_order)}

    def to_array(rows):
        arr = np.array([(s, r, o, ts_index[t]) for s, r, o, t in rows],
                       dtype=np.int64).reshape(-1, 4)
        return arr[np.argsort(arr[:, 3], kind="stable")]

    if len(per_file) == 1:
        quads = to_array(per_file[0])
        train_end, valid_end = _quantile_marks(quads)
    else:
        parts = [to_array(rows) for rows in per_file]
        quads = np.concatenate(parts)
        train_end = len(parts[0])
        valid_end = train_end + len(parts[1])

    store = QuadStore(quads, entity_names, relation_names, ts_order, train_end, valid_end)
    store.check_invariants()
    return store


def _resolve_paths(path) -> list[Path]:
    if isinstance(path, (list, tuple)):
        if len(path) != 3:
            raise DataError(f"expected 3 paths (train/valid/test), got {len(path)}")
        paths = [Path(p) for p in path]
    else:
        p = Path(path)
        if p.is_dir():
            paths = []
            for split in SPLITS:
                for suffix in (".txt", ".tsv", ""):
                    cand = p / f"{split}{suffix}"
                    if cand.is_file():
                        paths.append(cand)
                        break
                else:
                    raise DataError(f"missing {split} file under {p}")
        else:
            paths = [p]
    for q in paths:
        if not q.is_file():
            raise DataError(f"no such file: {q}")
    return paths


def _quantile_marks(quads: np.ndarray) -> tuple[int, int]:
    """Split boundaries at the 80/10/10 timestamp quantiles: a timestamp's
    quads always land in a single split."""
    n = len(quads)
    ts = quads[:, 3]
    boundaries = np.searchsorted(ts, np.arange(ts.max() + 1), side="right") \
        if n else np.array([0])
    # boundaries[k] = number of quads with timestamp index <= k
    train_end = int(next((b for b in boundaries if b >= 0.8 * n), n))
    valid_end = int(next((b for b in boundaries if b >= 0.9 * n), n))
    valid_end = max(valid_end, train_end)
    if train_end == 0 or valid_end == train_end or valid_end == n:
        raise DataError("timestamp quantiles give an empty split; "
                        "provide explicit train/valid/test files")
    return train_end, valid_end


def segments(sorted_keys: np.ndarray, lo_keys, hi_keys) -> tuple[np.ndarray, np.ndarray]:
    """(row, position) of every position p with lo_keys[i] <= sorted_keys[p]
    < hi_keys[i], grouped by row i in ascending order, from two searchsorted
    calls; a caller gathers its values at the positions. Needs
    lo_keys <= hi_keys."""
    lo = np.searchsorted(sorted_keys, lo_keys)
    counts = np.searchsorted(sorted_keys, hi_keys) - lo
    rows = np.repeat(np.arange(len(counts)), counts)
    start = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return rows, np.arange(len(rows)) + start


@dataclass
class PeriodicIndex:
    """The first fact of each (subject, relation, object) in a scope, sorted
    by (subject, relation, timestamp) key, CSR style.

    A key is `(s * n_relations + r) * stride + t`, so each (s, r) pair's first
    facts form one run of `keys` in time order. An object is in the history
    of (s, r) before t iff its first fact with the pair is before t, so that
    history is the run with keys in [key(s, r, 0), key(s, r, t)), each
    object once. `objects` holds each key's object. With the signed
    frequency value `lam`, an object in the history scores +lam and every
    other object -lam.
    """

    lam: float
    n_entities: int
    n_relations: int
    stride: int             # n_timestamps + 1: above every timestamp index
    keys: np.ndarray        # (n,) int64, ascending
    objects: np.ndarray     # (n,) int64, the object of each key's fact

    def key(self, s, r, t) -> np.ndarray:
        """(s, r, t) keys. A time is clipped to [0, stride - 1], so a time
        past every fact keys after all of its pair's facts and before the
        next pair's."""
        pair = np.asarray(s, dtype=np.int64) * self.n_relations + r
        return pair * self.stride + np.minimum(np.maximum(t, 0), self.stride - 1)

    def history_pairs(self, s, r, t) -> tuple[np.ndarray, np.ndarray]:
        """(row, object) pairs of a batch of queries: for query i, every
        object seen with (s[i], r[i]) strictly before t[i], once."""
        hi = self.key(s, r, t)
        rows, pos = segments(self.keys, hi - hi % self.stride, hi)
        return rows, self.objects[pos]

    def history(self, s: int, r: int, t: int) -> set[int]:
        """The objects seen with (s, r) strictly before t: one query's
        history_pairs."""
        return set(self.history_pairs([s], [r], [t])[1].tolist())


def check_lam(lam: float) -> None:
    """ValueError unless the signed history value `lam` is positive and
    finite."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def build_periodic_index(store: QuadStore, lam: float,
                         scope: tuple[str, ...]) -> PeriodicIndex:
    """The index of the facts in the scope's splits: one concatenate, one
    stable sort by (s, r, t) key, and the first fact of each (s, r, o) in
    that order. `lam` must be positive and finite (check_lam)."""
    check_lam(lam)
    facts = np.concatenate([store.quads[:0], *(store.split(name) for name in scope)])
    stride = store.n_timestamps + 1
    pair = facts[:, 0] * store.n_relations + facts[:, 1]
    keys = pair * stride + facts[:, 3]
    order = np.argsort(keys, kind="stable")
    _, first = np.unique((pair * store.n_entities + facts[:, 2])[order], return_index=True)
    keep = order[np.sort(first)]
    return PeriodicIndex(float(lam), store.n_entities, store.n_relations, stride,
                         keys[keep], facts[keep, 2])


def is_new_event(index: PeriodicIndex, s: int, r: int, o: int, t: int) -> bool:
    """True iff object o was never seen with (s, r) strictly before t."""
    return int(o) not in index.history(s, r, t)


def token_entropies(store: QuadStore) -> np.ndarray:
    """The (|E|+|R|+1,) entropy -log(frequency) of each combined-vocabulary
    token (entities, then relations, then the mask), counted over all three
    positions of the training quads; unseen tokens, the mask among them, are
    smoothed to frequency 1."""
    train = store.split("train")
    if len(train) == 0:
        raise DataError("token_entropies needs a non-empty training split")
    counts = np.zeros(store.n_entities + store.n_relations + 1, dtype=np.int64)
    np.add.at(counts, train[:, 0], 1)
    np.add.at(counts, store.n_entities + train[:, 1], 1)
    np.add.at(counts, train[:, 2], 1)
    return -np.log(np.maximum(counts, 1) / (3 * len(train)))
