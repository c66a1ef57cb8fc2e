"""Quadruple corpora: TSV loading, vocabularies, time-ordered splits, the
per-(subject, relation) history index with signed frequency values, new-event
extraction, and token entropies for the diffusion noise schedule.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError

__all__ = [
    "QuadStore", "PeriodicIndex", "TokenEntropy",
    "load_quads", "build_periodic_index", "is_new_event",
    "extract_new_events", "token_entropies",
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
    entity_ids: dict[str, int] = field(repr=False, default_factory=dict)
    relation_ids: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.entity_ids:
            self.entity_ids = {s: i for i, s in enumerate(self.entity_names)}
        if not self.relation_ids:
            self.relation_ids = {s: i for i, s in enumerate(self.relation_names)}

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

    store = QuadStore(quads, entity_names, relation_names, ts_order,
                      train_end, valid_end, dict(entity_ids), dict(relation_ids))
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


@dataclass
class PeriodicIndex:
    """Answers, for any (s, r, t): the set of objects seen strictly before t
    within the indexed scope, and the signed frequency value +lam / -lam."""

    lam: float
    n_entities: int
    _by_sr: dict[tuple[int, int], tuple[list[int], list[int]]]  # (s,r) -> (ts, objs)

    def history(self, s: int, r: int, t: int) -> set[int]:
        entry = self._by_sr.get((int(s), int(r)))
        if entry is None:
            return set()
        ts, objs = entry
        cut = bisect.bisect_left(ts, t)
        return set(objs[:cut])

    def z_value(self, s: int, r: int, t: int, o: int) -> float:
        return self.lam if int(o) in self.history(s, r, t) else -self.lam

    def z_row(self, s: int, r: int, t: int) -> np.ndarray:
        row = np.full(self.n_entities, -self.lam)
        hist = self.history(s, r, t)
        if hist:
            row[list(hist)] = self.lam
        return row


def build_periodic_index(store: QuadStore, lam: float,
                         scope: tuple[str, ...] = ("train",)) -> PeriodicIndex:
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    by_sr: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for split in scope:
        for s, r, o, t in store.split(split):
            key = (int(s), int(r))
            if key not in by_sr:
                by_sr[key] = ([], [])
            by_sr[key][0].append(int(t))
            by_sr[key][1].append(int(o))
    for ts, objs in by_sr.values():
        order = np.argsort(np.asarray(ts), kind="stable")
        ts[:] = [ts[i] for i in order]
        objs[:] = [objs[i] for i in order]
    return PeriodicIndex(float(lam), store.n_entities, by_sr)


def is_new_event(index: PeriodicIndex, s: int, r: int, o: int, t: int) -> bool:
    """True iff object o was never seen with (s, r) strictly before t."""
    return int(o) not in index.history(s, r, t)


def extract_new_events(store: QuadStore) -> QuadStore:
    """Keep only the earliest occurrence of each distinct (s, r, o) triple,
    re-splitting at the same timestamp boundaries."""
    seen: set[tuple[int, int, int]] = set()
    keep = np.zeros(len(store.quads), dtype=bool)
    for i, (s, r, o, _) in enumerate(store.quads):
        key = (int(s), int(r), int(o))
        if key not in seen:
            seen.add(key)
            keep[i] = True
    kept = store.quads[keep]

    train = store.split("train")
    valid = store.split("valid")
    t_train_max = int(train[:, 3].max()) if len(train) else -1
    t_valid_max = int(valid[:, 3].max()) if len(valid) else t_train_max
    train_end = int(np.searchsorted(kept[:, 3], t_train_max, side="right"))
    valid_end = int(np.searchsorted(kept[:, 3], t_valid_max, side="right"))
    return QuadStore(kept, store.entity_names, store.relation_names,
                     store.timestamps, train_end, valid_end,
                     dict(store.entity_ids), dict(store.relation_ids))


@dataclass
class TokenEntropy:
    """Per-token training frequencies and entropies over the combined
    vocabulary: entities, then relations, then the mask token (last id)."""

    n_entities: int
    n_relations: int
    counts: np.ndarray        # (K,) int64 over entity+relation+mask ids
    entropy: np.ndarray       # (K,) float, -log(max(count, 1) / total_positions)
    total_positions: int

    @property
    def vocab_size(self) -> int:
        return self.n_entities + self.n_relations + 1

    @property
    def mask_token(self) -> int:
        return self.vocab_size - 1

    def quad_tokens(self, quads: np.ndarray) -> np.ndarray:
        """(n, 4) quads -> (n, 3) combined-vocabulary token ids."""
        out = np.empty((len(quads), 3), dtype=np.int64)
        out[:, 0] = quads[:, 0]
        out[:, 1] = self.n_entities + quads[:, 1]
        out[:, 2] = quads[:, 2]
        return out


def token_entropies(store: QuadStore) -> TokenEntropy:
    """Entropy -log(frequency) per token, counted over all three positions of
    the training quads; unseen tokens are smoothed to frequency 1."""
    train = store.split("train")
    if len(train) == 0:
        raise DataError("token_entropies needs a non-empty training split")
    k = store.n_entities + store.n_relations + 1
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(counts, train[:, 0], 1)
    np.add.at(counts, store.n_entities + train[:, 1], 1)
    np.add.at(counts, train[:, 2], 1)
    total = 3 * len(train)
    entropy = -np.log(np.maximum(counts, 1) / total)
    return TokenEntropy(store.n_entities, store.n_relations, counts, entropy, total)
