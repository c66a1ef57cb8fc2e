"""Seeded synthetic quadruple corpora for the benchmark (numpy only).

A corpus has three time-contiguous windows (train, valid, test) over
`n_timestamps` dense timestamps. Training facts mix two sources:

* planted periodic facts: a fixed set of (subject, relation) pairs, each with
  one to three objects that fire in turn every `period` timestamps. Pairs are
  drawn with Zipf weights, so a few pairs carry long histories;
* noise facts: Zipf subject, uniform relation and object, uniform time.

Subjects and planted pairs are drawn with Zipf exponent `ZIPF`.

Valid and test facts are split exactly: `round(new_share * n)` of them are new
events (the object was never seen with the pair before the fact's timestamp),
the rest repeat an object already in the pair's history. The same spec and
seed always give the same store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tkgdiff.corpus import QuadStore, build_periodic_index, is_new_event

ZIPF = 1.1


@dataclass(frozen=True)
class CorpusSpec:
    n_entities: int
    n_relations: int
    n_timestamps: int
    n_train: int
    n_valid: int
    n_test: int
    n_pairs: int            # planted periodic (subject, relation) pairs
    periodic_share: float   # share of training facts drawn from planted pairs
    new_share: float        # share of valid/test facts that are new events
    valid_window: int       # timestamps in the valid window
    test_window: int        # timestamps in the test window


def _zipf_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf(ZIPF) probabilities over a seeded permutation of range(n)."""
    w = np.empty(n)
    w[rng.permutation(n)] = 1.0 / np.arange(1, n + 1) ** ZIPF
    return w / w.sum()


class _Pairs:
    """The planted periodic pairs: subject, relation, period, phase, objects."""

    def __init__(self, spec: CorpusSpec, subject_p: np.ndarray,
                 rng: np.random.Generator):
        keys: dict[tuple[int, int], int] = {}
        while len(keys) < spec.n_pairs:
            s = int(rng.choice(spec.n_entities, p=subject_p))
            r = int(rng.integers(spec.n_relations))
            keys.setdefault((s, r), len(keys))
        self.keys = list(keys)
        self.period = rng.integers(2, 13, size=spec.n_pairs)
        self.phase = rng.integers(0, 12, size=spec.n_pairs) % self.period
        self.objects = [rng.choice(spec.n_entities, size=int(rng.integers(1, 4)),
                                   replace=False) for _ in range(spec.n_pairs)]
        self.weight = _zipf_weights(spec.n_pairs, rng)

    def object_at(self, k: int, t: int) -> int:
        objs = self.objects[k]
        return int(objs[(t // int(self.period[k])) % len(objs)])


def _train_facts(spec: CorpusSpec, pairs: _Pairs, subject_p: np.ndarray,
                 t_end: int, rng: np.random.Generator) -> list[tuple[int, int, int, int]]:
    n_per = int(round(spec.periodic_share * spec.n_train))
    facts = []
    for k in rng.choice(spec.n_pairs, size=n_per, p=pairs.weight):
        slots = np.arange(int(pairs.phase[k]), t_end, int(pairs.period[k]))
        t = int(rng.choice(slots))
        s, r = pairs.keys[k]
        facts.append((s, r, pairs.object_at(k, t), t))
    n_noise = spec.n_train - n_per
    subj = rng.choice(spec.n_entities, size=n_noise, p=subject_p)
    rels = rng.integers(spec.n_relations, size=n_noise)
    objs = rng.integers(spec.n_entities, size=n_noise)
    times = rng.integers(t_end, size=n_noise)
    facts.extend(zip(subj.tolist(), rels.tolist(), objs.tolist(), times.tolist()))
    return facts


def _window_facts(spec: CorpusSpec, pairs: _Pairs, subject_p: np.ndarray, n: int,
                  t_lo: int, t_hi: int, seen: dict[tuple[int, int], set[int]],
                  rng: np.random.Generator) -> list[tuple[int, int, int, int]]:
    """n facts in [t_lo, t_hi) with an exact new-event count; `seen` holds the
    objects of each pair before t_lo and is advanced past the window."""
    times = np.sort(rng.integers(t_lo, t_hi, size=n))
    is_new = np.zeros(n, dtype=bool)
    is_new[rng.permutation(n)[:int(round(spec.new_share * n))]] = True
    facts = []
    pending: list[tuple[int, int, int]] = []
    current = None
    for t, new in zip(times.tolist(), is_new.tolist()):
        if t != current:            # history is strictly before t
            for s, r, o in pending:
                seen.setdefault((s, r), set()).add(o)
            pending, current = [], t
        if new:
            if rng.random() < 0.5:
                s, r = pairs.keys[int(rng.choice(spec.n_pairs, p=pairs.weight))]
            else:
                s = int(rng.choice(spec.n_entities, p=subject_p))
                r = int(rng.integers(spec.n_relations))
            hist = seen.get((s, r), set())
            if len(hist) >= spec.n_entities:
                raise ValueError(f"pair {(s, r)} has no unseen object left")
            o = int(rng.integers(spec.n_entities))
            while o in hist:
                o = int(rng.integers(spec.n_entities))
        else:
            live = [k for k, key in enumerate(pairs.keys) if seen.get(key)]
            if not live:
                raise ValueError("no planted pair has history; raise n_train "
                                 "or periodic_share")
            w = pairs.weight[live] / pairs.weight[live].sum()
            k = live[int(rng.choice(len(live), p=w))]
            s, r = pairs.keys[k]
            hist = seen[(s, r)]
            o = pairs.object_at(k, t)
            if o not in hist:
                o = int(rng.choice(sorted(hist)))
        facts.append((s, r, o, t))
        pending.append((s, r, o))
    for s, r, o in pending:
        seen.setdefault((s, r), set()).add(o)
    return facts


def generate(spec: CorpusSpec, seed: int) -> QuadStore:
    """A time-sorted QuadStore with exactly n_train / n_valid / n_test facts."""
    rng = np.random.default_rng([seed, spec.n_entities, spec.n_relations])
    t_valid = spec.n_timestamps - spec.valid_window - spec.test_window
    t_test = spec.n_timestamps - spec.test_window
    if t_valid < 1 or spec.valid_window < 0 or spec.test_window < 1:
        raise ValueError("windows do not fit in the timestamp range")
    subject_p = _zipf_weights(spec.n_entities, rng)
    pairs = _Pairs(spec, subject_p, rng)

    train = sorted(_train_facts(spec, pairs, subject_p, t_valid, rng),
                   key=lambda q: q[3])
    seen: dict[tuple[int, int], set[int]] = {}
    for s, r, o, _ in train:
        seen.setdefault((s, r), set()).add(o)
    valid = _window_facts(spec, pairs, subject_p, spec.n_valid, t_valid, t_test,
                          seen, rng)
    test = _window_facts(spec, pairs, subject_p, spec.n_test, t_test,
                         spec.n_timestamps, seen, rng)

    quads = np.array(train + valid + test, dtype=np.int64).reshape(-1, 4)
    store = QuadStore(quads, [f"e{i}" for i in range(spec.n_entities)],
                      [f"r{i}" for i in range(spec.n_relations)],
                      [str(t) for t in range(spec.n_timestamps)],
                      spec.n_train, spec.n_train + spec.n_valid)
    store.check_invariants()
    return store


def corpus_stats(store: QuadStore) -> dict:
    """Shape, split sizes, the test new-event share (by the package's own
    `is_new_event`) and the mean number of earlier facts per test query's
    (subject, relation), all splits counted."""
    # history does not depend on lam
    index = build_periodic_index(store, 2.0, ("train", "valid", "test"))
    test = store.split("test")
    new = [is_new_event(index, s, r, o, t) for s, r, o, t in test]
    q = store.quads
    hist_len = [int(np.sum((q[:, 0] == s) & (q[:, 1] == r) & (q[:, 3] < t)))
                for s, r, _, t in test]
    counts = store.split_counts()
    return {
        "entities": store.n_entities,
        "relations": store.n_relations,
        "timestamps": store.n_timestamps,
        "train": counts["train"],
        "valid": counts["valid"],
        "test": counts["test"],
        "test_new_share": float(np.mean(new)) if new else 0.0,
        "test_hist_len_mean": float(np.mean(hist_len)) if hist_len else 0.0,
    }
