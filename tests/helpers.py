"""Synthetic corpora, query batches, checkpoint comparisons, a lenient tensor
constructor, closed-form losses as records of the reference tape,
finite-difference gradient checking, and stand-ins for numkit's helper
thread shared by the tests."""

import contextlib
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from oracles import GradTape, _tape_record, item
from tkgdiff import numkit as nk
from tkgdiff.corpus import QuadStore
from tkgdiff.dpcl import QueryBatch
from tkgdiff.numkit import Tensor

# numkit's chunk runner hands work to its helper thread only in a process
# that may run on two CPUs
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


def count_submits(monkeypatch) -> list:
    """The passes handed to numkit's helper thread from now on; they still
    run."""
    submitted = []
    submit = nk._submit
    monkeypatch.setattr(nk, "_submit", lambda fn: submitted.append(fn) or submit(fn))
    return submitted


class LateHelper:
    """A helper thread that the host holds back: the work handed to it runs
    only when `run` is called, after the pass has returned."""

    def __init__(self):
        self.handed = []

    def __call__(self, fn):
        self.handed.append(fn)

    def run(self):
        for fn in self.handed:
            fn()


def eager_helper(fn):
    """A helper thread that runs the work handed to it before the caller
    claims a unit."""
    fn()


@contextlib.contextmanager
def small_chunks(values: int, helper: str):
    """numkit's chunk runner with _CHUNK set to `values`, in a process taken
    to run on two CPUs, with the real helper thread ("thread", switching
    threads every microsecond so that their units interleave), one the host
    holds back until the body is over ("late"), or one that runs the work
    handed to it before the caller claims a unit ("eager")."""
    late = LateHelper()
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nk, "_CHUNK", values)
        mp.setattr(nk.os, "sched_getaffinity", lambda pid: {0, 1})
        if helper == "thread":
            sys.setswitchinterval(1e-6)
        else:
            mp.setattr(nk, "_submit", late if helper == "late" else eager_helper)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
    late.run()


def store_from_quads(quads, n_entities, n_relations, n_timestamps,
                     train_frac=0.8, valid_frac=0.1):
    """QuadStore over dense ids with timestamp-quantile split boundaries."""
    arr = np.array(sorted(quads, key=lambda q: q[3]), dtype=np.int64).reshape(-1, 4)
    n = len(arr)
    ts = arr[:, 3]
    counts = np.searchsorted(ts, np.arange(n_timestamps), side="right")
    train_end = int(next((c for c in counts if c >= train_frac * n), n))
    valid_end = int(next((c for c in counts if c >= (train_frac + valid_frac) * n), n))
    store = QuadStore(arr, [f"e{i}" for i in range(n_entities)],
                      [f"r{i}" for i in range(n_relations)],
                      [str(t) for t in range(n_timestamps)],
                      train_end, valid_end)
    store.check_invariants()
    return store


def planted_period_store(n_entities=20, n_relations=4, n_timestamps=60, period=5):
    """Every (s, r) pair fires its fixed object at a fixed phase mod `period`;
    the pattern repeats verbatim into the valid/test windows."""
    quads = []
    for s in range(n_entities):
        for r in range(n_relations):
            o = (s * 7 + r * 5 + 3) % n_entities
            phase = (s + 3 * r) % period
            for t in range(phase, n_timestamps, period):
                quads.append((s, r, o, t))
    return store_from_quads(quads, n_entities, n_relations, n_timestamps)


def new_event_mix_store(n_core=12, n_obj=12, n_relations=3, n_timestamps=40,
                        period=4):
    """Half the test quads are first occurrences.

    A periodic backbone (core subjects, fixed objects, phase-repeating) gives
    the repeated half. Relation-determined singletons give the new half: each
    relation always takes its dominant object, paired once with subjects that
    never recur; the test-window singleton subjects never appear in training
    at all, so those queries carry no usable history.
    """
    train_t = int(n_timestamps * 0.8)
    valid_t = int(n_timestamps * 0.9)
    n_pool_train = 12
    n_pool_valid = 6
    n_pool_test = 12
    base_obj = n_core + n_pool_train + n_pool_valid + n_pool_test
    n_entities = base_obj + n_obj

    quads = []
    for s in range(n_core):
        for r in range(n_relations):
            o = base_obj + (s * 7 + r * 3) % n_obj
            phase = (s + r) % period
            for t in range(phase, n_timestamps, period):
                quads.append((s, r, o, t))

    def singleton_block(first_subject, count, t_lo, t_hi):
        added = []
        slot = 0
        for k in range(count):
            s = first_subject + k
            for r in range(n_relations):
                dominant = base_obj + r
                t = t_lo + (slot % (t_hi - t_lo))
                slot += 1
                added.append((s, r, dominant, t))
        return added

    quads += singleton_block(n_core, n_pool_train, 0, train_t)
    quads += singleton_block(n_core + n_pool_train, n_pool_valid, train_t, valid_t)
    quads += singleton_block(n_core + n_pool_train + n_pool_valid, n_pool_test,
                             valid_t, n_timestamps)
    return store_from_quads(quads, n_entities, n_relations, n_timestamps)


def single_fact_store(n_entities=4, n_relations=1):
    """One training quad; empty valid/test."""
    arr = np.array([[0, 0, 1, 0]], dtype=np.int64)
    return QuadStore(arr, [f"e{i}" for i in range(n_entities)],
                     [f"r{i}" for i in range(n_relations)], ["0"],
                     train_end=1, valid_end=1)


def quick_config(**overrides):
    """Small-but-real training configuration for fast tests."""
    from tkgdiff.engine import TrainConfig
    base = dict(d_dpcl=16, d_diff=16, batch=32, lr=0.01,
                epochs_stage1=2, epochs_stage2=1, steps=8, chains=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def make_batch(rng, n_entities, size, lam=2.0):
    """Random DPCL queries: each query's history holds about 30% of the
    entities, and the ground truth is in the history half of the time."""
    s = rng.integers(0, n_entities, size)
    r = rng.integers(0, 2, size)
    rng.integers(1, 10, size)   # the timestamps; drawn so the later draws keep their values
    gt = rng.integers(0, n_entities, size)
    seen = rng.random((size, n_entities)) < 0.3
    seen[np.arange(size), gt] = rng.random(size) < 0.5
    return QueryBatch(s, r, gt, np.nonzero(seen), lam, seen[np.arange(size), gt])


def assert_same_state(a, b):
    """Two checkpoints hold the same parameters and Adam states, bit for bit:
    the same tensor names and Adam names on both sides, then every array and
    the Adam step count."""
    ta, tb = a.named_tensors(), b.named_tensors()
    assert ta.keys() == tb.keys()
    assert a.adam.keys() == b.adam.keys()
    assert a.adam_steps == b.adam_steps
    for name, t in ta.items():
        np.testing.assert_array_equal(t.data, tb[name].data, err_msg=name)
    for name, s in a.adam.items():
        np.testing.assert_array_equal(s.m, b.adam[name].m, err_msg=f"adam.m.{name}")
        np.testing.assert_array_equal(s.v, b.adam[name].v, err_msg=f"adam.v.{name}")


def tensor(data) -> Tensor:
    """A Tensor over a copy of 0-D, 1-D or 2-D data: a scalar becomes 1x1
    and a vector 1xn, where Tensor itself takes 2-D input only and keeps
    (and freezes) a C-ordered float64 array as it is."""
    arr = np.array(data, dtype=np.float64)
    return Tensor(arr.reshape(1, -1) if arr.ndim < 2 else arr)


def taped(loss, params) -> Tensor:
    """A closed-form loss, the (value, backward) pair of dpcl.ce_loss,
    dpcl.supcon_loss or gndiff.batch_loss over `params` (DpclParams or
    DenoiserParams), as one record on the reference tape over the tensors of
    `params.named()`, so grad_check and the taped chains take it."""
    value, backward = loss
    named = params.named()

    def record_backward(g):
        grads = backward(g[0, 0])
        return [grads.get(name) for name in named]

    return _tape_record(nk._wrap(np.array([[value]])), tuple(named.values()), record_backward)


def chain_gradients(chain, sources: dict) -> tuple[float, dict]:
    """The value of a taped chain `chain()` and its gradients, by name, for
    the tensors `sources` (name -> Tensor)."""
    with GradTape() as tape:
        out = chain()
    return item(out), dict(zip(sources, tape.gradient(out, list(sources.values()))))


# The absolute resolution of a loss that is a mean of -log p: where p rounds
# to within an ulp of 1, -log p carries about one ulp of 1 in absolute terms
# in any evaluation order (one CE draw reads 2.2e-16 fused, -0.0 taped).
LOG_RESOLUTION = 4 * np.finfo(np.float64).eps


def assert_matches_the_chain(loss, want: float, want_grads: dict, tol: float) -> None:
    """A closed-form loss, a (value, backward) pair, against a taped chain's
    value and gradients by name (chain_gradients): the value within `tol`
    of the chain's relatively, or within LOG_RESOLUTION; each gradient the
    backward returns C-ordered and within `tol` of the chain's largest
    entry, relatively, or absolutely below 1. The chain gives a zero
    gradient to every name the backward leaves out."""
    value, backward = loss
    grads = backward(1.0)
    assert value == pytest.approx(want, rel=tol, abs=LOG_RESOLUTION), (value, want)
    for name, g in grads.items():
        w = want_grads[name]
        assert g.flags.c_contiguous, name
        assert np.abs(g - w).max() <= tol * max(np.abs(w).max(), 1.0), name
    for name in want_grads.keys() - grads.keys():
        assert not want_grads[name].any(), name


@dataclass
class GradCheckReport:
    """Tape-vs-finite-difference comparison. Errors are |a-b| / max(1, |a|, |b|)."""

    max_rel_err: float
    per_param: list[float]
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.tolerance


def grad_check(f, params: Sequence[Tensor], tolerance: float = 1e-4,
               step: float = 1e-5) -> GradCheckReport:
    """Compare tape gradients of a scalar-valued `f(params)` against central
    finite differences. Disagreement is reported, never raised."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    params = list(params)
    with GradTape() as tape:
        out = f(params)
    analytic = tape.gradient(out, params)

    def eval_at(i: int, flat_j: int, delta: float) -> float:
        perturbed = list(params)
        d = params[i].data.copy()
        d.flat[flat_j] += delta
        perturbed[i] = Tensor(d)
        return item(f(perturbed))

    per_param = []
    for i, p in enumerate(params):
        worst = 0.0
        for j in range(p.size):
            fd = (eval_at(i, j, step) - eval_at(i, j, -step)) / (2.0 * step)
            a = analytic[i].flat[j]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            worst = max(worst, err)
        per_param.append(worst)
    return GradCheckReport(max(per_param, default=0.0), per_param, tolerance)
