"""Minimal dense-tensor kernel: float64 matrices, a reverse-mode gradient tape,
Adam, a one-thread BLAS scope, the process's allocator policy, and seeded
counter-based RNG.

Tensors are immutable 2-D float64 arrays. Each primitive operation is one
function with its own forward and backward (the binary elementwise ops
broadcast length-1 axes); it records itself on the innermost active GradTape
(if any). Backward replays the records in exact reverse order of the forward
pass, so gradient accumulation order is fixed and runs are reproducible.
Adam's decay rates and offset are the module constants ADAM_BETA1,
ADAM_BETA2 and ADAM_EPS; the caller passes each step its number and learning rate.

Finiteness has one rule. Tensor() scans the data it is given; an op checks
only shapes and the domains of div, log and sqrt, and passes an overflow on
as inf or NaN (NaN sums, a NaN softmax row of a fused record) to where
values leave the kernel, which scans them: the training loss
(engine.train), each Adam update, and the candidate distribution evaluation
ranks.

Two settings are process-wide: the BLAS thread count inside
single_threaded_blas, and the allocator policy that importing this module
sets once under glibc (_keep_freed_memory). Every block up to 32 MiB comes
from malloc's heap, which is never trimmed: above the largest block a
training batch or an eval chunk makes (29 MB, the (512, 7128) block of an
eval chunk over an ICEWS14-sized vocabulary). So freed memory stays in the
process, and the next batch reuses its pages instead of faulting in fresh
ones. Values do not change; under another libc nothing is set.

The ops are the ones the package tapes op by op: the contrastive loss,
the denoiser and the joint objective. A computation over (B, |E|) blocks is
one record of its own module with a closed-form backward
(dpcl.ce_loss, gndiff's cross-entropy), registered with `_tape_record`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, NumericError

__all__ = [
    "Tensor", "GradTape", "AdamState", "zeros", "constant",
    "matmul", "add", "sub", "mul", "div", "tanh", "exp", "log",
    "sqrt", "sum_all", "sum_cols", "transpose", "reshape",
    "concat_cols", "take_rows",
    "adam_step", "single_threaded_blas", "rng_for",
]


class Tensor:
    """Immutable 2-D matrix of 64-bit floats (a scalar is 1x1). Other ranks
    raise DimensionError, non-finite values NumericError. A C-ordered float64
    array is kept uncopied and frozen: the Tensor owns it, so pass one that
    nothing else writes. Other data is converted first."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor contains non-finite values")
        arr.flags.writeable = False
        self.data = arr

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


def constant(value: float) -> Tensor:
    return Tensor(np.array([[float(value)]]))


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------

_TAPE_STACK: list["GradTape"] = []


@dataclass
class _Record:
    out: Tensor
    inputs: tuple[Tensor, ...]
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class GradTape:
    """Linear record of primitive operations for one forward pass.

    Backward visits records in exact reverse order of the forward pass;
    per-tensor gradients accumulate in that fixed order.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def gradient(self, output: Tensor, sources: Sequence[Tensor]) -> list[np.ndarray]:
        """Gradients of a scalar output w.r.t. each source tensor; zeros for
        a source the output does not reach."""
        if output.size != 1:
            raise DimensionError("gradient() expects a scalar (1x1) output")
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        for rec in reversed(self._records):
            g_out = grads.get(id(rec.out))
            if g_out is None:
                continue
            for tin, g_in in zip(rec.inputs, rec.backward(g_out)):
                if g_in is None:
                    continue
                acc = grads.get(id(tin))
                grads[id(tin)] = g_in if acc is None else acc + g_in
        return [grads[id(s)] if id(s) in grads else np.zeros_like(s.data) for s in sources]


def _tape_record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1]._records.append(_Record(out, inputs, backward))
    return out


def _wrap(values: np.ndarray) -> Tensor:
    """A frozen Tensor over an array an op or a load just made (or a view of
    a tensor's), unscanned: an op's inf or NaN is checked at the exits."""
    values.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.data = values
    return out


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul needs inner dims to agree: {a.shape} x {b.shape}")
    out = _wrap(a.data @ b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _tape_record(out, (a, b), backward)


def _check_broadcast(sa, sb) -> None:
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            raise DimensionError(f"shapes {sa} and {sb} do not broadcast")


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    for axis in (0, 1):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; length-1 axes broadcast, as in every binary op below."""
    _check_broadcast(a.shape, b.shape)
    out = _wrap(a.data + b.data)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _tape_record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = _wrap(a.data - b.data)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _tape_record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    ad, bd = a.data, b.data
    out = _wrap(ad * bd)

    def backward(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _tape_record(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """a / b; a zero divisor raises NumericError."""
    _check_broadcast(a.shape, b.shape)
    ad, bd = a.data, b.data
    if np.any(bd == 0.0):
        raise NumericError("division by zero")
    out = _wrap(ad / bd)

    def backward(g):
        return (_unbroadcast(g / bd, a.shape),
                _unbroadcast(-g * ad / (bd * bd), b.shape))

    return _tape_record(out, (a, b), backward)


def tanh(a: Tensor) -> Tensor:
    out = _wrap(np.tanh(a.data))
    y = out.data

    def backward(g):
        return (g * (1.0 - y * y),)

    return _tape_record(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out = _wrap(np.exp(a.data))
    y = out.data

    def backward(g):
        return (g * y,)

    return _tape_record(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Natural log; a non-positive input raises NumericError."""
    ad = a.data
    if np.any(ad <= 0.0):
        raise NumericError("log of non-positive value")
    out = _wrap(np.log(ad))

    def backward(g):
        return (g / ad,)

    return _tape_record(out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; gradient at 0 is defined as 0."""
    if np.any(a.data < 0.0):
        raise NumericError("sqrt of negative value")
    out = _wrap(np.sqrt(a.data))
    y = out.data

    def backward(g):
        return (np.where(y > 0.0, 0.5 * g / np.where(y > 0.0, y, 1.0), 0.0),)

    return _tape_record(out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = _wrap(np.array([[a.data.sum()]]))

    def backward(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _tape_record(out, (a,), backward)


def sum_cols(a: Tensor) -> Tensor:
    """Sum along axis 1, keeping a column: (m, n) -> (m, 1). The backward
    passes on a read-only broadcast view of the upstream gradient."""
    out = _wrap(a.data.sum(axis=1, keepdims=True))

    def backward(g):
        return (np.broadcast_to(g, a.shape),)

    return _tape_record(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    out = _wrap(np.ascontiguousarray(a.data.T))

    def backward(g):
        return (g.T,)

    return _tape_record(out, (a,), backward)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    out = _wrap(a.data.reshape(rows, cols))

    def backward(g):
        return (g.reshape(a.shape),)

    return _tape_record(out, (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols needs equal row counts: {a.shape} vs {b.shape}")
    out = _wrap(np.concatenate([a.data, b.data], axis=1))
    split = a.shape[1]

    def backward(g):
        return g[:, :split], g[:, split:]

    return _tape_record(out, (a, b), backward)


def take_rows(table: Tensor, ids) -> Tensor:
    """Rows of `table` at integer `ids`; gradient scatter-adds back."""
    idx = np.asarray(ids, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(f"row ids out of range for table with {table.shape[0]} rows")
    out = _wrap(table.data[idx])

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _tape_record(out, (table,), backward)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Adam's decay rates and denominator offset: the defaults of Kingma & Ba
# (2015), which every run uses. The learning rate comes from the caller.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(eq=False)
class AdamState:
    """Adam's moment accumulators for one parameter tensor. The step count
    is the run's, one for every tensor: each batch steps them all."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape))


def adam_step(state: AdamState, params: Tensor, grads: np.ndarray, t: int, lr: float) -> Tensor:
    """Adam update number `t` (from 1) with learning rate `lr`; returns the
    updated parameter tensor.

    Updates `state.m` and `state.v` in place and builds the step in one
    C-ordered scratch array, also from a transposed gradient, with the
    operations and their order of the textbook form,
    `p - lr * m_hat / (sqrt(v_hat) + eps)`, so the bits are the same.
    """
    if grads.shape != params.data.shape:
        raise DimensionError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    if state.m.shape != params.data.shape:
        raise DimensionError(f"optimizer state shape {state.m.shape} != parameter shape {params.shape}")
    m, v = state.m, state.v
    step = np.multiply(grads, 1.0 - ADAM_BETA1, order="C")
    m *= ADAM_BETA1
    m += step
    np.multiply(grads, grads, out=step)
    step *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += step
    out = np.divide(v, 1.0 - ADAM_BETA2 ** t)      # v_hat
    np.sqrt(out, out=out)
    out += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=step)  # m_hat
    step *= lr
    step /= out
    np.subtract(params.data, step, out=out)
    if not np.isfinite(out).all():
        raise NumericError("adam_step produced non-finite values")
    return _wrap(out)


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

# (prefix, suffix) of the thread-count symbols in the OpenBLAS builds numpy
# ships or links: numpy >= 2 wheels, numpy 1.x wheels, a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


@functools.cache
def _openblas_threads_api():
    """(get, set) thread-count functions of the OpenBLAS that numpy loaded,
    or None when none is found (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore its count.

    For phases made of small products. OpenBLAS splits a product of more
    than 2^18 multiply-adds over its threads, and the call returns only when
    every thread has run its share. On a host whose CPUs are shared, a thread
    can wait milliseconds to be scheduled, longer than a small product takes,
    and the wait varies from run to run. Results also stop depending on the
    thread count: for some shapes the split moves where the kernel's unrolled
    blocks end, which changes the last bits of a few sums. The setting is
    process-wide; a no-op when numpy's BLAS is not a findable OpenBLAS.
    """
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


# ---------------------------------------------------------------------------
# Allocator policy
# ---------------------------------------------------------------------------

# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it
# accepts on a 64-bit host, above every block the package allocates
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_memory() -> None:
    """Serve blocks up to 32 MiB from malloc's heap and never trim it.

    By default glibc maps each block above its mmap threshold on its own and
    unmaps it when freed, and returns the heap top to the kernel once its
    free part passes the trim threshold, moving both thresholds as blocks
    are freed; so a batch that makes the blocks the previous batch freed
    faults their pages in again. Setting either parameter stops the moving,
    so both are set. A no-op where mallopt is missing or refuses the
    threshold (another libc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_memory()


# ---------------------------------------------------------------------------
# Seeded RNG
# ---------------------------------------------------------------------------

def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Counter-based (Philox) generator at a derivation path.

    Same (seed, path) always yields the same stream; distinct paths give
    independent streams, so stochastic stages can be re-derived statelessly.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path))))
