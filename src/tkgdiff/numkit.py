"""Minimal dense-tensor kernel: float64 matrices, a reverse-mode gradient tape,
Adam, finite-difference gradient checking, a one-thread BLAS scope, and
seeded counter-based RNG.

Tensors are immutable 2-D float64 arrays. Primitive operations record
themselves on the innermost active GradTape (if any); backward replays the
records in exact reverse order of the forward pass, so gradient accumulation
order is fixed and runs are reproducible.
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
    "Tensor", "GradTape", "AdamState", "GradCheckReport",
    "tensor", "zeros", "full", "constant",
    "matmul", "elementwise", "add", "sub", "mul", "div", "tanh", "exp",
    "log", "neg", "sqrt", "acosh", "clamp_min", "softmax_rows",
    "sum_all", "sum_cols", "sum_rows", "transpose", "reshape",
    "concat_cols", "take_rows", "gather_cols",
    "adam_step", "grad_check", "single_threaded_blas", "rng_for",
]


class Tensor:
    """Immutable 2-D matrix of 64-bit floats (scalars are 1x1, vectors 1xn)."""

    __slots__ = ("data",)

    def __init__(self, data, copy: bool = True):
        arr = np.array(data, dtype=np.float64, copy=copy, order="C")
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
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

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data) -> Tensor:
    return Tensor(data)


def zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)), copy=False)


def full(rows: int, cols: int, value: float) -> Tensor:
    return Tensor(np.full((rows, cols), float(value)), copy=False)


def constant(value: float) -> Tensor:
    return Tensor(np.array([[float(value)]]), copy=False)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
        """Gradients of a scalar output w.r.t. each source tensor."""
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
        return [grads.get(id(s), np.zeros_like(s.data)) for s in sources]


def _tape_record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if _TAPE_STACK:
        _TAPE_STACK[-1]._records.append(_Record(out, inputs, backward))
    return out


def _result(values: np.ndarray, op: str) -> Tensor:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{op} produced non-finite values")
    return Tensor(values, copy=False)


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul needs inner dims to agree: {a.shape} x {b.shape}")
    out = _result(a.data @ b.data, "matmul")

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _tape_record(out, (a, b), backward)


def _broadcast_shape(sa, sb):
    shape = []
    for da, db in zip(sa, sb):
        if da == db or da == 1 or db == 1:
            shape.append(max(da, db))
        else:
            raise DimensionError(f"shapes {sa} and {sb} do not broadcast")
    return tuple(shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if g.shape == shape:
        return g
    for axis in (0, 1):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


_BINARY_KINDS = ("add", "sub", "mul", "div")
_UNARY_KINDS = ("tanh", "exp", "log", "neg")


def elementwise(kind: str, a: Tensor, b: Tensor | None = None) -> Tensor:
    """Elementwise op. Binary kinds broadcast length-1 axes; div rejects zero
    divisors and log rejects non-positive inputs."""
    if kind in _BINARY_KINDS:
        if b is None:
            raise DimensionError(f"elementwise '{kind}' needs two operands")
        return _binary(kind, a, b)
    if kind in _UNARY_KINDS:
        if b is not None:
            raise DimensionError(f"elementwise '{kind}' takes one operand")
        return _unary(kind, a)
    raise DimensionError(f"unknown elementwise kind '{kind}'")


def _binary(kind: str, a: Tensor, b: Tensor) -> Tensor:
    shape = _broadcast_shape(a.shape, b.shape)
    ad, bd = a.data, b.data
    if kind == "add":
        out = _result(ad + bd, kind)

        def backward(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    elif kind == "sub":
        out = _result(ad - bd, kind)

        def backward(g):
            return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    elif kind == "mul":
        out = _result(ad * bd, kind)

        def backward(g):
            return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    else:  # div
        if np.any(bd == 0.0):
            raise NumericError("division by zero")
        out = _result(ad / bd, kind)

        def backward(g):
            return (_unbroadcast(g / bd, a.shape),
                    _unbroadcast(-g * ad / (bd * bd), b.shape))

    assert out.shape == shape
    return _tape_record(out, (a, b), backward)


def _unary(kind: str, a: Tensor) -> Tensor:
    ad = a.data
    if kind == "tanh":
        out = _result(np.tanh(ad), kind)
        y = out.data

        def backward(g):
            return (g * (1.0 - y * y),)

    elif kind == "exp":
        out = _result(np.exp(ad), kind)
        y = out.data

        def backward(g):
            return (g * y,)

    elif kind == "log":
        if np.any(ad <= 0.0):
            raise NumericError("log of non-positive value")
        out = _result(np.log(ad), kind)

        def backward(g):
            return (g / ad,)

    else:  # neg
        out = _result(-ad, kind)

        def backward(g):
            return (-g,)

    return _tape_record(out, (a,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("add", a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("sub", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("mul", a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return elementwise("div", a, b)


def tanh(a: Tensor) -> Tensor:
    return elementwise("tanh", a)


def exp(a: Tensor) -> Tensor:
    return elementwise("exp", a)


def log(a: Tensor) -> Tensor:
    return elementwise("log", a)


def neg(a: Tensor) -> Tensor:
    return elementwise("neg", a)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; gradient at 0 is defined as 0."""
    if np.any(a.data < 0.0):
        raise NumericError("sqrt of negative value")
    out = _result(np.sqrt(a.data), "sqrt")
    y = out.data

    def backward(g):
        return (np.where(y > 0.0, 0.5 * g / np.where(y > 0.0, y, 1.0), 0.0),)

    return _tape_record(out, (a,), backward)


def acosh(a: Tensor) -> Tensor:
    """Inverse hyperbolic cosine; inputs below 1 are clamped to 1 and receive
    zero gradient there."""
    clamped = np.maximum(a.data, 1.0)
    out = _result(np.arccosh(clamped), "acosh")
    active = a.data > 1.0

    def backward(g):
        denom = np.sqrt(np.where(active, clamped * clamped - 1.0, 1.0))
        return (np.where(active, g / denom, 0.0),)

    return _tape_record(out, (a,), backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); entries at or below the floor get zero gradient."""
    out = _result(np.maximum(a.data, floor), "clamp_min")
    active = a.data > floor

    def backward(g):
        return (np.where(active, g, 0.0),)

    return _tape_record(out, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, computed with row-max subtraction for stability."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = _result(e / e.sum(axis=1, keepdims=True), "softmax_rows")
    p = out.data

    def backward(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _tape_record(out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = _result(np.array([[a.data.sum()]]), "sum_all")

    def backward(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _tape_record(out, (a,), backward)


def sum_cols(a: Tensor) -> Tensor:
    """Sum along axis 1, keeping a column: (m, n) -> (m, 1)."""
    out = _result(a.data.sum(axis=1, keepdims=True), "sum_cols")

    def backward(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _tape_record(out, (a,), backward)


def sum_rows(a: Tensor) -> Tensor:
    """Sum along axis 0, keeping a row: (m, n) -> (1, n)."""
    out = _result(a.data.sum(axis=0, keepdims=True), "sum_rows")

    def backward(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _tape_record(out, (a,), backward)


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T)

    def backward(g):
        return (g.T,)

    return _tape_record(out, (a,), backward)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    out = Tensor(a.data.reshape(rows, cols))

    def backward(g):
        return (g.reshape(a.shape),)

    return _tape_record(out, (a,), backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols needs equal row counts: {a.shape} vs {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1), copy=False)
    split = a.shape[1]

    def backward(g):
        return g[:, :split], g[:, split:]

    return _tape_record(out, (a, b), backward)


def take_rows(table: Tensor, ids) -> Tensor:
    """Rows of `table` at integer `ids`; gradient scatter-adds back."""
    idx = np.asarray(ids, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(f"row ids out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _tape_record(out, (table,), backward)


def gather_cols(a: Tensor, cols) -> Tensor:
    """Per-row column picks: out[i, 0] = a[i, cols[i]]."""
    idx = np.asarray(cols, dtype=np.int64).reshape(-1)
    if idx.size != a.shape[0]:
        raise DimensionError(f"need one column id per row: {idx.size} ids, {a.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise DimensionError(f"column ids out of range for {a.shape}")
    rows = np.arange(a.shape[0])
    out = Tensor(a.data[rows, idx].reshape(-1, 1))

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g[:, 0])
        return (ga,)

    return _tape_record(out, (a,), backward)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class AdamState:
    """Adam moment accumulators for one parameter tensor."""

    def __init__(self, shape: tuple[int, int], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(state: AdamState, params: Tensor, grads) -> Tensor:
    """One bias-corrected Adam update; returns the updated parameter tensor."""
    g = grads.data if isinstance(grads, Tensor) else np.asarray(grads, dtype=np.float64)
    if g.shape != params.data.shape:
        raise DimensionError(f"gradient shape {g.shape} != parameter shape {params.shape}")
    if state.m.shape != params.data.shape:
        raise DimensionError(f"optimizer state shape {state.m.shape} != parameter shape {params.shape}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (g * g)
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    return Tensor(params.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

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
        perturbed[i] = Tensor(d, copy=False)
        return f(perturbed).item()

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
# Seeded RNG
# ---------------------------------------------------------------------------

def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Counter-based (Philox) generator at a derivation path.

    Same (seed, path) always yields the same stream; distinct paths give
    independent streams, so stochastic stages can be re-derived statelessly.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path))))
