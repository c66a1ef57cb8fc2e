"""Minimal dense-tensor kernel: the frozen float64 parameter matrix, Adam,
a one-thread BLAS scope, the process's allocator policy, and seeded
counter-based RNG.

A parameter is a Tensor, an immutable 2-D float64 array. The package has no
gradient tape: each training loss computes its value and a closed-form
backward on plain arrays (dpcl.ce_loss, dpcl.supcon_loss,
gndiff.batch_loss), and engine.joint_loss blends them. The op-by-op taped
chain they replaced is the test suite's reference.
Adam's decay rates and offset are the module constants ADAM_BETA1,
ADAM_BETA2 and ADAM_EPS; the caller passes each step its number and learning rate.

Finiteness has one rule. Tensor() scans the data it is given; the losses
pass an overflow on as inf or NaN to where values leave the kernel, which
scans them: the training loss (engine.train), each Adam update, and the
candidate distribution evaluation ranks.

Two settings are process-wide: the BLAS thread count inside
single_threaded_blas, and the allocator policy that importing this module
sets once under glibc (_keep_freed_memory). Every block up to 32 MiB comes
from malloc's heap, which is never trimmed: above the largest block a
training batch or an eval chunk makes (29 MB, the (512, 7128) block of an
eval chunk over an ICEWS14-sized vocabulary). So freed memory stays in the
process, and the next batch reuses its pages instead of faulting in fresh
ones. Values do not change; under another libc nothing is set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionError, NumericError

__all__ = ["Tensor", "AdamState", "zeros", "adam_step", "single_threaded_blas", "rng_for"]


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

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


def _wrap(values: np.ndarray) -> Tensor:
    """A frozen Tensor over an array just made, unscanned: an Adam update
    and a checkpoint load scan their values themselves."""
    values.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.data = values
    return out


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
