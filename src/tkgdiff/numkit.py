"""Minimal dense-tensor kernel: the frozen float64 parameter matrix, Adam,
a two-core chunk runner, the process's BLAS and allocator policies, and
seeded counter-based RNG.

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

Three things are process-wide, and importing this module sets the last two
once: the helper thread of the chunk runner, BLAS on one thread
(_one_blas_thread), and the allocator policy under glibc
(_keep_freed_memory). So the second core belongs to the helper thread.

The runner (_run_chunks) splits a pass over a whole table into chunks of
about _CHUNK values, which the caller's thread and one helper thread claim
one at a time. It runs the Adam update, the checkpoint read, and DPCL's
per-cell passes over the (B, |E|) score block in blocks of query rows
(_row_blocks): the distances, the history terms, the softmax and their
backward (dpcl.head_softmaxes), and evaluation's mixture, finiteness scan
and ranks. A matrix product is never split: it stays one BLAS call on one
thread. Two independent products run as a pair (_matmul_beside), one on
the helper and one on the caller's thread: DPCL's score and distance
products and their backward, and the denoiser's output-layer backward. The
helper starts with the first pass of at least _MIN_PARALLEL_CHUNKS chunks
or the first pair of at least _MIN_PARALLEL_MADDS multiply-adds, and is
reused; a forked child starts its own, and the helper never holds up the
interpreter's exit. Results do not depend on which thread ran a chunk or a
product.

Under the allocator policy, every block up to 32 MiB comes from malloc's
heap, which is never trimmed: above the largest block a training batch or
an eval chunk makes (29 MB, the (512, 7128) block of an eval chunk over an
ICEWS14-sized vocabulary). So freed memory stays in the process, and the
next batch reuses its pages instead of faulting in fresh ones. Values do
not change; under another libc nothing is set.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

__all__ = ["Tensor", "AdamState", "zeros", "adam_step", "rng_for"]


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
# Chunk runner
# ---------------------------------------------------------------------------

# Values in a chunk: 256 KiB of float64, so the few chunk-sized operands of
# an Adam update stay in a core's L2 cache between its operations
_CHUNK = 1 << 15
# A pass over fewer chunks' worth of values runs in the caller's thread: it
# is over before handing work to the helper would pay
_MIN_PARALLEL_CHUNKS = 4
# Multiply-adds of a product that a pair hands to the helper, at the least:
# a smaller one is over before the handoff would pay
_MIN_PARALLEL_MADDS = 1 << 22

_helper: queue.SimpleQueue | None = None     # the helper thread's tasks, once started
_scratch = threading.local()                # each thread's scratch array


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread does not exist here."""
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get()()


def _submit(fn: Callable[[], None]) -> None:
    """Run `fn` on the helper thread, started by the first call. It is a
    daemon thread, so it never holds up the interpreter's exit."""
    global _helper
    if _helper is None:
        _helper = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_helper,), name="numkit-helper",
                         daemon=True).start()
    _helper.put(fn)


def _run_chunks(work: Callable, units: Sequence, values: int) -> None:
    """Call `work(unit)` for each unit of a pass that covers `values` values.

    A pass of at least _MIN_PARALLEL_CHUNKS chunks' worth of values, in a
    process that may run on two CPUs, runs on the caller's thread and the
    helper thread, which claim the units in order from one shared counter:
    a thread the host holds back claims fewer. Any other pass runs in the
    caller's thread. A unit that raises stops further claims; once every
    claimed unit is done, the exception of the first unit that raised is
    raised, so it does not depend on how the threads ran. The helper does
    nothing for a pass that has returned.
    """
    if values < _MIN_PARALLEL_CHUNKS * _CHUNK or len(os.sched_getaffinity(0)) < 2:
        for unit in units:
            work(unit)
        return
    claim = itertools.count().__next__     # one C call, atomic under the GIL
    faults: dict[int, Exception] = {}
    helping = threading.Lock()             # held while the helper drains
    over = False

    def drain():
        while not faults and (i := claim()) < len(units):
            try:
                work(units[i])
            except Exception as e:         # raised by the caller below
                faults[i] = e

    def help_drain():
        with helping:
            if not over:
                drain()

    _submit(help_drain)
    try:
        drain()
    finally:
        with helping:                      # waits out the helper's last unit
            over = True
    if faults:
        raise faults[min(faults)]


def _matmul_beside(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                   work: Callable[[], object]) -> tuple[np.ndarray, object]:
    """`np.matmul(a, b, out=out)` and `work()`, which is independent of the
    product: returns `out` and what `work` returns.

    In a process that may run on two CPUs, a product of at least
    _MIN_PARALLEL_MADDS multiply-adds runs on the helper thread while the
    caller's thread runs `work`, the other product of a pair and what goes
    with it; a smaller one runs first in the caller's thread. The helper
    writes only into `out`, which the caller allocated: full-size arrays
    made on the helper would come from its own malloc arena and raise the
    peak. OpenBLAS likewise packs operands into one work buffer per call in
    flight, and the pages a pack touches stay resident, so a pair keeps its
    packed panels small (dpcl.head_softmaxes' backward). The product is one
    BLAS call wherever it runs, so its bits are the same. Once both are
    done, an exception from `work` is raised, or else one from the product.
    """
    if a.shape[0] * a.shape[1] * b.shape[1] < _MIN_PARALLEL_MADDS \
            or len(os.sched_getaffinity(0)) < 2:
        np.matmul(a, b, out=out)
        return out, work()
    done = threading.Event()
    faults: list[Exception] = []

    def product():
        try:
            np.matmul(a, b, out=out)
        except Exception as e:             # raised by the caller below
            faults.append(e)
        finally:
            done.set()

    _submit(product)
    try:
        result = work()
    finally:
        done.wait()
    if faults:
        raise faults[0]
    return out, result


def _row_blocks(rows: int, width: int) -> list[slice]:
    """The units of a pass over `rows` rows of `width` values, for
    _run_chunks: slices of max(2, _CHUNK // width) rows, the last one
    shorter, so a block's temporaries hold about _CHUNK values."""
    step = max(2, _CHUNK // max(width, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _sorted_cells(cells: tuple[np.ndarray, np.ndarray], width: int) -> np.ndarray:
    """The flat positions row * width + column of the (row, column) `cells`
    of an array `width` wide, sorted: one array the size of a column of
    `cells`, in which _block_cells finds a block's cells."""
    flat = cells[0] * width + cells[1]
    flat.sort(kind="stable")
    return flat


def _block_cells(flat: np.ndarray, rows: slice, width: int) -> np.ndarray:
    """The part of the sorted flat positions `flat` (_sorted_cells) that
    lies in the block of rows `rows`."""
    lo, hi = np.searchsorted(flat, (rows.start * width, rows.stop * width))
    return flat[lo:hi]


def _scratch_block(shape: tuple[int, ...]) -> np.ndarray:
    """This thread's scratch array, grown to fit and viewed as `shape`."""
    n = math.prod(shape)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < n:
        buf = _scratch.buf = np.empty(max(n, _CHUNK))
    return buf[:n].reshape(shape)


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

    Updates `state.m` and `state.v` in place and writes the new parameters
    into one new array (_adam_block). A tensor of more than one chunk is
    updated one block of rows of about _CHUNK values at a time
    (_run_chunks), each through its thread's chunk-sized scratch array, so
    no full-size temporary is made.
    """
    if grads.shape != params.data.shape:
        raise DimensionError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    p, m, v = params.data, state.m, state.v
    m_bias, v_bias = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    if p.size <= _CHUNK:
        return _wrap(_adam_block(grads, m, v, p, None, None, m_bias, v_bias, lr))
    out = np.empty_like(p)
    rows = max(1, _CHUNK // p.shape[1])

    def update(start: int) -> None:
        block = slice(start, start + rows)
        g = grads[block]
        _adam_block(g, m[block], v[block], p[block], out[block], _scratch_block(g.shape),
                     m_bias, v_bias, lr)

    _run_chunks(update, range(0, len(p), rows), p.size)
    return _wrap(out)


def _adam_block(g: np.ndarray, m: np.ndarray, v: np.ndarray, p: np.ndarray,
                out: np.ndarray | None, step: np.ndarray | None,
                m_bias: float, v_bias: float, lr: float) -> np.ndarray:
    """Adam's update of one block, written to `out` (the new parameters) and
    in place to `m` and `v`, with `step` as scratch; None for `out` or
    `step` allocates it. The operations and their order are the textbook
    form's, `p - lr * m_hat / (sqrt(v_hat) + eps)`, so the bits are the
    same, also from a transposed gradient. The new values are scanned while
    they are in cache."""
    step = np.multiply(g, 1.0 - ADAM_BETA1, step)
    m *= ADAM_BETA1
    m += step
    np.multiply(g, g, step)
    step *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += step
    out = np.divide(v, v_bias, out)        # v_hat
    np.sqrt(out, out)
    out += ADAM_EPS
    np.divide(m, m_bias, step)             # m_hat
    step *= lr
    step /= out
    np.subtract(p, step, out)
    if not np.isfinite(out).all():
        raise NumericError("adam_step produced non-finite values")
    return out


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

# (prefix, suffix) of the thread-count symbols in the OpenBLAS builds numpy
# ships or links: numpy >= 2 wheels, numpy 1.x wheels, a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))


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


def _one_blas_thread() -> None:
    """Run every OpenBLAS call of the process on the thread that makes it.

    A product that OpenBLAS splits over its threads returns when each has
    run its share, and then its worker waits busily for more work: about
    0.12 s of CPU after every threaded product, competing with the helper
    thread for the second core. So the second core goes to the helper, and
    two independent products run as a pair (_matmul_beside) instead. Results
    also stop depending on the thread count: for some shapes the split
    moves where the kernel's unrolled blocks end, which changes the last
    bits of a few sums. A no-op when numpy's BLAS is not a findable
    OpenBLAS.
    """
    api = _openblas_threads_api()
    if api is not None:
        api[1](1)


_one_blas_thread()


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
