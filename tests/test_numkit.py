import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import TWO_CPUS, count_submits, grad_check, tensor
from tkgdiff import numkit as nk
from tkgdiff.errors import DimensionError, NumericError


def test_matmul_identity():
    i2 = tensor(np.eye(2))
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    out = oracles.matmul(i2, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    a = tensor([[1.0, 2.0]])
    b = tensor([[3.0], [4.0]])
    assert oracles.item(oracles.matmul(a, b)) == 11.0


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        oracles.matmul(nk.zeros(2, 3), nk.zeros(2, 3))


def test_matmul_gradient_matches_finite_differences():
    rng = nk.rng_for(7)
    a = tensor(rng.random((5, 4)))
    b = tensor(rng.random((4, 3)))

    report = grad_check(lambda ps: oracles.sum_all(oracles.matmul(ps[0], ps[1])), [a, b],
                           tolerance=1e-6)
    assert report.ok, report


def test_elementwise_trivial_values():
    assert oracles.item(oracles.tanh(tensor([0.0]))) == 0.0
    out = oracles.exp(tensor([0.0, 1.0]))
    np.testing.assert_allclose(out.data, [[1.0, np.e]], rtol=1e-12)


def test_elementwise_mul_gradient():
    rng = nk.rng_for(8)
    a = tensor(rng.random((3, 3)) + 0.1)
    b = tensor(rng.random((3, 3)) + 0.1)
    report = grad_check(lambda ps: oracles.sum_all(oracles.mul(ps[0], ps[1])), [a, b],
                           tolerance=1e-6)
    assert report.ok, report


@pytest.mark.parametrize("kind", ["add", "sub", "div", "tanh", "exp", "log"])
def test_elementwise_gradients_all_kinds(kind):
    rng = nk.rng_for(9)
    a = tensor(rng.random((2, 4)) + 0.5)
    b = tensor(rng.random((2, 4)) + 0.5)
    op = getattr(oracles, kind)

    def f(ps):
        return oracles.sum_all(op(*ps))

    params = [a, b] if kind in ("add", "sub", "div") else [a]
    report = grad_check(f, params, tolerance=1e-6)
    assert report.ok, (kind, report)


def test_elementwise_broadcast_length_one_axis():
    a = tensor(np.ones((3, 4)))
    col = tensor(np.arange(3.0).reshape(3, 1))
    row = tensor(np.arange(4.0).reshape(1, 4))
    out = oracles.add(oracles.add(a, col), row)
    assert out.shape == (3, 4)
    assert out.data[2, 3] == 1.0 + 2.0 + 3.0
    # gradients reduce over the broadcast axes
    report = grad_check(
        lambda ps: oracles.sum_all(oracles.mul(oracles.add(ps[0], ps[1]), ps[2])),
        [col, row, tensor(np.random.default_rng(0).random((3, 4)))],
        tolerance=1e-6)
    assert report.ok, report


def test_elementwise_shape_mismatch():
    for op in (oracles.add, oracles.sub, oracles.mul, oracles.div):
        with pytest.raises(DimensionError):
            op(nk.zeros(2, 3), nk.Tensor(np.full((3, 2), 1.0)))


def test_div_by_zero_raises():
    with pytest.raises(NumericError):
        oracles.div(tensor([1.0]), tensor([0.0]))


def test_log_of_nonpositive_raises():
    with pytest.raises(NumericError):
        oracles.log(tensor([0.0]))
    with pytest.raises(NumericError):
        oracles.log(tensor([-1.0]))


def test_overflowing_results_raise_with_the_op_name():
    # forward ops pass an overflow on unscanned; an Adam update is one of
    # the kernel's exits, scanned once
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="adam_step"):
        nk.adam_step(nk.AdamState.zeros((1, 1)), tensor([[-1e308]]), np.ones((1, 1)),
                     t=1, lr=1e308)


BIG, TINY = 1.79e308, 5e-324


@pytest.mark.parametrize("op, rows", [
    (oracles.tanh, [[BIG, -BIG, TINY, -TINY]]),
    (oracles.log, [[BIG, TINY]]),
    (oracles.sqrt, [[BIG, TINY, 0.0]]),
    (oracles.acosh, [[BIG, -BIG, TINY]]),
    (oracles.softmax_rows, [[BIG, -BIG, TINY], [-BIG, TINY, BIG], [TINY, -TINY, 0.0]]),
], ids=["tanh", "log", "sqrt", "acosh", "softmax_rows"])
def test_unscanned_ops_give_finite_outputs_for_extreme_finite_inputs(op, rows):
    # these ops return without a finiteness scan: for finite input their
    # output is finite (the softmax rows span more than the largest float)
    with np.errstate(over="ignore"):
        out = op(nk.Tensor(np.array(rows)))
    assert np.isfinite(out.data).all()


def test_softmax_uniform():
    out = oracles.softmax_rows(tensor([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.25] * 4], atol=1e-12)


def test_softmax_log_odds():
    out = oracles.softmax_rows(tensor([[np.log(1.0), np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_large_offsets_stable():
    out = oracles.softmax_rows(tensor([[1e4, 1e4 + 1.0, 1e4 - 2.0]]))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = nk.rng_for(11)
    a = rng.normal(size=(6, 9)) * 3.0
    p = oracles.softmax_rows(tensor(a))
    np.testing.assert_allclose(p.data.sum(axis=1), np.ones(6), atol=1e-9)
    p_shift = oracles.softmax_rows(tensor(a + 123.456))
    np.testing.assert_allclose(p.data, p_shift.data, atol=1e-9)


def test_softmax_gradient():
    rng = nk.rng_for(12)
    a = tensor(rng.normal(size=(3, 5)))
    w = tensor(rng.normal(size=(3, 5)))
    report = grad_check(
        lambda ps: oracles.sum_all(oracles.mul(oracles.softmax_rows(ps[0]), w)), [a],
        tolerance=1e-6)
    assert report.ok, report


def test_structural_op_gradients():
    rng = nk.rng_for(13)
    a = tensor(rng.random((3, 4)) + 0.2)
    b = tensor(rng.random((3, 2)) + 0.2)

    def f(ps):
        x = oracles.concat_cols(ps[0], ps[1])          # (3, 6)
        x = oracles.reshape(x, 2, 9)
        x = oracles.transpose(x)                        # (9, 2)
        x = oracles.sqrt(x)
        return oracles.sum_all(oracles.sum_cols(x))

    report = grad_check(f, [a, b], tolerance=1e-5)
    assert report.ok, report


def test_take_rows_and_gather_cols_gradients():
    rng = nk.rng_for(14)
    table = tensor(rng.random((5, 3)))
    ids = [0, 2, 2, 4]

    def f(ps):
        rows = oracles.take_rows(ps[0], ids)            # (4, 3)
        picked = oracles.gather_cols(rows, [0, 1, 2, 1])
        return oracles.sum_all(picked)

    report = grad_check(f, [table], tolerance=1e-6)
    assert report.ok, report
    # repeated ids accumulate
    with oracles.GradTape() as tape:
        out = oracles.sum_all(oracles.take_rows(table, ids))
    (g,) = tape.gradient(out, [table])
    assert g[2].sum() == pytest.approx(2 * 3)
    assert g[1].sum() == 0.0


def test_acosh_values_and_clamp():
    out = oracles.acosh(tensor([[1.0, 5.0 / 3.0]]))
    np.testing.assert_allclose(out.data, [[0.0, np.log(3.0)]], atol=1e-12)
    # below-domain input clamps to 1 instead of failing
    assert oracles.item(oracles.acosh(tensor([[0.5]]))) == 0.0


def test_adam_zero_gradient_is_fixed_point():
    p = tensor([[1.0, -2.0], [0.5, 3.0]])
    state = nk.AdamState.zeros(p.shape)
    out = p
    for t in range(1, 6):
        out = nk.adam_step(state, out, np.zeros(p.shape), t=t, lr=0.001)
    np.testing.assert_array_equal(out.data, p.data)


def test_adam_first_step_magnitude():
    # constant gradient 1, lr=0.001: bias-corrected first step is lr * 1/(1+eps)
    p = tensor([[0.0]])
    state = nk.AdamState.zeros(p.shape)
    out = nk.adam_step(state, p, np.array([[1.0]]), t=1, lr=0.001)
    assert oracles.item(out) == pytest.approx(-0.001, rel=1e-6)


def test_adam_shape_mismatch():
    state = nk.AdamState.zeros((2, 2))
    with pytest.raises(DimensionError):
        nk.adam_step(state, nk.zeros(2, 2), np.zeros((2, 3)), t=1, lr=0.001)


def test_adam_deterministic_runs():
    def run():
        rng = nk.rng_for(55)
        p = tensor(rng.normal(size=(4, 3)))
        state = nk.AdamState.zeros(p.shape)
        for t in range(1, 101):
            with oracles.GradTape() as tape:
                loss = oracles.sum_all(oracles.mul(p, p))
            (g,) = tape.gradient(loss, [p])
            p = nk.adam_step(state, p, g, t=t, lr=0.01)
        return p.data

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (37, 11), (200, 2)])
def test_adam_in_place_matches_the_textbook_form(shape):
    rng = nk.rng_for(56, *shape)
    p = q = tensor(rng.normal(size=shape))
    state, ref = nk.AdamState.zeros(shape), nk.AdamState.zeros(shape)
    m, v = state.m, state.v
    for t in range(1, 101):
        g = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 3, size=shape)
        p = nk.adam_step(state, p, g, t=t, lr=0.01)
        q = oracles.adam_step(ref, q, g, t=t, lr=0.01)
        np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(state.m, ref.m)
        np.testing.assert_array_equal(state.v, ref.v)
    assert state.m is m and state.v is v


def test_adam_steps_a_transposed_gradient_as_its_c_ordered_copy():
    # the gradient of a transposed parameter reaches Adam as a transposed
    # view; the update and the moments keep the bits and the C order
    rng = nk.rng_for(57)
    p = tensor(rng.normal(size=(5, 3)))
    g = rng.normal(size=(3, 5)).T
    assert not g.flags.c_contiguous
    a, b = nk.AdamState.zeros(p.shape), nk.AdamState.zeros(p.shape)
    for t in (1, 2):
        out = nk.adam_step(a, p, g, t=t, lr=0.01)
        ref = nk.adam_step(b, p, np.ascontiguousarray(g), t=t, lr=0.01)
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.v, b.v)
        assert out.data.flags.c_contiguous and a.m.flags.c_contiguous


# chunk edges in rows: a chunk holds 8 rows in both layouts, and a pass of
# at least 32 rows runs on two threads
CHUNK_ROWS = 8
CHUNK_EDGES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 4 * CHUNK_ROWS - 1,
               4 * CHUNK_ROWS, 4 * CHUNK_ROWS + 3]


def chunked_adam_case(monkeypatch, rows, layout):
    """A parameter and its gradient: one column and a C-ordered gradient,
    or two columns and a transposed one, with _CHUNK set to CHUNK_ROWS
    rows."""
    cols = 1 if layout == "c-order" else 2
    monkeypatch.setattr(nk, "_CHUNK", CHUNK_ROWS * cols)
    rng = nk.rng_for(58, rows, cols)
    p = tensor(rng.normal(size=(rows, cols)))
    g = rng.normal(size=(rows, cols)) if cols == 1 else rng.normal(size=(cols, rows)).T
    return p, g * 10.0 ** rng.uniform(-6, 3, size=g.shape)


@pytest.mark.parametrize("layout", ["c-order", "transposed"])
@pytest.mark.parametrize("rows", CHUNK_EDGES)
def test_chunked_adam_matches_the_textbook_form_at_the_chunk_edges(monkeypatch, rows, layout):
    p, g = chunked_adam_case(monkeypatch, rows, layout)
    submitted = count_submits(monkeypatch)
    q = p
    state, ref = nk.AdamState.zeros(p.shape), nk.AdamState.zeros(p.shape)
    m, v = state.m, state.v
    for t in range(1, 6):
        p = nk.adam_step(state, p, g, t=t, lr=0.01)
        q = oracles.adam_step(ref, q, g, t=t, lr=0.01)
        np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(state.m, ref.m)
        np.testing.assert_array_equal(state.v, ref.v)
    assert state.m is m and state.v is v
    assert p.data.flags.c_contiguous
    # the helper takes part in a pass of at least four chunks only
    assert len(submitted) == (5 if rows >= 4 * CHUNK_ROWS and TWO_CPUS else 0)


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


@pytest.mark.parametrize("helper", ["thread", "eager"])
def test_an_overflow_in_the_last_chunk_raises(monkeypatch, helper):
    # the last chunk is the helper's share: the likeliest with a thread, and
    # certain with a helper that runs the whole pass before the caller
    p, _ = chunked_adam_case(monkeypatch, 4 * CHUNK_ROWS + 3, "c-order")
    if helper == "eager":
        monkeypatch.setattr(nk.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(nk, "_submit", eager_helper)
    data = p.data.copy()
    data[-1, 0] = -1e308
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="adam_step"):
        nk.adam_step(nk.AdamState.zeros(p.shape), tensor(data), np.ones(p.shape),
                     t=1, lr=1e308)


@pytest.mark.parametrize("helper", ["late", "eager"])
@pytest.mark.parametrize("layout", ["c-order", "transposed"])
def test_chunked_adam_does_not_depend_on_when_the_helper_runs(monkeypatch, helper, layout):
    p, g = chunked_adam_case(monkeypatch, 4 * CHUNK_ROWS + 3, layout)
    monkeypatch.setattr(nk.os, "sched_getaffinity", lambda pid: {0, 1})
    late = LateHelper()
    monkeypatch.setattr(nk, "_submit", late if helper == "late" else eager_helper)
    q = p
    state, ref = nk.AdamState.zeros(p.shape), nk.AdamState.zeros(p.shape)
    for t in range(1, 4):
        p = nk.adam_step(state, p, g, t=t, lr=0.01)
        q = oracles.adam_step(ref, q, g, t=t, lr=0.01)
        # a helper that starts after the pass has returned changes nothing
        late.run()
        np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(state.m, ref.m)
        np.testing.assert_array_equal(state.v, ref.v)
    assert len(late.handed) == (3 if helper == "late" else 0)


def test_a_process_bound_to_one_cpu_runs_every_chunk_in_the_callers_thread(monkeypatch):
    p, g = chunked_adam_case(monkeypatch, 4 * CHUNK_ROWS + 3, "c-order")
    monkeypatch.setattr(nk.os, "sched_getaffinity", lambda pid: {0})

    def no_helper(fn):
        raise AssertionError("a one-CPU process must not hand work to the helper")

    monkeypatch.setattr(nk, "_submit", no_helper)
    out = nk.adam_step(nk.AdamState.zeros(p.shape), p, g, t=1, lr=0.01)
    np.testing.assert_array_equal(
        out.data, oracles.adam_step(nk.AdamState.zeros(p.shape), p, g, t=1, lr=0.01).data)


@pytest.mark.parametrize("helper", ["thread", "late", "eager"])
def test_the_runner_raises_the_fault_of_the_first_unit_whatever_ran_first(monkeypatch,
                                                                          helper):
    monkeypatch.setattr(nk.os, "sched_getaffinity", lambda pid: {0, 1})
    if helper != "thread":
        monkeypatch.setattr(nk, "_submit", LateHelper() if helper == "late" else eager_helper)
    faulty = {5, 6, 40, 41}
    done = []

    def work(unit):
        time.sleep(0.0005 * (unit % 3))
        if unit in faulty:
            raise ValueError(f"unit {unit}")
        done.append(unit)

    for _ in range(20):
        done.clear()
        with pytest.raises(ValueError, match="^unit 5$"):
            nk._run_chunks(work, range(64), 64 * nk._CHUNK)
        # every unit before the first fault ran, and none after the second:
        # a thread claims no unit once a fault is recorded
        assert sorted(done) == list(range(5))


def test_a_helper_that_starts_after_an_interrupted_pass_does_nothing(monkeypatch):
    monkeypatch.setattr(nk.os, "sched_getaffinity", lambda pid: {0, 1})
    late = LateHelper()
    monkeypatch.setattr(nk, "_submit", late)
    done = []

    def work(unit):
        if unit == 2:
            raise KeyboardInterrupt
        done.append(unit)

    with pytest.raises(KeyboardInterrupt):
        nk._run_chunks(work, range(8), 8 * nk._CHUNK)
    late.run()
    assert done == [0, 1]


def test_a_forked_child_runs_chunks_on_its_own_helper(monkeypatch):
    if not TWO_CPUS:
        pytest.skip("the process may run on one CPU only")
    p, g = chunked_adam_case(monkeypatch, 4 * CHUNK_ROWS + 3, "transposed")
    expected = oracles.adam_step(nk.AdamState.zeros(p.shape), p, g, t=1, lr=0.01).data
    nk.adam_step(nk.AdamState.zeros(p.shape), p, g, t=1, lr=0.01)   # starts the helper
    assert nk._helper is not None
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            # unit 0 waits until another thread has run unit 1, so the pass
            # completes only if the child's helper thread runs
            ran = threading.Event()
            threads = set()

            def work(unit):
                threads.add(threading.get_ident())
                if unit == 0 and not ran.wait(10):
                    raise TimeoutError("no helper thread took unit 1")
                if unit == 1:
                    ran.set()

            nk._run_chunks(work, [0, 1], 4 * nk._CHUNK)
            out = nk.adam_step(nk.AdamState.zeros(p.shape), p, g, t=1, lr=0.01)
            status = 0 if len(threads) == 2 and np.array_equal(out.data, expected) else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


EXIT_PROBE = """
import numpy as np
from tkgdiff import numkit as nk
p = nk.Tensor(np.ones((64, nk._CHUNK // 8)))
nk.adam_step(nk.AdamState.zeros(p.shape), p, np.ones(p.shape), 1, 0.01)
assert nk._helper is not None
print("stepped")
"""


def test_the_helper_thread_does_not_hold_up_the_interpreters_exit():
    if not TWO_CPUS:
        pytest.skip("the process may run on one CPU only")
    src = Path(nk.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", EXIT_PROBE], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "stepped"


def test_grad_check_quadratic():
    x = tensor([[3.0]])
    report = grad_check(lambda ps: oracles.mul(ps[0], ps[0]), [x], tolerance=1e-6)
    assert report.ok
    with oracles.GradTape() as tape:
        y = oracles.mul(x, x)
    (g,) = tape.gradient(y, [x])
    assert g[0, 0] == pytest.approx(6.0, abs=1e-9)


def test_backward_order_is_reverse_of_forward():
    # gradient through a chain reusing one tensor twice accumulates both paths
    x = tensor([[2.0]])
    with oracles.GradTape() as tape:
        y = oracles.mul(x, x)        # x^2
        z = oracles.mul(y, x)        # x^3
    (g,) = tape.gradient(z, [x])
    assert g[0, 0] == pytest.approx(12.0)  # 3 x^2


def test_tensor_keeps_a_c_ordered_float64_array_uncopied_and_frozen():
    arr = np.ones((2, 3))
    assert nk.Tensor(arr).data is arr and not arr.flags.writeable
    # other data is converted to a fresh array, and the caller's stays writeable
    for other in (np.ones((3, 2)).T, np.ones((2, 2), dtype=np.int64)):
        t = nk.Tensor(other)
        assert t.data is not other and other.flags.writeable
        assert t.data.dtype == np.float64 and t.data.flags.c_contiguous
        assert not t.data.flags.writeable


def test_tensor_invariants():
    t = tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.size == 4 and t.shape == (2, 2)
    with pytest.raises(NumericError):
        tensor([[np.nan]])
    with pytest.raises(NumericError):
        tensor([[np.inf]])
    with pytest.raises(DimensionError):
        nk.Tensor(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("data", [np.zeros(3), 1.0], ids=["1-D", "0-D"])
def test_tensor_takes_2d_input_only(data):
    with pytest.raises(DimensionError, match="tensors are 2-D"):
        nk.Tensor(data)


def test_rng_for_is_stable_and_splits():
    a = nk.rng_for(3, 1, 2).integers(0, 1000, 5)
    b = nk.rng_for(3, 1, 2).integers(0, 1000, 5)
    c = nk.rng_for(3, 1, 3).integers(0, 1000, 5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_single_threaded_blas_sets_one_thread_and_restores():
    api = nk._openblas_threads_api()
    if api is None:
        pytest.skip("numpy's BLAS is not a findable OpenBLAS")
    get, set_ = api
    before = get()
    set_(2)
    try:
        with nk.single_threaded_blas():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with nk.single_threaded_blas():
                raise RuntimeError
        assert get() == 2
    finally:
        set_(before)


# A fresh interpreter that imports numkit, then makes and frees a 20 MB
# array; prints the bytes mmapped for it and the heap's free bytes after.
ALLOCATOR_PROBE = """
import ctypes
import numpy as np
import tkgdiff.numkit


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes, mallinfo2.restype = [], Mallinfo2
before = mallinfo2()
block = np.ones(20_000_000 // 8)
live = mallinfo2()
del block
print(live.hblkhd - before.hblkhd, mallinfo2().fordblks)
"""


def test_a_freed_block_stays_in_the_heap_for_the_next_one():
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("the C library has no mallinfo2 (glibc < 2.33 or another libc)")
    src = Path(nk.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", ALLOCATOR_PROBE], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(src)}, timeout=60)
    mmapped, free = map(int, out.stdout.split())
    assert mmapped == 0
    assert free >= 20_000_000


class FakeMallopt:
    """A mallopt that records its calls and returns `result`."""

    def __init__(self, result):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


@pytest.mark.parametrize("library, calls", [
    ("accepts", [(-3, 32 << 20), (-1, -1)]),
    ("refuses", [(-3, 32 << 20)]),
    ("no-mallopt", []),
    ("no-library", []),
])
def test_the_allocator_policy_sets_both_parameters_or_nothing(monkeypatch, library, calls):
    mallopt = FakeMallopt(1 if library == "accepts" else 0)

    class FakeCDLL:
        def __init__(self, name):
            if library == "no-library":
                raise OSError("no such library")
            if library != "no-mallopt":
                self.mallopt = mallopt

    monkeypatch.setattr(ctypes, "CDLL", FakeCDLL)
    assert nk._keep_freed_memory() is None
    assert mallopt.calls == calls
