import ctypes
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import grad_check, tensor
from tkgdiff import numkit as nk
from tkgdiff.errors import DimensionError, NumericError


def test_matmul_identity():
    i2 = tensor(np.eye(2))
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nk.matmul(i2, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    a = tensor([[1.0, 2.0]])
    b = tensor([[3.0], [4.0]])
    assert nk.matmul(a, b).item() == 11.0


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        nk.matmul(nk.zeros(2, 3), nk.zeros(2, 3))


def test_matmul_gradient_matches_finite_differences():
    rng = nk.rng_for(7)
    a = tensor(rng.random((5, 4)))
    b = tensor(rng.random((4, 3)))

    report = grad_check(lambda ps: nk.sum_all(nk.matmul(ps[0], ps[1])), [a, b],
                           tolerance=1e-6)
    assert report.ok, report


def test_elementwise_trivial_values():
    assert nk.tanh(tensor([0.0])).item() == 0.0
    out = nk.exp(tensor([0.0, 1.0]))
    np.testing.assert_allclose(out.data, [[1.0, np.e]], rtol=1e-12)


def test_elementwise_mul_gradient():
    rng = nk.rng_for(8)
    a = tensor(rng.random((3, 3)) + 0.1)
    b = tensor(rng.random((3, 3)) + 0.1)
    report = grad_check(lambda ps: nk.sum_all(nk.mul(ps[0], ps[1])), [a, b],
                           tolerance=1e-6)
    assert report.ok, report


@pytest.mark.parametrize("kind", ["add", "sub", "div", "tanh", "exp", "log"])
def test_elementwise_gradients_all_kinds(kind):
    rng = nk.rng_for(9)
    a = tensor(rng.random((2, 4)) + 0.5)
    b = tensor(rng.random((2, 4)) + 0.5)
    op = getattr(nk, kind)

    def f(ps):
        return nk.sum_all(op(*ps))

    params = [a, b] if kind in ("add", "sub", "div") else [a]
    report = grad_check(f, params, tolerance=1e-6)
    assert report.ok, (kind, report)


def test_elementwise_broadcast_length_one_axis():
    a = tensor(np.ones((3, 4)))
    col = tensor(np.arange(3.0).reshape(3, 1))
    row = tensor(np.arange(4.0).reshape(1, 4))
    out = nk.add(nk.add(a, col), row)
    assert out.shape == (3, 4)
    assert out.data[2, 3] == 1.0 + 2.0 + 3.0
    # gradients reduce over the broadcast axes
    report = grad_check(
        lambda ps: nk.sum_all(nk.mul(nk.add(ps[0], ps[1]), ps[2])),
        [col, row, tensor(np.random.default_rng(0).random((3, 4)))],
        tolerance=1e-6)
    assert report.ok, report


def test_elementwise_shape_mismatch():
    for op in (nk.add, nk.sub, nk.mul, nk.div):
        with pytest.raises(DimensionError):
            op(nk.zeros(2, 3), nk.Tensor(np.full((3, 2), 1.0)))


def test_div_by_zero_raises():
    with pytest.raises(NumericError):
        nk.div(tensor([1.0]), tensor([0.0]))


def test_log_of_nonpositive_raises():
    with pytest.raises(NumericError):
        nk.log(tensor([0.0]))
    with pytest.raises(NumericError):
        nk.log(tensor([-1.0]))


def test_overflowing_results_raise_with_the_op_name():
    # forward ops pass an overflow on unscanned; an Adam update is one of
    # the kernel's exits, scanned once
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="adam_step"):
        nk.adam_step(nk.AdamState.zeros((1, 1)), tensor([[-1e308]]), np.ones((1, 1)),
                     t=1, lr=1e308)


BIG, TINY = 1.79e308, 5e-324


@pytest.mark.parametrize("op, rows", [
    (nk.tanh, [[BIG, -BIG, TINY, -TINY]]),
    (nk.log, [[BIG, TINY]]),
    (nk.sqrt, [[BIG, TINY, 0.0]]),
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
        lambda ps: nk.sum_all(nk.mul(oracles.softmax_rows(ps[0]), w)), [a],
        tolerance=1e-6)
    assert report.ok, report


def test_structural_op_gradients():
    rng = nk.rng_for(13)
    a = tensor(rng.random((3, 4)) + 0.2)
    b = tensor(rng.random((3, 2)) + 0.2)

    def f(ps):
        x = nk.concat_cols(ps[0], ps[1])          # (3, 6)
        x = nk.reshape(x, 2, 9)
        x = nk.transpose(x)                        # (9, 2)
        x = nk.sqrt(x)
        return nk.sum_all(nk.sum_cols(x))

    report = grad_check(f, [a, b], tolerance=1e-5)
    assert report.ok, report


def test_take_rows_and_gather_cols_gradients():
    rng = nk.rng_for(14)
    table = tensor(rng.random((5, 3)))
    ids = [0, 2, 2, 4]

    def f(ps):
        rows = nk.take_rows(ps[0], ids)            # (4, 3)
        picked = oracles.gather_cols(rows, [0, 1, 2, 1])
        return nk.sum_all(picked)

    report = grad_check(f, [table], tolerance=1e-6)
    assert report.ok, report
    # repeated ids accumulate
    with nk.GradTape() as tape:
        out = nk.sum_all(nk.take_rows(table, ids))
    (g,) = tape.gradient(out, [table])
    assert g[2].sum() == pytest.approx(2 * 3)
    assert g[1].sum() == 0.0


def test_acosh_values_and_clamp():
    out = oracles.acosh(tensor([[1.0, 5.0 / 3.0]]))
    np.testing.assert_allclose(out.data, [[0.0, np.log(3.0)]], atol=1e-12)
    # below-domain input clamps to 1 instead of failing
    assert oracles.acosh(tensor([[0.5]])).item() == 0.0


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
    assert out.item() == pytest.approx(-0.001, rel=1e-6)


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
            with nk.GradTape() as tape:
                loss = nk.sum_all(nk.mul(p, p))
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


def test_grad_check_quadratic():
    x = tensor([[3.0]])
    report = grad_check(lambda ps: nk.mul(ps[0], ps[0]), [x], tolerance=1e-6)
    assert report.ok
    with nk.GradTape() as tape:
        y = nk.mul(x, x)
    (g,) = tape.gradient(y, [x])
    assert g[0, 0] == pytest.approx(6.0, abs=1e-9)


def test_backward_order_is_reverse_of_forward():
    # gradient through a chain reusing one tensor twice accumulates both paths
    x = tensor([[2.0]])
    with nk.GradTape() as tape:
        y = nk.mul(x, x)        # x^2
        z = nk.mul(y, x)        # x^3
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
