import numpy as np
import pytest

from tkgdiff import numkit as nk
from tkgdiff.errors import DimensionError, NumericError


def test_matmul_identity():
    i2 = nk.tensor(np.eye(2))
    a = nk.tensor([[1.0, 2.0], [3.0, 4.0]])
    out = nk.matmul(i2, a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    a = nk.tensor([[1.0, 2.0]])
    b = nk.tensor([[3.0], [4.0]])
    assert nk.matmul(a, b).item() == 11.0


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        nk.matmul(nk.zeros(2, 3), nk.zeros(2, 3))


def test_matmul_gradient_matches_finite_differences():
    rng = nk.rng_for(7)
    a = nk.tensor(rng.random((5, 4)))
    b = nk.tensor(rng.random((4, 3)))

    report = nk.grad_check(lambda ps: nk.sum_all(nk.matmul(ps[0], ps[1])), [a, b],
                           tolerance=1e-6)
    assert report.ok, report


def test_elementwise_trivial_values():
    assert nk.tanh(nk.tensor([0.0])).item() == 0.0
    out = nk.exp(nk.tensor([0.0, 1.0]))
    np.testing.assert_allclose(out.data, [[1.0, np.e]], rtol=1e-12)


def test_elementwise_mul_gradient():
    rng = nk.rng_for(8)
    a = nk.tensor(rng.random((3, 3)) + 0.1)
    b = nk.tensor(rng.random((3, 3)) + 0.1)
    report = nk.grad_check(lambda ps: nk.sum_all(nk.mul(ps[0], ps[1])), [a, b],
                           tolerance=1e-6)
    assert report.ok, report


@pytest.mark.parametrize("kind", ["add", "sub", "div", "tanh", "exp", "log", "neg"])
def test_elementwise_gradients_all_kinds(kind):
    rng = nk.rng_for(9)
    a = nk.tensor(rng.random((2, 4)) + 0.5)
    b = nk.tensor(rng.random((2, 4)) + 0.5)

    def f(ps):
        if kind in ("add", "sub", "div"):
            return nk.sum_all(nk.elementwise(kind, ps[0], ps[1]))
        return nk.sum_all(nk.elementwise(kind, ps[0]))

    params = [a, b] if kind in ("add", "sub", "div") else [a]
    report = nk.grad_check(f, params, tolerance=1e-6)
    assert report.ok, (kind, report)


def test_elementwise_broadcast_length_one_axis():
    a = nk.tensor(np.ones((3, 4)))
    col = nk.tensor(np.arange(3.0).reshape(3, 1))
    row = nk.tensor(np.arange(4.0).reshape(1, 4))
    out = nk.add(nk.add(a, col), row)
    assert out.shape == (3, 4)
    assert out.data[2, 3] == 1.0 + 2.0 + 3.0
    # gradients reduce over the broadcast axes
    report = nk.grad_check(
        lambda ps: nk.sum_all(nk.mul(nk.add(ps[0], ps[1]), ps[2])),
        [col, row, nk.tensor(np.random.default_rng(0).random((3, 4)))],
        tolerance=1e-6)
    assert report.ok, report


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        nk.add(nk.zeros(2, 3), nk.zeros(3, 2))


def test_div_by_zero_raises():
    with pytest.raises(NumericError):
        nk.div(nk.tensor([1.0]), nk.tensor([0.0]))


def test_log_of_nonpositive_raises():
    with pytest.raises(NumericError):
        nk.log(nk.tensor([0.0]))
    with pytest.raises(NumericError):
        nk.log(nk.tensor([-1.0]))


def test_elementwise_rejects_unknown_kind():
    with pytest.raises(DimensionError):
        nk.elementwise("pow", nk.tensor([1.0]))


def test_softmax_uniform():
    out = nk.softmax_rows(nk.tensor([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.25] * 4], atol=1e-12)


def test_softmax_log_odds():
    out = nk.softmax_rows(nk.tensor([[np.log(1.0), np.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_large_offsets_stable():
    out = nk.softmax_rows(nk.tensor([[1e4, 1e4 + 1.0, 1e4 - 2.0]]))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = nk.rng_for(11)
    a = rng.normal(size=(6, 9)) * 3.0
    p = nk.softmax_rows(nk.tensor(a))
    np.testing.assert_allclose(p.data.sum(axis=1), np.ones(6), atol=1e-9)
    p_shift = nk.softmax_rows(nk.tensor(a + 123.456))
    np.testing.assert_allclose(p.data, p_shift.data, atol=1e-9)


def test_softmax_gradient():
    rng = nk.rng_for(12)
    a = nk.tensor(rng.normal(size=(3, 5)))
    w = nk.tensor(rng.normal(size=(3, 5)))
    report = nk.grad_check(
        lambda ps: nk.sum_all(nk.mul(nk.softmax_rows(ps[0]), w)), [a],
        tolerance=1e-6)
    assert report.ok, report


def test_structural_op_gradients():
    rng = nk.rng_for(13)
    a = nk.tensor(rng.random((3, 4)) + 0.2)
    b = nk.tensor(rng.random((3, 2)) + 0.2)

    def f(ps):
        x = nk.concat_cols(ps[0], ps[1])          # (3, 6)
        x = nk.reshape(x, 2, 9)
        x = nk.transpose(x)                        # (9, 2)
        x = nk.sqrt(nk.clamp_min(x, 1e-12))
        return nk.sum_all(nk.sum_cols(x))

    report = nk.grad_check(f, [a, b], tolerance=1e-5)
    assert report.ok, report


def test_take_rows_and_gather_cols_gradients():
    rng = nk.rng_for(14)
    table = nk.tensor(rng.random((5, 3)))
    ids = [0, 2, 2, 4]

    def f(ps):
        rows = nk.take_rows(ps[0], ids)            # (4, 3)
        picked = nk.gather_cols(rows, [0, 1, 2, 1])
        return nk.sum_all(picked)

    report = nk.grad_check(f, [table], tolerance=1e-6)
    assert report.ok, report
    # repeated ids accumulate
    with nk.GradTape() as tape:
        out = nk.sum_all(nk.take_rows(table, ids))
    (g,) = tape.gradient(out, [table])
    assert g[2].sum() == pytest.approx(2 * 3)
    assert g[1].sum() == 0.0


def test_acosh_values_and_clamp():
    out = nk.acosh(nk.tensor([[1.0, 5.0 / 3.0]]))
    np.testing.assert_allclose(out.data, [[0.0, np.log(3.0)]], atol=1e-12)
    # below-domain input clamps to 1 instead of failing
    assert nk.acosh(nk.tensor([[0.5]])).item() == 0.0


def test_adam_zero_gradient_is_fixed_point():
    p = nk.tensor([[1.0, -2.0], [0.5, 3.0]])
    state = nk.AdamState(p.shape, lr=0.001)
    out = p
    for _ in range(5):
        out = nk.adam_step(state, out, np.zeros(p.shape))
    np.testing.assert_array_equal(out.data, p.data)


def test_adam_first_step_magnitude():
    # constant gradient 1, lr=0.001: bias-corrected first step is lr * 1/(1+eps)
    p = nk.tensor([[0.0]])
    state = nk.AdamState(p.shape, lr=0.001)
    out = nk.adam_step(state, p, np.array([[1.0]]))
    assert out.item() == pytest.approx(-0.001, rel=1e-6)


def test_adam_shape_mismatch():
    state = nk.AdamState((2, 2))
    with pytest.raises(DimensionError):
        nk.adam_step(state, nk.zeros(2, 2), np.zeros((2, 3)))


def test_adam_deterministic_runs():
    def run():
        rng = nk.rng_for(55)
        p = nk.tensor(rng.normal(size=(4, 3)))
        state = nk.AdamState(p.shape, lr=0.01)
        for _ in range(100):
            with nk.GradTape() as tape:
                loss = nk.sum_all(nk.mul(p, p))
            (g,) = tape.gradient(loss, [p])
            p = nk.adam_step(state, p, g)
        return p.data

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)


def test_grad_check_quadratic():
    x = nk.tensor([[3.0]])
    report = nk.grad_check(lambda ps: nk.mul(ps[0], ps[0]), [x], tolerance=1e-6)
    assert report.ok
    with nk.GradTape() as tape:
        y = nk.mul(x, x)
    (g,) = tape.gradient(y, [x])
    assert g[0, 0] == pytest.approx(6.0, abs=1e-9)


def test_backward_order_is_reverse_of_forward():
    # gradient through a chain reusing one tensor twice accumulates both paths
    x = nk.tensor([[2.0]])
    with nk.GradTape() as tape:
        y = nk.mul(x, x)        # x^2
        z = nk.mul(y, x)        # x^3
    (g,) = tape.gradient(z, [x])
    assert g[0, 0] == pytest.approx(12.0)  # 3 x^2


def test_tensor_invariants():
    t = nk.tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.size == 4 and t.shape == (2, 2)
    with pytest.raises(NumericError):
        nk.tensor([[np.nan]])
    with pytest.raises(NumericError):
        nk.tensor([[np.inf]])
    with pytest.raises(DimensionError):
        nk.Tensor(np.zeros((2, 2, 2)))


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
