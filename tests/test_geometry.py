import numpy as np
import pytest

import oracles
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.errors import DimensionError


def random_ball_points(rng, n, d, max_norm=0.9):
    x = rng.normal(size=(n, d))
    radii = rng.uniform(0.0, max_norm, size=(n, 1))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * radii


def test_project_inside_unchanged():
    p = geo.project_array_to_ball(np.array([[0.3, 0.4]]))
    np.testing.assert_array_equal(p, [[0.3, 0.4]])


def test_project_forces_to_margin():
    p = geo.project_array_to_ball(np.array([[3.0, 4.0]]))
    assert np.linalg.norm(p) == pytest.approx(1.0 - geo.BALL_MARGIN, abs=1e-11)
    np.testing.assert_allclose(p / np.linalg.norm(p), [[0.6, 0.8]], atol=1e-12)


def test_project_idempotent():
    rng = nk.rng_for(21)
    x = rng.normal(size=(10, 4)) * 3.0
    once = geo.project_array_to_ball(x)
    twice = geo.project_array_to_ball(once)
    np.testing.assert_array_equal(once, twice)


def test_poincare_distance_zero_on_self():
    rng = nk.rng_for(23)
    x = nk.tensor(random_ball_points(rng, 8, 5))
    d = oracles.poincare_distance(x, x)
    np.testing.assert_allclose(d.data, 0.0, atol=1e-12)
    for pairwise in (geo.poincare_pairwise, geo.euclidean_pairwise):
        np.testing.assert_allclose(np.diag(pairwise(x, x).data), 0.0, atol=1e-12)


def test_poincare_origin_to_half():
    # arcosh(1 + 2*0.25/(1*0.75)) = arcosh(5/3) = ln 3
    d = oracles.poincare_distance([0.0, 0.0], [0.5, 0.0])
    assert d.item() == pytest.approx(np.log(3.0), abs=1e-10)


def test_poincare_symmetry_100_pairs():
    rng = nk.rng_for(24)
    a = nk.tensor(random_ball_points(rng, 100, 4))
    b = nk.tensor(random_ball_points(rng, 100, 4))
    dab = oracles.poincare_distance(a, b)
    dba = oracles.poincare_distance(b, a)
    np.testing.assert_allclose(dab.data, dba.data, atol=1e-12)


def test_euclidean_345():
    d = oracles.euclidean_distance([0.0, 0.0], [3.0, 4.0])
    assert d.item() == pytest.approx(5.0, abs=1e-12)
    assert oracles.euclidean_distance([1.0, 1.0], [1.0, 1.0]).item() == 0.0


def test_euclidean_triangle_inequality():
    rng = nk.rng_for(25)
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 6))
        dab = oracles.euclidean_distance(a, b).item()
        dbc = oracles.euclidean_distance(b, c).item()
        dac = oracles.euclidean_distance(a, c).item()
        assert dac <= dab + dbc + 1e-12


def test_small_radius_limit():
    # near the origin the ball metric is conformal with factor 2
    rng = nk.rng_for(26)
    a = nk.tensor(random_ball_points(rng, 50, 3, max_norm=0.01))
    b = nk.tensor(random_ball_points(rng, 50, 3, max_norm=0.01))
    dp = oracles.poincare_distance(a, b).data
    de = oracles.euclidean_distance(a, b).data
    nonzero = de > 1e-9
    ratio = dp[nonzero] / de[nonzero]
    assert np.all(np.abs(ratio - 2.0) < 0.02)


def test_poincare_monotone_toward_boundary():
    u = np.array([1.0, 0.0, 0.0])
    radii = np.linspace(0.05, 1.0 - geo.BALL_MARGIN, 40, endpoint=False)
    dists = [oracles.poincare_distance(np.zeros(3), r * u).item() for r in radii]
    assert all(b > a for a, b in zip(dists, dists[1:]))
    row = geo.poincare_pairwise(nk.tensor(np.zeros((1, 3))), nk.tensor(radii[:, None] * u))
    assert np.all(np.diff(row.data[0]) > 0)


def test_distance_gradients_away_from_coincidence():
    rng = nk.rng_for(27)
    a = nk.tensor(random_ball_points(rng, 4, 3, max_norm=0.8))
    b = nk.tensor(random_ball_points(rng, 4, 3, max_norm=0.8))
    rp = nk.grad_check(lambda ps: nk.sum_all(oracles.poincare_distance(ps[0], ps[1])),
                       [a, b], tolerance=1e-4)
    assert rp.ok, rp
    re = nk.grad_check(lambda ps: nk.sum_all(oracles.euclidean_distance(ps[0], ps[1])),
                       [a, b], tolerance=1e-4)
    assert re.ok, re


def test_coincident_gradient_is_zero_not_nan():
    x = nk.tensor([[0.2, 0.1]])
    for distance in (oracles.poincare_distance, geo.poincare_pairwise,
                     geo.euclidean_pairwise):
        with nk.GradTape() as tape:
            d = nk.sum_all(distance(x, x))
        (g,) = tape.gradient(d, [x])
        np.testing.assert_array_equal(g, np.zeros((1, 2)))


def test_pairwise_matches_rowwise():
    rng = nk.rng_for(28)
    a = nk.tensor(random_ball_points(rng, 3, 4))
    b = nk.tensor(random_ball_points(rng, 5, 4))
    pw_p = geo.poincare_pairwise(a, b).data
    pw_e = geo.euclidean_pairwise(a, b).data
    for i in range(3):
        for j in range(5):
            dp = oracles.poincare_distance(a.data[i], b.data[j]).item()
            de = oracles.euclidean_distance(a.data[i], b.data[j]).item()
            assert pw_p[i, j] == pytest.approx(dp, abs=1e-10)
            assert pw_e[i, j] == pytest.approx(de, abs=1e-10)


def test_pairwise_gradients():
    rng = nk.rng_for(29)
    a = nk.tensor(random_ball_points(rng, 3, 3, max_norm=0.7))
    b = nk.tensor(random_ball_points(rng, 4, 3, max_norm=0.7))
    w = nk.tensor(rng.normal(size=(3, 4)))
    rp = nk.grad_check(lambda ps: nk.sum_all(nk.mul(geo.poincare_pairwise(ps[0], ps[1]), w)),
                       [a, b], tolerance=1e-4)
    assert rp.ok, rp
    re = nk.grad_check(lambda ps: nk.sum_all(nk.mul(geo.euclidean_pairwise(ps[0], ps[1]), w)),
                       [a, b], tolerance=1e-4)
    assert re.ok, re


def test_outside_ball_rejected():
    with pytest.raises(ValueError, match="unit ball"):
        oracles.poincare_distance([1.5, 0.0], [0.0, 0.0])
    inside, outside = nk.tensor([[0.0, 0.0]]), nk.tensor([[0.0, 0.0], [1.5, 0.0]])
    with pytest.raises(ValueError, match="unit ball"):
        geo.poincare_pairwise(outside, inside)
    with pytest.raises(ValueError, match="unit ball"):
        geo.poincare_pairwise(inside, outside)
    # inside the unit sphere but past the margin that training keeps rows within
    past = nk.tensor([[0.0, 1.0 - geo.BALL_MARGIN / 2]])
    at = nk.tensor([[0.0, 1.0 - geo.BALL_MARGIN]])
    assert np.isfinite(geo.poincare_pairwise(at, inside).data).all()
    with pytest.raises(ValueError, match="unit ball"):
        geo.poincare_pairwise(past, inside)
    with pytest.raises(ValueError, match="unit ball"):
        geo.poincare_pairwise(inside, past)


def test_poincare_point_projects_on_construction():
    p = oracles.PoincarePoint(np.array([3.0, 4.0]))
    assert np.linalg.norm(p.coords) < 1.0
    q = oracles.PoincarePoint([0.1, 0.2])
    np.testing.assert_allclose(q.coords, [0.1, 0.2])
    assert oracles.poincare_distance(p, p).item() == 0.0


def _one_block(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize("m, n, d", [(3, 10, 4), (5, 9, 7), (1, 6, 1)])
@pytest.mark.parametrize("cols", [1, 4, 9, 15])
def test_pairwise_sqdist_chunks_by_budget_without_changing_bits(monkeypatch, m, n, d, cols):
    # a budget of `cols` (m, d) slabs, plus bytes short of one more, gives
    # chunks of `cols` columns (chunk = 1, chunk < n, chunk >= n), and every
    # chunking equals one unchunked block bit for bit
    widths = []
    real = np.subtract

    def spy(x, y, out):
        widths.append(out.shape[1])
        return real(x, y, out=out)

    monkeypatch.setattr(geo.np, "subtract", spy)
    monkeypatch.setattr(geo, "BLOCK_BYTES", 8 * m * d * cols + 7)
    rng = nk.rng_for(30, m, d)
    a, b = rng.normal(size=(m, d)), rng.normal(size=(n, d))
    got = geo.pairwise_sqdist(nk.tensor(a), nk.tensor(b)).data
    full, last = divmod(n, cols)
    assert widths == [cols] * full + [last] * bool(last)
    np.testing.assert_array_equal(got, _one_block(a, b))


def test_pairwise_sqdist_rejects_mismatched_dims():
    with pytest.raises(DimensionError):
        geo.pairwise_sqdist(nk.tensor(np.zeros((2, 3))), nk.tensor(np.zeros((2, 4))))
    sq = geo.pairwise_sqdist(nk.tensor(np.zeros((2, 3))), nk.tensor(np.zeros((4, 3))))
    with pytest.raises(DimensionError):
        geo.poincare_from_sqdist(sq, nk.tensor(np.zeros((4, 3))), nk.tensor(np.zeros((2, 3))))


def _rows_with(rng, m, distinct, d):
    """m rows of width d drawn from `distinct` rows, each used at least once."""
    pool = rng.normal(size=(distinct, d)) * 0.1
    ids = np.concatenate([np.arange(distinct), rng.integers(0, distinct, m - distinct)])
    return pool[rng.permutation(ids)]


@pytest.mark.parametrize("m, distinct, d", [
    (1, 1, 4), (3, 1, 4), (8, 5, 7), (64, 28, 16), (64, 64, 16), (100, 100, 3),
    (192, 43, 9), (256, 1, 5), (256, 256, 2),
])
def test_pairwise_sqdist_matches_the_one_row_per_query_oracle(m, distinct, d):
    rng = nk.rng_for(31, m, distinct, d)
    a = nk.tensor(_rows_with(rng, m, distinct, d))
    b = nk.tensor(rng.normal(size=(37, d)) * 0.1)
    weights = nk.tensor(rng.normal(size=(m, 37)))
    values, grads = [], []
    for pairwise in (geo.pairwise_sqdist, oracles.pairwise_sqdist):
        with nk.GradTape() as tape:
            out = pairwise(a, b)
            loss = nk.sum_all(nk.mul(out, weights))
        values.append(out.data)
        grads.append(tape.gradient(loss, [a, b]))
    np.testing.assert_array_equal(values[0], values[1])
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


def test_pairwise_sqdist_signed_zero_rows_match_the_oracle():
    # 0.0 and -0.0 rows count as one distinct row; their differences differ
    # only in the sign of zero, which squaring removes
    a = nk.tensor([[0.0, 0.5, -0.0], [-0.0, 0.5, 0.0], [0.0, 0.5, 0.0], [-0.0, -0.0, -0.0]])
    b = nk.tensor([[0.0, 0.5, 0.0], [-0.0, 0.5, -0.0], [0.0, 0.0, 0.0], [0.1, -0.2, 0.3]])
    got = geo.pairwise_sqdist(a, b).data
    np.testing.assert_array_equal(got, oracles.pairwise_sqdist(a, b).data)
    assert not np.signbit(got).any()


@pytest.mark.parametrize("m, distinct", [(192, 43), (64, 28), (5, 5), (6, 1)])
def test_difference_block_has_one_row_per_distinct_row(monkeypatch, m, distinct):
    rows = []
    real = geo._sqdist_rows

    def count(ad, bd):
        rows.append(ad.shape[0])
        return real(ad, bd)

    monkeypatch.setattr(geo, "_sqdist_rows", count)
    rng = nk.rng_for(32, m)
    a = nk.tensor(_rows_with(rng, m, distinct, 6))
    geo.pairwise_sqdist(a, nk.tensor(rng.normal(size=(50, 6))))
    assert rows == [distinct]
