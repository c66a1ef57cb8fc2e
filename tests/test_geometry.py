from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import grad_check, tensor
from tkgdiff import geometry as geo
from tkgdiff import numkit as nk
from tkgdiff.errors import DimensionError


def block(a, b):
    """The (m, n) squared-distance block of geometry.pairwise_sqdist(a, b, ...),
    gathered whole from its expansion."""
    expansion, inverse, _ = geo.pairwise_sqdist(a, b, geo.row_sqnorms(b))
    return expansion[inverse]


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


def test_project_returns_its_input_when_no_row_moves():
    x = random_ball_points(nk.rng_for(20), 6, 4, max_norm=1.0 - 2 * geo.BALL_MARGIN)
    assert geo.project_array_to_ball(x) is x


def test_a_row_past_the_margin_rescales_as_the_product_form_does():
    # the form before the early return: every row times its factor, 1.0 off
    # the margin; a row at the margin itself counts as past it
    rng = nk.rng_for(22)
    x = random_ball_points(rng, 6, 4)
    x[1] *= 3.0 / np.linalg.norm(x[1])
    x[4] *= (1.0 - geo.BALL_MARGIN) / np.linalg.norm(x[4])
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    limit = 1.0 - geo.BALL_MARGIN
    want = x * np.where(norms >= limit, geo._TARGET / np.maximum(norms, limit), 1.0)
    got = geo.project_array_to_ball(x)
    assert got is not x
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[[0, 2, 3, 5]], x[[0, 2, 3, 5]])


def test_project_idempotent():
    rng = nk.rng_for(21)
    x = rng.normal(size=(10, 4)) * 3.0
    once = geo.project_array_to_ball(x)
    twice = geo.project_array_to_ball(once)
    np.testing.assert_array_equal(once, twice)


def test_poincare_distance_zero_on_self():
    rng = nk.rng_for(23)
    x = tensor(random_ball_points(rng, 8, 5))
    d = oracles.poincare_distance(x, x)
    np.testing.assert_allclose(d.data, 0.0, atol=1e-12)
    for pairwise in (oracles.poincare_pairwise, oracles.euclidean_pairwise):
        np.testing.assert_allclose(np.diag(pairwise(x, x).data), 0.0, atol=1e-12)


def test_poincare_origin_to_half():
    # arcosh(1 + 2*0.25/(1*0.75)) = arcosh(5/3) = ln 3
    d = oracles.poincare_distance([0.0, 0.0], [0.5, 0.0])
    assert oracles.item(d) == pytest.approx(np.log(3.0), abs=1e-10)


def test_poincare_symmetry_100_pairs():
    rng = nk.rng_for(24)
    a = tensor(random_ball_points(rng, 100, 4))
    b = tensor(random_ball_points(rng, 100, 4))
    dab = oracles.poincare_distance(a, b)
    dba = oracles.poincare_distance(b, a)
    np.testing.assert_allclose(dab.data, dba.data, atol=1e-12)


def test_euclidean_345():
    d = oracles.euclidean_distance([0.0, 0.0], [3.0, 4.0])
    assert oracles.item(d) == pytest.approx(5.0, abs=1e-12)
    assert oracles.item(oracles.euclidean_distance([1.0, 1.0], [1.0, 1.0])) == 0.0


def test_euclidean_triangle_inequality():
    rng = nk.rng_for(25)
    for _ in range(100):
        a, b, c = rng.normal(size=(3, 6))
        dab = oracles.item(oracles.euclidean_distance(a, b))
        dbc = oracles.item(oracles.euclidean_distance(b, c))
        dac = oracles.item(oracles.euclidean_distance(a, c))
        assert dac <= dab + dbc + 1e-12


def test_small_radius_limit():
    # near the origin the ball metric is conformal with factor 2
    rng = nk.rng_for(26)
    a = tensor(random_ball_points(rng, 50, 3, max_norm=0.01))
    b = tensor(random_ball_points(rng, 50, 3, max_norm=0.01))
    dp = oracles.poincare_distance(a, b).data
    de = oracles.euclidean_distance(a, b).data
    nonzero = de > 1e-9
    ratio = dp[nonzero] / de[nonzero]
    assert np.all(np.abs(ratio - 2.0) < 0.02)


def test_poincare_monotone_toward_boundary():
    u = np.array([1.0, 0.0, 0.0])
    radii = np.linspace(0.05, 1.0 - geo.BALL_MARGIN, 40, endpoint=False)
    dists = [oracles.item(oracles.poincare_distance(np.zeros(3), r * u)) for r in radii]
    assert all(b > a for a, b in zip(dists, dists[1:]))
    row = oracles.poincare_pairwise(tensor(np.zeros((1, 3))), tensor(radii[:, None] * u))
    assert np.all(np.diff(row.data[0]) > 0)


def test_distance_gradients_away_from_coincidence():
    rng = nk.rng_for(27)
    a = tensor(random_ball_points(rng, 4, 3, max_norm=0.8))
    b = tensor(random_ball_points(rng, 4, 3, max_norm=0.8))
    rp = grad_check(lambda ps: oracles.sum_all(oracles.poincare_distance(ps[0], ps[1])),
                       [a, b], tolerance=1e-4)
    assert rp.ok, rp
    re = grad_check(lambda ps: oracles.sum_all(oracles.euclidean_distance(ps[0], ps[1])),
                       [a, b], tolerance=1e-4)
    assert re.ok, re


def test_the_poincare_distance_keeps_its_digits_for_rows_near_each_other():
    # 1-D rows at -(1 - BALL_MARGIN), the second 1e-9 ... 1e-13 further in.
    # Against a 50-digit reference from the same squared distances and gaps:
    # arcosh(1 + 2q) kept 8 digits at 1e-9 and none at 1e-13, where it read
    # 0, and its backward 2 / sqrt(arg^2 - 1) the same
    a = np.array([[-(1.0 - geo.BALL_MARGIN)]])
    b = a[0, 0] + np.array([[1e-9], [1e-10], [1e-11], [1e-12], [1e-13]])
    b_sqnorms = geo.row_sqnorms(b)
    sqdist = block(a, b)
    gap_a = geo.ball_gap(geo.row_sqnorms(a), "a")
    gap_b = geo.ball_gap(b_sqnorms, "b").T
    dist = geo.distance("poincare", sqdist, gap_a, gap_b)
    g_sq, terms = geo.distance_backward("poincare", np.ones_like(sqdist), sqdist, gap_a, gap_b)
    g_gap_b = -terms.sum(axis=0, keepdims=True) / gap_b
    with localcontext() as ctx:
        ctx.prec = 50
        ga = Decimal(gap_a[0, 0])
        for j, sq in enumerate(sqdist[0]):
            gb = Decimal(gap_b[0, j])
            q = Decimal(sq) / (ga * gb)
            root = q.sqrt()
            want = 2 * (root + (q + 1).sqrt()).ln()          # 2 asinh(sqrt(q))
            slope = 1 / (q * (1 + q)).sqrt()                 # d dist / d q
            for got, ref in ((dist[0, j], want), (g_sq[0, j], slope / (ga * gb)),
                             (g_gap_b[0, j], -slope * q / gb)):
                assert abs(Decimal(got) - ref) <= Decimal("1e-12") * abs(ref), (j, got, ref)


def test_coincident_gradient_is_zero_not_nan():
    x = tensor([[0.2, 0.1]])
    for distance in (oracles.poincare_distance, oracles.poincare_pairwise,
                     oracles.euclidean_pairwise):
        with oracles.GradTape() as tape:
            d = oracles.sum_all(distance(x, x))
        (g,) = tape.gradient(d, [x])
        np.testing.assert_array_equal(g, np.zeros((1, 2)))


def test_pairwise_matches_rowwise():
    rng = nk.rng_for(28)
    a = tensor(random_ball_points(rng, 3, 4))
    b = tensor(random_ball_points(rng, 5, 4))
    pw_p = oracles.poincare_pairwise(a, b).data
    pw_e = oracles.euclidean_pairwise(a, b).data
    for i in range(3):
        for j in range(5):
            dp = oracles.item(oracles.poincare_distance(a.data[i], b.data[j]))
            de = oracles.item(oracles.euclidean_distance(a.data[i], b.data[j]))
            assert pw_p[i, j] == pytest.approx(dp, abs=1e-10)
            assert pw_e[i, j] == pytest.approx(de, abs=1e-10)


def test_pairwise_gradients():
    rng = nk.rng_for(29)
    a = tensor(random_ball_points(rng, 3, 3, max_norm=0.7))
    b = tensor(random_ball_points(rng, 4, 3, max_norm=0.7))
    w = tensor(rng.normal(size=(3, 4)))
    rp = grad_check(lambda ps: oracles.sum_all(oracles.mul(oracles.poincare_pairwise(*ps), w)),
                       [a, b], tolerance=1e-4)
    assert rp.ok, rp
    re = grad_check(lambda ps: oracles.sum_all(oracles.mul(oracles.euclidean_pairwise(*ps), w)),
                       [a, b], tolerance=1e-4)
    assert re.ok, re


def test_outside_ball_rejected():
    with pytest.raises(ValueError, match="unit ball"):
        oracles.poincare_distance([1.5, 0.0], [0.0, 0.0])
    inside, outside = tensor([[0.0, 0.0]]), tensor([[0.0, 0.0], [1.5, 0.0]])
    with pytest.raises(ValueError, match="unit ball"):
        oracles.poincare_pairwise(outside, inside)
    with pytest.raises(ValueError, match="unit ball"):
        oracles.poincare_pairwise(inside, outside)
    # inside the unit sphere but past the margin that training keeps rows within
    past = tensor([[0.0, 1.0 - geo.BALL_MARGIN / 2]])
    at = tensor([[0.0, 1.0 - geo.BALL_MARGIN]])
    assert np.isfinite(oracles.poincare_pairwise(at, inside).data).all()
    with pytest.raises(ValueError, match="unit ball"):
        oracles.poincare_pairwise(past, inside)
    with pytest.raises(ValueError, match="unit ball"):
        oracles.poincare_pairwise(inside, past)


def test_poincare_point_projects_on_construction():
    p = oracles.PoincarePoint(np.array([3.0, 4.0]))
    assert np.linalg.norm(p.coords) < 1.0
    q = oracles.PoincarePoint([0.1, 0.2])
    np.testing.assert_allclose(q.coords, [0.1, 0.2])
    assert oracles.item(oracles.poincare_distance(p, p)) == 0.0


@pytest.mark.parametrize("m, n, d", [(3, 10, 4), (5, 9, 7), (1, 6, 1)])
@pytest.mark.parametrize("cols", [1, 4, 9, 15])
def test_pairwise_sqdist_chunks_by_budget_without_changing_bits(monkeypatch, m, n, d, cols):
    # rows 1e-9 apart make all m * n pairs close; a budget of `cols` d-wide
    # difference rows, plus bytes short of one more, recomputes them `cols`
    # pairs at a time (chunk = 1, chunk < m * n, chunk >= m * n), and every
    # chunking equals the one explicit-difference block bit for bit
    widths = []
    real = np.subtract

    def spy(x, y):
        widths.append(x.shape[0])
        return real(x, y)

    monkeypatch.setattr(geo.np, "subtract", spy)
    monkeypatch.setattr(geo, "RECOMPUTE_BYTES", 8 * d * cols + 7)
    rng = nk.rng_for(30, m, d)
    base = rng.normal(size=d) * 0.1
    a = tensor(base + rng.normal(size=(m, d)) * 1e-9)
    b = tensor(base + rng.normal(size=(n, d)) * 1e-9)
    got = block(a.data, b.data)
    full, last = divmod(m * n, cols)
    assert widths == [cols] * full + [last] * bool(last)
    np.testing.assert_array_equal(got, oracles.pairwise_sqdist(a, b).data)


def test_pairwise_sqdist_rejects_mismatched_dims():
    with pytest.raises(DimensionError):
        block(np.zeros((2, 3)), np.zeros((2, 4)))
    sq = oracles.gram_sqdist(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 3))))
    with pytest.raises(DimensionError):
        oracles.poincare_from_sqdist(sq, tensor(np.zeros((4, 3))), tensor(np.zeros((2, 3))))


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
    a = tensor(_rows_with(rng, m, distinct, d))
    b = tensor(rng.normal(size=(37, d)) * 0.1)
    weights = tensor(rng.normal(size=(m, 37)))
    values, grads = [], []
    for pairwise in (oracles.gram_sqdist, oracles.pairwise_sqdist):
        with oracles.GradTape() as tape:
            out = pairwise(a, b)
            loss = oracles.sum_all(oracles.mul(out, weights))
        values.append(out.data)
        grads.append(tape.gradient(loss, [a, b]))
    np.testing.assert_allclose(values[0], values[1], rtol=1e-12, atol=0)
    # the backward reads only a, b and the upstream gradient
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)


def test_pairwise_sqdist_signed_zero_rows_match_the_oracle():
    # 0.0 and -0.0 rows count as one distinct row; their differences differ
    # only in the sign of zero, which squaring removes
    a = tensor([[0.0, 0.5, -0.0], [-0.0, 0.5, 0.0], [0.0, 0.5, 0.0], [-0.0, -0.0, -0.0]])
    b = tensor([[0.0, 0.5, 0.0], [-0.0, 0.5, -0.0], [0.0, 0.0, 0.0], [0.1, -0.2, 0.3]])
    got = block(a.data, b.data)
    np.testing.assert_allclose(got, oracles.pairwise_sqdist(a, b).data, rtol=1e-12, atol=0)
    assert not np.signbit(got).any()


def test_pairwise_sqdist_returns_the_close_pairs_that_are_not_zero():
    # repeated subject rows each get their distinct row's close pairs; a
    # subject's own column (0) and the pairs far apart are not among them
    rng = nk.rng_for(38)
    pool = at_margin(rng, 3, 5)
    ids = np.array([2, 0, 2, 1, 2])
    b = np.vstack([pool, moved(rng, pool[[2, 1]], 1e-9), at_margin(rng, 4, 5)])
    expansion, inverse, (i, j) = geo.pairwise_sqdist(pool[ids], b, geo.row_sqnorms(b))
    got = expansion[inverse]
    scale = np.add.outer(geo.row_sqnorms(pool[ids]), geo.row_sqnorms(b))
    want = (got > 0.0) & (got <= geo.CLOSE * scale)
    assert sorted(zip(i, j)) == sorted(zip(*np.nonzero(want)))
    assert sorted(zip(i, j)) == [(0, 3), (2, 3), (3, 4), (4, 3)]


@pytest.mark.parametrize("m, distinct", [(192, 43), (64, 28), (5, 5), (6, 1)])
def test_difference_block_has_one_row_per_distinct_row(monkeypatch, m, distinct):
    rows = []
    real = geo._sqdist_rows

    def count(ad, bd, bd_sqnorms):
        rows.append(ad.shape[0])
        return real(ad, bd, bd_sqnorms)

    monkeypatch.setattr(geo, "_sqdist_rows", count)
    rng = nk.rng_for(32, m)
    a = _rows_with(rng, m, distinct, 6)
    block(a, rng.normal(size=(50, 6)))
    assert rows == [distinct]


# ---------------------------------------------------------------------------
# The Gram form against the explicit differences, where cancellation bites
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps


def at_margin(rng, n, d):
    """n random rows of width d at norm 1 - BALL_MARGIN."""
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * (1.0 - geo.BALL_MARGIN)


def moved(rng, x, distance):
    """Each row of x moved by `distance` in a random direction."""
    step = rng.normal(size=x.shape)
    return x + step / np.linalg.norm(step, axis=1, keepdims=True) * distance


def assert_matches_the_oracle(a, b):
    """geometry.pairwise_sqdist(a, b) against the explicit differences: no
    entry negative, each within 16 ulps of |a_i|^2 + |b_j|^2, and the close
    pairs bit for bit; returns (got, want, close)."""
    got = block(a, b)
    want = oracles.pairwise_sqdist(tensor(a), tensor(b)).data
    scale = np.add.outer(np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b))
    assert (got >= 0.0).all()
    assert np.all(np.abs(got - want) <= 16 * EPS * scale)
    close = want <= 0.5 * geo.CLOSE * scale
    np.testing.assert_array_equal(got[close], want[close])
    return got, want, close


@pytest.mark.parametrize("d", [2, 16, 200])
def test_pairwise_sqdist_rows_at_the_ball_margin_match_the_oracle(d):
    rng = nk.rng_for(33, d)
    got, want, _ = assert_matches_the_oracle(at_margin(rng, 24, d), at_margin(rng, 40, d))
    apart = want > 1e-2
    np.testing.assert_allclose(got[apart], want[apart], rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [2, 16, 200])
def test_pairwise_sqdist_near_duplicates_are_bit_equal_to_the_oracle(d):
    # pairs 1e-9 apart near the boundary: the expansion would keep none of
    # their digits, so each is one of the close pairs recomputed exactly
    rng = nk.rng_for(34, d)
    subjects = at_margin(rng, 12, d)
    picks = rng.integers(0, 12, 30)
    a = subjects[picks]
    b = np.vstack([moved(rng, subjects, 1e-9), at_margin(rng, 5, d)])
    got, want, close = assert_matches_the_oracle(a, b)
    assert close[np.arange(30), picks].all()


def test_pairwise_sqdist_repeated_subjects_share_the_oracles_rows():
    rng = nk.rng_for(35)
    pool = at_margin(rng, 3, 16)
    ids = rng.permutation(np.arange(64) % 3)
    b = np.vstack([moved(rng, pool, 1e-7), at_margin(rng, 20, 16)])
    got, _, close = assert_matches_the_oracle(pool[ids], b)
    assert close[np.arange(64), ids].all()
    for k in range(3):
        assert (got[ids == k] == got[ids == k][0]).all()


@pytest.mark.parametrize("distance, kind", [
    (oracles.poincare_pairwise, "poincare"), (oracles.euclidean_pairwise, "euclidean")])
def test_identical_rows_give_exact_zeros_and_the_oracles_gradients(distance, kind):
    rng = nk.rng_for(36)
    shared = np.vstack([at_margin(rng, 3, 8), random_ball_points(rng, 3, 8)])
    a = tensor(np.vstack([shared, random_ball_points(rng, 4, 8)]))
    b = tensor(np.vstack([random_ball_points(rng, 5, 8), shared]))
    sq = block(a.data, b.data)
    np.testing.assert_array_equal(np.diag(sq[:6, 5:]), 0.0)
    assert not np.signbit(sq).any()
    weights = tensor(rng.normal(size=(10, 11)))

    def oracle(x, y):
        sq = oracles.pairwise_sqdist(x, y)
        if kind == "poincare":
            return oracles.poincare_from_sqdist(sq, x, y)
        return oracles.euclidean_from_sqdist(sq)

    values, grads = [], []
    for pairwise in (distance, oracle):
        with oracles.GradTape() as tape:
            out = pairwise(a, b)
            loss = oracles.sum_all(oracles.mul(out, weights))
        values.append(out.data)
        grads.append(tape.gradient(loss, [a, b]))
    np.testing.assert_array_equal(np.diag(values[0][:6, 5:]), 0.0)
    np.testing.assert_allclose(values[0], values[1], rtol=1e-12, atol=0)
    for got, want in zip(*grads):
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_pairwise_sqdist_separation_sweep_near_the_boundary():
    # the expansion's error is absolute, a few ulps of |a|^2 + |b|^2, at
    # every separation; the close pairs it would cancel are recomputed
    rng = nk.rng_for(37)
    a = at_margin(rng, 16, 200)
    for distance in np.logspace(-9, 0, 28):
        assert_matches_the_oracle(a, geo.project_array_to_ball(moved(rng, a, distance)))


# ---------------------------------------------------------------------------
# The Euclidean distance needs no clamp below zero
# ---------------------------------------------------------------------------

def clamped_euclidean(sqdist):
    """sqrt(max(sqdist, 0)), the clamp passing no gradient where it is
    active: the form euclidean_from_sqdist had before pairwise_sqdist
    ruled out negative entries; taped."""
    active = sqdist.data > 0.0
    clamped = nk.Tensor(np.maximum(sqdist.data, 0.0))

    def backward(g):
        return (np.where(active, g, 0.0),)

    return oracles.sqrt(oracles._tape_record(clamped, (sqdist,), backward))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), d=st.integers(1, 9),
       shared=st.integers(0, 4), margin=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_euclidean_from_sqdist_is_bit_equal_to_the_clamped_form(m, n, d, shared, margin,
                                                                  seed):
    # rows both sides hold, and rows repeated within a side, give exact +0
    # entries, where sqrt passes no gradient just as the clamp did
    rng = nk.rng_for(seed)
    draw = at_margin if margin else (lambda rng, k, d: random_ball_points(rng, k, d))
    pool = draw(rng, shared + 3, d)
    a = tensor(np.vstack([pool[:shared], pool[rng.integers(0, len(pool), m)]]))
    b = tensor(np.vstack([pool[:shared], draw(rng, n, d)]))
    weights = tensor(rng.normal(size=(m + shared, n + shared)))
    values, grads = [], []
    for distance in (oracles.euclidean_from_sqdist, clamped_euclidean):
        with oracles.GradTape() as tape:
            out = distance(oracles.gram_sqdist(a, b))
            loss = oracles.sum_all(oracles.mul(out, weights))
        values.append(out.data)
        grads.append(tape.gradient(loss, [a, b]))
    np.testing.assert_array_equal(values[0], values[1])
    for got, want in zip(*grads):
        np.testing.assert_array_equal(got, want)
    assert (np.diag(values[0][:shared, :shared]) == 0.0).all()
