import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgdiff import corpus
from tkgdiff import numkit as nk
from tkgdiff.dpcl import QueryBatch
from tkgdiff.errors import DataError, ParseError


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


@pytest.fixture
def small_store(tmp_path):
    rows = [
        ("A", "likes", "B", 0), ("C", "likes", "D", 0),
        ("A", "likes", "B", 1), ("B", "hates", "C", 1),
        ("A", "likes", "C", 2), ("C", "likes", "D", 2),
        ("D", "hates", "A", 3), ("A", "likes", "B", 3),
        ("B", "hates", "C", 4), ("A", "likes", "D", 5),
    ]
    p = tmp_path / "quads.tsv"
    write_tsv(p, rows)
    return corpus.load_quads(p)


def test_load_small_fixture(small_store):
    st = small_store
    assert st.n_entities == 4
    assert st.n_relations == 2
    assert len(st.quads) == 10
    assert np.all(np.diff(st.quads[:, 3]) >= 0)
    st.check_invariants()
    # 80/10/10 by timestamp: ts 0-3 in train, ts 4 valid, ts 5 test
    assert st.split_counts() == {"train": 8, "valid": 1, "test": 1}


def test_load_three_files(tmp_path):
    write_tsv(tmp_path / "train.txt", [("A", "r", "B", t) for t in range(8)])
    write_tsv(tmp_path / "valid.txt", [("A", "r", "C", 8)])
    write_tsv(tmp_path / "test.txt", [("A", "r", "D", 9)])
    st = corpus.load_quads(tmp_path)
    assert st.split_counts() == {"train": 8, "valid": 1, "test": 1}
    st.check_invariants()


def test_three_files_overlapping_time_rejected(tmp_path):
    write_tsv(tmp_path / "train.txt", [("A", "r", "B", 5)])
    write_tsv(tmp_path / "valid.txt", [("A", "r", "C", 5)])
    write_tsv(tmp_path / "test.txt", [("A", "r", "D", 9)])
    with pytest.raises(DataError, match="overlap"):
        corpus.load_quads(tmp_path)


def test_malformed_line_names_position(tmp_path):
    p = tmp_path / "bad.tsv"
    with open(p, "w") as fh:
        fh.write("A\tr\tB\t0\n")
        fh.write("A\tr\tB\n")
    with pytest.raises(ParseError, match="bad.tsv:2"):
        corpus.load_quads(p)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        corpus.load_quads(p)


def test_fifth_column_ignored(tmp_path):
    p = tmp_path / "five.tsv"
    p.write_text("A\tr\tB\t0\textra\n" + "".join(f"A\tr\tB\t{t}\n" for t in range(1, 10)))
    st = corpus.load_quads(p)
    assert len(st.quads) == 10


def z_row(index, s, r, t):
    """The signed history row of one query (s, r, ?, t): a one-row batch."""
    return QueryBatch.from_quads(np.array([[s, r, 0, t]], dtype=np.int64), index).z_rows[0]


def test_z_values_single_event():
    # one event (A likes B, t=1) queried at t=2 with lam=2
    quads = np.array([[0, 0, 1, 1]] + [[0, 0, 1, t] for t in range(2, 10)], dtype=np.int64)
    st = corpus.QuadStore(quads, ["A", "B", "C"], ["likes"], [str(t) for t in range(10)],
                          train_end=9, valid_end=9)
    idx = corpus.build_periodic_index(st, lam=2.0, scope=("train",))
    row = z_row(idx, 0, 0, 2)
    assert row[1] == 2.0
    assert row[2] == -2.0
    np.testing.assert_array_equal(row, [-2.0, 2.0, -2.0])


def test_history_empty_at_time_zero(small_store):
    idx = corpus.build_periodic_index(small_store, lam=1.5,
                                      scope=("train", "valid", "test"))
    assert idx.history(0, 0, 0) == set()
    np.testing.assert_array_equal(z_row(idx, 0, 0, 0), [-1.5] * 4)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_lambda_is_refused(small_store, lam):
    # `lam <= 0` let both through, and the index made z rows of +-nan or +-inf
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        corpus.build_periodic_index(small_store, lam)


def brute_force_history(quads, s, r, t):
    return {int(o) for (ss, rr, o, k) in quads if ss == s and rr == r and k < t}


def test_index_matches_brute_force_on_random_fixture():
    rng = nk.rng_for(31)
    n = 200
    quads = np.column_stack([
        rng.integers(0, 6, n), rng.integers(0, 3, n),
        rng.integers(0, 6, n), np.sort(rng.integers(0, 20, n)),
    ]).astype(np.int64)
    st = corpus.QuadStore(quads, [f"e{i}" for i in range(6)],
                          [f"r{i}" for i in range(3)],
                          [str(t) for t in range(20)],
                          train_end=n, valid_end=n)
    idx = corpus.build_periodic_index(st, lam=2.0, scope=("train",))
    for s in range(6):
        for r in range(3):
            for t in range(21):
                expect = brute_force_history(quads, s, r, t)
                assert idx.history(s, r, t) == expect
                row = z_row(idx, s, r, t)
                for o in range(6):
                    want = 2.0 if o in expect else -2.0
                    assert row[o] == want


@st.composite
def scoped_stores(draw):
    """(store, scope): a few time-sorted quads over small vocabularies, split
    at arbitrary boundaries, and a non-empty subset of the splits."""
    n_ent, n_rel, n_ts = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    quads = draw(st.lists(st.tuples(st.integers(0, n_ent - 1), st.integers(0, n_rel - 1),
                                     st.integers(0, n_ent - 1), st.integers(0, n_ts - 1)),
                          max_size=24))
    arr = np.array(sorted(quads, key=lambda q: q[3]), dtype=np.int64).reshape(-1, 4)
    train_end = draw(st.integers(0, len(arr)))
    valid_end = draw(st.integers(train_end, len(arr)))
    store = corpus.QuadStore(arr, [f"e{i}" for i in range(n_ent)],
                             [f"r{i}" for i in range(n_rel)],
                             [str(t) for t in range(n_ts)], train_end, valid_end)
    scope = tuple(draw(st.lists(st.sampled_from(corpus.SPLITS), min_size=1,
                                max_size=3, unique=True)))
    return store, scope


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=scoped_stores(), lam=st.sampled_from([0.5, 2.0]))
def test_periodic_index_matches_brute_force_scan(case, lam):
    store, scope = case
    scoped = np.concatenate([store.split(name) for name in scope])
    idx = corpus.build_periodic_index(store, lam, scope)
    # every (s, r, t) as one batch, so z rows of different pairs share it
    grid = [(s, r, t) for s in range(store.n_entities) for r in range(store.n_relations)
            for t in range(store.n_timestamps + 1)]
    z = QueryBatch.from_quads(np.array([(s, r, 0, t) for s, r, t in grid]), idx).z_rows
    for (s, r, t), row in zip(grid, z):
        seen = {int(o) for ss, rr, o, tt in scoped if ss == s and rr == r and tt < t}
        assert idx.history(s, r, t) == seen
        want = np.where(np.isin(np.arange(store.n_entities), list(seen)), lam, -lam)
        np.testing.assert_array_equal(row, want)
        for o in range(store.n_entities):
            assert corpus.is_new_event(idx, s, r, o, t) == (o not in seen)


def test_z_two_values_and_sign_flip():
    quads = np.array([[0, 0, 1, 0]] + [[0, 0, 0, t] for t in range(1, 10)], dtype=np.int64)
    st = corpus.QuadStore(quads, ["A", "B"], ["r"], [str(t) for t in range(10)],
                          train_end=10, valid_end=10)
    idx = corpus.build_periodic_index(st, lam=3.0)
    # before the event: -lam; after: +lam
    assert z_row(idx, 0, 0, 0)[1] == -3.0
    assert z_row(idx, 0, 0, 1)[1] == 3.0
    assert set(np.unique(z_row(idx, 0, 0, 5))) <= {3.0, -3.0}


def test_is_new_event(small_store):
    idx = corpus.build_periodic_index(small_store, lam=2.0,
                                      scope=("train", "valid", "test"))
    ids = small_store.entity_ids
    rel = small_store.relation_ids["likes"]
    # (A likes B) repeats after t=0 -> not new at t=2
    assert not corpus.is_new_event(idx, ids["A"], rel, ids["B"], 2)
    # (A likes C) first occurs at t=2 -> new at t=2
    assert corpus.is_new_event(idx, ids["A"], rel, ids["C"], 2)


def test_new_event_fraction_matches_brute_force():
    rng = nk.rng_for(32)
    n = 300
    quads = np.column_stack([
        rng.integers(0, 5, n), rng.integers(0, 2, n),
        rng.integers(0, 5, n), np.sort(rng.integers(0, 30, n)),
    ]).astype(np.int64)
    st = corpus.QuadStore(quads, [f"e{i}" for i in range(5)], ["r0", "r1"],
                          [str(t) for t in range(30)], train_end=n, valid_end=n)
    idx = corpus.build_periodic_index(st, lam=1.0)
    got = sum(corpus.is_new_event(idx, s, r, o, t) for s, r, o, t in quads)
    want = sum(int(o) not in brute_force_history(quads, s, r, t)
               for s, r, o, t in quads)
    assert got == want


def adjacent_pairs_store():
    """Pair (0, 0) fires object 1 at t = 1, 3, 5 and pair (0, 1), whose keys
    follow right after, object 2 at t = 0 and object 3 at the last timestamp
    t = 6; pair (1, 0) has no facts."""
    quads = np.array([[0, 1, 2, 0], [0, 0, 1, 1], [0, 0, 1, 3], [0, 0, 1, 5],
                      [0, 1, 3, 6]], dtype=np.int64)
    store = corpus.QuadStore(quads, [f"e{i}" for i in range(4)], ["r0", "r1"],
                             [str(t) for t in range(7)], train_end=5, valid_end=5)
    store.check_invariants()
    return store


def test_history_past_the_last_timestamp_stays_in_its_pair():
    idx = corpus.build_periodic_index(adjacent_pairs_store(), lam=1.0)
    last = 6
    assert corpus.is_new_event(idx, 0, 1, 3, last)
    for t in (last, last + 1, last + 2, 10 ** 6):
        assert idx.history(0, 0, t) == {1}
        # object 1 fired three times, and is listed once per query
        rows, objs = idx.history_pairs([0] * 3, [0] * 3, [t] * 3)
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(objs, [1, 1, 1])
    for t in (last + 1, 10 ** 6):
        assert idx.history(0, 1, t) == {2, 3}
        assert not corpus.is_new_event(idx, 0, 1, 3, t)
    # the pair before (0, 1) never reads its segment, whose first fact is at t = 0
    assert idx.history(0, 0, 0) == set()
    assert idx.history(0, 0, -5) == set()


def test_pair_with_no_history():
    idx = corpus.build_periodic_index(adjacent_pairs_store(), lam=1.0)
    assert idx.history(1, 0, 7) == set()
    assert corpus.is_new_event(idx, 1, 0, 1, 7)
    rows, objs = idx.history_pairs([0, 1, 0], [0, 0, 1], [7, 7, 7])
    np.testing.assert_array_equal(rows, [0, 2, 2])
    np.testing.assert_array_equal(objs, [1, 2, 3])
    batch = QueryBatch.from_quads(np.array([[1, 0, 1, 7], [0, 0, 1, 7]]), idx)
    np.testing.assert_array_equal(batch.z_rows, [[-1.0] * 4, [-1.0, 1.0, -1.0, -1.0]])
    np.testing.assert_array_equal(batch.periodic, [False, True])


@pytest.mark.parametrize("scope", [(), ("valid",), ("valid", "test")])
def test_empty_scope(scope):
    store = adjacent_pairs_store()
    idx = corpus.build_periodic_index(store, lam=2.0, scope=scope)
    assert len(idx.keys) == len(idx.objects) == 0
    assert idx.history(0, 0, 7) == set()
    assert corpus.is_new_event(idx, 0, 0, 1, 7)
    rows, objs = idx.history_pairs([0, 0], [0, 1], [7, 7])
    assert rows.shape == objs.shape == (0,)
    batch = QueryBatch.from_quads(store.quads, idx)
    np.testing.assert_array_equal(batch.z_rows, np.full((5, 4), -2.0))
    assert not batch.periodic.any()


def test_zero_row_batch():
    store = adjacent_pairs_store()
    idx = corpus.build_periodic_index(store, lam=2.0)
    batch = QueryBatch.from_quads(store.quads[:0], idx)
    assert len(batch) == 0
    assert batch.z_rows.shape == (0, store.n_entities)
    assert batch.periodic.shape == (0,)
    rows, objs = idx.history_pairs([], [], [])
    assert rows.shape == objs.shape == (0,)


def test_timestamp_past_the_vocabulary_rejected():
    store = adjacent_pairs_store()
    store.timestamps = store.timestamps[:-1]
    with pytest.raises(DataError, match="timestamp"):
        store.check_invariants()


def test_entropy_half_frequency():
    # relation r0 fills one of every three positions; entity A fills the
    # subject and one object slot, i.e. half of all positions
    quads = np.array([[0, 0, 0, t] for t in range(5)] +
                     [[0, 0, 1, t] for t in range(5, 10)], dtype=np.int64)
    st = corpus.QuadStore(quads, ["A", "B"], ["r0"], [str(t) for t in range(10)],
                          train_end=10, valid_end=10)
    ent = corpus.token_entropies(st)
    assert ent.counts.sum() == 3 * len(quads)
    # A: 2 per quad for 5 quads + 1 per quad for 5 quads = 15 of 30 positions
    assert ent.counts[0] == 15
    assert ent.entropy[0] == pytest.approx(-np.log(0.5), abs=1e-12)
    assert ent.entropy[0] == pytest.approx(0.6931, abs=1e-4)


def test_entropy_monotone_and_smoothing():
    quads = np.array([[0, 0, 0, t] for t in range(9)] + [[1, 0, 1, 9]], dtype=np.int64)
    st = corpus.QuadStore(quads, ["A", "B", "C"], ["r"], [str(t) for t in range(10)],
                          train_end=10, valid_end=10)
    ent = corpus.token_entropies(st)
    # A more frequent than B -> strictly lower entropy
    assert ent.entropy[0] < ent.entropy[1]
    # C never occurs -> entropy of frequency 1
    assert ent.counts[2] == 0
    assert ent.entropy[2] == pytest.approx(-np.log(1 / 30))
    # mask token is the last id and gets the smoothed entropy too
    assert ent.mask_token == 3 + 1 - 1 + 1  # entities 3 + relations 1 + mask - 1
    assert ent.entropy[ent.mask_token] == pytest.approx(-np.log(1 / 30))
    # positive entropies below log(total) for occurring tokens
    occurring = ent.counts > 0
    assert np.all(ent.entropy[occurring] >= 0)
    assert np.all(ent.entropy[occurring] < np.log(ent.total_positions))


def test_full_frequency_token_has_zero_entropy():
    # -log(freq) hits exactly 0 at frequency 1.0; the closest realizable corpus
    # has one entity in both entity slots, so check the formula at 2/3 and the
    # exact-zero fixed point on the counts it produced
    quads = np.array([[0, 0, 0, t] for t in range(10)], dtype=np.int64)
    st = corpus.QuadStore(quads, ["A"], ["r"], [str(t) for t in range(10)],
                          train_end=10, valid_end=10)
    ent = corpus.token_entropies(st)
    assert ent.entropy[0] == pytest.approx(-np.log(2 / 3), abs=1e-12)
    assert -np.log(ent.total_positions / ent.total_positions) == 0.0


def test_sequence_tokens_layout(small_store):
    ent = corpus.token_entropies(small_store)
    toks = ent.quad_tokens(np.array([[1, 1, 3, 0]]))[0]
    np.testing.assert_array_equal(toks, [1, small_store.n_entities + 1, 3])
    batch = ent.quad_tokens(small_store.quads[:3])
    assert batch.shape == (3, 3)
    assert np.all(batch[:, 1] >= small_store.n_entities)
