import struct
import tracemalloc

import numpy as np
import pytest

import knnmt.datastore
from knnmt.core import EOS_ID, BOS_ID, ParallelCorpus, Sentence
from knnmt.datastore import (
    Datastore,
    IvfIndex,
    build,
    load_datastore,
    load_ivf,
    query_exact,
    query_exact_batch_rows,
    query_ivf,
    query_ivf_rows,
    save_datastore,
    save_ivf,
    train_ivf,
)
from knnmt.refmodel import RefModel, init_params
from helpers import CopyModel, make_corpus, random_corpus, scan_rows
from kmeans_reference import train_ivf as reference_train_ivf


def random_store(seed=0, n=200, dim=16, n_talks=4, dup_rows=0):
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(n, dim)).astype(np.float32)
    for i in range(dup_rows):
        keys[n - 1 - i] = keys[0]
    return Datastore(
        dim=dim,
        keys=keys,
        values=rng.integers(0, 50, size=n).astype(np.uint32),
        talk_ids=rng.integers(0, n_talks, size=n).astype(np.uint32),
    )


def oracle_indices(ds, query, k, exclude_talk=None):
    """Brute-force scan in the storage dtype, stable (distance, row) order."""
    q = query.astype(np.float32)
    out = []
    for i in range(len(ds)):
        if exclude_talk is not None and ds.talk_ids[i] == exclude_talk:
            continue
        diff = ds.keys[i] - q
        out.append((np.float32(np.dot(diff, diff)), i))
    out.sort()
    return [i for _, i in out[:k]]


def build_pair_by_pair(model, corpus):
    """Reference build: one step() per entry, pair after pair."""
    keys, values, talks = [], [], []
    for pair in corpus:
        context, state, prev = model.encode(pair.source), model.initial_state(), BOS_ID
        for tgt in list(pair.target.token_ids) + [EOS_ID]:
            hidden, _, state = model.step(context, state, prev)
            keys.append(np.asarray(hidden, dtype=np.float32))
            values.append(tgt)
            talks.append(pair.talk_id)
            prev = tgt
    return np.stack(keys), np.array(values, dtype=np.uint32), np.array(talks, dtype=np.uint32)


def mixed_length_corpus(seed, n_pairs, vocab_size):
    """Targets of 1 to 9 tokens over several talks, in no length order."""
    pairs = []
    for talk in range(3):
        pairs += random_corpus(seed + talk, n_pairs, vocab_size, min_len=1, max_len=9, talk_id=talk).pairs
    return ParallelCorpus(tuple(pairs[::2] + pairs[1::2]))


class TestBuild:
    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("adapter", [False, True])
    def test_blocks_equal_the_pair_by_pair_loop(self, monkeypatch, block, adapter):
        if block is not None:
            monkeypatch.setattr(knnmt.datastore, "_BUILD_BLOCK", block)
        model = RefModel(init_params(20, seed=7))
        if adapter:
            model.add_adapter("dom", seed=2)
            model.adapters["dom"].W_up += 0.05
            model.set_active_adapter("dom")
        corpus = mixed_length_corpus(11, 100, 20)
        ds = build(model, corpus)
        keys, values, talks = build_pair_by_pair(model, corpus)
        assert ds.keys.dtype == np.float32 and ds.keys.tobytes() == keys.tobytes()
        assert ds.values.dtype == np.uint32 and ds.values.tobytes() == values.tobytes()
        assert ds.talk_ids.dtype == np.uint32 and ds.talk_ids.tobytes() == talks.tobytes()

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_base_class_step_batch_builds_the_same_store(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(knnmt.datastore, "_BUILD_BLOCK", block)
        model = CopyModel(20, dim=5)
        corpus = mixed_length_corpus(3, 10, 20)
        ds = build(model, corpus)
        keys, values, talks = build_pair_by_pair(model, corpus)
        assert ds.keys.tobytes() == keys.tobytes()
        assert ds.values.tobytes() == values.tobytes()
        assert ds.talk_ids.tobytes() == talks.tobytes()

    def test_memory_stays_near_the_key_bytes(self):
        # the keys go straight into one preallocated array: no per-entry
        # arrays and no second full-size copy
        model = RefModel(init_params(40, seed=1))
        corpus = random_corpus(5, 2000, 40, min_len=8, max_len=12)
        tracemalloc.start()
        try:
            ds = build(model, corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) >= 20_000
        assert peak < 1.5 * ds.keys.nbytes

    def test_non_finite_hidden_state_refused(self):
        class NanModel(CopyModel):
            def step(self, context, state, prev_token):
                hidden, dist, state = super().step(context, state, prev_token)
                hidden[1] = np.nan if state == 3 else 0.0
                return hidden, dist, state

        corpus = make_corpus([([4, 5], [6]), ([4, 5, 6], [7, 8, 9])])
        with pytest.raises(ValueError, match="datastore keys .* must be finite"):
            build(NanModel(12), corpus)

    def test_teacher_forcing_records_every_target_token_and_eos(self):
        corpus = make_corpus([([4, 5], [6, 7, 8]), ([5], [9])], talk_id=2)
        model = RefModel(init_params(12, seed=0))
        ds = build(model, corpus)
        assert len(ds) == 4 + 2  # target tokens + one EOS per pair
        assert ds.dim == model.hidden_dim()
        assert list(ds.values) == [6, 7, 8, EOS_ID, 9, EOS_ID]
        assert set(ds.talk_ids) == {2}

    def test_keys_are_the_gold_prefix_hidden_states(self):
        corpus = make_corpus([([4, 5], [6, 7])])
        model = RefModel(init_params(12, seed=1))
        ds = build(model, corpus)
        ctx = model.encode(Sentence((4, 5)))
        state = model.initial_state()
        expected = []
        for prev in [BOS_ID, 6, 7]:
            hidden, _, state = model.step(ctx, state, prev)
            expected.append(hidden)
        np.testing.assert_allclose(
            ds.keys, np.stack(expected).astype(np.float32), atol=0
        )

    def test_empty_corpus_yields_empty_store(self):
        model = RefModel(init_params(8))
        ds = build(model, ParallelCorpus(()))
        assert len(ds) == 0
        assert ds.keys.shape == (0, model.hidden_dim()) and ds.keys.dtype == np.float32
        assert ds.values.dtype == ds.talk_ids.dtype == np.uint32
        assert query_exact(ds, np.zeros(model.hidden_dim(), dtype=np.float32), 5) == []


class TestQueryExact:
    def test_matches_bruteforce_oracle(self):
        ds = random_store(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            q = rng.normal(size=16).astype(np.float32)
            for k in (1, 5, 20):
                got = [n.index for n in query_exact(ds, q, k)]
                assert got == oracle_indices(ds, q, k)

    def test_duplicate_keys_tie_break_by_row(self):
        ds = random_store(seed=3, dup_rows=3)
        got = query_exact(ds, ds.keys[0], 4)
        assert [n.index for n in got] == [0, 197, 198, 199]
        assert all(n.distance == 0.0 for n in got)

    def test_distances_ascending(self):
        ds = random_store(seed=4)
        rng = np.random.default_rng(5)
        q = rng.normal(size=16).astype(np.float32)
        dists = [n.distance for n in query_exact(ds, q, 10)]
        assert dists == sorted(dists)

    def test_exclusion_filters_and_respects_oracle(self):
        ds = random_store(seed=6)
        rng = np.random.default_rng(7)
        q = rng.normal(size=16).astype(np.float32)
        got = query_exact(ds, q, 8, exclude_talk=1)
        assert all(n.talk_id != 1 for n in got)
        assert [n.index for n in got] == oracle_indices(ds, q, 8, exclude_talk=1)

    def test_fewer_eligible_than_k_returns_all(self):
        ds = random_store(seed=8, n=10, n_talks=2)
        eligible = int((ds.talk_ids != 0).sum())
        got = query_exact(ds, ds.keys[0], 50, exclude_talk=0)
        assert len(got) == eligible

    def test_neighbor_value_and_talk_match_row(self):
        ds = random_store(seed=9)
        n = query_exact(ds, ds.keys[17], 1)[0]
        assert n.index == 17
        assert n.value == int(ds.values[17])
        assert n.talk_id == int(ds.talk_ids[17])

    def test_dim_mismatch_rejected(self):
        ds = random_store()
        with pytest.raises(ValueError):
            query_exact(ds, np.zeros(8, dtype=np.float32), 4)

    def test_k_validated(self):
        ds = random_store()
        with pytest.raises(ValueError):
            query_exact(ds, np.zeros(16, dtype=np.float32), 0)

    def test_near_tie_cluster_matches_oracle(self):
        # keys packed a thousandth apart stress the candidate refinement
        rng = np.random.default_rng(31)
        base = rng.normal(size=16).astype(np.float32)
        keys = base + rng.normal(size=(40, 16)).astype(np.float32) * 1e-3
        ds = Datastore(
            dim=16,
            keys=keys.astype(np.float32),
            values=np.arange(40, dtype=np.uint32),
            talk_ids=np.zeros(40, dtype=np.uint32),
        )
        got = [n.index for n in query_exact(ds, base, 10)]
        assert got == oracle_indices(ds, base, 10)


class TestNormCache:
    def test_replaced_keys_are_searched(self):
        ds = random_store(seed=39)
        q = np.random.default_rng(40).normal(size=16).astype(np.float32)
        query_exact(ds, q, 3)  # fills the cache from the first keys
        keys = ds.keys.copy()
        keys[150] = q
        ds.keys = keys
        got = query_exact(ds, q, 3)
        assert got[0].index == 150 and got[0].distance == 0.0
        assert [n.index for n in got] == oracle_indices(ds, q, 3)

    def test_keys_cannot_be_written_in_place(self):
        ds = random_store(seed=41)
        with pytest.raises(ValueError):
            ds.keys[150] = 0.0
        ds.keys = ds.keys.copy()
        with pytest.raises(ValueError):
            ds.keys[0, 0] = 1.0


def grouped_store(seed, n=300, n_keys=30, dim=4):
    """Copies of a few integer-valued keys, one of them written as -0.0: it
    equals 0.0 but differs in its bytes, so it must form a group of its own."""
    rng = np.random.default_rng(seed)
    distinct = rng.integers(-2, 3, size=(n_keys, dim)).astype(np.float32)
    distinct[0] = 0.0
    distinct[1] = -0.0
    return Datastore(
        dim=dim,
        keys=distinct[rng.integers(0, n_keys, size=n)],
        values=rng.integers(0, 50, size=n).astype(np.uint32),
        talk_ids=rng.integers(0, 4, size=n).astype(np.uint32),
    )


def assert_scan_equal(ds, Q, k, exclude_talk=None):
    rows, dists = ds.search_batch_rows(Q, k, exclude_talk)
    want_rows, want_dists = scan_rows(ds, Q, k, exclude_talk)
    assert rows.tolist() == want_rows.tolist()
    assert dists.tobytes() == want_dists.tobytes()


class TestKeyGroups:
    def test_byte_equal_rows_share_a_group(self):
        # rows equal in value but not in bytes stay apart: 0.0 and -0.0
        # (keys 0 and 1 of grouped_store), and two NaNs whose payloads differ
        ds = grouped_store(seed=55)
        Q = ds.keys[:6] + np.random.default_rng(56).normal(scale=0.3, size=(6, 4)).astype(np.float32)
        Q[0] = 0.0
        for k, talk in ((1, None), (8, 1), (40, 2), (400, 3)):
            assert_scan_equal(ds, Q, k, talk)
        words = ds.keys.view(np.uint32).copy()
        words[[7, 70, 170]] = np.array([[0x7FC00000], [0x7FC00001], [0x7FC00000]])
        nan_store = Datastore(dim=ds.dim, keys=words.view(np.float32), values=ds.values, talk_ids=ds.talk_ids)
        for store in (ds, nan_store):
            grp = knnmt.datastore._key_groups(store)
            groups = np.split(grp.members, grp.bounds[1:-1])
            words = store.keys.view(np.uint32)
            assert len(groups) == len(np.unique(words, axis=0))
            for rows in groups:
                assert (words[rows] == words[rows[0]]).all()
                assert (np.diff(rows) > 0).all()

    def test_replaced_keys_rebuild_the_groups(self):
        ds = grouped_store(seed=57)
        Q = ds.keys[:4]
        ds.search_batch_rows(Q, 5)
        before = ds._groups
        ds.keys = grouped_store(seed=58, n_keys=12).keys
        assert_scan_equal(ds, Q, 5)
        assert ds._groups is not before and ds._groups.keys is ds.keys
        assert len(ds._groups.bounds) - 1 == len(np.unique(ds.keys.view(np.uint32), axis=0))

    def test_alternating_exclusion_matches_a_fresh_store(self):
        ds = grouped_store(seed=59)
        Q = ds.keys[10:14] + np.float32(0.25)
        for talk in (1, 2, 1, None, 2, 2, 0, 3, 1):
            fresh = Datastore(dim=ds.dim, keys=ds.keys, values=ds.values, talk_ids=ds.talk_ids)
            got = ds.search_batch_rows(Q, 6, talk)
            want = fresh.search_batch_rows(Q, 6, talk)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tobytes() == want[1].tobytes()
            assert_scan_equal(ds, Q, 6, talk)

    def test_replaced_talk_ids_rebuild_the_eligible_rows(self):
        ds = grouped_store(seed=61)
        Q = ds.keys[:4] + np.float32(0.25)
        assert_scan_equal(ds, Q, 6, 1)
        ds.talk_ids = np.roll(ds.talk_ids, 1)
        assert_scan_equal(ds, Q, 6, 1)

    @pytest.mark.parametrize("shift", range(8))
    def test_margin_set_wider_than_the_slab(self, shift):
        # eight keys all 2 from the origin: every group ties with tau, so the
        # margin set holds all eight, more than the slab of min(take, G)
        # groups that the partition finds; which group holds row 0 moves
        # with the shift
        shell = np.concatenate((2 * np.eye(4), -2 * np.eye(4))).astype(np.float32)
        ds = Datastore(
            dim=4,
            keys=shell[(np.arange(40) + shift) % 8],
            values=np.zeros(40, dtype=np.uint32),
            talk_ids=(np.arange(40) % 3).astype(np.uint32),
        )
        Q = np.zeros((2, 4), dtype=np.float32)
        for k in (1, 3, 9):
            for talk in (None, 0):
                assert_scan_equal(ds, Q, k, talk)

    def test_eligible_rows_are_cached_once_for_any_k(self):
        # the exclusion cache holds O(N) arrays whatever k is: one key
        # repeated 3,000 times, searched with k up to every row
        keys = np.zeros((3_000, 4), dtype=np.float32)
        keys[::500] = 1.0
        ds = Datastore(
            dim=4, keys=keys, values=np.zeros(3_000, dtype=np.uint32),
            talk_ids=(np.arange(3_000) % 2).astype(np.uint32),
        )
        Q = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.float32)
        assert_scan_equal(ds, Q, 1, 1)
        cache = knnmt.datastore._eligible(ds, 1).groups
        for k in (40, 1_499, 1_500, 3_000):
            assert_scan_equal(ds, Q, k, 1)
        assert knnmt.datastore._eligible(ds, 1).groups is cache
        assert max(a.size for a in cache if isinstance(a, np.ndarray)) <= len(ds) + 1

    def test_talk_ids_cannot_be_written_in_place(self):
        ds = random_store(seed=60)
        with pytest.raises(ValueError):
            ds.talk_ids[3] = 0
        ds.talk_ids = ds.talk_ids.copy()
        with pytest.raises(ValueError):
            ds.talk_ids[0] = 1

    def test_first_search_holds_no_full_size_key_copy(self):
        # measured 1.49x the key bytes: -2 U^T (1x) plus the byte sort of
        # the grouping; the two full-size temporaries of a whole-array
        # transpose made 2.02x
        ds = random_store(seed=54, n=20_000, dim=64)
        Q = np.random.default_rng(55).normal(size=(4, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            ds.search_batch_rows(Q, 8, exclude_talk=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * ds.keys.nbytes


def record_margin_widths(monkeypatch):
    """The list that each later exact search appends its queries' margin
    set sizes to."""
    widths = []
    pick = knnmt.datastore._pick

    def counting_pick(ds, grp, Q, groups, qi, gi, take):
        widths.extend(np.bincount(qi, minlength=len(Q)).tolist())
        return pick(ds, grp, Q, groups, qi, gi, take)

    monkeypatch.setattr(knnmt.datastore, "_pick", counting_pick)
    return widths


def record_pick_batches(monkeypatch):
    """The list that each later exact search appends the query count of
    each of its _pick calls to."""
    batches = []
    pick = knnmt.datastore._pick

    def counting_pick(ds, grp, Q, groups, qi, gi, take):
        batches.append(len(Q))
        return pick(ds, grp, Q, groups, qi, gi, take)

    monkeypatch.setattr(knnmt.datastore, "_pick", counting_pick)
    return batches


class TestSearchBatch:
    def test_wide_margin_memory_does_not_grow_with_the_batch(self, monkeypatch):
        # distinct keys exactly on the radius-10 sphere (four entries of
        # +-5), so a query at the origin ties with every group and any sound
        # margin holds them all. Ranked in blocks of 4 queries and scored
        # ragged, 64 queries take no more transient memory than 4 (padded to
        # the widest set, they took 15x)
        rng = np.random.default_rng(60)
        n, dim = 4_000, 16
        keys = np.zeros((3 * n, dim), dtype=np.float32)
        at = np.argsort(rng.random((3 * n, dim)), axis=1)[:, :4]
        np.put_along_axis(keys, at, rng.choice(np.float32([-5, 5]), size=(3 * n, 4)), axis=1)
        ds = Datastore(
            dim=dim,
            keys=rng.permutation(np.unique(keys, axis=0))[:n],
            values=np.zeros(n, dtype=np.uint32),
            talk_ids=np.zeros(n, dtype=np.uint32),
        )
        monkeypatch.setattr(knnmt.datastore, "_SEARCH_ELEMS", 4 * n)
        widths = record_margin_widths(monkeypatch)
        ds.search_batch_rows(np.zeros((1, dim), np.float32), 8)  # the caches

        def peak(batch):
            Q = np.zeros((batch, dim), np.float32)
            tracemalloc.start()
            try:
                rows, _ = ds.search_batch_rows(Q, 8)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(64) < 1.2 * peak(4)
        assert len(ds._groups.first) == n and min(widths) >= n / 2

    def test_origin_margin_set_on_a_thin_shell_stays_narrow(self, monkeypatch):
        # distinct keys on a sphere, radii 10 to 10.001: the squared norms
        # span 0.02, and a margin derived from the rounding of each query
        # (about 4e-4 at the origin) holds a few percent of the groups; a
        # fixed 1e-4 (max norm + |q|)^2 held about half
        rng = np.random.default_rng(60)
        n, dim = 4_000, 16
        dirs = rng.normal(size=(n, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ds = Datastore(
            dim=dim,
            keys=(dirs * (10 + rng.uniform(0, 1e-3, size=(n, 1)))).astype(np.float32),
            values=np.zeros(n, dtype=np.uint32),
            talk_ids=np.zeros(n, dtype=np.uint32),
        )
        widths = record_margin_widths(monkeypatch)
        Q = np.zeros((1, dim), np.float32)
        assert_scan_equal(ds, Q, 8)
        assert 8 <= widths[0] <= 0.05 * n

    def test_tiles_keep_the_margin_pairs_for_one_pick(self, monkeypatch):
        # 8 queries rank 2,000 distinct keys in 4 tiles of 500 groups; the
        # pairs each tile keeps are scored together, in one pick
        ds = random_store(seed=62, n=2_000)
        monkeypatch.setattr(knnmt.datastore, "_SEARCH_ELEMS", 8 * 500)
        batches = record_pick_batches(monkeypatch)
        Q = np.random.default_rng(63).normal(size=(8, 16)).astype(np.float32)
        Q[0] = ds.keys[5]
        for k, talk in ((1, None), (8, 1), (30, 2)):
            assert_scan_equal(ds, Q, k, talk)
        assert batches == [8, 8, 8]

    def test_first_tiles_without_an_eligible_row(self, monkeypatch):
        # the first half of the groups, in key-byte order, belong to the
        # excluded talk: tau stays +inf through the first five tiles, which
        # keep no pair, and the search still picks once
        ds = random_store(seed=64, n=600)
        grp = knnmt.datastore._key_groups(ds)
        talk_ids = np.zeros(len(ds), dtype=np.uint32)
        talk_ids[grp.members[: grp.bounds[300]]] = 1
        ds.talk_ids = talk_ids
        monkeypatch.setattr(knnmt.datastore, "_SEARCH_ELEMS", 4 * 60)
        batches = record_pick_batches(monkeypatch)
        Q = np.random.default_rng(65).normal(size=(4, 16)).astype(np.float32)
        for k in (1, 8, 40):
            assert_scan_equal(ds, Q, k, exclude_talk=1)
        assert batches == [4, 4, 4]

    def test_tiled_memory_does_not_grow_with_the_batch(self, monkeypatch):
        # 20,000 distinct random keys: 4 queries rank them in one tile, 64
        # in 16 tiles of 1,250 groups; the pairs kept between tiles stay few
        ds = random_store(seed=66, n=20_000)
        monkeypatch.setattr(knnmt.datastore, "_SEARCH_ELEMS", 4 * 20_000)
        Q = np.random.default_rng(67).normal(size=(64, 16)).astype(np.float32)
        ds.search_batch_rows(Q[:1], 8)  # the caches

        def peak(batch):
            tracemalloc.start()
            try:
                ds.search_batch_rows(Q[:batch], 8)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(64) < 1.2 * peak(4)
        assert_scan_equal(ds, Q, 8)

    def test_rows_match_single_queries_bitwise(self):
        ds = random_store(seed=25, dup_rows=3)
        rng = np.random.default_rng(26)
        Q = rng.normal(size=(12, 16)).astype(np.float32)
        Q[3] = ds.keys[0]  # exact hit that ties across the duplicate rows
        for k in (1, 4, 20):
            assert ds.search_batch(Q, k) == [ds.search_batch(q[None], k)[0] for q in Q]

    def test_exclusion_matches_single_queries(self):
        ds = random_store(seed=27)
        rng = np.random.default_rng(28)
        Q = rng.normal(size=(6, 16)).astype(np.float32)
        batch = ds.search_batch(Q, 8, exclude_talk=2)
        assert batch == [ds.search_batch(q[None], 8, exclude_talk=2)[0] for q in Q]
        assert all(n.talk_id != 2 for row in batch for n in row)

    def test_ivf_path_matches_single_queries(self):
        ds = random_store(seed=29)
        ds.index = train_ivf(ds, n_clusters=6, seed=0, nprobe=2)
        rng = np.random.default_rng(30)
        Q = rng.normal(size=(5, 16)).astype(np.float32)
        assert ds.search_batch(Q, 4) == [ds.search_batch(q[None], 4)[0] for q in Q]

    def test_empty_store_returns_empty_rows(self):
        ds = Datastore(
            dim=16,
            keys=np.zeros((0, 16), dtype=np.float32),
            values=np.zeros(0, dtype=np.uint32),
            talk_ids=np.zeros(0, dtype=np.uint32),
        )
        assert ds.search_batch(np.zeros((3, 16), dtype=np.float32), 5) == [[], [], []]

    def test_query_matrix_shape_validated(self):
        ds = random_store()
        with pytest.raises(ValueError):
            ds.search_batch(np.zeros((4, 8), dtype=np.float32), 3)
        with pytest.raises(ValueError):
            ds.search_batch(np.zeros((4, 16), dtype=np.float32), 0)

    def test_rows_form_matches_neighbor_form(self):
        ds = random_store(seed=32, dup_rows=2)
        rng = np.random.default_rng(33)
        Q = rng.normal(size=(7, 16)).astype(np.float32)
        Q[1] = ds.keys[5]
        rows, dists = ds.search_batch_rows(Q, 5, exclude_talk=1)
        found = ds.search_batch(Q, 5, exclude_talk=1)
        assert rows.shape == (7, 5) and dists.shape == (7, 5)
        for b in range(7):
            assert rows[b].tolist() == [n.index for n in found[b]]
            assert dists[b].tolist() == [n.distance for n in found[b]]

    def test_ivf_rows_form_matches_neighbor_form(self):
        ds = random_store(seed=34, n=60, dup_rows=2)
        ds.index = train_ivf(ds, n_clusters=8, seed=0, nprobe=1)
        rng = np.random.default_rng(35)
        Q = rng.normal(size=(9, 16)).astype(np.float32)
        Q[2] = ds.keys[0]
        rows, dists = ds.search_batch_rows(Q, 12, exclude_talk=1)
        found = ds.search_batch(Q, 12, exclude_talk=1)
        eligible = int((ds.talk_ids != 1).sum())
        assert rows.shape == dists.shape == (9, min(12, eligible))
        assert dists.dtype == np.float32
        padded = 0
        for b in range(9):
            n = len(found[b])
            assert rows[b, :n].tolist() == [nb.index for nb in found[b]]
            assert dists[b, :n].tolist() == [nb.distance for nb in found[b]]
            assert (rows[b, n:] == -1).all() and np.isposinf(dists[b, n:]).all()
            assert (rows[b, :n] >= 0).all()  # padding only at the end
            padded += rows.shape[1] - n
        assert padded > 0  # one probed list of ~7 rows cannot fill 12 slots


class TestIvf:
    def test_nprobe_equal_to_clusters_reproduces_exact(self):
        ds = random_store(seed=10, dup_rows=2)
        ds.index = train_ivf(ds, n_clusters=8, seed=0)
        rng = np.random.default_rng(11)
        for _ in range(20):
            q = rng.normal(size=16).astype(np.float32)
            assert query_ivf(ds, q, 6, nprobe=8) == query_exact(ds, q, 6)

    def test_posting_lists_partition_rows(self):
        ds = random_store(seed=12)
        index = train_ivf(ds, n_clusters=5, seed=0)
        seen = np.concatenate(index.lists)
        assert len(seen) == len(ds)
        assert sorted(seen.tolist()) == list(range(len(ds)))

    @pytest.mark.parametrize(
        "lists",
        [[[0, 1], [1, 2]], [[0, 0], [1]], [[0, 3], [1]], [[-1, 0], [1]]],
        ids=["shared", "repeated", "past-end", "negative"],
    )
    def test_lists_that_do_not_partition_rejected(self, lists):
        with pytest.raises(ValueError, match="posting lists must partition the datastore rows"):
            knnmt.datastore.IvfIndex(
                centroids=np.zeros((len(lists), 2), dtype=np.float32),
                lists=[np.array(lst, dtype=np.int64) for lst in lists],
            )

    def test_partition_with_an_empty_list_accepted(self):
        index = knnmt.datastore.IvfIndex(
            centroids=np.zeros((3, 2), dtype=np.float32),
            lists=[np.array([2, 0]), np.array([], dtype=np.int64), np.array([1])],
        )
        assert index.n_rows == 3

    def test_training_is_deterministic(self):
        ds = random_store(seed=13)
        a = train_ivf(ds, n_clusters=6, seed=3)
        b = train_ivf(ds, n_clusters=6, seed=3)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_exclusion_applies_within_scanned_clusters(self):
        ds = random_store(seed=14)
        ds.index = train_ivf(ds, n_clusters=4, seed=0)
        got = query_ivf(ds, ds.keys[3], 8, exclude_talk=int(ds.talk_ids[3]), nprobe=4)
        assert all(n.talk_id != int(ds.talk_ids[3]) for n in got)

    def test_default_nprobe_comes_from_index(self):
        ds = random_store(seed=15)
        ds.index = train_ivf(ds, n_clusters=8, seed=0, nprobe=8)
        rng = np.random.default_rng(16)
        q = rng.normal(size=16).astype(np.float32)
        assert query_ivf(ds, q, 5) == query_exact(ds, q, 5)

    def test_query_without_index_rejected(self):
        ds = random_store()
        with pytest.raises(ValueError, match="IVF"):
            query_ivf(ds, ds.keys[0], 4)

    def test_cluster_count_validated(self):
        ds = random_store(n=10)
        with pytest.raises(ValueError):
            train_ivf(ds, n_clusters=11)
        with pytest.raises(ValueError):
            train_ivf(ds, n_clusters=0)

    def test_nprobe_validated(self):
        ds = random_store(seed=17)
        ds.index = train_ivf(ds, n_clusters=4, seed=0)
        with pytest.raises(ValueError):
            query_ivf(ds, ds.keys[0], 4, nprobe=0)
        with pytest.raises(ValueError):
            query_ivf(ds, ds.keys[0], 4, nprobe=5)

    def test_index_of_a_smaller_store_rejected(self):
        # trained on 50 rows, its lists would hide rows 50..199
        ds = random_store(seed=36)
        ds.index = train_ivf(random_store(seed=36, n=50), n_clusters=4, seed=0, nprobe=4)
        with pytest.raises(ValueError, match="50 rows"):
            query_ivf(ds, ds.keys[150], 3)
        with pytest.raises(ValueError, match="50 rows"):
            ds.search_batch_rows(ds.keys[150:151], 3)

    def test_index_of_a_larger_store_rejected(self):
        ds = random_store(seed=37, n=50)
        ds.index = train_ivf(random_store(seed=37), n_clusters=4, seed=0, nprobe=4)
        with pytest.raises(ValueError, match="200 rows"):
            query_ivf(ds, ds.keys[3], 3)

    def test_index_of_a_same_size_store_rejected(self):
        ds = random_store(seed=39)
        ds.index = train_ivf(ds, n_clusters=4, seed=0, nprobe=4)
        other = random_store(seed=39)
        other.keys = ds.keys[::-1].copy()
        other.index = ds.index
        with pytest.raises(ValueError, match="cluster 0's centroid"):
            query_ivf(other, other.keys[0], 3)
        with pytest.raises(ValueError, match="does not belong"):
            other.search_batch_rows(other.keys[:1], 3)

    def test_binding_compares_bytes_and_keeps_its_verdict(self, monkeypatch):
        keys = np.random.default_rng(40).normal(size=(60, 4)).astype(np.float32)
        keys[7] = np.nan  # a NaN centroid is never == itself, but its bytes are
        ds = Datastore(4, keys, np.zeros(60, dtype=np.uint32), np.zeros(60, dtype=np.uint32))
        ds.index = train_ivf(ds, n_clusters=3, seed=0)
        assert len(ds.index.lists[0]) and np.isnan(ds.index.centroids[0]).all()
        filled = sum(len(rows) > 0 for rows in ds.index.lists)
        calls = []
        mean_rows = knnmt.datastore._mean_rows
        monkeypatch.setattr(knnmt.datastore, "_mean_rows", lambda *a: calls.append(1) or mean_rows(*a))
        for _ in range(3):
            ds.search_batch_rows(keys[:2], 2)
        assert len(calls) == filled  # one mean per non-empty list, on the first search only
        ds.keys = keys.copy()  # another keys array is checked afresh
        ds.search_batch_rows(keys[:2], 2)
        assert len(calls) == 2 * filled

    def test_full_probe_breaks_ties_by_row_across_lists(self):
        # copies of 30 keys dealt across 5 hand-made lists in no order, each
        # centroid the mean train_ivf takes: every list is scanned as a
        # slice, and ties still break by row index across the lists
        ds = grouped_store(seed=66)
        rng = np.random.default_rng(67)
        lists = np.array_split(rng.permutation(len(ds)), 5)
        centroids = np.stack([knnmt.datastore._mean_rows(ds.keys, rows) for rows in lists])
        ds.index = IvfIndex(centroids=centroids.astype(np.float32), lists=lists, nprobe=5)
        words = ds.keys.view(np.uint32)
        owner = np.empty(len(ds), dtype=np.intp)
        for c, rows in enumerate(lists):
            owner[rows] = c
        assert any(len(set(owner[(words == w).all(axis=1)])) > 1 for w in words)
        Q = ds.keys[:6] + rng.normal(scale=0.3, size=(6, 4)).astype(np.float32)
        Q[0] = 0.0
        for k, talk in ((1, None), (8, 1), (40, 2), (400, 3)):
            rows, dists = ds.search_batch_rows(Q, k, talk)
            want_rows, want_dists = query_exact_batch_rows(ds, Q, k, talk)
            assert rows.tolist() == want_rows.tolist()
            assert dists.tobytes() == want_dists.tobytes()

    @staticmethod
    def assert_probed_scan_equal(ds, Q, k, talk, nprobe):
        """IVF search equals, for each query alone, a ranking of the
        centroids by one einsum, then a scan of the probed lists' eligible
        rows gathered by row, (distance, row) ascending."""
        rows, dists = query_ivf_rows(ds, Q, k, talk, nprobe)
        for b, q in enumerate(Q):
            cdiff = ds.index.centroids - q
            probed = np.argsort(np.einsum("ij,ij->i", cdiff, cdiff), kind="stable")[:nprobe]
            scan = np.concatenate([ds.index.lists[c] for c in probed])
            scan = scan[ds.talk_ids[scan] != talk]
            diff = ds.keys[scan] - q
            d2 = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((scan, d2))[:k]
            filled = rows[b] >= 0
            assert rows[b][filled].tolist() == scan[order].tolist()
            assert dists[b][filled].tobytes() == d2[order].tobytes()
            assert not filled[len(order):].any() and (dists[b][len(order):] == np.inf).all()

    @pytest.mark.parametrize("talk", [None, 0, 1, 2, 3])
    def test_exclusion_applies_inside_each_probed_slice(self, talk):
        ds = grouped_store(seed=68)
        ds.index = train_ivf(ds, n_clusters=6, seed=0, nprobe=2)
        Q = ds.keys[:5] + np.random.default_rng(69).normal(scale=0.3, size=(5, 4)).astype(np.float32)
        self.assert_probed_scan_equal(ds, Q, 20, talk, 2)

    def test_centroids_ranked_for_many_queries_as_for_one(self):
        # 300 queries at the midpoints of two centroids, near ties that a
        # change of summation would flip, ranked against 100 centroids in
        # blocks of _CACHE_ROWS // 100 queries: the probes are those a
        # per-query einsum ranks
        ds = random_store(seed=71, n=2_000)
        rng = np.random.default_rng(72)
        lists = np.array_split(rng.permutation(len(ds)), 100)
        centroids = np.stack([knnmt.datastore._mean_rows(ds.keys, rows) for rows in lists])
        ds.index = IvfIndex(centroids=centroids.astype(np.float32), lists=lists, nprobe=1)
        pairs = rng.integers(0, 100, size=(300, 2))
        Q = ((ds.index.centroids[pairs[:, 0]] + ds.index.centroids[pairs[:, 1]]) / 2).astype(np.float32)
        for nprobe in (1, 3):
            self.assert_probed_scan_equal(ds, Q, 10, 1, nprobe)

    def test_replaced_keys_are_bound_afresh(self):
        # the list-ordered keys are kept with the verdict, so another keys
        # array is checked and copied again: refused if the index is not its
        ds = random_store(seed=70)
        ds.index = train_ivf(ds, n_clusters=4, seed=0, nprobe=4)
        keys = ds.keys
        want = query_exact_batch_rows(ds, keys[:3], 5)
        ds.search_batch_rows(keys[:3], 5)
        ds.keys = keys[::-1].copy()
        with pytest.raises(ValueError, match="does not belong"):
            ds.search_batch_rows(keys[:3], 5)
        ds.keys = keys.copy()
        got = ds.search_batch_rows(keys[:3], 5)
        assert got[0].tolist() == want[0].tolist() and got[1].tobytes() == want[1].tobytes()

    def test_index_records_partitioned_row_count(self, tmp_path):
        ds = random_store(seed=38)
        save_ivf(train_ivf(ds, n_clusters=5, seed=0), tmp_path / "s.knni")
        assert load_ivf(tmp_path / "s.knni").n_rows == len(ds)

    def test_search_dispatches_on_index(self):
        ds = random_store(seed=18)
        rng = np.random.default_rng(19)
        q = rng.normal(size=16).astype(np.float32)
        flat = ds.search_batch(q[None], 4)[0]
        ds.index = train_ivf(ds, n_clusters=8, seed=0, nprobe=8)
        assert ds.search_batch(q[None], 4)[0] == flat  # full probe count stays exact


def duplicate_store(seed, n, dim, n_distinct):
    """Keys drawn from a few integer rows: many exact ties and, with more
    clusters than distinct keys, clusters that empty and are reseeded."""
    rng = np.random.default_rng(seed)
    distinct = rng.integers(-3, 4, size=(n_distinct, dim))
    keys = distinct[rng.integers(0, n_distinct, size=n)].astype(np.float32)
    return Datastore(
        dim=dim,
        keys=keys,
        values=np.zeros(n, dtype=np.uint32),
        talk_ids=np.zeros(n, dtype=np.uint32),
    )


def assert_same_index(got, want):
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert len(got.lists) == len(want.lists)
    for g, w in zip(got.lists, want.lists):
        assert g.dtype == np.int64 and g.tolist() == w.tolist()
    assert got.nprobe == want.nprobe


class TestChunkedKmeans:
    """train_ivf scores rows in blocks; the full-matrix reference it
    replaced must come out bit for bit the same."""

    @pytest.mark.parametrize("seed", range(4))
    def test_store_smaller_than_one_chunk(self, seed):
        ds = random_store(seed=40 + seed, n=300, dim=12)
        for iterations in (1, 4, 25):
            assert_same_index(
                train_ivf(ds, 16, iterations, seed, nprobe=2),
                reference_train_ivf(ds, 16, iterations, seed, nprobe=2),
            )

    @pytest.mark.parametrize("n", [64 * 5 + 37, 64 * 3 + 1, 64 * 4])
    def test_several_chunks_with_a_remainder(self, monkeypatch, n):
        monkeypatch.setattr(knnmt.datastore, "_KMEANS_CHUNK", 64)
        ds = random_store(seed=n, n=n, dim=9)
        assert_same_index(train_ivf(ds, 12, 10, 3), reference_train_ivf(ds, 12, 10, 3))

    def test_remainder_at_full_chunk_size(self):
        # a 5-row tail product would leave BLAS's large-matrix kernel
        n = 2 * knnmt.datastore._KMEANS_CHUNK + 5
        ds = random_store(seed=44, n=n, dim=40)
        assert_same_index(train_ivf(ds, 3, 6, 1), reference_train_ivf(ds, 3, 6, 1))

    @pytest.mark.parametrize("dup", [False, True])
    def test_one_cluster_per_row(self, dup):
        ds = duplicate_store(45, 30, 3, 5) if dup else random_store(seed=45, n=30, dim=3)
        assert_same_index(train_ivf(ds, 30, 5, 0), reference_train_ivf(ds, 30, 5, 0))

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_empty_clusters_reseeded_alike(self, monkeypatch, dim):
        monkeypatch.setattr(knnmt.datastore, "_KMEANS_CHUNK", 16)
        ds = duplicate_store(46 + dim, 150, dim, 3)
        for seed in range(5):
            got = train_ivf(ds, 9, 8, seed)
            assert_same_index(got, reference_train_ivf(ds, 9, 8, seed))
        # at most 3 distinct keys can hold members, so 6 lists stay empty
        assert sum(len(lst) == 0 for lst in got.lists) >= 6

    @pytest.mark.parametrize("dim", [1, 5])
    def test_cluster_spanning_many_blocks(self, monkeypatch, dim):
        # one cluster's mean is carried across blocks of widened rows
        monkeypatch.setattr(knnmt.datastore, "_KMEANS_CHUNK", 8)
        ds = random_store(seed=47, n=203, dim=dim)
        for n_clusters in (1, 2):
            assert_same_index(
                train_ivf(ds, n_clusters, 4, 0), reference_train_ivf(ds, n_clusters, 4, 0)
            )

    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_block_carried_mean_equals_one_mean(self, monkeypatch, dim):
        monkeypatch.setattr(knnmt.datastore, "_KMEANS_CHUNK", 8)
        rng = np.random.default_rng(dim)
        # float32 keys within a narrow range sum exactly in float64 in any
        # order; a 2^80 spread makes the order show in the bits
        scale = 2.0 ** rng.integers(-40, 41, size=(500, 1))
        keys = (rng.normal(size=(500, dim)) * scale).astype(np.float32)
        for size in (1, 8, 9, 17, 250, 500):
            rows = np.sort(rng.choice(500, size=size, replace=False))
            want = keys[rows].astype(np.float64).mean(axis=0)
            assert knnmt.datastore._mean_rows(keys, rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 5])
    def test_lists_longer_than_a_chunk_bind_their_store(self, monkeypatch, dim):
        monkeypatch.setattr(knnmt.datastore, "_KMEANS_CHUNK", 8)
        ds = random_store(seed=48, n=203, dim=dim)
        ds.index = train_ivf(ds, 2, 4, 0)
        assert min(len(rows) for rows in ds.index.lists) > 8
        assert knnmt.datastore.check_index(ds) is ds.index
        other = Datastore(dim, ds.keys.copy(), ds.values, ds.talk_ids)
        bad = ds.index.centroids.copy()
        bad[1] = np.nextafter(bad[1], np.inf)
        other.index = IvfIndex(bad, ds.index.lists)
        with pytest.raises(ValueError, match="cluster 1's centroid"):
            knnmt.datastore.check_index(other)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 40])
    def test_row_blocks_cover_rows_in_full_chunks(self, monkeypatch, n):
        monkeypatch.setattr(knnmt.datastore, "_KMEANS_CHUNK", 8)
        blocks = knnmt.datastore._row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
        assert all(lo % 8 == 0 for lo, _ in blocks)
        assert all(8 <= hi - lo < 16 for lo, hi in blocks) or blocks == [(0, n)]

    def test_memory_stays_below_one_distance_matrix(self):
        n, dim, n_clusters = 20_000, 16, 64
        ds = random_store(seed=48, n=n, dim=dim)
        tracemalloc.start()
        try:
            train_ivf(ds, n_clusters, iterations=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n_clusters * 8  # 10.24 MB, one float64 N x C matrix


def datastore_layout(ds):
    """The datastore file as the format defines it, built in memory."""
    return (
        b"KNND"
        + struct.pack("<IIQ", 1, ds.dim, len(ds))
        + ds.keys.astype("<f4").tobytes()
        + ds.values.astype("<u4").tobytes()
        + ds.talk_ids.astype("<u4").tobytes()
    )


def ivf_layout(index):
    """The IVF file as the format defines it, built in memory."""
    out = b"KNNI" + struct.pack("<4I", 1, index.centroids.shape[1], index.n_clusters, index.nprobe)
    out += index.centroids.astype("<f4").tobytes()
    for lst in index.lists:
        out += struct.pack("<Q", len(lst)) + lst.astype("<u8").tobytes()
    return out


class TestSerialization:
    def test_datastore_round_trip(self, tmp_path):
        ds = random_store(seed=20)
        path = tmp_path / "store.knnd"
        save_datastore(ds, path)
        loaded = load_datastore(path)
        assert loaded.dim == ds.dim
        np.testing.assert_array_equal(loaded.keys, ds.keys)
        np.testing.assert_array_equal(loaded.values, ds.values)
        np.testing.assert_array_equal(loaded.talk_ids, ds.talk_ids)

    def test_ivf_round_trip(self, tmp_path):
        ds = random_store(seed=21)
        index = train_ivf(ds, n_clusters=6, seed=0, nprobe=3)
        path = tmp_path / "store.knni"
        save_ivf(index, path)
        loaded = load_ivf(path)
        assert loaded.nprobe == 3
        np.testing.assert_array_equal(loaded.centroids, index.centroids)
        assert len(loaded.lists) == len(index.lists)
        for got, want in zip(loaded.lists, index.lists):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_key_refused_naming_the_file(self, tmp_path, bad):
        ds = random_store(seed=24)
        keys = ds.keys.copy()
        keys[17, 5] = bad
        path = tmp_path / "s.knnd"
        save_datastore(Datastore(ds.dim, keys, ds.values, ds.talk_ids), path)
        with pytest.raises(ValueError, match=f"^{path}: datastore keys must be finite$"):
            load_datastore(path)

    def test_round_trip_preserves_query_results(self, tmp_path):
        ds = random_store(seed=22)
        save_datastore(ds, tmp_path / "s.knnd")
        loaded = load_datastore(tmp_path / "s.knnd")
        rng = np.random.default_rng(23)
        q = rng.normal(size=16).astype(np.float32)
        assert query_exact(loaded, q, 7) == query_exact(ds, q, 7)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.knnd"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_datastore(path)
        with pytest.raises(ValueError):
            load_ivf(path)

    def test_keys_stored_as_float32(self, tmp_path):
        corpus = random_corpus(24, 5, 12)
        ds = build(RefModel(init_params(12, seed=2)), corpus)
        assert ds.keys.dtype == np.float32
        save_datastore(ds, tmp_path / "s.knnd")
        assert load_datastore(tmp_path / "s.knnd").keys.dtype == np.float32

    def test_streamed_files_keep_the_layout(self, tmp_path):
        ds = random_store(seed=49, dup_rows=3)
        # 3 distinct keys over 7 clusters: the last iteration leaves empty lists
        index = train_ivf(duplicate_store(49, 40, 16, 3), n_clusters=7, iterations=1, seed=0, nprobe=2)
        assert any(len(lst) == 0 for lst in index.lists)
        save_datastore(ds, tmp_path / "s.knnd")
        save_ivf(index, tmp_path / "s.knni")
        assert (tmp_path / "s.knnd").read_bytes() == datastore_layout(ds)
        assert (tmp_path / "s.knni").read_bytes() == ivf_layout(index)

    @pytest.mark.parametrize("kind", ["datastore", "ivf"])
    @pytest.mark.parametrize("cut", [-1, 1])
    def test_wrong_length_rejected(self, tmp_path, kind, cut):
        ds = random_store(seed=50)
        path = tmp_path / "s.bin"
        if kind == "datastore":
            save_datastore(ds, path)
            load = load_datastore
        else:
            save_ivf(train_ivf(ds, n_clusters=4, seed=0), path)
            load = load_ivf
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut < 0 else blob + b"\x00")
        size = len(blob)
        with pytest.raises(ValueError, match=f"s.bin: header implies {size} bytes, file has {size + cut}"):
            load(path)

    def test_load_holds_the_file_once(self, tmp_path):
        path = tmp_path / "s.knnd"
        save_datastore(random_store(seed=53, n=20_000, dim=16), path)
        tracemalloc.start()
        try:
            load_datastore(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * path.stat().st_size  # a whole-file read and a copy is 2x

    def test_ivf_load_holds_the_lists_once(self, tmp_path):
        path = tmp_path / "s.knni"
        save_ivf(train_ivf(random_store(seed=56, n=20_000, dim=16), 64, iterations=2, seed=0), path)
        tracemalloc.start()
        try:
            load_ivf(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.21x; sorting a concatenated copy of the lists was 3.15x
        assert peak < 1.3 * path.stat().st_size

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "s.knnd"
        save_datastore(random_store(seed=51), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="at least 20 bytes, file has 10"):
            load_datastore(path)

    @pytest.mark.parametrize(
        "n_clusters, nprobe, lists, message",
        [
            (1, 0, [[0, 1]], "nprobe must be in [1, 1], got 0"),
            (0, 1, [], "nprobe must be in [1, 0], got 1"),
            (2, 1, [[0], [0]], "posting lists must partition the datastore rows"),
        ],
    )
    def test_invalid_ivf_names_its_file(self, tmp_path, n_clusters, nprobe, lists, message):
        path = tmp_path / "s.knni"
        blob = b"KNNI" + struct.pack("<4I", 1, 2, n_clusters, nprobe) + bytes(8 * n_clusters)
        for rows in lists:
            blob += struct.pack("<Q", len(rows)) + np.asarray(rows, dtype="<u8").tobytes()
        path.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            load_ivf(path)
        assert str(err.value) == f"{path}: {message}"

    def test_dim_zero_refused_before_any_array(self, tmp_path):
        # the header alone: a check after the arrays would report the short file
        path = tmp_path / "s.knnd"
        path.write_bytes(b"KNND" + struct.pack("<IIQ", 1, 0, 3))
        with pytest.raises(ValueError) as err:
            load_datastore(path)
        assert str(err.value) == f"{path}: dim must be >= 1, got 0"

    def test_ivf_cut_inside_the_lists_rejected(self, tmp_path):
        path = tmp_path / "s.knni"
        save_ivf(train_ivf(random_store(seed=52), n_clusters=4, seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: 20 + 4 * 16 * 4 + 4])  # half a length field
        with pytest.raises(ValueError, match=f"at least {20 + 4 * 16 * 4 + 8} bytes"):
            load_ivf(path)
