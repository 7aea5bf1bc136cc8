"""Property tests of the one retrieval shape: every search answers in
(rows, distances), and one function turns those into p_knn; of exact
search over groups of duplicate keys, of the rounding bounds its margin
rests on, and of near ties that only those bounds keep; and of the
chunked k-means behind the IVF index."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import knnmt.datastore
from knnmt.datastore import Datastore, train_ivf
from knnmt.decode import knn_distribution, knn_distributions
from helpers import scan_rows
from kmeans_reference import train_ivf as reference_train_ivf

VOCAB = 12


@st.composite
def stores(draw):
    """A small store whose keys come from a few integer-valued rows, so
    duplicate keys and exact distance ties are common, plus queries that
    are either stored keys or nearby points, k and a talk to exclude."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(-3, 4, size=(draw(st.integers(1, n)), dim))
    keys = distinct[rng.integers(0, len(distinct), size=n)].astype(np.float32)
    ds = Datastore(
        dim=dim,
        keys=keys,
        values=rng.integers(0, VOCAB, size=n).astype(np.uint32),
        talk_ids=rng.integers(0, 3, size=n).astype(np.uint32),
    )
    n_queries = draw(st.integers(1, 5))
    queries = keys[rng.integers(0, n, size=n_queries)]
    queries = queries + rng.normal(scale=draw(st.sampled_from([0.0, 0.1, 2.0])), size=queries.shape)
    k = draw(st.integers(1, n + 3))
    exclude = draw(st.one_of(st.none(), st.integers(0, 3)))
    return ds, queries.astype(np.float32), k, exclude


@settings(max_examples=150, deadline=None)
@given(stores())
def test_exact_rows_equal_brute_force_scan(case):
    ds, Q, k, exclude = case
    rows, dists = ds.search_batch_rows(Q, k, exclude)
    for b, (want_rows, want_d2) in enumerate(zip(*scan_rows(ds, Q, k, exclude))):
        assert rows[b].tolist() == want_rows.tolist()
        assert dists[b].tobytes() == want_d2.tobytes()


@st.composite
def duplicate_stores(draw):
    """A store of a few distinct keys with many copies each. Talk ids are
    drawn per row, or per key so that excluding a talk empties whole
    groups; k runs from 1 to past the eligible rows, and is often below
    the number of keys, where ties make the margin set wider than take.
    Queries sit on or near a key, or on lattice points that tie with many
    keys; keys on a shell around the origin all tie for a query there."""
    n_keys = draw(st.integers(1, 12))
    n = draw(st.integers(n_keys, 150))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        distinct = rng.integers(-2, 3, size=(n_keys, dim)).astype(np.float32)
    else:  # keys on a shell around the origin, so the origin ties with all
        distinct = np.eye(dim, dtype=np.float32)[rng.integers(0, dim, size=n_keys)]
        distinct *= rng.choice(np.float32([-2, 2]), size=(n_keys, 1))
    of = np.concatenate((np.arange(n_keys), rng.integers(0, n_keys, size=n - n_keys)))
    rng.shuffle(of)
    if draw(st.booleans()):
        talk_ids = rng.integers(0, 3, size=n_keys)[of]
    else:
        talk_ids = rng.integers(0, 3, size=n)
    ds = Datastore(
        dim=dim,
        keys=distinct[of],
        values=rng.integers(0, VOCAB, size=n).astype(np.uint32),
        talk_ids=talk_ids.astype(np.uint32),
    )
    n_queries = draw(st.integers(1, 5))
    if draw(st.booleans()):
        queries = distinct[rng.integers(0, n_keys, size=n_queries)]
        queries = queries + rng.normal(scale=draw(st.sampled_from([0.0, 0.3])), size=queries.shape)
    else:  # lattice points, often the origin, equally far from many keys
        queries = rng.integers(-1, 2, size=(n_queries, dim)) * rng.integers(0, 2, size=(n_queries, 1))
    exclude = draw(st.one_of(st.none(), st.integers(0, 3)))
    eligible = n if exclude is None else int((ds.talk_ids != exclude).sum())
    k = draw(st.integers(1, 4) | st.integers(1, eligible + 3))
    return ds, queries.astype(np.float32), k, exclude


@settings(max_examples=200, deadline=None)
@given(duplicate_stores())
def test_grouped_search_on_duplicate_keys_equals_brute_force_scan(case):
    ds, Q, k, exclude = case
    rows, dists = ds.search_batch_rows(Q, k, exclude)
    for b, (want_rows, want_d2) in enumerate(zip(*scan_rows(ds, Q, k, exclude))):
        assert rows[b].tolist() == want_rows.tolist()
        assert dists[b].tobytes() == want_d2.tobytes()


@settings(max_examples=100, deadline=None)
@given(stores(), st.integers(0, 3))
def test_full_probe_ivf_rows_equal_exact_rows(case, seed):
    ds, Q, k, exclude = case
    exact = ds.search_batch_rows(Q, k, exclude)
    n_clusters = min(len(ds), 4)
    ds.index = train_ivf(ds, n_clusters, iterations=3, seed=seed, nprobe=n_clusters)
    ivf = ds.search_batch_rows(Q, k, exclude)
    assert ivf[0].tolist() == exact[0].tolist()
    assert ivf[1].tobytes() == exact[1].tobytes()


@settings(max_examples=100, deadline=None)
@given(stores(), st.booleans())
def test_batch_rows_equal_single_query_rows(case, with_index):
    ds, Q, k, exclude = case
    if with_index:
        ds.index = train_ivf(ds, min(len(ds), 3), iterations=3, seed=0, nprobe=1)
    rows, dists = ds.search_batch_rows(Q, k, exclude)
    for b, q in enumerate(Q):
        one_rows, one_dists = ds.search_batch_rows(q[None, :], k, exclude)
        assert rows[b].tolist() == one_rows[0].tolist()
        assert dists[b].tobytes() == one_dists[0].tobytes()


@settings(max_examples=150, deadline=None)
@given(
    duplicate_stores(),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1 << 19, 4096), (1, 4096), (7, 3), (20, 5)]),
)
def test_stacked_batch_equals_per_row_calls(case, n_queries, seed, sizes):
    # a stacked batch of up to 40 queries against one call per row; the
    # small budgets split it into blocks of one query or a few (a
    # _SEARCH_ELEMS below the group count still takes one query a block),
    # and score the margin pairs and compare the grouped rows a few at a time
    ds, Q, k, exclude = case
    rng = np.random.default_rng(seed)
    Q = Q[rng.integers(0, len(Q), size=n_queries)]
    Q = (Q + rng.normal(scale=0.2, size=Q.shape) * rng.integers(0, 2, size=(n_queries, 1))).astype(np.float32)
    elems, cache_rows = sizes
    with mock.patch.multiple(knnmt.datastore, _SEARCH_ELEMS=elems, _CACHE_ROWS=cache_rows):
        rows, dists = knnmt.datastore.query_exact_batch_rows(ds, Q, k, exclude)
        singles = [knnmt.datastore.query_exact_batch_rows(ds, q[None, :], k, exclude) for q in Q]
    assert rows.dtype == np.int64
    for b, ((one_rows, one_dists), want_rows) in enumerate(zip(singles, scan_rows(ds, Q, k, exclude)[0])):
        assert rows[b].tolist() == one_rows[0].tolist()
        assert dists[b].tobytes() == one_dists[0].tobytes()
        assert rows[b].tolist() == want_rows.tolist()


@st.composite
def tiled_batches(draw):
    """A batch of 2 to 12 queries over a store of up to 40 distinct keys:
    many copies of a few integer rows (exact ties), or keys 1e3 from the
    origin whose norms differ by float32 rounding alone, so that a query at
    the origin nearly ties with all of them. Talk ids are drawn per key or
    per row, so excluding a talk can empty whole groups and leave the first
    tiles with fewer than take eligible rows; k runs past the eligible rows."""
    n_keys = draw(st.integers(3, 40))
    n = draw(st.integers(n_keys, 200))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        distinct = rng.integers(-2, 3, size=(n_keys, dim)).astype(np.float32)
    else:
        dirs = rng.normal(size=(n_keys, dim))
        distinct = (1e3 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)).astype(np.float32)
    of = np.concatenate((np.arange(n_keys), rng.integers(0, n_keys, size=n - n_keys)))
    rng.shuffle(of)
    talk_ids = rng.integers(0, 3, size=n_keys)[of] if draw(st.booleans()) else rng.integers(0, 3, size=n)
    ds = Datastore(
        dim=dim,
        keys=distinct[of],
        values=rng.integers(0, VOCAB, size=n).astype(np.uint32),
        talk_ids=talk_ids.astype(np.uint32),
    )
    n_queries = draw(st.integers(2, 12))
    queries = distinct[rng.integers(0, n_keys, size=n_queries)]
    queries = queries + rng.normal(scale=draw(st.sampled_from([0.0, 0.3])), size=queries.shape)
    queries *= rng.integers(0, 2, size=(n_queries, 1))  # some at the origin
    exclude = draw(st.one_of(st.none(), st.integers(0, 3)))
    eligible = n if exclude is None else int((ds.talk_ids != exclude).sum())
    k = draw(st.integers(1, 4) | st.integers(1, eligible + 3))
    return ds, queries.astype(np.float32), k, exclude


@settings(max_examples=200, deadline=None)
@given(tiled_batches())
def test_multi_tile_batch_equals_brute_force_scan_and_single_queries(case):
    # _SEARCH_ELEMS is set so that the batch ranks the G groups in tiles of
    # G // 3 groups, at least three of them, while a query alone ranks them
    # in fewer: rows and distances equal a full scan and the single calls
    ds, Q, k, exclude = case
    G = len(knnmt.datastore._key_groups(ds).sq)
    assume(G >= 3)
    with mock.patch.object(knnmt.datastore, "_SEARCH_ELEMS", len(Q) * (G // 3)):
        rows, dists = knnmt.datastore.query_exact_batch_rows(ds, Q, k, exclude)
        singles = [knnmt.datastore.query_exact_batch_rows(ds, q[None, :], k, exclude) for q in Q]
    for b, (want_rows, want_d2) in enumerate(zip(*scan_rows(ds, Q, k, exclude))):
        assert rows[b].tolist() == want_rows.tolist()
        assert dists[b].tobytes() == want_d2.tobytes()
        assert rows[b].tolist() == singles[b][0][0].tolist()
        assert dists[b].tobytes() == singles[b][1][0].tobytes()


def rounding_cases(dim, seed):
    """Float32 keys of norm 1e-2 to 1e3 in random directions, and queries
    that are random, copies of a key, near-parallel to one (a scaled copy
    nudged by 1e-6 relative) or anti-parallel to one."""
    rng = np.random.default_rng(seed)

    def vectors(n):
        v = rng.normal(size=(n, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * 10.0 ** rng.uniform(-2, 3, size=(n, 1))

    keys = vectors(300).astype(np.float32)
    of = keys[rng.integers(0, len(keys), size=(4, 10))].astype(np.float64)
    scale = 10.0 ** rng.uniform(-1, 1, size=(10, 1))
    nudge = 1 + 1e-6 * rng.normal(size=(10, dim))
    queries = np.concatenate((vectors(10), of[0], of[1] * scale * nudge, of[2] * nudge, -of[3] * scale))
    return keys, queries.astype(np.float32)


@pytest.mark.parametrize("dim", [1, 4, 16, 64, 128])
def test_estimates_and_distances_round_within_the_stated_bounds(dim):
    # exact search keeps a group unless its estimate lies past tau plus a
    # margin built from two bounds: (a) an estimate |U|^2 - 2 U.q errs by at
    # most e_q = gamma_{n+1} (M^2 + 2 |q| M), in any summation order, so in
    # a one-row product (gemv) as in a block (gemm); (b) a scored distance
    # errs by at most gamma_{n+2} of itself. The float64 references err by
    # about 1e-8 of either bound.
    gamma = knnmt.datastore._gamma
    for seed in range(3):
        keys, Q = rounding_cases(dim, seed)
        ds = Datastore(dim=dim, keys=keys, values=np.zeros(len(keys), np.uint32),
                       talk_ids=np.zeros(len(keys), np.uint32))
        grp = knnmt.datastore._key_groups(ds)
        U, Q64 = keys[grp.first].astype(np.float64), Q.astype(np.float64)
        M = grp.max_norm
        assert M >= np.sqrt((U**2).sum(axis=1)).max()
        want = (U**2).sum(axis=1) - 2 * Q64 @ U.T
        err = gamma(dim + 1) * M * (M + 2 * np.linalg.norm(Q64, axis=1, keepdims=True))
        est = Q @ grp.neg2_ut
        est += grp.sq
        rows = np.concatenate([Q[b : b + 1] @ grp.neg2_ut + grp.sq for b in range(len(Q))])
        for got in (est, rows):
            assert (np.abs(got - want) <= err).all()
        qi, gi = np.divmod(np.arange(len(Q) * len(U)), len(U))
        diff = keys[grp.first[gi]] - Q[qi]
        got = np.einsum("ij,ij->i", diff, diff)
        d = ((U[gi] - Q64[qi]) ** 2).sum(axis=1)
        assert (np.abs(got - d) <= gamma(dim + 2) * d).all()


@st.composite
def near_tie_stores(draw):
    """Distinct keys of norm up to about 5e3 at dim 64 whose real distances
    to the query differ by at most 4 ulps of the float32 distance: each is
    the query q plus a signed permutation of one offset w, which keeps
    |w|^2, with one of w's near-zero entries nudged by up to 3/16. Every
    entry is a multiple of 1/16 below 2^11, so q + w and its difference
    from q are exact and the squares of the differences are too; the
    distances differ by their summation order and the nudges, while the
    estimates err by hundreds."""
    dim = 64
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.integers(-(2**14), 2**14, size=dim) / 16
    w = rng.integers(-(2**11), 2**11, size=dim) / 16
    w[:8] = rng.integers(-1, 2, size=8) / 16
    n_keys = draw(st.integers(2, 40))
    offsets = np.empty((n_keys, dim))
    for i in range(n_keys):
        v = w[rng.permutation(dim)] * rng.choice([-1, 1], size=dim)
        small = np.flatnonzero(np.abs(v) <= 1 / 16)
        v[rng.choice(small)] += rng.integers(-3, 4) / 16
        offsets[i] = v
    offsets = np.unique(offsets, axis=0)
    rng.shuffle(offsets)
    n = len(offsets)
    ds = Datastore(
        dim=dim,
        keys=(q + offsets).astype(np.float32),
        values=np.zeros(n, dtype=np.uint32),
        talk_ids=rng.integers(0, 3, size=n).astype(np.uint32),
    )
    exclude = draw(st.one_of(st.none(), st.integers(0, 2)))
    k = draw(st.integers(1, n + 3))
    return ds, q.astype(np.float32), (offsets**2).sum(axis=1), k, exclude


@settings(max_examples=150, deadline=None)
@given(near_tie_stores())
def test_near_ties_at_large_norm_equal_brute_force_scan(case):
    ds, q, d, k, exclude = case
    assert d.max() - d.min() <= 4 * np.spacing(np.float32(d.min()))
    rows, dists = ds.search_batch_rows(q[None, :], k, exclude)
    (want_rows,), (want_d2,) = scan_rows(ds, q[None, :], k, exclude)
    assert rows[0].tolist() == want_rows.tolist()
    assert dists[0].tobytes() == want_d2.tobytes()


@settings(max_examples=100, deadline=None)
@given(stores(), st.sampled_from([0.5, 10.0, 50.0]), st.booleans())
def test_neighbor_list_distribution_equals_batched_row(case, T, with_index):
    # with one probed list, IVF rows carry -1/+inf padding the Neighbor view drops
    ds, Q, k, exclude = case
    if with_index:
        ds.index = train_ivf(ds, min(len(ds), 3), iterations=3, seed=0, nprobe=1)
    rows, dists = ds.search_batch_rows(Q, k, exclude)
    found = (rows >= 0).any(axis=1)
    lists = ds.search_batch(Q, k, exclude)
    assert [knn_distribution(nbs, T, VOCAB) is None for nbs in lists] == (~found).tolist()
    if found.any():
        batched = knn_distributions(ds.values[rows[found]], dists[found], T, VOCAB)
        singles = [knn_distribution(nbs, T, VOCAB) for nbs in lists if nbs]
        assert [p.tobytes() for p in singles] == [p.tobytes() for p in batched]


@st.composite
def kmeans_cases(draw):
    """A store of random size and dim whose keys are either continuous or
    copies of a few integer rows (ties, empty clusters), a cluster count up
    to one per row, and a block size that splits the rows unevenly."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        distinct = rng.integers(-3, 4, size=(draw(st.integers(1, n)), dim))
        keys = distinct[rng.integers(0, len(distinct), size=n)].astype(np.float32)
    else:
        keys = rng.normal(size=(n, dim)).astype(np.float32)
    ds = Datastore(
        dim=dim,
        keys=keys,
        values=np.zeros(n, dtype=np.uint32),
        talk_ids=np.zeros(n, dtype=np.uint32),
    )
    return (
        ds,
        draw(st.integers(1, n)),
        draw(st.integers(1, 12)),
        draw(st.integers(0, 50)),
        draw(st.integers(2, 64)),  # a one-row block would go to gemv
    )


@settings(max_examples=150, deadline=None)
@given(kmeans_cases())
def test_chunked_kmeans_equals_full_matrix_reference(case):
    ds, n_clusters, iterations, seed, chunk = case
    want = reference_train_ivf(ds, n_clusters, iterations, seed)
    with mock.patch.object(knnmt.datastore, "_KMEANS_CHUNK", chunk):
        got = train_ivf(ds, n_clusters, iterations, seed)
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert [lst.tolist() for lst in got.lists] == [lst.tolist() for lst in want.lists]
