"""Property tests of the one retrieval shape: every search answers in
(rows, distances), and one function turns those into p_knn; and of the
chunked k-means behind the IVF index."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import knnmt.datastore
from knnmt.datastore import Datastore, train_ivf
from knnmt.decode import knn_distribution, knn_distributions
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


def scan(ds, q, k, exclude):
    """Brute force: float32 distance to every eligible row, ascending,
    row index breaking ties."""
    diff = ds.keys - q
    d2 = np.einsum("ij,ij->i", diff, diff)
    rows = np.arange(len(ds))
    if exclude is not None:
        keep = ds.talk_ids != exclude
        rows, d2 = rows[keep], d2[keep]
    order = np.lexsort((rows, d2))[:k]
    return rows[order], d2[order]


@settings(max_examples=150, deadline=None)
@given(stores())
def test_exact_rows_equal_brute_force_scan(case):
    ds, Q, k, exclude = case
    rows, dists = ds.search_batch_rows(Q, k, exclude)
    for b, q in enumerate(Q):
        want_rows, want_d2 = scan(ds, q, k, exclude)
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
