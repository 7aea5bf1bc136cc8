"""Reference oracle for the chunked k-means: `train_ivf` as it was written
before it assigned rows in blocks, copied verbatim. It builds the full N x C
float64 distance matrix and one boolean mask per cluster, so it is only fit
for small stores; the chunked version must reproduce its centroids and
posting lists bit for bit."""

import numpy as np

from knnmt.datastore import Datastore, IvfIndex


def train_ivf(
    ds: Datastore,
    n_clusters: int,
    iterations: int = 25,
    seed: int = 0,
    nprobe: int = 1,
) -> IvfIndex:
    """Lloyd k-means over the keys, initialized from distinct random rows.
    A cluster that empties is reseeded on the point currently farthest from
    its centroid. Stops early once assignments stop changing."""
    n = len(ds)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    keys = ds.keys.astype(np.float64)
    rng = np.random.default_rng(seed)
    centroids = keys[rng.choice(n, size=n_clusters, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(iterations):
        d2 = (
            (keys**2).sum(axis=1)[:, None]
            - 2.0 * keys @ centroids.T
            + (centroids**2).sum(axis=1)[None, :]
        )
        new_assign = d2.argmin(axis=1)
        if (new_assign == assign).all():
            break
        assign = new_assign
        dist_own = d2[np.arange(n), assign]
        used: set[int] = set()
        for c in range(n_clusters):
            members = assign == c
            if members.any():
                centroids[c] = keys[members].mean(axis=0)
            else:
                far = np.where(
                    np.isin(np.arange(n), list(used)), -np.inf, dist_own
                ).argmax()
                centroids[c] = keys[far]
                used.add(int(far))
    lists = [
        np.flatnonzero(assign == c).astype(np.int64) for c in range(n_clusters)
    ]
    return IvfIndex(
        centroids=centroids.astype(np.float32), lists=lists, nprobe=nprobe
    )
