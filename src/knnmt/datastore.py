"""Key-value datastore over decoder hidden states with exact and
inverted-file approximate nearest-neighbor search.

Keys are the hidden states produced while teacher-forcing reference
translations; each key maps to the target token that followed it plus the
talk id of the originating pair, so retrieval can exclude a held-out talk
at query time. Keys are stored float32 and distances are computed in
float32 as well: queries quantize the same way keys did, so a query equal
to a stored key has distance exactly 0 and duplicate keys tie exactly.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import BOS_ID, EOS_ID, ParallelCorpus, check_file_size, check_finite, naming, read_array, read_bytes
from .refmodel import StepModel

DATASTORE_MAGIC = b"KNND"
IVF_MAGIC = b"KNNI"
FORMAT_VERSION = 1


class Neighbor(NamedTuple):
    index: int
    distance: float  # squared L2
    value: int  # target token id
    talk_id: int


@dataclass
class IvfIndex:
    """Flat inverted-file index: k-means centroids plus one posting list of
    datastore row indices per cluster. `n_rows` records how many rows the
    lists partition, so search can refuse a store the index was not
    trained on."""

    centroids: np.ndarray  # (C, dim) float32
    lists: list[np.ndarray]  # int64 row indices, one array per cluster
    nprobe: int = 1
    n_rows: int = field(init=False)

    def __post_init__(self) -> None:
        if self.nprobe < 1 or self.nprobe > len(self.lists):
            raise ValueError(
                f"nprobe must be in [1, {len(self.lists)}], got {self.nprobe}"
            )
        self.n_rows = sum(len(lst) for lst in self.lists)
        # n_rows in-range entries that mark every row are a partition; one
        # flag a row is the only copy the check makes
        seen = np.zeros(self.n_rows, dtype=bool)
        if all(0 <= lst.min() <= lst.max() < self.n_rows for lst in self.lists if len(lst)):
            for lst in self.lists:
                seen[lst] = True
        if not seen.all():
            raise ValueError("posting lists must partition the datastore rows")

    @property
    def n_clusters(self) -> int:
        return len(self.lists)


@dataclass
class Datastore:
    """Every search answers as (rows, distances), two (B, take) arrays with
    take = min(k, rows not excluded), ascending by distance, row index
    breaking ties. IVF slots the probed lists cannot fill hold row -1 and
    distance +inf, after the filled ones; the Neighbor views drop them.
    What search derives from the fields is kept in `_derived`, emptied
    whenever a field is assigned; `keys` and `talk_ids` are read-only, as
    writing them in place would leave it stale."""

    dim: int
    keys: np.ndarray  # (N, dim) float32
    values: np.ndarray  # (N,) uint32
    talk_ids: np.ndarray  # (N,) uint32
    index: IvfIndex | None = None

    def __post_init__(self) -> None:
        if self.keys.shape != (len(self.values), self.dim):
            raise ValueError("keys shape does not match value count and dim")
        if self.talk_ids.shape != self.values.shape:
            raise ValueError("talk_ids and values must align")

    def __setattr__(self, name: str, value) -> None:
        if name in ("keys", "talk_ids"):
            value.flags.writeable = False
        super().__setattr__(name, value)
        self.__dict__["_derived"] = {}

    def __len__(self) -> int:
        return len(self.values)

    def search_batch(
        self, queries: np.ndarray, k: int, exclude_talk: int | None = None
    ) -> list[list[Neighbor]]:
        """search_batch_rows as one Neighbor list per query row."""
        return _wrap_neighbors(self, *self.search_batch_rows(queries, k, exclude_talk))

    def search_batch_rows(
        self, queries: np.ndarray, k: int, exclude_talk: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(rows, distances) for a (B, dim) query matrix: exact search, or
        IVF when an index is attached."""
        if self.index is not None:
            return query_ivf_rows(self, queries, k, exclude_talk)
        return query_exact_batch_rows(self, queries, k, exclude_talk)


# Pairs teacher-forced in lockstep. A fixed size, not a flag: each target
# position of a block is one step_batch call over the block's pairs still
# that long, so a few hundred pairs already make those calls few.
_BUILD_BLOCK = 256


def build(model: StepModel, bitext: ParallelCorpus) -> Datastore:
    """Teacher-force each pair's reference target and record one
    (hidden state, next target token, talk id) entry per step, EOS included.
    Entry order follows corpus order.

    Pairs step in blocks of _BUILD_BLOCK: at target position t one
    step_batch call serves every pair of the block whose target plus EOS is
    longer than t, and its hidden rows go straight to their entries. Each
    row's step is the one a pair-by-pair loop makes, so the keys are too.
    A non-finite hidden state is refused, as load_datastore refuses it."""
    dim = model.hidden_dim()
    pairs = bitext.pairs
    lengths = np.fromiter((len(p.target) + 1 for p in pairs), dtype=np.int64, count=len(pairs))
    starts = np.cumsum(lengths) - lengths
    n = int(lengths.sum())
    values = np.fromiter(
        itertools.chain.from_iterable(p.target.token_ids + (EOS_ID,) for p in pairs),
        dtype=np.uint32,
        count=n,
    )
    talks = np.fromiter((p.talk_id for p in pairs), dtype=np.uint32, count=len(pairs))
    keys = np.empty((n, dim), dtype=np.float32)
    for lo in range(0, len(pairs), _BUILD_BLOCK):
        # longest first, so the pairs still stepping at t are a prefix
        order = lo + np.argsort(-lengths[lo : lo + _BUILD_BLOCK], kind="stable")
        contexts = [model.encode(pairs[i].source) for i in order]
        states = [model.initial_state() for _ in order]
        block_lengths = lengths[order]
        prevs = np.full(len(order), BOS_ID, dtype=np.uint32)
        for t in range(int(block_lengths[0])):
            live = int(np.count_nonzero(block_lengths > t))
            rows = starts[order[:live]] + t
            hidden, _, states = model.step_batch(contexts[:live], states[:live], prevs[:live])
            keys[rows] = hidden
            prevs = values[rows]
    check_finite(keys, "datastore keys (the model's hidden states)")
    return Datastore(
        dim=dim,
        keys=keys,
        values=values,
        talk_ids=np.repeat(talks, lengths),
    )


def _one_query(ds: Datastore, query: np.ndarray) -> np.ndarray:
    """A (dim,) query vector as a (1, dim) query matrix."""
    q = np.asarray(query, dtype=np.float32)
    if q.shape != (ds.dim,):
        raise ValueError(f"query shape {q.shape}, want ({ds.dim},)")
    return q[None, :]


def _check_queries(ds: Datastore, queries: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    Q = np.asarray(queries, dtype=np.float32)
    if Q.ndim != 2 or Q.shape[1] != ds.dim:
        raise ValueError(f"query matrix shape {Q.shape}, want (B, {ds.dim})")
    return Q


def _select(
    d2: np.ndarray, rows: np.ndarray, take: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, distances) of the smallest `take` distances, ascending, ties
    broken by row index: one partition finds the take-th distance, and a
    (distance, row) sort orders the candidates within it."""
    if take < len(d2):
        kth = np.partition(d2, take - 1)[take - 1]
        cand = np.flatnonzero(d2 <= kth)
        rows, d2 = rows[cand], d2[cand]
    picked = np.lexsort((rows, d2))[:take]
    return rows[picked], d2[picked]


def _gamma(k: int) -> float:
    """Higham's bound gamma_k on the relative error of k float32 roundings."""
    return k * 2.0**-24 / (1 - k * 2.0**-24)

# Key rows copied or compared at once while grouping, (query, group) pairs
# scored at once, and (query, centroid) pairs IVF ranks at once, so that no
# full-size temporary of the keys is made.
_CACHE_ROWS = 4096

# Queries times groups in one tile of exact search's ranking, and the most
# margin pairs it keeps between tiles. A fixed size, not a flag: the (B,
# tile) estimates and their partition stay within 12 bytes an element at
# any batch size. 2**18 ranks 1e5 distinct keys for 32 queries in 13 tiles
# of 8,192 groups, about as fast as 2**19 for half the memory, and a whole
# beam block over a few hundred groups in one.
_SEARCH_ELEMS = 1 << 18


@dataclass
class _KeyGroups:
    """What exact search derives from the keys: the rows grouped by key
    bytes, in the byte order of the keys, group g holding
    members[bounds[g]:bounds[g + 1]] in ascending row order, first[g] the
    first of them; -2 U^T and |U|^2 of the distinct keys U, and max_norm,
    a bound on their norms. Row indices and counts are int32 unless the
    store has 2**31 rows or more; each excluded talk's eligible rows are
    kept apart (_eligible_groups)."""

    members: np.ndarray
    bounds: np.ndarray
    first: np.ndarray
    neg2_ut: np.ndarray
    sq: np.ndarray
    max_norm: float


def _key_groups(ds: Datastore) -> _KeyGroups:
    """The store's key groups, kept in its derived state. A stable sort of
    the rows as byte strings puts byte-equal rows next to each other in
    ascending row order; neighbours are compared _CACHE_ROWS at a time, so
    the keys are never gathered at full size. Rows equal in value but not
    in bytes, such as 0.0 and -0.0, form separate groups."""
    grp = ds._derived.get("key_groups")
    if grp is None:
        idx = np.int32 if len(ds) < 2**31 else np.int64
        keys = np.ascontiguousarray(ds.keys)
        rows = keys.view(np.dtype((np.void, keys.itemsize * ds.dim)))[:, 0]
        members = np.argsort(rows, kind="stable").astype(idx)
        same = np.empty(len(rows) - 1, dtype=bool)
        for lo in range(0, len(rows), _CACHE_ROWS):
            run = rows[members[lo : lo + _CACHE_ROWS + 1]]
            same[lo : lo + _CACHE_ROWS] = run[1:] == run[:-1]
        del run  # gathered rows, not to be held while -2 U^T is filled
        bounds = np.flatnonzero(np.concatenate(([True], ~same, [True]))).astype(idx)
        first = members[bounds[:-1]]
        neg2_ut = np.empty((ds.dim, len(first)), dtype=ds.keys.dtype)
        sq = np.empty(len(first), dtype=ds.keys.dtype)
        for lo in range(0, len(first), _CACHE_ROWS):
            u = ds.keys[first[lo : lo + _CACHE_ROWS]]
            sq[lo : lo + len(u)] = np.einsum("ij,ij->i", u, u)
            np.multiply(u.T, -2.0, out=neg2_ut[:, lo : lo + len(u)])  # exact
        # |U|^2 <= (sq + n 2^-149) / (1 - gamma_n), n products that may underflow
        max_norm = ((float(sq.max()) + ds.dim * 2.0**-149) / (1 - _gamma(ds.dim))) ** 0.5
        grp = ds._derived["key_groups"] = _KeyGroups(members, bounds, first, neg2_ut, sq, max_norm)
    return grp


def _eligible_count(ds: Datastore, exclude_talk: int | None) -> int:
    """The rows not from the excluded talk (None: no talk excluded). The
    derived state keeps this and _eligible_groups for every talk searched,
    so searches that alternate talks (a leave-one-out step searches once
    per talk) derive each talk's entries once."""
    count = ds._derived.get(("eligible_count", exclude_talk))
    if count is None:
        excluded = 0 if exclude_talk is None else int(np.count_nonzero(ds.talk_ids == exclude_talk))
        count = ds._derived[("eligible_count", exclude_talk)] = len(ds) - excluded
    return count


def _eligible_groups(ds: Datastore, exclude_talk: int | None) -> tuple:
    """(counts, starts, members, sq), kept in the derived state: group g's
    eligible rows are members[starts[g]:starts[g] + counts[g]], ascending;
    |U|^2 is +inf for a group with no eligible row. An entry holds 4 bytes
    a row and 12 a key group, twice that for stores of 2**31 rows or more."""
    groups = ds._derived.get(("eligible_groups", exclude_talk))
    if groups is None:
        grp = _key_groups(ds)
        idx = grp.members.dtype.type
        members, counts = grp.members, np.diff(grp.bounds)
        if exclude_talk is not None:
            keep = ds.talk_ids[members] != exclude_talk
            members = members[keep]
            counts = np.add.reduceat(keep, grp.bounds[:-1], dtype=idx)
        sq = np.where(counts > 0, grp.sq, np.inf)
        starts = np.cumsum(counts, dtype=idx)
        starts -= counts
        groups = ds._derived[("eligible_groups", exclude_talk)] = (counts, starts, members, sq)
    return groups


def _pick(
    ds: Datastore, grp: _KeyGroups, Q: np.ndarray, groups: tuple, qi: np.ndarray, gi: np.ndarray, take: int
) -> tuple[np.ndarray, np.ndarray]:
    """The `take` smallest (distance, row) pairs per query among the
    eligible rows of its margin set, given as (query qi, group gi) pairs,
    qi ascending, that hold at least `take` eligible rows for each query.
    A group's distance is taken once, from its key, _CACHE_ROWS pairs at a
    time, and it offers at most take rows to the one final sort."""
    counts, starts, members, _ = groups
    d2 = np.empty(len(qi), dtype=np.result_type(ds.keys, Q))
    for lo in range(0, len(qi), _CACHE_ROWS):
        diff = ds.keys[grp.first[gi[lo : lo + _CACHE_ROWS]]] - Q[qi[lo : lo + _CACHE_ROWS]]
        d2[lo : lo + _CACHE_ROWS] = np.einsum("ij,ij->i", diff, diff)
    # each group offers its first min(count, take) eligible rows, in row order
    cnt = np.minimum(counts[gi], take, dtype=np.intp)
    ends = np.cumsum(cnt)
    owner = np.repeat(np.arange(len(gi)), cnt)
    rows = members[np.arange(ends[-1]) + (starts[gi] - ends + cnt)[owner]]
    d2, qi = d2[owner], qi[owner]
    order = np.lexsort((rows, d2, qi))
    picked = order[np.searchsorted(qi, np.arange(len(Q)))[:, None] + np.arange(take)]
    return rows[picked].astype(np.int64), d2[picked]


def _wrap_neighbors(
    ds: Datastore, rows: np.ndarray, dists: np.ndarray
) -> list[list[Neighbor]]:
    """One Neighbor list per row of (rows, dists), -1 slots dropped. The
    only place a Neighbor is built."""
    out = []
    for rw, dw in zip(rows, dists):
        filled = rw >= 0
        rw = rw[filled]
        out.append([
            Neighbor(r, d, v, t)
            for r, d, v, t in zip(
                rw.tolist(),
                dw[filled].tolist(),
                ds.values[rw].tolist(),
                ds.talk_ids[rw].tolist(),
            )
        ])
    return out


def query_exact(
    ds: Datastore, query: np.ndarray, k: int, exclude_talk: int | None = None
) -> list[Neighbor]:
    """k nearest entries by squared L2, ascending, row index breaking ties.
    Entries from `exclude_talk` are never returned; fewer than k eligible
    entries return all of them."""
    rows = query_exact_batch_rows(ds, _one_query(ds, query), k, exclude_talk)
    return _wrap_neighbors(ds, *rows)[0]


def query_exact_batch_rows(
    ds: Datastore, queries: np.ndarray, k: int, exclude_talk: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk exact search returning (row indices, distances) as two
    (B, take) arrays, take = min(k, eligible rows), each row ordered like
    query_exact and equal bit for bit to a full scan of the rows.

    It searches the distinct keys U. A matrix product gives each group of
    byte-equal rows an estimate est of E = |U|^2 - 2 U.q, +inf if no row of
    the group is eligible. A partition finds each query's min(take, G)
    smallest estimates, and sorted they reach take eligible rows at some
    estimate tau: each group with a finite estimate holds an eligible row,
    and if fewer than take do, they hold them all. A compare over the
    estimates keeps the margin set, every group with est <= tau + m_q (so
    each that reached tau), and scoring it finds the result.

    The margin is sound. With n = dim, gamma_k = k 2^-24 / (1 - k 2^-24),
    M >= every |U| and d = |U - q|^2 = E + |q|^2, float32 sums in any order
    (so any BLAS blocking), each underflowing product losing <= 2^-150:
    (a) |est - E| <= e_q - 2n 2^-149, e_q = gamma_{n+1} (M^2 + 2|q| M) + n 2^-147;
    (b) a scored distance d^ has |d^ - d| <= g d + n 2^-149, g = gamma_{n+2}.
    So a group that reached tau has d <= D - 2n 2^-149, D = tau + e_q + |q|^2,
    and d^ <= (1 + g) D - n 2^-149; one with est > tau + m_q, m_q =
    2 e_q + 2 g D / (1 - g), has d > D + 2 g D / (1 - g) and d^ > (1 + g) D
    - n 2^-149, farther than take eligible rows. m_q is taken in float64,
    D floored at 0, and raised by 1%, far above that rounding ((n + 3) 2^-53
    of |tau| + |q|^2 + e_q <= 5 d + 6 e_q / g); its float32 bound rounds up.

    A scored group's distance comes from its key's float32 differences,
    summed as a full scan sums them; its rows share the key's bytes and so
    the distance. A group offers its first take eligible rows, and one
    (distance, row) sort picks the result.

    The groups are ranked in tiles of _SEARCH_ELEMS // B, each tile for all
    B queries at once, so a call reads the keys once at any batch size.
    Each query keeps the take smallest estimates seen so far with their
    groups' eligible counts, and so a running tau: +inf while the tiles seen
    hold fewer than take eligible rows (its bound then keeps no group
    without one), else the tau of the groups seen. The argument above asks
    of tau only that the groups with est <= tau hold take eligible rows,
    which a running tau's do. A later tile can only lower tau, and tau + m_q
    grows with tau, so the running bound only falls, and a group past it
    at any tile is past the final bound too. So each tile keeps its pairs
    within the running bound and cuts the pairs kept before to it; after
    the last tile the pairs kept are the final margin set, scored once.
    With one tile this is the single pass above. Should the pairs kept
    outgrow _SEARCH_ELEMS (queries that nearly tie with most groups), the
    call ranks its queries again in blocks that each fit one tile. An
    estimate's bits may change with the tile but not past e_q, which covers
    any summation order, and a scored distance never depends on the batch: a
    query gets the same rows and distances in any batch."""
    Q = _check_queries(ds, queries, k)
    take = min(k, _eligible_count(ds, exclude_talk))
    if len(Q) == 0 or take == 0:
        return np.zeros((len(Q), take), dtype=np.int64), np.zeros((len(Q), take), dtype=np.float32)
    grp = _key_groups(ds)
    groups = _eligible_groups(ds, exclude_talk)
    found = _search_tiles(ds, grp, groups, Q, take)
    if found is None:  # margin pairs past the budget: blocks of one tile each
        block = max(1, _SEARCH_ELEMS // len(grp.sq))
        found = [_search_tiles(ds, grp, groups, Q[lo : lo + block], take) for lo in range(0, len(Q), block)]
        found = tuple(map(np.concatenate, zip(*found)))
    return found


def _search_tiles(
    ds: Datastore, grp: _KeyGroups, groups: tuple, Q: np.ndarray, take: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """query_exact_batch_rows over tiles of the groups: rank each tile,
    update the running tau and bound, keep the pairs within it, pick.
    None if the pairs kept outgrow _SEARCH_ELEMS for two or more queries."""
    counts, _, _, sq = groups
    G = len(sq)
    tile = max(1, _SEARCH_ELEMS // len(Q))
    qq = np.vecdot(Q, Q, dtype=np.float64)
    n, M = ds.dim, grp.max_norm
    e_q = np.sqrt(qq) * (2 * _gamma(n + 1) * M) + (_gamma(n + 1) * M * M + n * 2.0**-147)
    c = 2 * _gamma(n + 2) / (1 - _gamma(n + 2))
    each = np.arange(len(Q))[:, None]
    best_est = best_cnt = kept = kept_est = None
    for lo in range(0, G, tile):
        est = Q @ grp.neg2_ut[:, lo : lo + tile]  # (B, tile), the one pass over these keys
        est += sq[lo : lo + tile]
        kth = min(take, est.shape[1]) - 1
        near = np.argpartition(est, kth, axis=1)[:, : kth + 1]
        near_est, near_cnt = est[each, near], counts[lo : lo + tile][near]
        del near  # a view of the (B, tile) partition
        if best_est is not None:  # with the smallest estimates of earlier tiles
            near_est = np.concatenate((best_est, near_est), axis=1)
            near_cnt = np.concatenate((best_cnt, near_cnt), axis=1)
        order = near_est.argsort(axis=1)[:, :take]
        best_est, best_cnt = near_est[each, order], near_cnt[each, order]
        reached = best_cnt.cumsum(axis=1, dtype=np.intp) >= take
        tau = best_est[each[:, 0], reached.argmax(axis=1)]
        if tile < G:  # +inf until the tiles seen hold take eligible rows
            tau = np.where(reached[:, -1], tau, np.inf)
        margin = 1.01 * (2 * e_q + c * np.maximum(tau + e_q + qq, 0))  # m_q, raised
        bound = np.nextafter(tau + margin, np.inf, dtype=np.float32)
        within = est <= bound[:, None]
        if tile >= G:
            qi, gi = np.divmod(np.flatnonzero(within), G)
            del within
            return _pick(ds, grp, Q, groups, qi, gi, take)
        if not reached[:, -1].all():  # a bound of +inf holds groups with no eligible row
            within &= counts[lo : lo + tile] > 0
        hit = np.flatnonzero(within)
        del within
        qi, gi = np.divmod(hit, est.shape[1])
        pairs = qi * G + (gi + lo)  # flat (query, group) indices
        pair_est = est.ravel()[hit]
        del est, hit
        if kept is not None:  # cut the pairs of earlier tiles to the fallen bound
            within = kept_est <= bound[kept // G]
            pairs = np.concatenate((kept[within], pairs))
            pair_est = np.concatenate((kept_est[within], pair_est))
        if len(pairs) > _SEARCH_ELEMS and len(Q) > 1:
            return None
        kept, kept_est = pairs, pair_est
    qi, gi = np.divmod(np.sort(kept), G)
    return _pick(ds, grp, Q, groups, qi, gi, take)


# Rows that k-means widens to float64 and scores against the centroids at
# once. A fixed size, not a flag: memory stays O(N*dim + chunk*C) at any N.
_KMEANS_CHUNK = 4096


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) blocks of _KMEANS_CHUNK rows, the last also taking the
    remainder. BLAS may sum a row's dot products in another order when a
    product holds few rows (OpenBLAS switches to a small-matrix kernel, and
    numpy sends a one-row product to gemv), so no block is shorter than a
    chunk unless the store is, and every block starts on a chunk multiple:
    each block then gets the bits the full N-row product would give it.
    (With one centroid numpy uses gemv whatever the rows, but then every
    row is assigned to it and no cluster empties, so no bit is read.)"""
    starts = range(0, max(n - _KMEANS_CHUNK, 0) + 1, _KMEANS_CHUNK)
    return list(zip(starts, [*starts[1:], n]))


def _mean_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """keys[rows].astype(float64).mean(axis=0), bit for bit, widening at
    most _KMEANS_CHUNK rows at a time. Over two or more columns numpy sums
    axis 0 one row after another, so a running total put in front of the
    next block continues the same sequence; a single column is summed
    pairwise, which needs all of it at once (8 bytes a row, like the norms)."""
    if len(rows) <= _KMEANS_CHUNK or keys.shape[1] == 1:
        return keys[rows].astype(np.float64).mean(axis=0)
    total = keys[rows[:_KMEANS_CHUNK]].astype(np.float64).sum(axis=0)
    for start in range(_KMEANS_CHUNK, len(rows), _KMEANS_CHUNK):
        block = keys[rows[start : start + _KMEANS_CHUNK]]
        total = np.vstack((total, block)).sum(axis=0)
    return total / len(rows)


def train_ivf(
    ds: Datastore,
    n_clusters: int,
    iterations: int = 25,
    seed: int = 0,
    nprobe: int = 1,
) -> IvfIndex:
    """Lloyd k-means over the keys, initialized from distinct random rows.
    A cluster that empties is reseeded on the point currently farthest from
    its centroid, the first such row winning a tie. Stops early once
    assignments stop changing.

    Distances |k|^2 - 2 k.c + |c|^2 are taken in float64 one block of rows
    at a time, so no N x C matrix and no float64 copy of the keys is held.
    Scaling by -2 is exact and (-2 k.c) + |k|^2 rounds like |k|^2 - 2 k.c,
    so each block holds the same bits as the matching rows of the full
    matrix, and the index is bit-for-bit deterministic for a seed."""
    n = len(ds)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    keys = ds.keys
    blocks = _row_blocks(n)
    kk = np.empty(n)
    for lo, hi in blocks:
        kk[lo:hi] = (keys[lo:hi].astype(np.float64) ** 2).sum(axis=1)
    rng = np.random.default_rng(seed)
    centroids = keys[rng.choice(n, size=n_clusters, replace=False)].astype(np.float64)
    assign = np.full(n, -1)
    dist_own = np.empty(n)  # each row's distance to its nearest centroid
    for _ in range(iterations):
        neg2_ct = (-2.0 * centroids).T
        cc = (centroids**2).sum(axis=1)
        new_assign = np.empty(n, dtype=np.intp)
        for lo, hi in blocks:
            d2 = keys[lo:hi].astype(np.float64) @ neg2_ct
            d2 += kk[lo:hi, None]
            d2 += cc
            own = d2.argmin(axis=1)
            new_assign[lo:hi] = own
            dist_own[lo:hi] = d2[np.arange(hi - lo), own]
        if (new_assign == assign).all():
            break
        assign = new_assign
        # one stable sort gives every cluster its rows in ascending order
        order = np.argsort(assign, kind="stable")
        lists = np.split(order, np.cumsum(np.bincount(assign, minlength=n_clusters))[:-1])
        free = None
        for c, rows in enumerate(lists):
            if len(rows):
                centroids[c] = _mean_rows(keys, rows)
                continue
            if free is None:  # rows not yet taken by a reseed
                free = dist_own.copy()
            far = int(free.argmax())
            free[far] = -np.inf
            centroids[c] = keys[far]
    return IvfIndex(
        centroids=centroids.astype(np.float32), lists=lists, nprobe=nprobe
    )


def check_index(ds: Datastore) -> IvfIndex:
    """The store's IVF index, refused unless its lists partition exactly
    the store's rows, its centroids have the store's dim, and each
    non-empty list's centroid holds the bytes of the float32 mean
    train_ivf takes of the list's keys. That binds an index to its store's
    keys; the verdict is kept in the derived state as what IVF search
    scans: the rows in posting-list order, the keys in that order and each
    list's start in it."""
    idx = ds.index
    if idx is None:
        raise ValueError("datastore has no IVF index; call train_ivf first")
    if idx.n_rows != len(ds) or idx.centroids.shape[1] != ds.dim:
        raise ValueError(
            f"IVF index over {idx.n_rows} rows of dim {idx.centroids.shape[1]} "
            f"does not match a datastore of {len(ds)} rows of dim {ds.dim}"
        )
    if "ivf_scan" not in ds._derived:
        for c, rows in enumerate(idx.lists):
            if len(rows) and _mean_rows(ds.keys, rows).astype(np.float32).tobytes() != idx.centroids[c].tobytes():
                raise ValueError(
                    f"IVF index does not belong to this datastore: cluster {c}'s "
                    f"centroid is not the mean of its {len(rows)} keys"
                )
        # the copy is made after the means: made first, with the means taken
        # from its slices, it left large-store's peak RSS 19 MB higher in
        # some benchmark runs and not in others
        order = np.concatenate(idx.lists)
        starts = np.cumsum([0] + [len(rows) for rows in idx.lists])
        ds._derived["ivf_scan"] = (order, ds.keys[order], starts)
    return idx


def query_ivf(
    ds: Datastore,
    query: np.ndarray,
    k: int,
    exclude_talk: int | None = None,
    nprobe: int | None = None,
) -> list[Neighbor]:
    """query_ivf_rows for one query vector, as Neighbors."""
    rows = query_ivf_rows(ds, _one_query(ds, query), k, exclude_talk, nprobe)
    return _wrap_neighbors(ds, *rows)[0]


def query_ivf_rows(
    ds: Datastore,
    queries: np.ndarray,
    k: int,
    exclude_talk: int | None = None,
    nprobe: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """IVF search in the shape of query_exact_batch_rows. Each query scans
    only the nprobe clusters whose centroids are nearest it; within that
    set, ordering and tie rules match exact search, and slots it cannot
    fill hold row -1 and distance +inf. nprobe equal to the cluster count
    reproduces exact search results.

    The centroid distances of _CACHE_ROWS // C queries are taken at once,
    each summed as one query's would be. Each probed list is a slice of the
    keys held in posting-list order (check_index), scored as a full scan
    scores its rows, through one buffer the size of the longest list, and
    mapped back to row indices; a (distance, row) sort of the candidates
    picks the result, so ties break by row index across lists."""
    idx = check_index(ds)
    order, list_keys, starts = ds._derived["ivf_scan"]
    Q = _check_queries(ds, queries, k)
    probes = idx.nprobe if nprobe is None else nprobe
    if probes < 1 or probes > idx.n_clusters:
        raise ValueError(f"nprobe must be in [1, {idx.n_clusters}], got {probes}")
    take = min(k, _eligible_count(ds, exclude_talk))
    rows = np.full((len(Q), take), -1, dtype=np.int64)
    dists = np.full((len(Q), take), np.inf, dtype=np.float32)
    diff = np.empty((max(len(rows) for rows in idx.lists), ds.dim), dtype=np.float32)
    step = max(1, _CACHE_ROWS // idx.n_clusters)
    for lo in range(0, len(Q), step):
        cdiff = idx.centroids - Q[lo : lo + step, None]
        cd2 = np.einsum("bij,bij->bi", cdiff, cdiff)
        for b, nearest in enumerate(np.argsort(cd2, axis=1, kind="stable")[:, :probes], lo):
            spans = [slice(starts[c], starts[c + 1]) for c in nearest]
            scan = np.concatenate([order[span] for span in spans])
            d2 = np.empty(len(scan), dtype=np.float32)
            at = 0
            for span in spans:
                part = diff[: span.stop - span.start]
                np.subtract(list_keys[span], Q[b], out=part)
                np.einsum("ij,ij->i", part, part, out=d2[at : at + len(part)])
                at += len(part)
            if exclude_talk is not None:
                keep = ds.talk_ids[scan] != exclude_talk
                scan, d2 = scan[keep], d2[keep]
            got_rows, got_d2 = _select(d2, scan, take)
            rows[b, : len(got_rows)] = got_rows
            dists[b, : len(got_d2)] = got_d2
    return rows, dists


def save_datastore(ds: Datastore, path: str | Path) -> None:
    """Little-endian binary layout: magic, version, dim (u32), count (u64),
    then keys as float32, values as uint32, talk ids as uint32. Each array
    goes straight from memory to the file."""
    with open(path, "wb") as fh:
        fh.write(DATASTORE_MAGIC)
        fh.write(struct.pack("<IIQ", FORMAT_VERSION, ds.dim, len(ds)))
        fh.write(np.ascontiguousarray(ds.keys, dtype="<f4"))
        fh.write(np.ascontiguousarray(ds.values, dtype="<u4"))
        fh.write(np.ascontiguousarray(ds.talk_ids, dtype="<u4"))


def load_datastore(path: str | Path) -> Datastore:
    with open(path, "rb") as fh:
        if read_bytes(fh, 4) != DATASTORE_MAGIC:
            raise ValueError(f"{path}: not a datastore file")
        version, dim, count = struct.unpack("<IIQ", read_bytes(fh, 16))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported datastore version {version}")
        if dim < 1:
            raise ValueError(f"{path}: dim must be >= 1, got {dim}")
        check_file_size(fh, fh.tell() + 4 * count * (dim + 2))
        # a NaN key would make every margin bound NaN, and search find nothing
        keys = read_array(fh, "<f4", (count, dim))
        check_finite(keys, f"{path}: datastore keys")
        return Datastore(
            dim=dim,
            keys=keys,
            values=read_array(fh, "<u4", (count,)),
            talk_ids=read_array(fh, "<u4", (count,)),
        )


def save_ivf(index: IvfIndex, path: str | Path) -> None:
    """Magic, version, dim, n_clusters, nprobe (u32), centroids as float32,
    then per cluster a u64 length and u64 row indices."""
    dim = index.centroids.shape[1]
    with open(path, "wb") as fh:
        fh.write(IVF_MAGIC)
        fh.write(struct.pack("<4I", FORMAT_VERSION, dim, index.n_clusters, index.nprobe))
        fh.write(np.ascontiguousarray(index.centroids, dtype="<f4"))
        for lst in index.lists:
            fh.write(struct.pack("<Q", len(lst)))
            fh.write(np.ascontiguousarray(lst, dtype="<u8"))


def load_ivf(path: str | Path) -> IvfIndex:
    with open(path, "rb") as fh:
        if read_bytes(fh, 4) != IVF_MAGIC:
            raise ValueError(f"{path}: not an IVF index file")
        version, dim, n_clusters, nprobe = struct.unpack("<4I", read_bytes(fh, 16))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported index version {version}")
        centroids = read_array(fh, "<f4", (n_clusters, dim))
        lists = []
        for _ in range(n_clusters):
            length = struct.unpack("<Q", read_bytes(fh, 8))[0]
            # row indices are below 2**63, so u64 and i64 share their bytes
            lists.append(read_array(fh, "<i8", (length,)).astype(np.int64, copy=False))
        check_file_size(fh, fh.tell())
    return naming(path, IvfIndex, centroids=centroids, lists=lists, nprobe=nprobe)
