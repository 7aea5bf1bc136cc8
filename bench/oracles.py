"""Reference computations the benchmark checks the program against.

None of these import `knnmt`: each reads the program's files or outputs
directly, so a fault in the program's loaders or scorers cannot hide a
fault in what they produced. `selftest.py` plants a fault for each one and
shows that it is caught.
"""

from __future__ import annotations

import struct
from collections import Counter
from pathlib import Path
from typing import Sequence

import numpy as np

DATASTORE_MAGIC = b"KNND"
IVF_MAGIC = b"KNNI"
CHECKPOINT_MAGIC = b"RMDL"


class OracleError(ValueError):
    """A file or result does not have the form the oracle requires."""


# -- datastore files ---------------------------------------------------------


def read_datastore(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys float32 (N, dim), values uint32 (N,), talk ids uint32 (N,)) from a
    datastore file: magic, u32 version, u32 dim, u64 count, then the three
    arrays little-endian. The length must match the header exactly."""
    blob = Path(path).read_bytes()
    if blob[:4] != DATASTORE_MAGIC:
        raise OracleError(f"{path}: bad datastore magic")
    version, dim, count = struct.unpack_from("<IIQ", blob, 4)
    if version != 1:
        raise OracleError(f"{path}: datastore version {version}")
    want = 20 + count * dim * 4 + count * 8
    if len(blob) != want:
        raise OracleError(f"{path}: {len(blob)} bytes, header implies {want}")
    off = 20
    keys = np.frombuffer(blob, "<f4", count * dim, off).reshape(count, dim)
    off += count * dim * 4
    values = np.frombuffer(blob, "<u4", count, off)
    talks = np.frombuffer(blob, "<u4", count, off + count * 4)
    return keys.astype(np.float32), values.astype(np.uint32), talks.astype(np.uint32)


def write_datastore(path: str | Path, keys: np.ndarray, values: np.ndarray, talks: np.ndarray) -> None:
    """Inverse of read_datastore."""
    count, dim = keys.shape
    Path(path).write_bytes(
        DATASTORE_MAGIC
        + struct.pack("<IIQ", 1, dim, count)
        + np.ascontiguousarray(keys, "<f4").tobytes()
        + np.ascontiguousarray(values, "<u4").tobytes()
        + np.ascontiguousarray(talks, "<u4").tobytes()
    )


# -- brute-force nearest neighbours ------------------------------------------


def scan_knn(
    keys: np.ndarray, query: np.ndarray, k: int, talks: np.ndarray | None = None,
    exclude_talk: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, squared distances) of the k nearest keys by a full float32 scan.

    Every distance is the float32 sum of squared float32 differences, with
    no ranking shortcut; order is distance ascending, then row ascending.
    Rows of `exclude_talk` are never returned."""
    diff = keys - np.asarray(query, dtype=np.float32)
    d2 = np.einsum("ij,ij->i", diff, diff)
    rows = np.arange(len(keys))
    if exclude_talk is not None:
        keep = talks != exclude_talk
        rows, d2 = rows[keep], d2[keep]
    order = np.lexsort((rows, d2))[:k]
    return rows[order], d2[order]


def compare_knn(
    got_rows: np.ndarray, got_d2: np.ndarray, want_rows: np.ndarray, want_d2: np.ndarray
) -> str | None:
    """None when rows are equal and distances equal bit for bit, else a
    description of the first difference."""
    got_rows = np.asarray(got_rows, dtype=np.int64)
    want_rows = np.asarray(want_rows, dtype=np.int64)
    if got_rows.shape != want_rows.shape:
        return f"{len(got_rows)} rows returned, scan gives {len(want_rows)}"
    if (got_rows != want_rows).any():
        return f"rows {got_rows.tolist()} != scan {want_rows.tolist()}"
    a = np.asarray(got_d2, dtype=np.float32).view(np.uint32)
    b = np.asarray(want_d2, dtype=np.float32).view(np.uint32)
    if (a != b).any():
        i = int(np.flatnonzero(a != b)[0])
        return f"distance {float(got_d2[i])!r} != scan {float(want_d2[i])!r} at rank {i}"
    return None


# -- IVF index files ---------------------------------------------------------


def read_ivf(path: str | Path, n_rows: int, dim: int) -> tuple[np.ndarray, list[np.ndarray], int]:
    """(centroids, posting lists, nprobe) from an IVF file, checked against the
    store it indexes: magic, version 1, matching dim, nprobe in [1, C], every
    list ascending, together an exact partition of rows 0..n_rows-1, and no
    bytes beyond the last list."""
    blob = Path(path).read_bytes()
    if blob[:4] != IVF_MAGIC:
        raise OracleError(f"{path}: bad IVF magic")
    if len(blob) < 20:
        raise OracleError(f"{path}: truncated header")
    version, fdim, n_clusters, nprobe = struct.unpack_from("<4I", blob, 4)
    if version != 1:
        raise OracleError(f"{path}: IVF version {version}")
    if fdim != dim:
        raise OracleError(f"{path}: dim {fdim}, store has {dim}")
    if not 1 <= nprobe <= n_clusters:
        raise OracleError(f"{path}: nprobe {nprobe} outside [1, {n_clusters}]")
    off = 20 + n_clusters * dim * 4
    if len(blob) < off:
        raise OracleError(f"{path}: truncated centroids")
    centroids = np.frombuffer(blob, "<f4", n_clusters * dim, 20).reshape(n_clusters, dim)
    lists = []
    for c in range(n_clusters):
        if len(blob) < off + 8:
            raise OracleError(f"{path}: truncated at list {c}")
        (length,) = struct.unpack_from("<Q", blob, off)
        off += 8
        if len(blob) < off + 8 * length:
            raise OracleError(f"{path}: list {c} runs past the end")
        lst = np.frombuffer(blob, "<u8", length, off).astype(np.int64)
        off += 8 * length
        if length > 1 and (np.diff(lst) <= 0).any():
            raise OracleError(f"{path}: list {c} is not strictly ascending")
        lists.append(lst)
    if off != len(blob):
        raise OracleError(f"{path}: {len(blob) - off} bytes after the last list")
    allrows = np.sort(np.concatenate(lists)) if lists else np.zeros(0, np.int64)
    if len(allrows) != n_rows or (allrows != np.arange(n_rows)).any():
        raise OracleError(
            f"{path}: lists hold {len(allrows)} rows, not a partition of the store's {n_rows}"
        )
    return centroids.astype(np.float32), lists, nprobe


# -- checkpoints -------------------------------------------------------------


def checkpoint_base_block(path: str | Path) -> bytes:
    """The bytes of a checkpoint's base parameters (E, W_c, W_y, W_h, b, U,
    b_o as float64), located from the header dims alone."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC or len(blob) < 24:
        raise OracleError(f"{path}: not a checkpoint")
    version, d_e, d, v, _rank = struct.unpack_from("<5I", blob, 4)
    if version != 1:
        raise OracleError(f"{path}: checkpoint version {version}")
    size = 8 * (v * d_e + 2 * d * d_e + d * d + d + v * d + v)
    if len(blob) < 24 + size + 4:
        raise OracleError(f"{path}: shorter than its base block")
    return blob[24 : 24 + size]


def checkpoint_adapter_count(path: str | Path) -> int:
    blob = Path(path).read_bytes()
    size = len(checkpoint_base_block(path))
    return struct.unpack_from("<I", blob, 24 + size)[0]


# -- translation scorer ------------------------------------------------------


def exact_match_rate(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> float:
    """Share of segments whose hypothesis tokens equal the reference tokens."""
    if len(hyps) != len(refs) or not refs:
        raise OracleError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    return sum(list(h) == list(r) for h, r in zip(hyps, refs)) / len(refs)


def term_recall(
    hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], terms: Sequence[str]
) -> float:
    """Reference term occurrences matched in the hypothesis, each term's
    count clipped per segment, over all reference term occurrences."""
    if len(hyps) != len(refs):
        raise OracleError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    vocab = set(terms)
    matched = total = 0
    for hyp, ref in zip(hyps, refs):
        want = Counter(t for t in ref if t in vocab)
        have = Counter(t for t in hyp if t in vocab)
        total += sum(want.values())
        matched += sum(min(n, have[t]) for t, n in want.items())
    if total == 0:
        raise OracleError("references hold no terms")
    return matched / total
