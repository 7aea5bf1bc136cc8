"""Beam decoding with optional nearest-neighbor retrieval, model
ensembling, and shallow language-model fusion.

Per step and per model, the retrieval distribution is interpolated with
that model's own output distribution first; the ensemble average is taken
afterwards. Interpolation weight 0 skips retrieval entirely, so results
are then byte-identical to decoding without a datastore.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import BOS_ID, EOS_ID, Sentence
from .datastore import Datastore, Neighbor
from .metrics import bleu
from .refmodel import StepModel

T_GRID_DEFAULT = (10.0, 50.0, 100.0)
W_GRID_DEFAULT = (0.1, 0.3, 0.5)

LmFunc = Callable[[Sequence[int]], np.ndarray]


@dataclass(frozen=True)
class DecodeConfig:
    k: int = 8
    T: float = 50.0
    w: float = 0.3
    beam: int = 4
    max_len: int | None = None  # None: 2 * source length + 8
    fusion_alpha: float = 0.0
    exclude_talk: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.T <= 0:
            raise ValueError("temperature must be > 0")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("interpolation weight must be in [0, 1]")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.fusion_alpha < 0:
            raise ValueError("fusion_alpha must be >= 0")


def knn_distributions(
    values: np.ndarray, distances: np.ndarray, T: float, vocab_size: int
) -> np.ndarray:
    """p_knn for a (B, take) block of retrieved token ids and distances: row
    b weighs each of its tokens by exp(-distance/T), summed per token and
    normalized. Slots at distance +inf weigh exactly 0; every row needs one
    finite distance. A token id outside the vocabulary raises ValueError
    rather than leaking into the next row."""
    if T <= 0:
        raise ValueError("temperature must be > 0")
    if values.max() >= vocab_size:
        raise ValueError(
            f"datastore token id {values.max()} is outside the vocabulary of {vocab_size}"
        )
    d = distances.astype(np.float64)
    n = len(d)
    # shift by each row's minimum distance: same normalized result, no underflow
    weights = np.exp(-(d - d.min(axis=1, keepdims=True)) / T)
    flat = values.astype(np.intp) + vocab_size * np.arange(n, dtype=np.intp)[:, None]
    p = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=n * vocab_size)
    p = p.reshape(n, vocab_size)
    p /= p.sum(axis=1, keepdims=True)
    return p


def knn_distribution(
    neighbors: Sequence[Neighbor], T: float, vocab_size: int
) -> np.ndarray | None:
    """knn_distributions for one neighbor list. Returns None for an empty
    list so the caller can fall back to the plain model distribution."""
    if not neighbors:
        return None
    n = len(neighbors)
    values = np.fromiter((nb.value for nb in neighbors), np.intp, n)
    distances = np.fromiter((nb.distance for nb in neighbors), np.float64, n)
    return knn_distributions(values[None, :], distances[None, :], T, vocab_size)[0]


def interpolate(p_model: np.ndarray, p_knn: np.ndarray, w: float) -> np.ndarray:
    """w * p_knn + (1 - w) * p_model."""
    if p_model.shape != p_knn.shape:
        raise ValueError(f"shape mismatch: {p_model.shape} vs {p_knn.shape}")
    if not 0.0 <= w <= 1.0:
        raise ValueError("interpolation weight must be in [0, 1]")
    return w * p_knn + (1.0 - w) * p_model


def fuse_lm(p: np.ndarray, p_lm: np.ndarray, alpha: float) -> np.ndarray:
    """Shallow fusion: renormalized p * p_lm**alpha. alpha 0 returns p
    unchanged (no renormalization, bit for bit)."""
    if alpha == 0.0:
        return p
    if p.shape != p_lm.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {p_lm.shape}")
    fused = p * np.power(p_lm, alpha)
    total = fused.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ValueError("fused distribution is degenerate")
    return fused / total


@dataclass
class _Hyp:
    tokens: tuple[int, ...]
    logprob: float
    steps: int
    states: tuple


def _advance_all(
    models: Sequence[StepModel],
    stores: Sequence[Datastore | None],
    contexts: Sequence,
    live: Sequence[_Hyp],
    cfg: DecodeConfig,
    lm: LmFunc | None,
) -> list[tuple[np.ndarray, tuple]]:
    """One decoding step for every live hypothesis at once: model steps
    first, then a single batched retrieval per store covering the whole
    beam, then the distribution mixing. Returns (distribution, states)
    aligned with `live`. A hypothesis whose retrieval found nothing keeps
    its model distribution."""
    n_models = len(models)
    stepped = [
        [
            models[mi].step(
                contexts[mi],
                hyp.states[mi],
                hyp.tokens[-1] if hyp.tokens else BOS_ID,
            )
            for mi in range(n_models)
        ]
        for hyp in live
    ]
    p_mixed: list[np.ndarray | None] = [None] * n_models
    for mi, store in enumerate(stores):
        if store is None or cfg.w <= 0.0:
            continue
        queries = np.stack([step[mi][0] for step in stepped])
        rows, dists = store.search_batch_rows(
            queries, cfg.k, exclude_talk=cfg.exclude_talk
        )
        found = (rows >= 0).any(axis=1)
        if found.any():
            # a slice when every row found something: views, not copies
            sel = slice(None) if found.all() else found
            p = np.stack([step[mi][1] for step in stepped])
            p_knn = knn_distributions(
                store.values[rows[sel]], dists[sel], cfg.T, p.shape[1]
            )
            p[sel] = interpolate(p[sel], p_knn, cfg.w)
            p_mixed[mi] = p
    out = []
    for hi, hyp in enumerate(live):
        dists = [
            stepped[hi][mi][1] if p_mixed[mi] is None else p_mixed[mi][hi]
            for mi in range(n_models)
        ]
        p_avg = dists[0] if len(dists) == 1 else np.mean(np.stack(dists), axis=0)
        if lm is not None and cfg.fusion_alpha > 0.0:
            p_avg = fuse_lm(p_avg, lm(hyp.tokens), cfg.fusion_alpha)
        out.append((p_avg, tuple(step[2] for step in stepped[hi])))
    return out


def beam_decode(
    models: StepModel | Sequence[StepModel],
    datastores: Datastore | Sequence[Datastore | None] | None,
    source: Sentence,
    cfg: DecodeConfig,
    lm: LmFunc | None = None,
) -> tuple[list[int], float]:
    """Returns (token ids without EOS, length-normalized log probability).

    Candidates each step are the top `beam` (cumulative score, then token
    id, then parent index); a candidate ending in EOS consumes its slot and
    moves to the completed pool, so with beam 1 decoding is exactly greedy.
    Hypotheses still alive at the length cap are used only if nothing
    completed. Final ranking is by cumulative log probability divided by
    the number of steps taken, the EOS step included.
    """
    model_list = [models] if isinstance(models, StepModel) else list(models)
    if datastores is None:
        store_list: list[Datastore | None] = [None] * len(model_list)
    elif isinstance(datastores, Datastore):
        store_list = [datastores]
    else:
        store_list = list(datastores)
    if len(store_list) != len(model_list):
        raise ValueError(
            f"{len(model_list)} models but {len(store_list)} datastores"
        )
    for model, store in zip(model_list, store_list):
        if store is not None and store.dim != model.hidden_dim():
            raise ValueError(
                f"datastore dim {store.dim} != model hidden dim {model.hidden_dim()}"
            )
    if not source.token_ids:
        raise ValueError("cannot decode an empty source")

    contexts = [m.encode(source) for m in model_list]
    max_len = cfg.max_len if cfg.max_len is not None else 2 * len(source.token_ids) + 8
    live = [
        _Hyp(
            tokens=(),
            logprob=0.0,
            steps=0,
            states=tuple(m.initial_state() for m in model_list),
        )
    ]
    completed: list[_Hyp] = []

    for _ in range(max_len):
        advanced = _advance_all(model_list, store_list, contexts, live, cfg, lm)
        candidates: list[tuple[float, int, int]] = []  # (score, token, parent)
        parent_states: list[tuple] = []
        for hi, hyp in enumerate(live):
            p, new_states = advanced[hi]
            parent_states.append(new_states)
            # tokens with probability exactly 0 get score -inf, never chosen
            with np.errstate(divide="ignore"):
                scores = hyp.logprob + np.log(p)
            top = np.lexsort((np.arange(len(scores)), -scores))[: cfg.beam]
            candidates.extend((float(scores[t]), int(t), hi) for t in top)
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for score, token, hi in candidates[: cfg.beam]:
            parent = live[hi]
            if token == EOS_ID:
                completed.append(
                    _Hyp(parent.tokens, score, parent.steps + 1, parent_states[hi])
                )
            else:
                next_live.append(
                    _Hyp(
                        parent.tokens + (token,),
                        score,
                        parent.steps + 1,
                        parent_states[hi],
                    )
                )
        live = next_live
        if not live:
            break

    pool = completed if completed else live
    best = min(pool, key=lambda h: (-(h.logprob / h.steps), h.tokens))
    return list(best.tokens), best.logprob / best.steps


@dataclass(frozen=True)
class GridSearchResult:
    rows: tuple[tuple[float, float, float], ...]  # (T, w, BLEU)
    best_T: float
    best_w: float
    best_bleu: float


def grid_search(
    models: StepModel | Sequence[StepModel],
    datastores: Datastore | Sequence[Datastore | None] | None,
    dev: Sequence[tuple[Sentence, Sentence]],
    k: int = 8,
    T_grid: Sequence[float] = T_GRID_DEFAULT,
    w_grid: Sequence[float] = W_GRID_DEFAULT,
    base: DecodeConfig = DecodeConfig(),
) -> GridSearchResult:
    """Decode the dev pairs at every (T, w) and score corpus BLEU against
    the references. Rows come back in grid order (T major). Best cell is
    the highest BLEU; exact ties prefer smaller w, then smaller T."""
    if not dev:
        raise ValueError("dev set is empty")
    if not T_grid or not w_grid:
        raise ValueError("grids must be non-empty")
    refs = [list(tgt.token_ids) for _, tgt in dev]
    rows = []
    for T in T_grid:
        for w in w_grid:
            cfg = replace(base, k=k, T=float(T), w=float(w))
            hyps = [beam_decode(models, datastores, src, cfg)[0] for src, _ in dev]
            rows.append((float(T), float(w), bleu(hyps, refs).bleu))
    best = min(rows, key=lambda r: (-r[2], r[1], r[0]))
    return GridSearchResult(
        rows=tuple(rows), best_T=best[0], best_w=best[1], best_bleu=best[2]
    )
