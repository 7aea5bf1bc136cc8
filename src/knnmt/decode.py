"""Beam decoding with optional nearest-neighbor retrieval, model
ensembling, and shallow language-model fusion.

Per step and per model, the retrieval distribution is interpolated with
that model's own output distribution first; the ensemble average is taken
afterwards. Interpolation weight 0 skips retrieval entirely, so results
are then byte-identical to decoding without a datastore.

One call decodes a list of (source, config) jobs, each distinct pair
once, in lockstep blocks of _DECODE_BLOCK distinct sources that hold every
config their jobs ask for: each step, each distinct (source, prefix) row
steps once per model, one search per store and excluded talk and one mixing
serve every live hypothesis of the block, and each sentence then picks its
own candidates. A row's search result and distribution do not depend on
the other rows, so a sentence gets the same bits in any block, alone
included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import BOS_ID, EOS_ID, TALK_ID_LIMIT, Sentence
from .datastore import Datastore, Neighbor
from .metrics import bleu_from_stats, segment_stats
from .refmodel import StepModel

T_GRID_DEFAULT = (10.0, 50.0, 100.0)
W_GRID_DEFAULT = (0.1, 0.3, 0.5)
MAX_LEN_LIMIT = 1024  # an explicit max_len above it could grow hypotheses until memory runs out

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
        # each float check is written so that NaN, which fails every comparison, fails it too
        if not 0 < self.T < np.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.T}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("interpolation weight must be in [0, 1]")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_len is not None and not 1 <= self.max_len <= MAX_LEN_LIMIT:
            raise ValueError(f"max_len must be in [1, {MAX_LEN_LIMIT}], got {self.max_len}")
        if not 0 <= self.fusion_alpha < np.inf:
            raise ValueError(f"fusion_alpha must be finite and >= 0, got {self.fusion_alpha}")
        if self.exclude_talk is not None and not 0 <= self.exclude_talk < TALK_ID_LIMIT:
            raise ValueError(f"exclude_talk must be in [0, 2**32), got {self.exclude_talk}")


def knn_distributions(
    values: np.ndarray, distances: np.ndarray, T: float, vocab_size: int
) -> np.ndarray:
    """p_knn for a (B, take) block of retrieved token ids and distances: row
    b weighs each of its tokens by exp(-distance/T), summed per token and
    normalized. Slots at distance +inf weigh exactly 0; every row needs one
    finite distance. Every token id must be below vocab_size, or it would
    leak into the next row: beam decoding checks each store once, up front."""
    if T <= 0:
        raise ValueError("temperature must be > 0")
    d = distances.astype(np.float64)
    n = len(d)
    # shift by each row's minimum distance: same normalized result, no
    # underflow. The ufunc reductions are what d.min and p.sum call, without
    # their Python wrappers; m - d is exactly -(d - m).
    weights = np.exp((np.minimum.reduce(d, axis=1, keepdims=True) - d) / T)
    flat = values.astype(np.intp) + np.arange(0, n * vocab_size, vocab_size, dtype=np.intp)[:, None]
    p = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=n * vocab_size)
    p = p.reshape(n, vocab_size)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    return p


def knn_distribution(
    neighbors: Sequence[Neighbor], T: float, vocab_size: int
) -> np.ndarray | None:
    """knn_distributions for one neighbor list. Returns None for an empty
    list so the caller can fall back to the plain model distribution. A
    token id outside the vocabulary raises ValueError."""
    if not neighbors:
        return None
    n = len(neighbors)
    values = np.fromiter((nb.value for nb in neighbors), np.intp, n)
    _check_token_ids(values, vocab_size)
    distances = np.fromiter((nb.distance for nb in neighbors), np.float64, n)
    return knn_distributions(values[None, :], distances[None, :], T, vocab_size)[0]


def _check_token_ids(values: np.ndarray, vocab_size: int) -> None:
    if values.max() >= vocab_size:
        raise ValueError(
            f"datastore token id {values.max()} is outside the vocabulary of {vocab_size}"
        )


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


# Distinct sentences decoded in lockstep. A fixed size, not a flag: every
# live hypothesis of a block shares one search per store and one mixing a
# step, so a block of a few sentences already makes those calls few.
_DECODE_BLOCK = 8


@dataclass
class _Beam:
    """One sentence's search at one cell: the sentence's slot in its block,
    the cell, its contexts (one per model), length cap, and live and
    completed hypotheses."""

    src: int
    cell: int
    contexts: list
    max_len: int
    live: list[_Hyp]
    completed: list[_Hyp]

    def advance(self, scores: np.ndarray, states: list[tuple], beam: int) -> None:
        """Keep the top `beam` candidates of the live hypotheses' (H, V)
        cumulative scores, by score, then token id, then parent index.
        Token-major order makes the flat index rank (token, parent), so a
        stable sort of the negated scores puts those candidates first."""
        picked = np.argsort(-scores.T.ravel(), kind="stable")[:beam]
        tokens, parents = np.divmod(picked, len(self.live))
        next_live = []
        for token, hi in zip(tokens.tolist(), parents.tolist()):
            parent = self.live[hi]
            score = float(scores[hi, token])
            if token == EOS_ID:
                self.completed.append(_Hyp(parent.tokens, score, parent.steps + 1, states[hi]))
            else:
                next_live.append(_Hyp(parent.tokens + (token,), score, parent.steps + 1, states[hi]))
        self.live = next_live

    def best(self) -> tuple[tuple[int, ...], float]:
        pool = self.completed if self.completed else self.live
        best = min(pool, key=lambda h: (-(h.logprob / h.steps), h.tokens))
        return best.tokens, best.logprob / best.steps


def _run(rows: list[int]) -> slice | list[int]:
    """`rows` as an index: a slice (views, not copies) if they are consecutive."""
    return slice(rows[0], rows[-1] + 1) if rows == list(range(rows[0], rows[0] + len(rows))) else rows


def _mix_knn(
    p: np.ndarray, store: Datastore, hidden: list, rows: list, row_of: list[int], cells: list[DecodeConfig]
) -> None:
    """Mix retrieval into the (rows, V) model distributions `p`, in place,
    for the rows of the cells with w > 0: per excluded talk, one search over
    the distinct rows of its cells (row r's query is hidden[row_of[r]]),
    knn_distributions once per T over those distinct rows, and interpolate
    once per cell. A row whose search found nothing keeps its model
    distribution."""
    by_talk: dict = {}  # excluded talk -> (config, first row, end row) of its cells with w > 0
    hi = 0
    for cell, run in itertools.groupby(b.cell for b, _ in rows):
        lo, hi = hi, hi + len(list(run))
        if cells[cell].w > 0.0:
            by_talk.setdefault(cells[cell].exclude_talk, []).append((cells[cell], lo, hi))
    for talk, spans in by_talk.items():
        searched = list(dict.fromkeys(s for _, lo, hi in spans for s in row_of[lo:hi]))
        at = dict(zip(searched, range(len(searched))))  # distinct row -> its row of the search
        queries = np.array([hidden[s] for s in searched])
        found_rows, dists = store.search_batch_rows(queries, cells[0].k, exclude_talk=talk)
        found = np.logical_or.reduce(found_rows >= 0, axis=1).tolist()
        for T in dict.fromkeys(cfg.T for cfg, _, _ in spans):
            knn: dict = {}  # search row -> its row of p_knn
            mixes = []
            for cfg, lo, hi in spans:
                if cfg.T == T:
                    hits = [r for r in range(lo, hi) if found[at[row_of[r]]]]
                    mixes.append((cfg.w, hits, [knn.setdefault(at[row_of[r]], len(knn)) for r in hits]))
            if knn:
                take = _run(list(knn))
                p_knn = knn_distributions(store.values[found_rows[take]], dists[take], T, p.shape[1])
                for w, hits, knn_rows in mixes:
                    if hits:
                        hits = _run(hits)
                        p[hits] = interpolate(p[hits], p_knn[_run(knn_rows)], w)


def _advance_all(
    models: list[StepModel], stores: list, rows: list, cells: list[DecodeConfig], lm: LmFunc | None
) -> tuple[np.ndarray, list[tuple]]:
    """One decoding step for every (beam, hypothesis) row of a block, the
    beams in cell order: each distinct (source, prefix) row steps once per
    model, one row at a time, whichever cells hold it (with one cell, no
    two rows share one); then each store's retrieval is mixed in. Returns
    the mixed (rows, V) distributions and each row's new states."""
    slot: dict = {}
    row_of = [slot.setdefault((b.src, hyp.tokens), len(slot)) for b, hyp in rows]
    stepped = [  # one row per distinct (source, prefix)
        [model.step(b.contexts[mi], hyp.states[mi], hyp.tokens[-1] if hyp.tokens else BOS_ID)
         for mi, model in enumerate(models)]
        for b, hyp in dict(zip(row_of, rows)).values()
    ]
    mixed = []
    for mi, store in enumerate(stores):
        p = np.array([stepped[s][mi][1] for s in row_of])
        if store is not None:
            _mix_knn(p, store, [step[mi][0] for step in stepped], rows, row_of, cells)
        mixed.append(p)
    # the ensemble mean adds the models' rows in model order, elementwise,
    # so each row gets the bits a mean over that row alone gives
    p = mixed[0] if len(mixed) == 1 else np.mean(np.stack(mixed), axis=0)
    if lm is not None and cells[0].fusion_alpha > 0.0:
        for i, (_, hyp) in enumerate(rows):
            p[i] = fuse_lm(p[i], lm(hyp.tokens), cells[0].fusion_alpha)
    return p, [tuple(step[2] for step in stepped[s]) for s in row_of]


def _model_stores(
    models: StepModel | Sequence[StepModel],
    datastores: Datastore | Sequence[Datastore | None] | None,
) -> tuple[list[StepModel], list[Datastore | None]]:
    """The models and one store (or None) per model, checked for count, dim
    and token ids. An empty store finds nothing, so it decodes as plain."""
    model_list = [models] if isinstance(models, StepModel) else list(models)
    if datastores is None:
        store_list: list[Datastore | None] = [None] * len(model_list)
    elif isinstance(datastores, Datastore):
        store_list = [datastores]
    else:
        store_list = list(datastores)
    if len(store_list) != len(model_list):
        raise ValueError(f"{len(model_list)} models but {len(store_list)} datastores")
    for model, store in zip(model_list, store_list):
        if store is not None:
            check_store(model, store)
    return model_list, store_list


def check_store(model: StepModel, store: Datastore) -> None:
    """Refuse a store whose keys are not `model`'s hidden states or whose
    token ids fall outside its vocabulary."""
    if store.dim != model.hidden_dim():
        raise ValueError(f"datastore dim {store.dim} != model hidden dim {model.hidden_dim()}")
    if len(store):
        _check_token_ids(store.values, model.vocab_size())


def beam_decode(
    models: StepModel | Sequence[StepModel],
    datastores: Datastore | Sequence[Datastore | None] | None,
    source: Sentence,
    cfg: DecodeConfig,
    lm: LmFunc | None = None,
) -> tuple[list[int], float]:
    """Returns (token ids without EOS, length-normalized log probability):
    beam_decode_batch for one sentence.

    Candidates each step are the top `beam` (cumulative score, then token
    id, then parent index); a candidate ending in EOS consumes its slot and
    moves to the completed pool, so with beam 1 decoding is exactly greedy.
    Hypotheses still alive at the length cap are used only if nothing
    completed. Final ranking is by cumulative log probability divided by
    the number of steps taken, the EOS step included.
    """
    return beam_decode_batch(models, datastores, [source], cfg, lm)[0]


def beam_decode_batch(
    models: StepModel | Sequence[StepModel],
    datastores: Datastore | Sequence[Datastore | None] | None,
    sources: Sequence[Sentence],
    cfg: DecodeConfig,
    lm: LmFunc | None = None,
) -> list[tuple[list[int], float]]:
    """beam_decode of each source, in order, equal bit for bit to decoding
    them one at a time. Each distinct source is decoded once and its result
    copied to every position it holds. Blocks of _DECODE_BLOCK distinct
    sentences step in lockstep: each step takes one search per store and
    one mixing over every live hypothesis of the block's unfinished
    sentences. Each row's search result and distribution are the same in
    any batch, so the block changes how many calls are made, not what any
    sentence gets."""
    return _decode_cells(models, datastores, [(source, cfg) for source in sources], lm)


def _decode_cells(
    models, datastores, jobs: Sequence[tuple[Sentence, DecodeConfig]], lm: LmFunc | None = None
) -> list[tuple[list[int], float]]:
    """beam_decode of each (source, config) job, in order: one result per
    job. The distinct configs, the cells, may differ in T, w and
    exclude_talk, not in k, beam, max_len or fusion_alpha. Each distinct
    (source, cell) is decoded once and its result copied to every job that
    holds it. A block of distinct sources steps every cell its jobs ask for
    in one lockstep pass, so a (source, prefix) row that several cells hold
    steps once per model, and each store searches once per excluded talk."""
    model_list, store_list = _model_stores(models, datastores)
    if any(not source.token_ids for source, _ in jobs):
        raise ValueError("cannot decode an empty source")
    if not jobs:
        return []
    cells = list(dict.fromkeys(cfg for _, cfg in jobs))
    base = cells[0]
    if len({(cfg.k, cfg.beam, cfg.max_len, cfg.fusion_alpha) for cfg in cells}) > 1:
        raise ValueError("decode configs of one call may differ in T, w and exclude_talk only")
    cell_of = {cfg: i for i, cfg in enumerate(cells)}
    held: dict = {}  # source tokens -> (source, the cells its jobs ask for)
    for source, cfg in jobs:
        held.setdefault(source.token_ids, (source, set()))[1].add(cell_of[cfg])
    distinct = list(held.values())
    best = {}
    for lo in range(0, len(distinct), _DECODE_BLOCK):
        block = distinct[lo : lo + _DECODE_BLOCK]
        contexts = [[m.encode(source) for m in model_list] for source, _ in block]
        beams = [
            _Beam(src=i, cell=cell, contexts=contexts[i],
                  max_len=base.max_len if base.max_len is not None else 2 * len(source) + 8,
                  live=[_Hyp((), 0.0, 0, tuple(m.initial_state() for m in model_list))], completed=[])
            for cell in range(len(cells))
            for i, (source, wanted) in enumerate(block)
            if cell in wanted
        ]
        step = 0
        while active := [b for b in beams if b.live and step < b.max_len]:
            rows = [(b, hyp) for b in active for hyp in b.live]
            p, states = _advance_all(model_list, store_list, rows, cells, lm)
            logprob = np.array([hyp.logprob for _, hyp in rows])
            # tokens with probability exactly 0 get score -inf, never chosen
            with np.errstate(divide="ignore"):
                scores = logprob[:, None] + np.log(p)
            at = 0
            for b in active:
                n = len(b.live)
                b.advance(scores[at : at + n], states[at : at + n], base.beam)
                at += n
            step += 1
        best.update(((b.cell, block[b.src][0].token_ids), b.best()) for b in beams)
    return [(list(hyp), score) for hyp, score in (best[cell_of[cfg], s.token_ids] for s, cfg in jobs)]


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
    T_grid: Sequence[float] = T_GRID_DEFAULT,
    w_grid: Sequence[float] = W_GRID_DEFAULT,
    base: DecodeConfig = DecodeConfig(),
) -> GridSearchResult:
    """Decode the dev pairs at every (T, w), the other fields from `base`,
    all cells in one lockstep pass, and score corpus BLEU against the
    references, each counted once. Rows come back in grid order (T major).
    Best cell is the highest BLEU; exact ties prefer smaller w, then
    smaller T."""
    if not dev:
        raise ValueError("dev set is empty")
    if not T_grid or not w_grid:
        raise ValueError("grids must be non-empty")
    cells = [replace(base, T=float(T), w=float(w)) for T in T_grid for w in w_grid]
    decoded = [hyp for hyp, _ in _decode_cells(models, datastores, [(src, cfg) for cfg in cells for src, _ in dev])]
    hyp_lists = [decoded[lo : lo + len(dev)] for lo in range(0, len(decoded), len(dev))]
    stats = segment_stats(hyp_lists, [tgt.token_ids for _, tgt in dev])
    rows = [(cfg.T, cfg.w, bleu_from_stats(cell).bleu) for cfg, cell in zip(cells, stats)]
    best = min(rows, key=lambda r: (-r[2], r[1], r[0]))
    return GridSearchResult(
        rows=tuple(rows), best_T=best[0], best_w=best[1], best_bleu=best[2]
    )
