"""Data-side pipeline: corpus diversification through round-trip
translation, temperature-based language sampling, noise filtering, and the
leave-one-out retrieval evaluation protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import ParallelCorpus, Sentence, SentencePair, is_punctuation
from .datastore import Datastore, build
from .decode import DecodeConfig, _decode_cells, beam_decode_batch
from .metrics import bleu_from_stats, segment_stats
from .refmodel import StepModel


def diversify(
    bitext: ParallelCorpus, forward: StepModel, backward: StepModel, beam: int = 4
) -> ParallelCorpus:
    """Augment a bitext with synthetic pairs that keep one original side.

    The forward model translates the original sources and the backward
    model the original targets, once each, so no output pair is synthetic
    on both sides. Output order is originals first, then forward then
    backward pairs; exact duplicates keep the first copy. A round-trip that
    produces an empty translation is dropped.
    """
    if len(bitext) == 0:
        raise ValueError("bitext is empty")
    decode_cfg = DecodeConfig(w=0.0, beam=beam)
    forward_hyps = beam_decode_batch(forward, None, [pair.source for pair in bitext.pairs], decode_cfg)
    backward_hyps = beam_decode_batch(backward, None, [pair.target for pair in bitext.pairs], decode_cfg)
    synthetic = [
        replace(pair, target=Sentence(tuple(hyp))) for pair, (hyp, _) in zip(bitext.pairs, forward_hyps) if hyp
    ] + [
        replace(pair, source=Sentence(tuple(hyp))) for pair, (hyp, _) in zip(bitext.pairs, backward_hyps) if hyp
    ]
    return ParallelCorpus(_first_copies(list(bitext.pairs) + synthetic))


def _first_copies(pairs: Sequence[SentencePair]) -> tuple[SentencePair, ...]:
    """The pairs in order, each exact duplicate (source and target) dropped
    after its first copy."""
    unique: dict[tuple[tuple[int, ...], tuple[int, ...]], SentencePair] = {}
    for pair in pairs:
        unique.setdefault((pair.source.token_ids, pair.target.token_ids), pair)
    return tuple(unique.values())


@dataclass(frozen=True)
class SamplingConfig:
    sizes: dict[str, int]
    tau: float = 5.0

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sizes must be non-empty")
        if any(n <= 0 for n in self.sizes.values()):
            raise ValueError("corpus sizes must be positive")
        if self.tau < 1.0:
            raise ValueError("tau must be >= 1")


def sample_weights(cfg: SamplingConfig) -> dict[str, float]:
    """Language probabilities proportional to (share of data)**(1/tau),
    flattening skewed corpus sizes. tau 1 recovers the raw shares."""
    total = sum(cfg.sizes.values())
    raw = {lang: (n / total) ** (1.0 / cfg.tau) for lang, n in cfg.sizes.items()}
    z = sum(raw.values())
    return {lang: v / z for lang, v in raw.items()}


def sample_languages(cfg: SamplingConfig, n: int, seed: int = 0) -> list[str]:
    """n seeded draws from the temperature-adjusted language distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = sample_weights(cfg)
    langs = list(weights)
    probs = np.asarray([weights[lang] for lang in langs])
    rng = np.random.default_rng(seed)
    return [langs[i] for i in rng.choice(len(langs), size=n, p=probs)]


@dataclass(frozen=True)
class FilterConfig:
    max_ratio: float = 3.0
    max_len: int = 200

    def __post_init__(self) -> None:
        if self.max_ratio < 1.0:
            raise ValueError("max_ratio must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


def filter_corpus(
    bitext: ParallelCorpus, cfg: FilterConfig = FilterConfig()
) -> ParallelCorpus:
    """Drop pairs whose side-length ratio exceeds max_ratio in either
    direction or whose longer side exceeds max_len, and collapse exact
    duplicate pairs to their first occurrence. Idempotent."""
    kept = []
    for pair in bitext.pairs:
        s_len = len(pair.source.token_ids)
        t_len = len(pair.target.token_ids)
        if max(s_len, t_len) > cfg.max_len:
            continue
        if s_len > cfg.max_ratio * t_len or t_len > cfg.max_ratio * s_len:
            continue
        kept.append(pair)
    return ParallelCorpus(_first_copies(kept))


def corrupt_case_punct(tokens: Sequence[str]) -> list[str]:
    """Lowercase every token and drop tokens made entirely of punctuation,
    emulating transcripts with casing and punctuation stripped."""
    return [tok.lower() for tok in tokens if not is_punctuation(tok)]


def upsample(
    corpus: ParallelCorpus, fraction: float, base: ParallelCorpus | None = None
) -> ParallelCorpus:
    """Replicate the in-domain part of a corpus until it makes up at least
    `fraction` of the result, using the smallest whole number of copies.

    With `base` given, all of `corpus` is the part to replicate and `base`
    is the rest. Without it, pairs whose domain is not "general" are the
    part and the "general" pairs are the rest."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if base is None:
        part = tuple(p for p in corpus.pairs if p.domain != "general")
        rest = tuple(p for p in corpus.pairs if p.domain == "general")
    else:
        part = corpus.pairs
        rest = base.pairs
    if not part:
        raise ValueError("nothing to upsample: no in-domain pairs")
    copies = max(1, math.ceil(fraction * len(rest) / ((1.0 - fraction) * len(part))))
    return ParallelCorpus(rest + part * copies)


@dataclass(frozen=True)
class TalkResult:
    talk_id: int
    bleu_retrieval: float
    bleu_baseline: float

    @property
    def delta(self) -> float:
        return self.bleu_retrieval - self.bleu_baseline


@dataclass(frozen=True)
class LeaveOneOutReport:
    per_talk: tuple[TalkResult, ...]
    aggregate_retrieval: float
    aggregate_baseline: float
    hyps_retrieval: tuple[tuple[int, ...], ...]
    hyps_baseline: tuple[tuple[int, ...], ...]
    refs: tuple[tuple[int, ...], ...]

    @property
    def delta(self) -> float:
        return self.aggregate_retrieval - self.aggregate_baseline


def leave_one_out_eval(
    models: StepModel | Sequence[StepModel],
    talkset: ParallelCorpus,
    cfg: DecodeConfig = DecodeConfig(),
    datastores: Sequence[Datastore] | None = None,
) -> LeaveOneOutReport:
    """Decode each talk retrieving only from the other talks, and the whole
    talk set with retrieval off, and score both per talk against the
    references.

    One datastore over the whole talk set is built per model (or passed
    in); held-out entries are excluded per query rather than by building a
    datastore per talk. Talk ids must form a contiguous range and there
    must be at least two talks.

    Both arms are one decode call: one w = 0 config over every pair for the
    baseline (w = 0 decodes as plain beam search, bit for bit), and per
    talk one config excluding that talk over its pairs. So a source that
    several talks hold steps each of its prefixes once per model, and each
    store searches once a step per talk. Each reference's and hypothesis's
    n-grams are counted once; every score sums the integer statistics of
    its segments.
    """
    model_list = [models] if isinstance(models, StepModel) else list(models)
    talks = talkset.talk_ids()
    if len(talks) < 2:
        raise ValueError("need at least two talks for leave-one-out")
    if talks != list(range(talks[0], talks[0] + len(talks))):
        raise ValueError(f"talk ids must be contiguous, got {talks}")
    if datastores is None:
        datastores = [build(m, talkset) for m in model_list]

    by_talk = [[p for p in talkset.pairs if p.talk_id == talk] for talk in talks]
    pairs = [p for group in by_talk for p in group]
    baseline, held_out = replace(cfg, w=0.0), {talk: replace(cfg, exclude_talk=talk) for talk in talks}
    jobs = [(p.source, baseline) for p in pairs] + [(p.source, held_out[p.talk_id]) for p in pairs]
    decoded = [hyp for hyp, _ in _decode_cells(model_list, datastores, jobs)]
    all_base, all_knn = decoded[: len(pairs)], decoded[len(pairs) :]
    all_refs = [p.target.token_ids for p in pairs]
    stats_knn, stats_base = segment_stats([all_knn, all_base], all_refs)
    per_talk, lo = [], 0
    for talk, group in zip(talks, by_talk):
        span, lo = slice(lo, lo + len(group)), lo + len(group)
        per_talk.append(TalkResult(talk, bleu_from_stats(stats_knn[span]).bleu, bleu_from_stats(stats_base[span]).bleu))

    return LeaveOneOutReport(
        per_talk=tuple(per_talk),
        aggregate_retrieval=bleu_from_stats(stats_knn).bleu,
        aggregate_baseline=bleu_from_stats(stats_base).bleu,
        hyps_retrieval=tuple(tuple(h) for h in all_knn),
        hyps_baseline=tuple(tuple(h) for h in all_base),
        refs=tuple(all_refs),
    )
