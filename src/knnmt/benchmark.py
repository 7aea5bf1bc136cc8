"""Seeded synthetic benchmark for domain-adaptation experiments.

The language is tiny and word-for-word: every sentence is (determiner,
noun slot, verb, adverb) and its translation is the positional image under
a fixed bijective lexicon, so corpus scores have a clean oracle. General
sentences fill the noun slot from everyday nouns; pseudo-talk sentences
mostly fill it from a shared terminology lexicon that never occurs in the
general corpus, giving retrieval something the base model cannot know.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ParallelCorpus, Sentence, SentencePair, Vocab, build_vocab

DETS = (("the", "le"), ("a", "un"))
NOUNS = (
    ("dog", "chien"), ("cat", "chat"), ("bird", "oiseau"), ("horse", "cheval"),
    ("river", "riviere"), ("tree", "arbre"), ("house", "maison"),
    ("stone", "pierre"), ("cloud", "nuage"), ("fish", "poisson"),
    ("road", "route"), ("garden", "jardin"), ("light", "lumiere"),
    ("door", "porte"), ("song", "chanson"), ("mountain", "montagne"),
)
VERBS = (
    ("sees", "voit"), ("finds", "trouve"), ("follows", "suit"),
    ("makes", "fait"), ("takes", "prend"), ("keeps", "garde"),
    ("shows", "montre"), ("moves", "bouge"), ("holds", "tient"),
    ("paints", "peint"),
)
ADVS = (
    ("quickly", "vite"), ("slowly", "lentement"), ("quietly", "doucement"),
    ("brightly", "clairement"), ("carefully", "soigneusement"),
    ("happily", "joyeusement"), ("rarely", "rarement"), ("often", "souvent"),
)
TERMS = (
    ("transformer", "transformateur"), ("encoder", "encodeur"),
    ("decoder", "decodeur"), ("attention", "attentif"),
    ("gradient", "pente"), ("embedding", "plongement"),
    ("softmax", "souplemax"), ("tokenizer", "decoupeur"),
    ("corpus", "corpusier"), ("beam", "faisceau"),
)


def benchmark_vocab() -> Vocab:
    """Vocabulary over the entire lexicon, both sides, independent of what
    any particular sample happens to draw."""
    tokens = [
        [src for src, _ in cat] + [tgt for _, tgt in cat]
        for cat in (DETS, NOUNS, VERBS, ADVS, TERMS)
    ]
    return build_vocab(tokens, max_size=200)


def _draw(rng: np.random.Generator, cat: tuple[tuple[str, str], ...]):
    return cat[int(rng.integers(len(cat)))]


def _encode_pair(
    vocab: Vocab, words: list[tuple[str, str]], domain: str, talk_id: int
) -> SentencePair:
    return SentencePair(
        source=Sentence(tuple(vocab.encode([s for s, _ in words]))),
        target=Sentence(tuple(vocab.encode([t for _, t in words]))),
        domain=domain,
        talk_id=talk_id,
    )


def make_general_corpus(n: int, seed: int, vocab: Vocab) -> ParallelCorpus:
    """n sentences drawing the noun slot from general nouns only."""
    rng = np.random.default_rng(seed)
    pairs = [
        _encode_pair(
            vocab,
            [_draw(rng, DETS), _draw(rng, NOUNS), _draw(rng, VERBS), _draw(rng, ADVS)],
            domain="general",
            talk_id=0,
        )
        for _ in range(n)
    ]
    return ParallelCorpus(tuple(pairs))


def term_frame(term_index: int) -> list[tuple[str, str]]:
    """The fixed collocational sentence for a term: technical terms in this
    language always occur in one rigid frame, so the same term sentence
    recurs verbatim across talks."""
    return [
        DETS[term_index % len(DETS)],
        TERMS[term_index],
        VERBS[term_index % len(VERBS)],
        ADVS[term_index % len(ADVS)],
    ]


def make_talks(n_talks: int, seed: int, vocab: Vocab) -> ParallelCorpus:
    """Pseudo-talks sharing one terminology lexicon, numbered from 1. Per
    talk: four general-noun sentences plus two occurrences of every term's
    collocational frame, in seeded shuffled order. Every talk covers every
    term, so any one talk's terminology is recoverable from the others."""
    rng = np.random.default_rng(seed)
    pairs = []
    for talk in range(1, n_talks + 1):
        words_list = [
            [_draw(rng, DETS), _draw(rng, NOUNS), _draw(rng, VERBS), _draw(rng, ADVS)]
            for _ in range(4)
        ]
        words_list += [term_frame(i) for _ in range(2) for i in range(len(TERMS))]
        for j in rng.permutation(len(words_list)):
            pairs.append(
                _encode_pair(vocab, words_list[j], domain="talk", talk_id=talk)
            )
    return ParallelCorpus(tuple(pairs))


@dataclass(frozen=True)
class DomainShiftBenchmark:
    vocab: Vocab
    general: ParallelCorpus
    talks: ParallelCorpus
    term_target_ids: tuple[int, ...]


def make_domain_shift_benchmark() -> DomainShiftBenchmark:
    """300 general training sentences plus five pseudo-talks over a
    terminology lexicon that is absent from the general corpus, from the
    fixed seeds 13 and 14."""
    vocab = benchmark_vocab()
    general = make_general_corpus(300, seed=13, vocab=vocab)
    talks = make_talks(5, seed=14, vocab=vocab)
    return DomainShiftBenchmark(
        vocab=vocab,
        general=general,
        talks=talks,
        term_target_ids=tuple(vocab.token_to_id(t) for _, t in TERMS),
    )


def _shift_targets(
    corpus: ParallelCorpus,
    vocab: Vocab,
    lexicon: Sequence[tuple[str, str]],
    limit: int | None,
) -> ParallelCorpus:
    tgt_ids = [vocab.token_to_id(t) for _, t in lexicon]
    if limit is not None:
        if not 2 <= limit <= len(tgt_ids):
            raise ValueError(f"limit must be in [2, {len(tgt_ids)}], got {limit}")
        tgt_ids = tgt_ids[:limit]
    shift = {
        tgt_ids[i]: tgt_ids[(i + 1) % len(tgt_ids)] for i in range(len(tgt_ids))
    }
    pairs = [
        SentencePair(
            source=p.source,
            target=Sentence(tuple(shift.get(t, t) for t in p.target.token_ids)),
            domain=p.domain,
            talk_id=p.talk_id,
        )
        for p in corpus.pairs
    ]
    return ParallelCorpus(tuple(pairs))


def shift_noun_targets(
    corpus: ParallelCorpus, vocab: Vocab, limit: int | None = None
) -> ParallelCorpus:
    """Corrupt a corpus by cyclically shifting noun translations to the next
    noun's translation, yielding a consistently wrong mapping. Useful for
    building models that are confidently wrong about the noun slot, and as
    a same-vocabulary domain shift. `limit` restricts the cycle to the
    first `limit` nouns, leaving the rest untouched."""
    return _shift_targets(corpus, vocab, NOUNS, limit)


def shift_term_targets(corpus: ParallelCorpus, vocab: Vocab) -> ParallelCorpus:
    """Same cyclic corruption over the whole terminology lexicon instead of
    the general nouns."""
    return _shift_targets(corpus, vocab, TERMS, None)


def terminology_recall(
    hyps: Sequence[Sequence[int]],
    refs: Sequence[Sequence[int]],
    term_ids: Sequence[int],
) -> float:
    """Clipped recall of terminology tokens: per segment, hypothesis counts
    of each term are clipped by the reference counts, summed over the
    corpus, divided by total reference term occurrences."""
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    terms = set(term_ids)
    matched = 0
    total = 0
    for hyp, ref in zip(hyps, refs):
        ref_counts = Counter(t for t in ref if t in terms)
        hyp_counts = Counter(t for t in hyp if t in terms)
        total += sum(ref_counts.values())
        matched += sum(min(c, hyp_counts[t]) for t, c in ref_counts.items())
    if total == 0:
        raise ValueError("references contain no terminology tokens")
    return matched / total
