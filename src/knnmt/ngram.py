"""N-gram language models with interpolated domain adaptation, and
n-gram-overlap data selection."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import BOS_ID, UNK_ID, ParallelCorpus, Sentence, Vocab, read_text

Gram = tuple[int, ...]

# Weight of the uniform distribution in every model. A constant, since a
# counts file records no floor: a loaded model must mix as it was trained.
FLOOR = 0.01


@dataclass
class NgramLm:
    """Jelinek-Mercer interpolated n-gram model that weights its orders
    uniformly, with a uniform floor of weight FLOOR.

    `counts` holds raw n-gram counts for tuple lengths 1..order. Context
    denominators are derived from them, so the distribution over the
    vocabulary sums to 1 exactly: an order whose context was never seen
    contributes a uniform distribution.
    """

    order: int
    vocab_size: int
    counts: dict[Gram, int]
    _ctx: dict[Gram, int] = field(init=False, repr=False)
    _cont: dict[Gram, list[tuple[int, int]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.order <= 5:
            raise ValueError(f"order must be in [1, 5], got {self.order}")
        ctx: dict[Gram, int] = {}
        cont: dict[Gram, list[tuple[int, int]]] = {}
        for gram, count in self.counts.items():
            if count < 1:
                raise ValueError(f"count for {gram} must be >= 1")
            ctx[gram[:-1]] = ctx.get(gram[:-1], 0) + count
            cont.setdefault(gram[:-1], []).append((gram[-1], count))
        self._ctx = ctx
        self._cont = cont

    def _history(self, history: Sequence[int]) -> Gram:
        hist = tuple(history[-(self.order - 1) :]) if self.order > 1 else ()
        if len(hist) < self.order - 1:
            hist = (BOS_ID,) * (self.order - 1 - len(hist)) + hist
        return hist

    def distribution(self, history: Sequence[int]) -> np.ndarray:
        """Probability vector over the vocabulary for the given history."""
        hist = self._history(history)
        dist = np.full(self.vocab_size, FLOOR / self.vocab_size)
        weight = 1.0 / self.order
        for j in range(1, self.order + 1):
            ctx = hist[len(hist) - (j - 1) :]
            denom = self._ctx.get(ctx, 0)
            scale = (1.0 - FLOOR) * weight
            if denom == 0:
                dist += scale / self.vocab_size
            else:
                for token, count in self._cont[ctx]:
                    dist[token] += scale * count / denom
        return dist


def lm_train(corpus: Sequence[Sentence], order: int, vocab_size: int) -> NgramLm:
    """Count BOS-padded n-grams of every order up to `order` over the corpus.

    Sentence tokens are the prediction targets; no EOS event is added.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in [1, 5], got {order}")
    counts: dict[Gram, int] = {}
    for sent in corpus:
        seq = (BOS_ID,) * (order - 1) + tuple(sent.token_ids)
        for i in range(order - 1, len(seq)):
            for j in range(1, order + 1):
                gram = seq[i - j + 1 : i + 1]
                counts[gram] = counts.get(gram, 0) + 1
    return NgramLm(order, vocab_size, counts)


def lm_interpolate(
    general: NgramLm, domain: NgramLm, lambda_domain: float
) -> Callable[[Sequence[int]], np.ndarray]:
    """Probability function mixing a domain LM into a general one:
    p = lambda * p_domain + (1 - lambda) * p_general."""
    if not 0.0 <= lambda_domain <= 1.0:
        raise ValueError("lambda_domain must be in [0, 1]")
    if general.vocab_size != domain.vocab_size:
        raise ValueError(
            f"vocabulary mismatch: {general.vocab_size} vs {domain.vocab_size}"
        )

    def interpolated(history: Sequence[int]) -> np.ndarray:
        return lambda_domain * domain.distribution(history) + (
            1.0 - lambda_domain
        ) * general.distribution(history)

    return interpolated


def sentence_ngrams(sent: Sentence, n: int) -> list[Gram]:
    ids = sent.token_ids
    return [ids[i : i + n] for i in range(len(ids) - n + 1)]


def build_seed_ngrams(seed: Sequence[Sentence], max_order: int) -> dict[int, set[Gram]]:
    """Per-order n-gram sets of a seed corpus, for overlap scoring."""
    sets: dict[int, set[Gram]] = {n: set() for n in range(1, max_order + 1)}
    for sent in seed:
        for n in range(1, max_order + 1):
            sets[n].update(sentence_ngrams(sent, n))
    return sets


def overlap_score(
    candidate: Sentence, seed_ngrams: dict[int, set[Gram]], max_order: int
) -> float:
    """Fraction of the candidate's n-grams (orders 1..max_order, counted with
    multiplicity) that appear in the seed sets. Empty candidate scores 0."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    matched = 0
    total = 0
    for n in range(1, max_order + 1):
        grams = sentence_ngrams(candidate, n)
        seed = seed_ngrams.get(n, frozenset())
        matched += sum(1 for g in grams if g in seed)
        total += len(grams)
    return matched / total if total else 0.0


def select_data(
    pool: ParallelCorpus, seed: Sequence[Sentence], max_order: int, top_k: int
) -> ParallelCorpus:
    """Top-k pool pairs by n-gram overlap of the source side with the seed,
    descending; ties keep original pool order."""
    if not 0 <= top_k <= len(pool):
        raise ValueError(f"top_k must be in [0, {len(pool)}], the pool size; got {top_k}")
    seed_sets = build_seed_ngrams(seed, max_order)
    scored = sorted(
        range(len(pool.pairs)),
        key=lambda i: (-overlap_score(pool.pairs[i].source, seed_sets, max_order), i),
    )
    return ParallelCorpus(tuple(pool.pairs[i] for i in scored[:top_k]))


HEADER_PREFIX = "NGRAM-COUNTS v1 order="


def save_ngram_counts(lm: NgramLm, vocab: Vocab, path: str | Path) -> None:
    """Plain-text counts listing: header, then `count<TAB>tok1 tok2 ...`,
    sorted by gram length then token strings."""
    lines = [f"{HEADER_PREFIX}{lm.order}"]
    rendered = [
        (len(gram), tuple(vocab.decode(gram)), count)
        for gram, count in lm.counts.items()
    ]
    for _, toks, count in sorted(rendered):
        lines.append(f"{count}\t{' '.join(toks)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_ngram_counts(path: str | Path, vocab: Vocab) -> NgramLm:
    """Load a counts listing written by save_ngram_counts. A malformed
    line (not two tab-separated fields, a count that is not an integer
    in [1, 2**63), an order outside [1, 5]), a token not in the vocabulary (a
    literal <unk> is in it) or a gram listed twice is an error naming the
    file and the line."""
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith(HEADER_PREFIX):
        raise ValueError(f"{path}: missing NGRAM-COUNTS header")
    order = _line_int(path, 1, "order", lines[0][len(HEADER_PREFIX) :])
    if not 1 <= order <= 5:
        raise ValueError(f"{path}: line 1: order must be in [1, 5], got {order}")
    counts: dict[Gram, int] = {}
    for n, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(
                f"{path}: line {n}: expected count<TAB>tokens, got {len(fields)} tab-separated fields"
            )
        count_str, toks = fields
        count = _line_int(path, n, "count", count_str)
        if count < 1:
            raise ValueError(f"{path}: line {n}: count must be >= 1, got {count}")
        if count >= 2**63:  # distribution() would overflow a float
            raise ValueError(f"{path}: line {n}: count must be < 2**63, got {count}")
        gram = tuple(vocab.encode(toks.split(" ")))
        for tok, i in zip(toks.split(" "), gram):
            if i == UNK_ID and tok != vocab.tokens[UNK_ID]:
                raise ValueError(f"{path}: line {n}: token {tok!r} is not in the vocabulary")
        if gram in counts:
            raise ValueError(f"{path}: line {n}: gram {toks!r} is listed twice")
        counts[gram] = count
    return NgramLm(order, len(vocab), counts)


def _line_int(path: str | Path, lineno: int, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: {what} {text!r} is not an integer") from None
