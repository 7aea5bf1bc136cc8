"""Corpus-level BLEU and word error rate."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

Tokens = Sequence[Hashable]


@dataclass(frozen=True)
class BleuReport:
    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# One segment's BLEU statistics: clipped matches for orders 1-4, candidate
# totals for orders 1-4, hypothesis length and reference length. Integers,
# so any subset sums exactly.
SegmentStats = tuple[int, ...]


def segment_stats(hyp_lists: Sequence[Sequence[Tokens]], refs: Sequence[Tokens]) -> list[list[SegmentStats]]:
    """Each hypothesis list's per-segment statistics against `refs`. Each
    reference's n-grams are counted once, whatever the number of lists, and
    a hypothesis repeated across the lists at one segment once."""
    for hyps in hyp_lists:
        if len(hyps) != len(refs):
            raise ValueError(f"segment count mismatch: {len(hyps)} vs {len(refs)}")
    out: list[list[SegmentStats]] = [[] for _ in hyp_lists]
    for i, ref in enumerate(refs):
        ref_counts = [_ngram_counts(ref, n) for n in range(1, 5)]
        seen: dict[tuple, SegmentStats] = {}
        for hyps, stats in zip(hyp_lists, out):
            hyp = tuple(hyps[i])
            if hyp not in seen:
                matches = tuple(
                    sum(min(count, ref_counts[n - 1][gram]) for gram, count in _ngram_counts(hyp, n).items())
                    for n in range(1, 5)
                )
                totals = tuple(max(len(hyp) - n + 1, 0) for n in range(1, 5))
                seen[hyp] = matches + totals + (len(hyp), len(ref))
            stats.append(seen[hyp])
    return out


def bleu_from_stats(stats: Sequence[SegmentStats]) -> BleuReport:
    """Corpus BLEU-4 of the segments whose statistics are given: clipped
    n-gram precision pooled over them, geometric mean over orders 1-4,
    brevity penalty, no smoothing. The pooled counts are integer sums, so
    any subset of a corpus's statistics scores as bleu of that subset does,
    bit for bit.

    Any order with zero matches (or zero candidates) makes the score 0.
    """
    if not stats:
        raise ValueError("at least one segment is required")
    pooled = [sum(column) for column in zip(*stats)]
    matches, totals, (hyp_len, ref_len) = pooled[:4], pooled[4:8], pooled[8:]
    precisions = tuple(
        matches[i] / totals[i] if totals[i] > 0 else 0.0 for i in range(4)
    )
    if hyp_len == 0:
        return BleuReport(0.0, precisions, 0.0, hyp_len, ref_len)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return BleuReport(score, precisions, bp, hyp_len, ref_len)


def bleu(hyps: Sequence[Tokens], refs: Sequence[Tokens]) -> BleuReport:
    """Corpus BLEU-4 of hypotheses against references: bleu_from_stats of
    their per-segment statistics."""
    return bleu_from_stats(segment_stats([hyps], refs)[0])


def edit_distance(a: Tokens, b: Tokens) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        cur = [i]
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def wer(hyp: Tokens, ref: Tokens) -> float:
    """Edit distance divided by reference length."""
    if len(ref) == 0:
        raise ValueError("reference must be non-empty")
    return edit_distance(hyp, ref) / len(ref)


def corpus_wer(hyps: Sequence[Tokens], refs: Sequence[Tokens]) -> float:
    """Total edits over total reference length."""
    if len(hyps) != len(refs):
        raise ValueError(f"segment count mismatch: {len(hyps)} vs {len(refs)}")
    if not refs:
        raise ValueError("at least one segment is required")
    total_ref = sum(len(r) for r in refs)
    if total_ref == 0:
        raise ValueError("references must be non-empty")
    total_edits = sum(edit_distance(h, r) for h, r in zip(hyps, refs))
    return total_edits / total_ref
