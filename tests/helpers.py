"""Shared test utilities: a perfect copy model, a step-counting wrapper,
small corpus builders and the brute-force search oracle."""

import numpy as np

from knnmt.core import EOS_ID, ParallelCorpus, Sentence, SentencePair
from knnmt.refmodel import StepModel


class CopyModel(StepModel):
    """Deterministic model that emits the source tokens in order, then EOS,
    each with probability 1. Useful as a known-perfect translator."""

    def __init__(self, vocab_size: int, dim: int = 4):
        self.n_tokens = vocab_size
        self.dim = dim

    def hidden_dim(self) -> int:
        return self.dim

    def vocab_size(self) -> int:
        return self.n_tokens

    def encode(self, source: Sentence):
        return tuple(source.token_ids)

    def initial_state(self):
        return 0

    def step(self, context, state, prev_token):
        token = context[state] if state < len(context) else EOS_ID
        dist = np.zeros(self.n_tokens)
        dist[token] = 1.0
        hidden = np.zeros(self.dim)
        hidden[0] = float(state)
        return hidden, dist, state + 1


class StepCounter(StepModel):
    """Another model, unchanged, with a count of its `step` calls."""

    def __init__(self, model: StepModel):
        self.model = model
        self.steps = 0

    def hidden_dim(self) -> int:
        return self.model.hidden_dim()

    def vocab_size(self) -> int:
        return self.model.vocab_size()

    def encode(self, source: Sentence):
        return self.model.encode(source)

    def initial_state(self):
        return self.model.initial_state()

    def step(self, context, state, prev_token):
        self.steps += 1
        return self.model.step(context, state, prev_token)


def make_corpus(rows, domain="general", talk_id=0) -> ParallelCorpus:
    """rows: list of (source_ids, target_ids) tuples."""
    pairs = tuple(
        SentencePair(
            source=Sentence(tuple(src)),
            target=Sentence(tuple(tgt)),
            domain=domain,
            talk_id=talk_id,
        )
        for src, tgt in rows
    )
    return ParallelCorpus(pairs)


def random_corpus(
    seed: int,
    n_pairs: int,
    vocab_size: int,
    min_len: int = 2,
    max_len: int = 5,
    identity: bool = False,
    talk_id: int = 0,
) -> ParallelCorpus:
    """Random sentence pairs over ids [4, vocab_size); identity=True makes
    target == source (a copy task)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_pairs):
        n = int(rng.integers(min_len, max_len + 1))
        src = [int(x) for x in rng.integers(4, vocab_size, size=n)]
        if identity:
            tgt = list(src)
        else:
            m = int(rng.integers(min_len, max_len + 1))
            tgt = [int(x) for x in rng.integers(4, vocab_size, size=m)]
        rows.append((src, tgt))
    return make_corpus(rows, talk_id=talk_id)


def scan_rows(ds, Q, k, exclude_talk=None):
    """Brute force over every row: each query's float32 distance to every
    eligible row, (distance, row) ascending, the first k, as (B, take)
    arrays of rows and distances."""
    rows, dists = [], []
    for q in Q:
        diff = ds.keys - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        keep = np.flatnonzero(ds.talk_ids != exclude_talk)
        order = keep[np.lexsort((keep, d2[keep]))][:k]
        rows.append(order)
        dists.append(d2[order])
    return np.array(rows), np.array(dists)
