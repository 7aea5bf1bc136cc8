"""Property tests of lockstep decoding: beam_decode_batch over a list of
sources equals beam_decode of each source, bit for bit, whatever the block
size, store kind, exclusion, ensemble, fusion, beam or length cap."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnmt.decode
from knnmt.core import ParallelCorpus, Sentence
from knnmt.datastore import build, train_ivf
from knnmt.decode import DecodeConfig, beam_decode, beam_decode_batch, grid_search
from knnmt.ngram import lm_train
from knnmt.pipeline import DiversifyConfig, diversify, leave_one_out_eval
from knnmt.refmodel import RefModel, TrainConfig, init_params, train
from helpers import CopyModel, random_corpus

VOCAB = 16


@lru_cache(maxsize=None)
def setup():
    """Two trained models over four talks, an exact store and an IVF-indexed
    store per model, and a bigram LM."""
    corpus = ParallelCorpus(tuple(
        p for talk in range(4) for p in random_corpus(talk, 12, VOCAB, 1, 8, identity=talk % 2 == 0, talk_id=talk).pairs
    ))
    models = []
    for seed in (1, 2):
        model = RefModel(init_params(VOCAB, 12, 16, seed))
        train(model, corpus, TrainConfig(learning_rate=1.0, epochs=20, seed=seed))
        models.append(model)
    exact = [build(m, corpus) for m in models]
    ivf = [build(m, corpus) for m in models]
    for store in ivf:
        store.index = train_ivf(store, 6, iterations=4, seed=0, nprobe=2)
    lm = lm_train([p.target for p in corpus.pairs], 2, VOCAB).distribution
    return corpus, models, {"none": [None, None], "exact": exact, "ivf": ivf}, lm


@st.composite
def decode_cases(draw):
    """A block of sources that mixes one-token and long sentences (repeats
    included), a store kind, a config and a block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.sampled_from([1, 2, 5, 11]), min_size=1, max_size=11))
    sources = [Sentence(tuple(int(t) for t in rng.integers(3, VOCAB, size=n))) for n in lengths]
    if len(sources) > 1 and draw(st.booleans()):
        sources.append(sources[0])
    cfg = DecodeConfig(
        k=draw(st.sampled_from([1, 3, 8, 300])),
        T=draw(st.sampled_from([1.0, 50.0])),
        w=draw(st.sampled_from([0.0, 0.3, 1.0])),
        beam=draw(st.sampled_from([1, 2, 4, 8])),
        max_len=draw(st.sampled_from([None, None, 1, 3])),
        fusion_alpha=draw(st.sampled_from([0.0, 0.0, 0.7])),
        exclude_talk=draw(st.sampled_from([None, 0, 2, 9])),
    )
    return (
        sources,
        cfg,
        draw(st.sampled_from(["none", "exact", "ivf"])),
        draw(st.sampled_from([1, 2])),  # models
        draw(st.booleans()),  # LM given
        draw(st.sampled_from([1, 3, 8])),  # block size
    )


@settings(max_examples=80, deadline=None)
@given(decode_cases())
def test_batch_equals_one_sentence_at_a_time(case):
    sources, cfg, kind, n_models, with_lm, block = case
    _, models, stores, lm = setup()
    models, stores = models[:n_models], stores[kind][:n_models]
    lm = lm if with_lm else None
    want = [beam_decode(models, stores, src, cfg, lm=lm) for src in sources]
    with mock.patch.object(knnmt.decode, "_DECODE_BLOCK", block):
        got = beam_decode_batch(models, stores, sources, cfg, lm=lm)
    assert got == want
    # the same float bits, not only equal values (a -0.0 would pass ==)
    assert [np.float64(s).tobytes() for _, s in got] == [np.float64(s).tobytes() for _, s in want]


def test_fusion_reads_each_rows_own_history():
    # sixteen sources make two full blocks whose rows' histories all differ
    corpus, models, _, lm = setup()
    sources = [p.source for p in corpus.pairs[:16]]
    cfg = DecodeConfig(w=0.0, fusion_alpha=0.7)
    want = [beam_decode(models[0], None, src, cfg, lm=lm) for src in sources]
    assert beam_decode_batch(models[0], None, sources, cfg, lm=lm) == want


def test_one_search_per_store_and_step(monkeypatch):
    """A block of eight one-token sources takes one search per step, and
    every live hypothesis of the block is among its queries."""
    _, models, stores, _ = setup()
    sources = [Sentence((5 + i,)) for i in range(8)]
    cfg = DecodeConfig(k=4, w=0.3, beam=2, max_len=3)
    calls = []
    search = type(stores["exact"][0]).search_batch_rows

    def spy(self, queries, k, exclude_talk=None):
        calls.append(len(queries))
        return search(self, queries, k, exclude_talk)

    monkeypatch.setattr(type(stores["exact"][0]), "search_batch_rows", spy)
    beam_decode_batch(models[0], stores["exact"][0], sources, cfg)
    assert len(calls) <= 3 and calls[0] == 8
    assert all(n <= 16 for n in calls)


def test_empty_block_and_empty_source():
    _, models, _, _ = setup()
    assert beam_decode_batch(models[0], None, [], DecodeConfig()) == []
    with pytest.raises(ValueError, match="empty source"):
        beam_decode_batch(models[0], None, [Sentence((4,)), Sentence(())], DecodeConfig())


def test_callers_equal_per_sentence_decoding():
    """grid_search, leave_one_out_eval and diversify decode through blocks,
    and their results equal those of per-sentence decoding."""
    corpus, models, stores, _ = setup()
    dev = [(p.source, p.target) for p in corpus.pairs[:10]]
    with mock.patch.object(knnmt.decode, "_DECODE_BLOCK", 1):
        one = grid_search(models[0], stores["exact"][0], dev, T_grid=(10.0,), w_grid=(0.3, 0.6))
        loo_one = leave_one_out_eval(models[0], corpus, DecodeConfig(beam=2), [stores["exact"][0]])
        div_one = diversify(corpus, models[0], models[1], DiversifyConfig(beam=2))
    assert grid_search(models[0], stores["exact"][0], dev, T_grid=(10.0,), w_grid=(0.3, 0.6)) == one
    assert leave_one_out_eval(models[0], corpus, DecodeConfig(beam=2), [stores["exact"][0]]) == loo_one
    assert diversify(corpus, models[0], models[1], DiversifyConfig(beam=2)) == div_one


def test_copy_model_block_reproduces_sources():
    sources = [Sentence(tuple(range(4, 4 + n))) for n in (1, 9, 3, 12, 2)]
    got = beam_decode_batch(CopyModel(20), None, sources, DecodeConfig(w=0.0, beam=3))
    assert [tuple(hyp) for hyp, _ in got] == [s.token_ids for s in sources]
    assert all(score == 0.0 for _, score in got)
