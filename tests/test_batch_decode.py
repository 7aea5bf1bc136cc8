"""Property tests of lockstep decoding: beam_decode_batch over a list of
sources equals beam_decode of each source, bit for bit, whatever the block
size, store kind, exclusion, ensemble, fusion, beam or length cap."""

from dataclasses import replace
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
from knnmt.metrics import bleu
from knnmt.ngram import lm_train
from knnmt.pipeline import LeaveOneOutReport, TalkResult, diversify, leave_one_out_eval
from knnmt.refmodel import RefModel, TrainConfig, init_params, train
from helpers import CopyModel, StepCounter, random_corpus

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
        div_one = diversify(corpus, models[0], models[1], beam=2)
    assert grid_search(models[0], stores["exact"][0], dev, T_grid=(10.0,), w_grid=(0.3, 0.6)) == one
    assert leave_one_out_eval(models[0], corpus, DecodeConfig(beam=2), [stores["exact"][0]]) == loo_one
    assert diversify(corpus, models[0], models[1], beam=2) == div_one


def test_copy_model_block_reproduces_sources():
    sources = [Sentence(tuple(range(4, 4 + n))) for n in (1, 9, 3, 12, 2)]
    got = beam_decode_batch(CopyModel(20), None, sources, DecodeConfig(w=0.0, beam=3))
    assert [tuple(hyp) for hyp, _ in got] == [s.token_ids for s in sources]
    assert all(score == 0.0 for _, score in got)


def test_copies_of_a_source_take_one_copys_steps():
    _, models, stores, _ = setup()
    source = Sentence((5, 9, 3, 12))
    cfg = DecodeConfig(k=3, w=0.3, beam=4)
    for store in (None, stores["exact"][0]):
        one = StepCounter(models[0])
        want = beam_decode_batch(one, store, [source], cfg)
        for n in (2, 5):
            many = StepCounter(models[0])
            got = beam_decode_batch(many, store, [source] * n, cfg)
            assert got == want * n and many.steps == one.steps
            assert len({id(hyp) for hyp, _ in got}) == n  # a copy per position, not one shared list


def test_source_repeated_across_blocks_is_decoded_once():
    _, models, stores, _ = setup()
    a, b, c = Sentence((5, 9)), Sentence((7,)), Sentence((4, 4, 11))
    cfg = DecodeConfig(k=3, w=0.3, beam=2)
    once = StepCounter(models[0])
    want = [beam_decode(once, stores["exact"][0], src, cfg) for src in (a, b, c)]
    counter = StepCounter(models[0])
    with mock.patch.object(knnmt.decode, "_DECODE_BLOCK", 2):
        got = beam_decode_batch(counter, stores["exact"][0], [a, b, c, a, b], cfg)
    assert got == [want[0], want[1], want[2], want[0], want[1]]
    assert counter.steps == once.steps


@pytest.mark.parametrize("kind", ["exact", "ivf"])
@pytest.mark.parametrize("n_models", [1, 2])
def test_grid_cells_equal_per_cell_decodes(kind, n_models):
    """A grid with a repeated T, a w=0 column and a repeated dev source
    decodes each cell as a decode at that cell's config would, bit for bit."""
    corpus, models, stores, _ = setup()
    models, stores = models[:n_models], stores[kind][:n_models]
    dev = [(p.source, p.target) for p in corpus.pairs[::4]] + [(corpus.pairs[0].source, corpus.pairs[0].target)]
    sources, refs = [src for src, _ in dev], [list(tgt.token_ids) for _, tgt in dev]
    base = DecodeConfig(k=3, beam=2, exclude_talk=1)
    T_grid, w_grid = (10.0, 50.0, 10.0), (0.0, 0.3, 0.7)
    cells = [replace(base, T=T, w=w) for T in T_grid for w in w_grid]
    want = [beam_decode_batch(models, stores, sources, cfg) for cfg in cells]
    with mock.patch.object(knnmt.decode, "_DECODE_BLOCK", 5):
        got = knnmt.decode._decode_cells(models, stores, sources, cells)
        result = grid_search(models, stores, dev, T_grid, w_grid, base)
    assert got == want
    assert [[np.float64(s).tobytes() for _, s in cell] for cell in got] == [
        [np.float64(s).tobytes() for _, s in cell] for cell in want
    ]
    assert result.rows == tuple((cfg.T, cfg.w, bleu([h for h, _ in hyps], refs).bleu) for cfg, hyps in zip(cells, want))


def test_grid_steps_a_row_once_for_all_cells(monkeypatch):
    # with w = 0 every cell decodes alike, so the grid takes one cell's steps
    # and no search
    corpus, models, stores, _ = setup()
    dev = [(p.source, p.target) for p in corpus.pairs[:10]]
    one = StepCounter(models[0])
    beam_decode_batch(one, None, [src for src, _ in dev], DecodeConfig(w=0.0))
    grid = StepCounter(models[0])
    monkeypatch.setattr(type(stores["exact"][0]), "search_batch_rows", None)
    grid_search(grid, stores["exact"][0], dev, T_grid=(10.0, 50.0, 100.0), w_grid=(0.0,))
    assert grid.steps == one.steps


def test_leave_one_out_equals_the_per_talk_two_arm_loop():
    corpus, models, stores, _ = setup()
    # talks interleaved, and one source repeated in another talk
    pairs = corpus.pairs[::2] + corpus.pairs[1::2] + (replace(corpus.pairs[0], talk_id=3),)
    talkset = ParallelCorpus(pairs)
    store = build(models[0], talkset)
    cfg = DecodeConfig(k=4, beam=2)
    per_talk, hyps_knn, hyps_base, refs = [], [], [], []
    for talk in talkset.talk_ids():
        group = [p for p in talkset.pairs if p.talk_id == talk]
        sources = [p.source for p in group]
        knn = [h for h, _ in beam_decode_batch(models[0], store, sources, replace(cfg, exclude_talk=talk))]
        base = [h for h, _ in beam_decode_batch(models[0], None, sources, cfg)]
        ref = [list(p.target.token_ids) for p in group]
        per_talk.append(TalkResult(talk, bleu(knn, ref).bleu, bleu(base, ref).bleu))
        hyps_knn, hyps_base, refs = hyps_knn + knn, hyps_base + base, refs + ref
    want = LeaveOneOutReport(
        tuple(per_talk), bleu(hyps_knn, refs).bleu, bleu(hyps_base, refs).bleu,
        tuple(map(tuple, hyps_knn)), tuple(map(tuple, hyps_base)), tuple(map(tuple, refs)),
    )
    assert leave_one_out_eval(models[0], talkset, cfg, [store]) == want
