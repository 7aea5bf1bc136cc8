import math
from dataclasses import replace

import numpy as np
import pytest

import knnmt.decode
from knnmt.core import EOS_ID, BOS_ID, Sentence
from knnmt.datastore import Datastore, Neighbor, build
from knnmt.decode import (
    DecodeConfig,
    beam_decode,
    beam_decode_batch,
    fuse_lm,
    grid_search,
    interpolate,
    knn_distribution,
)
from knnmt.metrics import segment_stats
from knnmt.refmodel import RefModel, TrainConfig, init_params, train
from helpers import random_corpus


def nb(value, distance, index=0, talk_id=0):
    return Neighbor(index=index, distance=distance, value=value, talk_id=talk_id)


class TestKnnDistribution:
    def test_single_neighbor(self):
        dist = knn_distribution([nb(5, 2.0)], T=50.0, vocab_size=8)
        assert dist[5] == 1.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unanimous_neighbors_any_distances(self):
        neighbors = [nb(5, d) for d in (0.0, 1.0, 9.0, 40.0)]
        dist = knn_distribution(neighbors, T=10.0, vocab_size=8)
        assert dist[5] == pytest.approx(1.0, abs=1e-12)

    def test_two_thirds_one_third_hand_case(self):
        # d=0 vs d=T*ln2: weights 1 and 0.5
        T = 50.0
        dist = knn_distribution([nb(4, 0.0), nb(5, T * math.log(2))], T=T, vocab_size=8)
        assert dist[4] == pytest.approx(2 / 3, abs=1e-9)
        assert dist[5] == pytest.approx(1 / 3, abs=1e-9)

    def test_empty_neighbors_signal_no_retrieval(self):
        assert knn_distribution([], T=50.0, vocab_size=8) is None

    def test_token_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            knn_distribution([nb(2, 0.0), nb(8, 1.0)], T=10.0, vocab_size=8)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            neighbors = [
                nb(int(v), float(d))
                for v, d in zip(rng.integers(0, 8, size=6), rng.uniform(0, 30, size=6))
            ]
            shifted = [
                Neighbor(n.index, n.distance + 17.5, n.value, n.talk_id)
                for n in neighbors
            ]
            a = knn_distribution(neighbors, T=10.0, vocab_size=8)
            b = knn_distribution(shifted, T=10.0, vocab_size=8)
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_same_token_weights_accumulate(self):
        # two entries for token 4 at the min distance vs one for token 5
        T = 10.0
        dist = knn_distribution([nb(4, 0.0), nb(4, 0.0), nb(5, 0.0)], T=T, vocab_size=8)
        assert dist[4] == pytest.approx(2 / 3, abs=1e-12)


class TestInterpolate:
    def test_w_zero_is_model_exactly(self):
        rng = np.random.default_rng(1)
        p_model = rng.dirichlet(np.ones(8))
        p_knn = rng.dirichlet(np.ones(8))
        assert np.abs(interpolate(p_model, p_knn, 0.0) - p_model).max() < 1e-12

    def test_w_one_is_knn_exactly(self):
        rng = np.random.default_rng(2)
        p_model = rng.dirichlet(np.ones(8))
        p_knn = rng.dirichlet(np.ones(8))
        assert np.abs(interpolate(p_model, p_knn, 1.0) - p_knn).max() < 1e-12

    def test_hand_case(self):
        out = interpolate(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.3)
        np.testing.assert_allclose(out, [0.65, 0.35], atol=1e-12)

    def test_sums_to_one_across_w_sweep(self):
        rng = np.random.default_rng(3)
        p_model = rng.dirichlet(np.ones(12))
        p_knn = rng.dirichlet(np.ones(12))
        for w in np.linspace(0.0, 1.0, 100):
            assert abs(interpolate(p_model, p_knn, float(w)).sum() - 1.0) < 1e-9

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolate(np.ones(3) / 3, np.ones(4) / 4, 0.5)


class TestFuseLm:
    def test_alpha_zero_is_identity(self):
        p = np.array([0.7, 0.2, 0.1])
        np.testing.assert_array_equal(fuse_lm(p, np.array([0.1, 0.1, 0.8]), 0.0), p)

    def test_uniform_base_with_alpha_one_returns_lm(self):
        p_lm = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(fuse_lm(np.ones(3) / 3, p_lm, 1.0), p_lm, atol=1e-12)

    def test_uniform_lm_is_neutral(self):
        p = np.array([0.8, 0.2])
        np.testing.assert_allclose(fuse_lm(p, np.array([0.5, 0.5]), 1.0), p, atol=1e-12)

    def test_output_normalized(self):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(6))
        p_lm = rng.dirichlet(np.ones(6))
        for alpha in (0.3, 1.0, 2.5):
            assert abs(fuse_lm(p, p_lm, alpha).sum() - 1.0) < 1e-12


@pytest.fixture(scope="module")
def trained():
    corpus = random_corpus(0, 20, 14)
    model = RefModel(init_params(14, seed=0))
    train(model, corpus, TrainConfig(learning_rate=1.0, epochs=15, seed=0))
    return model, corpus


class TestBeamDecode:

    def test_beam_one_without_retrieval_is_greedy(self, trained):
        model, corpus = trained
        src = corpus.pairs[0].source
        hyp, _ = beam_decode(model, None, src, DecodeConfig(w=0.0, beam=1))

        ctx = model.encode(src)
        state = model.initial_state()
        prev = BOS_ID
        greedy = []
        for _ in range(2 * len(src.token_ids) + 8):
            _, dist, state = model.step(ctx, state, prev)
            prev = int(dist.argmax())
            if prev == EOS_ID:
                break
            greedy.append(prev)
        assert hyp == greedy

    def test_self_ensemble_matches_single_model(self, trained):
        model, corpus = trained
        cfg = DecodeConfig(w=0.0, beam=4)
        for pair in corpus.pairs[:5]:
            single = beam_decode(model, None, pair.source, cfg)
            double = beam_decode([model, model], None, pair.source, cfg)
            assert double[0] == single[0]
            assert double[1] == pytest.approx(single[1], abs=1e-12)

    def test_retrieval_off_ignores_datastore_byte_identically(self, trained):
        model, corpus = trained
        ds = build(model, corpus)
        cfg = DecodeConfig(w=0.0, beam=4)
        for pair in corpus.pairs[:5]:
            with_store = beam_decode(model, ds, pair.source, cfg)
            without = beam_decode(model, None, pair.source, cfg)
            assert with_store[0] == without[0]
            assert with_store[1] == without[1]  # same float, not just close

    def test_beam_never_scores_below_greedy_on_trained_models(self):
        # length-normalized score monotonicity, checked in the regime that
        # matters: converged models with peaked distributions
        for seed in range(20):
            corpus = random_corpus(seed, 20, 14)
            model = RefModel(init_params(14, seed=seed))
            train(model, corpus, TrainConfig(learning_rate=1.0, epochs=15, seed=seed))
            src = corpus.pairs[0].source
            _, s1 = beam_decode(model, None, src, DecodeConfig(w=0.0, beam=1))
            _, s4 = beam_decode(model, None, src, DecodeConfig(w=0.0, beam=4))
            assert s4 >= s1 - 1e-9, f"seed {seed}: beam 4 {s4} < beam 1 {s1}"

    def test_copy_task_with_retrieval_reproduces_sources(self):
        corpus = random_corpus(0, 30, 16, identity=True)
        model = RefModel(init_params(16, seed=1))
        train(model, corpus, TrainConfig(learning_rate=1.0, epochs=80, seed=0))
        store = build(model, corpus)
        cfg = DecodeConfig(k=8, T=50.0, w=0.3, beam=4)
        for pair in corpus.pairs:
            hyp, _ = beam_decode(model, store, pair.source, cfg)
            assert tuple(hyp) == pair.source.token_ids

    def test_deterministic(self, trained):
        model, corpus = trained
        src = corpus.pairs[2].source
        cfg = DecodeConfig(w=0.0, beam=4)
        assert beam_decode(model, None, src, cfg) == beam_decode(model, None, src, cfg)

    def test_max_len_caps_hypothesis(self, trained):
        model, corpus = trained
        hyp, _ = beam_decode(
            model, None, corpus.pairs[0].source, DecodeConfig(w=0.0, beam=2, max_len=3)
        )
        assert len(hyp) <= 3

    def test_empty_source_rejected(self, trained):
        model, _ = trained
        with pytest.raises(ValueError):
            beam_decode(model, None, Sentence(()), DecodeConfig())

    def test_datastore_count_mismatch_rejected(self, trained):
        model, corpus = trained
        ds = build(model, corpus)
        with pytest.raises(ValueError):
            beam_decode([model, model], [ds], corpus.pairs[0].source, DecodeConfig())

    def test_datastore_dim_mismatch_rejected(self, trained):
        model, corpus = trained
        bad = Datastore(
            dim=8,
            keys=np.zeros((4, 8), dtype=np.float32),
            values=np.zeros(4, dtype=np.uint32),
            talk_ids=np.zeros(4, dtype=np.uint32),
        )
        with pytest.raises(ValueError):
            beam_decode(model, bad, corpus.pairs[0].source, DecodeConfig(w=0.3))


    def test_datastore_value_outside_vocabulary_rejected(self, trained):
        model, corpus = trained
        ds = build(model, corpus)
        ds.values = np.full(len(ds), 14, dtype=np.uint32)  # vocabulary has 14 ids
        for beam in (1, 4):
            with pytest.raises(ValueError, match="vocabulary"):
                beam_decode(model, ds, corpus.pairs[0].source, DecodeConfig(w=0.3, beam=beam))

    def test_value_outside_vocabulary_refused_before_the_first_step(self, trained, monkeypatch):
        model, corpus = trained
        ds = build(model, corpus)
        ds.values = ds.values.copy()
        ds.values[-1] = 14  # vocabulary has 14 ids
        steps, step = [], model.step
        monkeypatch.setattr(model, "step", lambda *args: steps.append(args) or step(*args))
        with pytest.raises(ValueError, match="datastore token id 14 is outside the vocabulary of 14"):
            beam_decode_batch(model, ds, [p.source for p in corpus.pairs[:3]], DecodeConfig(w=0.3))
        assert steps == []

    def test_empty_store_decodes_as_plain(self, trained):
        model, corpus = trained
        empty = Datastore(
            dim=model.hidden_dim(),
            keys=np.zeros((0, model.hidden_dim()), dtype=np.float32),
            values=np.zeros(0, dtype=np.uint32),
            talk_ids=np.zeros(0, dtype=np.uint32),
        )
        sources = [p.source for p in corpus.pairs[:3]]
        cfg = DecodeConfig(w=0.3)
        assert beam_decode_batch(model, empty, sources, cfg) == beam_decode_batch(model, None, sources, cfg)


class TestDecodeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"T": 0.0},
            {"w": -0.1},
            {"w": 1.1},
            {"beam": 0},
            {"fusion_alpha": -1.0},
            {"exclude_talk": -1},
            {"exclude_talk": 2**32},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecodeConfig(**kwargs)


@pytest.fixture(scope="module")
def copy_setup():
    corpus = random_corpus(0, 30, 16, identity=True)
    model = RefModel(init_params(16, seed=1))
    train(model, corpus, TrainConfig(learning_rate=1.0, epochs=80, seed=0))
    store = build(model, corpus)
    dev = [(p.source, p.target) for p in corpus.pairs[:10]]
    return model, store, dev


class TestGridSearch:

    def test_default_grid_is_the_published_search_space(self, copy_setup):
        model, store, dev = copy_setup
        result = grid_search(model, store, dev)
        assert [(T, w) for T, w, _ in result.rows] == [
            (T, w) for T in (10.0, 50.0, 100.0) for w in (0.1, 0.3, 0.5)
        ]

    def test_w_zero_grid_equals_baseline_everywhere(self, copy_setup):
        model, store, dev = copy_setup
        from knnmt.metrics import bleu

        base_cfg = DecodeConfig(w=0.0, beam=4)
        hyps = [beam_decode(model, None, src, base_cfg)[0] for src, _ in dev]
        baseline = bleu(hyps, [list(t.token_ids) for _, t in dev]).bleu
        result = grid_search(model, store, dev, T_grid=(10.0, 100.0), w_grid=(0.0,))
        assert all(row[2] == pytest.approx(baseline, abs=1e-12) for row in result.rows)

    def test_ties_prefer_smaller_w_then_smaller_T(self, copy_setup):
        # the copy model scores 100 everywhere, so every cell ties
        model, store, dev = copy_setup
        result = grid_search(model, store, dev)
        assert result.best_bleu == 100.0
        assert result.best_w == 0.1
        assert result.best_T == 10.0

    def test_empty_dev_rejected(self, copy_setup):
        model, store, _ = copy_setup
        with pytest.raises(ValueError):
            grid_search(model, store, [])

    def test_empty_grid_rejected(self, copy_setup):
        model, store, dev = copy_setup
        with pytest.raises(ValueError):
            grid_search(model, store, dev, T_grid=())

    def test_cells_take_k_and_beam_from_base(self, copy_setup, monkeypatch):
        # every search the grid makes uses the base k, every beam keeps the
        # base width, and each cell's hypotheses are its own decode's
        model, store, dev = copy_setup
        base = DecodeConfig(k=3, beam=2)
        ks, beams, hyps = [], [], []
        search, advance = Datastore.search_batch_rows, knnmt.decode._Beam.advance

        def spy_search(self, queries, k, exclude_talk=None):
            ks.append(k)
            return search(self, queries, k, exclude_talk)

        def spy_advance(self, scores, states, beam):
            beams.append(beam)
            return advance(self, scores, states, beam)

        def spy_stats(hyp_lists, references):
            hyps.extend(hyp_lists)
            return segment_stats(hyp_lists, references)

        monkeypatch.setattr(Datastore, "search_batch_rows", spy_search)
        monkeypatch.setattr(knnmt.decode._Beam, "advance", spy_advance)
        monkeypatch.setattr(knnmt.decode, "segment_stats", spy_stats)
        grid_search(model, store, dev, T_grid=(10.0, 50.0), w_grid=(0.3,), base=base)
        monkeypatch.undo()
        assert ks and set(ks) == {3}
        assert beams and set(beams) == {2}
        sources = [src for src, _ in dev]
        assert hyps == [
            [hyp for hyp, _ in beam_decode_batch(model, store, sources, replace(base, T=T, w=0.3))] for T in (10.0, 50.0)
        ]
