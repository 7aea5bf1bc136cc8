import itertools
from collections import Counter

import numpy as np
import pytest

import knnmt.pipeline
from knnmt.core import ParallelCorpus, Sentence, SentencePair, build_vocab
from knnmt.decode import DecodeConfig, beam_decode, beam_decode_batch
from knnmt.pipeline import (
    FilterConfig,
    SamplingConfig,
    corrupt_case_punct,
    diversify,
    filter_corpus,
    leave_one_out_eval,
    sample_languages,
    sample_weights,
    upsample,
)
from knnmt.refmodel import RefModel, TrainConfig, init_params, train
from helpers import CopyModel, make_corpus, random_corpus


class TestDiversify:
    @pytest.fixture
    def corpus(self):
        return random_corpus(0, 8, 12)

    def test_output_contains_originals_first(self, corpus):
        copy = CopyModel(12)
        out = diversify(corpus, copy, copy)
        assert out.pairs[: len(corpus.pairs)] == corpus.pairs

    def test_synthetic_pairs_keep_one_original_side(self, corpus):
        copy = CopyModel(12)
        out = diversify(corpus, copy, copy)
        sources = {p.source.token_ids for p in corpus.pairs}
        targets = {p.target.token_ids for p in corpus.pairs}
        for pair in out.pairs[len(corpus.pairs) :]:
            assert pair.source.token_ids in sources or pair.target.token_ids in targets

    def test_no_pair_is_synthetic_on_both_sides(self, corpus):
        # with copy models a both-sides-synthetic pair would pair a source
        # copy with a target copy; every emitted pair must keep an original
        # side verbatim instead
        copy = CopyModel(12)
        out = diversify(corpus, copy, copy)
        for pair in out.pairs:
            original_source = any(
                pair.source.token_ids == p.source.token_ids for p in corpus.pairs
            )
            original_target = any(
                pair.target.token_ids == p.target.token_ids for p in corpus.pairs
            )
            assert original_source or original_target

    def test_perfect_copy_models_on_copy_task_reproduce_input(self):
        corpus = random_corpus(1, 10, 12, identity=True)
        copy = CopyModel(12)
        out = diversify(corpus, copy, copy)
        assert out.pairs == corpus.pairs

    def test_dedup_removes_exact_duplicates(self):
        base = random_corpus(2, 5, 12, identity=True)
        doubled = ParallelCorpus(base.pairs + base.pairs)
        copy = CopyModel(12)
        out = diversify(doubled, copy, copy)
        assert out.pairs == base.pairs
        counts = Counter((p.source.token_ids, p.target.token_ids) for p in out.pairs)
        assert all(c == 1 for c in counts.values())

    def test_each_direction_decoded_once(self, monkeypatch):
        corpus = random_corpus(4, 6, 12)
        copy = CopyModel(12)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return beam_decode_batch(*args, **kwargs)

        monkeypatch.setattr(knnmt.pipeline, "beam_decode_batch", counted)
        diversify(corpus, copy, copy)
        assert len(calls) == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            diversify(ParallelCorpus(()), CopyModel(12), CopyModel(12))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="beam must be >= 1"):
            diversify(random_corpus(3, 4, 12), CopyModel(12), CopyModel(12), beam=0)


class TestSampling:
    def test_tau_one_recovers_raw_shares(self):
        w = sample_weights(SamplingConfig(sizes={"hi": 4, "lo": 1}, tau=1.0))
        assert w == pytest.approx({"hi": 0.8, "lo": 0.2})

    def test_tau_two_square_roots_the_ratio(self):
        w = sample_weights(SamplingConfig(sizes={"hi": 4, "lo": 1}, tau=2.0))
        assert w["hi"] == pytest.approx(2 / 3, abs=1e-12)
        assert w["lo"] == pytest.approx(1 / 3, abs=1e-12)

    def test_equal_sizes_are_uniform_for_any_tau(self):
        for tau in (1.0, 2.0, 5.0):
            w = sample_weights(SamplingConfig(sizes={"a": 7, "b": 7, "c": 7}, tau=tau))
            assert all(v == pytest.approx(1 / 3, abs=1e-12) for v in w.values())

    def test_weights_sum_to_one(self):
        w = sample_weights(SamplingConfig(sizes={"a": 13, "b": 2, "c": 40}, tau=3.0))
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    def test_raising_tau_flattens_the_ratio(self):
        sizes = {"a": 8, "b": 2, "c": 1}
        ratios = []
        for tau in (1.0, 2.0, 4.0):
            w = sample_weights(SamplingConfig(sizes=sizes, tau=tau))
            ratios.append(max(w.values()) / min(w.values()))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_empirical_frequencies_match_weights(self):
        cfg = SamplingConfig(sizes={"hi": 4, "lo": 1}, tau=2.0)
        weights = sample_weights(cfg)
        draws = Counter(sample_languages(cfg, 100_000, seed=7))
        for lang, p in weights.items():
            assert abs(draws[lang] / 100_000 - p) < 0.01

    def test_draws_are_seeded(self):
        cfg = SamplingConfig(sizes={"a": 3, "b": 1}, tau=1.0)
        assert sample_languages(cfg, 50, seed=3) == sample_languages(cfg, 50, seed=3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(sizes={}, tau=1.0)
        with pytest.raises(ValueError):
            SamplingConfig(sizes={"a": 0}, tau=1.0)
        with pytest.raises(ValueError):
            SamplingConfig(sizes={"a": 1}, tau=0.5)


class TestFilter:
    def test_clean_corpus_unchanged(self):
        corpus = random_corpus(5, 10, 12)
        assert filter_corpus(corpus).pairs == corpus.pairs

    def test_ratio_violation_removed(self):
        corpus = make_corpus([([4], [5] * 10), ([4, 5], [6, 7])])
        out = filter_corpus(corpus, FilterConfig(max_ratio=3.0))
        assert out.pairs == corpus.pairs[1:]

    def test_overlong_pair_removed(self):
        corpus = make_corpus([([4] * 30, [5] * 30), ([4], [5])])
        out = filter_corpus(corpus, FilterConfig(max_len=10))
        assert out.pairs == corpus.pairs[1:]

    def test_duplicated_corpus_halves(self):
        base = random_corpus(6, 7, 12)
        doubled = ParallelCorpus(base.pairs + base.pairs)
        assert filter_corpus(doubled).pairs == base.pairs

    def test_idempotent(self):
        corpus = make_corpus(
            [([4], [5] * 10), ([4, 5], [6, 7]), ([4, 5], [6, 7]), ([8] * 300, [9])]
        )
        once = filter_corpus(corpus)
        assert filter_corpus(once).pairs == once.pairs

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(max_ratio=0.5)
        with pytest.raises(ValueError):
            FilterConfig(max_len=0)


class TestCorruptCasePunct:
    def test_hand_case(self):
        assert corrupt_case_punct(["Hello", ",", "world", "."]) == ["hello", "world"]

    def test_clean_input_only_lowercased(self):
        assert corrupt_case_punct(["Already", "clean"]) == ["already", "clean"]

    def test_unicode_punctuation_dropped(self):
        assert corrupt_case_punct(["ok", "¿", "…"]) == ["ok"]

    def test_mixed_tokens_survive(self):
        # a token with letters and punctuation is not pure punctuation
        assert corrupt_case_punct(["don't"]) == ["don't"]

    def test_restoration_model_recovers_case_and_punctuation(self, capsys):
        # train the built-in model to invert the corruption on a small
        # fixed corpus, then score token F1 over the case and punctuation
        # carrying tokens
        words = ["alpha", "beta", "gamma", "delta", "echo", "foxtrot", "golf", "hotel"]
        combos = list(itertools.combinations(range(8), 3))
        rng = np.random.default_rng(5)
        picks = rng.choice(len(combos), size=24, replace=False)
        cased = [
            [words[a].capitalize(), words[b], ",", words[c], "."]
            for a, b, c in (combos[i] for i in picks)
        ]
        tokens = [t for s in cased for t in s] + [
            t for s in cased for t in corrupt_case_punct(s)
        ]
        vocab = build_vocab([tokens], max_size=40)
        pairs = tuple(
            SentencePair(
                source=Sentence(tuple(vocab.encode(corrupt_case_punct(s)))),
                target=Sentence(tuple(vocab.encode(s))),
                domain="general",
                talk_id=0,
            )
            for s in cased
        )
        corpus = ParallelCorpus(pairs)
        model = RefModel(init_params(len(vocab.tokens), seed=2))
        train(model, corpus, TrainConfig(learning_rate=1.0, epochs=120, seed=0))

        def relevant(toks):
            out = Counter()
            for t in toks:
                if t != t.lower() or all(not c.isalnum() for c in t):
                    out[t] += 1
            return out

        matched = hyp_total = ref_total = 0
        cfg = DecodeConfig(w=0.0, beam=4)
        for pair in corpus.pairs:
            hyp_ids, _ = beam_decode(model, None, pair.source, cfg)
            hr = relevant(vocab.decode(hyp_ids))
            rr = relevant(vocab.decode(pair.target.token_ids))
            matched += sum(min(c, rr[t]) for t, c in hr.items())
            hyp_total += sum(hr.values())
            ref_total += sum(rr.values())
        precision = matched / hyp_total if hyp_total else 0.0
        recall = matched / ref_total
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        with capsys.disabled():
            print(f"\n[restoration] case+punct token F1 = {f1:.4f}")
        assert f1 >= 0.9


class TestUpsample:
    def test_in_domain_share_reaches_fraction(self):
        pairs = random_corpus(7, 10, 12).pairs + tuple(
            SentencePair(p.source, p.target, "talks", 1)
            for p in random_corpus(8, 2, 12).pairs
        )
        corpus = ParallelCorpus(pairs)
        out = upsample(corpus, fraction=0.5)
        in_domain = sum(1 for p in out.pairs if p.domain == "talks")
        assert in_domain / len(out.pairs) >= 0.5

    def test_uses_smallest_copy_count(self):
        pairs = random_corpus(7, 10, 12).pairs + tuple(
            SentencePair(p.source, p.target, "talks", 1)
            for p in random_corpus(8, 2, 12).pairs
        )
        corpus = ParallelCorpus(pairs)
        out = upsample(corpus, fraction=0.5)
        in_domain = sum(1 for p in out.pairs if p.domain == "talks")
        copies = in_domain // 2
        assert (copies - 1) * 2 / ((copies - 1) * 2 + 10) < 0.5

    def test_explicit_base_variant(self):
        domain = random_corpus(9, 3, 12)
        base = random_corpus(10, 9, 12)
        out = upsample(domain, fraction=0.25, base=base)
        assert len(out.pairs) == 9 + 3  # one copy already reaches 1/4
        assert out.pairs[:9] == base.pairs

    def test_fraction_validated(self):
        corpus = random_corpus(11, 4, 12)
        with pytest.raises(ValueError):
            upsample(corpus, fraction=0.0)
        with pytest.raises(ValueError):
            upsample(corpus, fraction=1.0)

    def test_nothing_to_upsample_rejected(self):
        with pytest.raises(ValueError):
            upsample(random_corpus(12, 4, 12), fraction=0.5)


@pytest.fixture(scope="module")
def talkset():
    talk0 = random_corpus(13, 5, 12, talk_id=0)
    talk1 = random_corpus(14, 5, 12, talk_id=1)
    return ParallelCorpus(talk0.pairs + talk1.pairs)


@pytest.fixture(scope="module")
def model(talkset):
    model = RefModel(init_params(12, seed=3))
    train(model, talkset, TrainConfig(learning_rate=1.0, epochs=10, seed=0))
    return model


class TestLeaveOneOut:

    def test_w_zero_gives_zero_delta_everywhere(self, talkset, model):
        report = leave_one_out_eval(model, talkset, DecodeConfig(w=0.0, beam=2))
        for talk in report.per_talk:
            assert talk.bleu_retrieval == talk.bleu_baseline
            assert talk.delta == 0.0
        assert report.delta == 0.0

    def test_report_covers_every_talk(self, talkset, model):
        report = leave_one_out_eval(model, talkset, DecodeConfig(w=0.3, beam=2))
        assert [t.talk_id for t in report.per_talk] == [0, 1]

    def test_single_talk_rejected(self, model):
        single = random_corpus(15, 4, 12, talk_id=0)
        with pytest.raises(ValueError, match="two talks"):
            leave_one_out_eval(model, single, DecodeConfig(w=0.3))

    def test_non_contiguous_talks_rejected(self, model):
        talk0 = random_corpus(16, 3, 12, talk_id=0)
        talk2 = random_corpus(17, 3, 12, talk_id=2)
        gapped = ParallelCorpus(talk0.pairs + talk2.pairs)
        with pytest.raises(ValueError, match="contiguous"):
            leave_one_out_eval(model, gapped, DecodeConfig(w=0.3))
