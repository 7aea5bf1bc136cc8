import re

import numpy as np
import pytest

from knnmt.core import BOS_ID, UNK_ID, Sentence, build_vocab
from knnmt.ngram import (
    NgramLm,
    build_seed_ngrams,
    lm_interpolate,
    lm_train,
    load_ngram_counts,
    overlap_score,
    save_ngram_counts,
    select_data,
)
from helpers import make_corpus


def sent(*ids):
    return Sentence(tuple(ids))


class TestLmTrain:
    def test_unigram_mixture_hand_case(self):
        # corpus "a a b" with ids a=4, b=5, vocab 8: p(a) = 0.99*(2/3) + 0.01/8
        lm = lm_train([sent(4, 4, 5)], order=1, vocab_size=8)
        assert lm.distribution(())[4] == pytest.approx(0.99 * (2 / 3) + 0.01 / 8, abs=1e-12)

    def test_unseen_token_gets_floor_exactly(self):
        lm = lm_train([sent(4, 4, 5)], order=1, vocab_size=8)
        assert lm.distribution(())[7] == pytest.approx(0.01 / 8, abs=1e-15)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(0)
        corpus = [
            sent(*(int(x) for x in rng.integers(4, 20, size=rng.integers(1, 8))))
            for _ in range(30)
        ]
        for order in (1, 2, 3, 5):
            lm = lm_train(corpus, order=order, vocab_size=20)
            for _ in range(20):
                hist = [int(x) for x in rng.integers(0, 20, size=rng.integers(0, 4))]
                dist = lm.distribution(hist)
                assert abs(dist.sum() - 1.0) < 1e-9
                assert (dist > 0).all()

    def test_bos_padded_histories_counted(self):
        lm = lm_train([sent(4, 5)], order=2, vocab_size=8)
        assert (BOS_ID, 4) in lm.counts

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            lm_train([], order=2, vocab_size=8)

    @pytest.mark.parametrize("order", [0, 6])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            lm_train([sent(4)], order=order, vocab_size=8)

    def test_stored_counts_all_positive(self):
        lm = lm_train([sent(4, 5, 4)], order=3, vocab_size=8)
        assert all(c >= 1 for c in lm.counts.values())


class TestLmInterpolate:
    @pytest.fixture
    def lms(self):
        general = lm_train([sent(4, 5, 6)], order=2, vocab_size=10)
        domain = lm_train([sent(6, 6, 7)], order=2, vocab_size=10)
        return general, domain

    def test_lambda_one_is_domain(self, lms):
        general, domain = lms
        fn = lm_interpolate(general, domain, 1.0)
        np.testing.assert_array_equal(fn([4]), domain.distribution([4]))

    def test_lambda_zero_is_general(self, lms):
        general, domain = lms
        fn = lm_interpolate(general, domain, 0.0)
        np.testing.assert_array_equal(fn([4]), general.distribution([4]))

    def test_pointwise_mixture(self, lms):
        general, domain = lms
        fn = lm_interpolate(general, domain, 0.5)
        want = 0.5 * domain.distribution([6]) + 0.5 * general.distribution([6])
        np.testing.assert_allclose(fn([6]), want, atol=1e-15)

    def test_sums_to_one_for_random_histories(self, lms):
        general, domain = lms
        rng = np.random.default_rng(1)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            fn = lm_interpolate(general, domain, lam)
            for _ in range(20):
                hist = [int(x) for x in rng.integers(0, 10, size=rng.integers(0, 3))]
                assert abs(fn(hist).sum() - 1.0) < 1e-9

    def test_vocab_mismatch_rejected(self):
        a = lm_train([sent(4)], order=1, vocab_size=8)
        b = lm_train([sent(4)], order=1, vocab_size=9)
        with pytest.raises(ValueError):
            lm_interpolate(a, b, 0.5)

    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_lambda_range_checked(self, lms, lam):
        general, domain = lms
        with pytest.raises(ValueError, match=r"lambda_domain must be in \[0, 1\]"):
            lm_interpolate(general, domain, lam)


class TestOverlapScore:
    def test_identical_sentence_scores_one(self):
        seeds = build_seed_ngrams([sent(4, 5, 6)], max_order=2)
        assert overlap_score(sent(4, 5, 6), seeds, max_order=2) == 1.0

    def test_disjoint_scores_zero(self):
        seeds = build_seed_ngrams([sent(4, 5)], max_order=2)
        assert overlap_score(sent(8, 9), seeds, max_order=2) == 0.0

    def test_partial_overlap_hand_case(self):
        # candidate "a b c" vs seed "a b x": unigrams 2/3, bigrams 1/2 -> 3/5
        seeds = build_seed_ngrams([sent(4, 5, 9)], max_order=2)
        assert overlap_score(sent(4, 5, 6), seeds, max_order=2) == pytest.approx(0.6)

    def test_empty_candidate_scores_zero(self):
        seeds = build_seed_ngrams([sent(4, 5)], max_order=2)
        assert overlap_score(Sentence(()), seeds, max_order=2) == 0.0

    def test_max_order_validated(self):
        with pytest.raises(ValueError):
            overlap_score(sent(4), {}, max_order=0)


class TestSelectData:
    def test_ranks_by_source_overlap(self):
        pool = make_corpus(
            [
                ([8, 9], [4, 5]),      # no overlap, in-domain looking target
                ([4, 5, 6], [8, 9]),   # strong source overlap
                ([4, 8], [8, 8]),      # weak source overlap
            ]
        )
        seed = [sent(4, 5, 6)]
        picked = select_data(pool, seed, max_order=2, top_k=2)
        assert picked.pairs[0] == pool.pairs[1]
        assert picked.pairs[1] == pool.pairs[2]

    def test_ties_keep_pool_order(self):
        pool = make_corpus([([4, 5], [6]), ([4, 5], [7])])
        picked = select_data(pool, [sent(4, 5)], max_order=1, top_k=2)
        assert picked.pairs == pool.pairs

    def test_top_k_too_large_rejected(self):
        pool = make_corpus([([4], [5])])
        with pytest.raises(ValueError):
            select_data(pool, [sent(4)], max_order=1, top_k=2)

    def test_negative_top_k_rejected(self):
        # a negative slice end would drop pairs from the end instead
        pool = make_corpus([([4], [5]), ([5], [6])])
        with pytest.raises(ValueError, match="got -1"):
            select_data(pool, [sent(4)], max_order=1, top_k=-1)
        assert len(select_data(pool, [sent(4)], max_order=1, top_k=0)) == 0


class TestCountsIo:
    def test_round_trip_preserves_probabilities(self, tmp_path):
        vocab = build_vocab([["a", "b", "c"]], max_size=10)
        corpus = [sent(4, 5, 6, 4), sent(5, 5)]
        lm = lm_train(corpus, order=3, vocab_size=len(vocab.tokens))
        path = tmp_path / "counts.txt"
        save_ngram_counts(lm, vocab, path)
        loaded = load_ngram_counts(path, vocab)
        assert loaded.order == lm.order
        assert loaded.counts == lm.counts
        rng = np.random.default_rng(2)
        for _ in range(10):
            hist = [int(x) for x in rng.integers(0, 7, size=2)]
            np.testing.assert_allclose(
                loaded.distribution(hist), lm.distribution(hist), atol=1e-12
            )

    def test_header_names_order(self, tmp_path):
        vocab = build_vocab([["a"]], max_size=8)
        lm = lm_train([sent(4)], order=2, vocab_size=len(vocab.tokens))
        path = tmp_path / "counts.txt"
        save_ngram_counts(lm, vocab, path)
        assert path.read_text().splitlines()[0] == "NGRAM-COUNTS v1 order=2"

    def test_bad_header_rejected(self, tmp_path):
        vocab = build_vocab([["a"]], max_size=8)
        path = tmp_path / "counts.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            load_ngram_counts(path, vocab)

    def test_unknown_token_rejected_with_file_and_line(self, tmp_path):
        vocab = build_vocab([["yak"]], max_size=8)
        path = tmp_path / "counts.txt"
        path.write_text("NGRAM-COUNTS v1 order=1\n7\tzebra\n2\tyak\n")
        with pytest.raises(ValueError, match=r"counts.txt: line 2: token 'zebra' is not in the vocabulary"):
            load_ngram_counts(path, vocab)

    def test_repeated_gram_rejected(self, tmp_path):
        vocab = build_vocab([["yak"]], max_size=8)
        path = tmp_path / "counts.txt"
        path.write_text("NGRAM-COUNTS v1 order=2\n2\tyak\n1\t<s> yak\n3\tyak\n")
        with pytest.raises(ValueError, match=r"counts.txt: line 4: gram 'yak' is listed twice"):
            load_ngram_counts(path, vocab)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("NGRAM-COUNTS v1 order=1\n2 yak\n", "line 2: expected count<TAB>tokens, got 1 tab-separated fields"),
            ("NGRAM-COUNTS v1 order=1\n3\tyak\textra\n", "line 2: expected count<TAB>tokens, got 3 tab-separated fields"),
            ("NGRAM-COUNTS v1 order=1\n2\tyak\nx\t<s>\n", "line 3: count 'x' is not an integer"),
            ("NGRAM-COUNTS v1 order=1\n\n-5\tyak\n", "line 3: count must be >= 1, got -5"),
            ("NGRAM-COUNTS v1 order=two\n2\tyak\n", "line 1: order 'two' is not an integer"),
            ("NGRAM-COUNTS v1 order=6\n2\tyak\n", "line 1: order must be in [1, 5], got 6"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, body, message):
        vocab = build_vocab([["yak"]], max_size=8)
        path = tmp_path / "counts.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_ngram_counts(path, vocab)

    def test_literal_unk_round_trips(self, tmp_path):
        vocab = build_vocab([["a", "b"]], max_size=8)
        lm = lm_train([sent(4, UNK_ID, 5), sent(UNK_ID)], order=2, vocab_size=len(vocab))
        path = tmp_path / "counts.txt"
        save_ngram_counts(lm, vocab, path)
        assert "<unk>" in path.read_text()
        assert load_ngram_counts(path, vocab).counts == lm.counts
