import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmt.metrics import bleu, bleu_from_stats, corpus_wer, edit_distance, segment_stats, wer


def oracle_bleu(hyps, refs):
    """Independent corpus BLEU-4: explicit clipped counts per order, plain
    product-and-root geometric mean, multiplicative BP."""
    match = [0] * 4
    total = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            match[n - 1] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
            total[n - 1] += sum(hyp_grams.values())
    if any(t == 0 for t in total) or any(m == 0 for m in match):
        return 0.0
    geo = (
        (match[0] / total[0])
        * (match[1] / total[1])
        * (match[2] / total[2])
        * (match[3] / total[3])
    ) ** 0.25
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * geo


class TestBleu:
    def test_identity_scores_100(self):
        report = bleu([[4, 5, 6, 7, 8]], [[4, 5, 6, 7, 8]])
        assert report.bleu == 100.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == 1.0

    def test_zero_four_gram_case(self):
        # p1=3/4, p2=2/3, p3=1/2, p4=0 -> unsmoothed score is 0
        report = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "e"]])
        assert report.bleu == 0.0
        assert report.precisions[:3] == (3 / 4, 2 / 3, 1 / 2)
        assert report.precisions[3] == 0.0

    def test_single_matching_four_gram_hand_case(self):
        # hyp "a b c d e" vs ref "a b c d f": p1=4/5 p2=3/4 p3=2/3 p4=1/2
        report = bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d", "f"]])
        want = 100.0 * ((4 / 5) * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
        assert report.bleu == pytest.approx(want, abs=1e-9)
        assert report.brevity_penalty == 1.0

    def test_brevity_penalty_applies_when_short(self):
        # 4 identical tokens vs 5: precisions 1, BP = exp(1 - 5/4)
        report = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)
        assert report.bleu == pytest.approx(100.0 * math.exp(1 - 5 / 4), abs=1e-9)

    def test_segment_order_irrelevant(self):
        hyps = [["a", "b", "c", "d"], ["x", "y", "z", "w", "v"]]
        refs = [["a", "b", "c", "d"], ["x", "y", "z", "w", "u"]]
        forward = bleu(hyps, refs).bleu
        backward = bleu(hyps[::-1], refs[::-1]).bleu
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_matches_independent_oracle_on_random_corpora(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n_seg = int(rng.integers(1, 6))
            hyps, refs = [], []
            for _ in range(n_seg):
                ref = [int(x) for x in rng.integers(0, 6, size=rng.integers(4, 10))]
                hyp = [
                    int(x) if rng.random() < 0.3 else ref_tok
                    for x, ref_tok in zip(rng.integers(0, 6, size=len(ref)), ref)
                ]
                hyps.append(hyp)
                refs.append(ref)
            assert bleu(hyps, refs).bleu == pytest.approx(
                oracle_bleu(hyps, refs), abs=1e-9
            ), f"trial {trial}"

    def test_report_lengths(self):
        report = bleu([["a", "b"]], [["a", "b", "c"]])
        assert report.hyp_length == 2
        assert report.ref_length == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    @settings(max_examples=150, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(*[st.lists(st.integers(0, 4), max_size=9)] * 3), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    def test_summed_segment_stats_give_bleu_of_any_subset(self, segments, data):
        # two hypothesis lists scored against the references in one call;
        # any subset of segments, in any order, sums to bleu of that subset
        first, second, refs = (list(side) for side in zip(*segments))
        second[0] = first[0]  # one hypothesis shared by both lists
        stats = segment_stats([first, second], refs)
        subset = data.draw(st.lists(st.sampled_from(range(len(refs))), min_size=1, max_size=8, unique=True))
        bits = lambda r: np.array([r.bleu, *r.precisions, r.brevity_penalty]).tobytes()
        for hyps, seg in zip((first, second), stats):
            want = bleu([hyps[i] for i in subset], [refs[i] for i in subset])
            got = bleu_from_stats([seg[i] for i in subset])
            assert got == want and bits(got) == bits(want)

    def test_segment_stats_need_one_hypothesis_per_reference(self):
        with pytest.raises(ValueError, match="segment count mismatch"):
            segment_stats([[["a"]], [["a"], ["b"]]], [["a"]])
        with pytest.raises(ValueError, match="at least one segment"):
            bleu_from_stats([])


class TestWer:
    def test_identity_is_zero(self):
        assert wer(["a", "b", "c"], ["a", "b", "c"]) == 0.0

    def test_single_substitution(self):
        assert wer(["a", "x", "c"], ["a", "b", "c"]) == pytest.approx(1 / 3)

    def test_insertion_over_length_one(self):
        assert wer(["a", "b"], ["a"]) == 1.0

    def test_deletion(self):
        assert wer(["a"], ["a", "b"]) == pytest.approx(1 / 2)

    def test_can_exceed_one(self):
        assert wer(["x", "y", "z"], ["a"]) == 3.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer(["a"], [])

    def test_corpus_wer_pools_edits_and_lengths(self):
        # 1 edit over 3 + 0 edits over 2 = 1/5
        hyps = [["a", "x", "c"], ["d", "e"]]
        refs = [["a", "b", "c"], ["d", "e"]]
        assert corpus_wer(hyps, refs) == pytest.approx(1 / 5)

    def test_edit_distance_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 7))]
            b = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 7))]
            assert edit_distance(a, b) == edit_distance(b, a)

    def test_edit_distance_triangle_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b, c = (
                [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 7))]
                for _ in range(3)
            )
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
