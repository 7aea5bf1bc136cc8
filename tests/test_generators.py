"""The synthetic benchmark and the n-gram LM pinned to fixed digests, so a
change to either that moves a single token or bit shows here."""

import hashlib

from knnmt.benchmark import benchmark_vocab, make_domain_shift_benchmark, make_talks, shift_term_targets
from knnmt.ngram import lm_interpolate, lm_train, load_ngram_counts, save_ngram_counts


def corpus_digest(corpus):
    h = hashlib.sha256(b"toy")
    for p in corpus.pairs:
        h.update(repr((p.source.token_ids, p.target.token_ids, p.domain, p.talk_id)).encode())
    return h.hexdigest()


def test_domain_shift_benchmark_is_pinned():
    bench = make_domain_shift_benchmark()
    assert corpus_digest(bench.general) == "2a93842e74975be03b08ac80d753cde57c7ef114b60405bffcd3cd494d44ae81"
    assert corpus_digest(bench.talks) == "d2ac9014420ab447591cf96d96d849df0238d9ae53d84b2c3560b02ccbed03ae"


def test_talks_and_their_shift_are_pinned():
    vocab = benchmark_vocab()
    talks = make_talks(7, seed=2011, vocab=vocab)
    assert corpus_digest(talks) == "9f90d7c13465fdb5b8832d9660f5c6f69448b8bd2a06a677e7561e74e74e29a5"
    shifted = shift_term_targets(talks, vocab)
    assert corpus_digest(shifted) == "6f853eead5aa12b529fe91ffd0b9f3cdc9880b4e05245766aa96895cd54ef6e2"


def test_trigram_counts_and_distributions_are_pinned(tmp_path):
    bench = make_domain_shift_benchmark()
    lm = lm_train([p.target for p in bench.talks.pairs], 3, len(bench.vocab))
    path = tmp_path / "lm.txt"
    save_ngram_counts(lm, bench.vocab, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7cea4de4e21923e5464fc5235dfd5fdf2bd99f5734b0ce2b0a4f1c906c5d8282"
    )
    for model in (lm, load_ngram_counts(path, bench.vocab)):
        h = hashlib.sha256()
        for history in [(), (93,), (93, 63, 36), (15, 3, 4)]:
            h.update(model.distribution(history).tobytes())
        assert h.hexdigest() == "309827809ea69697710f35fed86e7f6b85a4ac43e8c59fca4235b1ba15b4c588"


def test_interpolated_trigrams_are_pinned():
    bench = make_domain_shift_benchmark()
    general = lm_train([p.target for p in bench.general.pairs], 3, len(bench.vocab))
    domain = lm_train([p.target for p in bench.talks.pairs], 3, len(bench.vocab))
    interpolated = lm_interpolate(general, domain, 0.3)
    h = hashlib.sha256()
    for history in [(), (93,), (93, 63, 36), (15, 3, 4)]:
        h.update(interpolated(history).tobytes())
    assert h.hexdigest() == "ca6ff10dd1d68f40904c3844572a14c9c15acfb3e241bb8f57c4bad6dcd0dd27"
