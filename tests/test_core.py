import pytest

from knnmt.core import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    CorpusError,
    Sentence,
    Vocab,
    build_vocab,
    corpus_token_lists,
    encode_text,
    load_corpus,
    read_tsv,
    tokenize,
    write_corpus,
)


class TestTokenize:
    def test_detaches_leading_and_trailing_punctuation(self):
        assert tokenize("Hello, world.") == ["Hello", ",", "world", "."]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_runs_match_character_walk(self):
        # oracle: walk the characters, collapsing whitespace runs
        text = "a  b\t c \n d"
        walked, cur = [], []
        for ch in text:
            if ch.isspace():
                if cur:
                    walked.append("".join(cur))
                    cur = []
            else:
                cur.append(ch)
        if cur:
            walked.append("".join(cur))
        assert tokenize(text) == walked
        assert tokenize(text) == ["a", "b", "c", "d"]

    def test_case_preserved(self):
        assert tokenize("MiXeD Case") == ["MiXeD", "Case"]

    def test_nested_punctuation(self):
        assert tokenize("(ok).") == ["(", "ok", ")", "."]

    def test_inner_punctuation_stays_attached(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_pure_punctuation_chunk(self):
        assert tokenize("...") == [".", ".", "."]

    def test_deterministic(self):
        text = "The quick (brown) fox, obviously."
        assert tokenize(text) == tokenize(text)

    def test_repeated_chunks_give_fresh_lists(self):
        # chunks are split once and cached; a caller editing the list it
        # got must not change what the next call gets
        first = tokenize("(ok). (ok).")
        assert first == ["(", "ok", ")", ".", "(", "ok", ")", "."]
        first.clear()
        assert tokenize("(ok).") == ["(", "ok", ")", "."]


class TestBuildVocab:
    def test_reserved_first_then_frequency(self):
        vocab = build_vocab([["b", "a", "a", "a", "b", "c"]], max_size=8)
        assert vocab.tokens == RESERVED_TOKENS + ("a", "b", "c")

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab([["y", "x", "y", "x"]], max_size=8)
        assert vocab.tokens[4:] == ("x", "y")

    def test_max_size_truncates(self):
        corpus = [[f"tok{i}" for i in range(100)]]
        vocab = build_vocab(corpus, max_size=10)
        assert len(vocab.tokens) == 10

    def test_deterministic(self):
        corpus = [["c", "a", "b"], ["a", "c", "b", "c"]]
        assert build_vocab(corpus, max_size=20).tokens == build_vocab(corpus, max_size=20).tokens

    def test_max_size_below_reserved_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([["a"]], max_size=4)

    def test_reserved_tokens_in_corpus_not_duplicated(self):
        vocab = build_vocab([["<unk>", "a", "<unk>"]], max_size=10)
        assert vocab.tokens.count("<unk>") == 1
        assert vocab.tokens.index("<unk>") == UNK_ID


class TestVocab:
    @pytest.fixture
    def vocab(self):
        return build_vocab([["dog", "cat", "sees", "the"]], max_size=12)

    def test_round_trip_every_entry(self, vocab):
        for tok in vocab.tokens:
            assert vocab.id_to_token(vocab.token_to_id(tok)) == tok

    def test_ids_contiguous_from_zero(self, vocab):
        assert [vocab.token_to_id(t) for t in vocab.tokens] == list(range(len(vocab.tokens)))

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.token_to_id("zebra") == UNK_ID

    def test_reserved_ids(self, vocab):
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert vocab.tokens[:4] == RESERVED_TOKENS

    def test_encode_decode_identity_in_vocab(self, vocab):
        toks = ["the", "dog", "sees", "the", "cat"]
        assert vocab.decode(vocab.encode(toks)) == toks

    def test_save_load_round_trip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocab.load(path).tokens == vocab.tokens


class TestCorpusIo:
    def test_four_field_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("the dog\tle chien\ttalks\t3\n")
        assert read_tsv(path) == [("the dog", "le chien", "talks", 3)]

    def test_missing_domain_and_talk_default(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\nc\td\tnews\n")
        rows = read_tsv(path)
        assert rows[0] == ("a", "b", "general", 0)
        assert rows[1] == ("c", "d", "news", 0)

    def test_short_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\nonly one field\n")
        with pytest.raises(CorpusError, match="line 2"):
            read_tsv(path)

    def test_bad_talk_id_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\tgeneral\tnope\n")
        with pytest.raises(CorpusError, match="talk_id"):
            read_tsv(path)

    @pytest.mark.parametrize("talk_id", [-1, 2**32])
    def test_talk_id_outside_uint32_rejected(self, tmp_path, talk_id):
        path = tmp_path / "c.tsv"
        path.write_text(f"a\tb\tgeneral\t{2**32 - 1}\na\tb\tgeneral\t{talk_id}\n")
        with pytest.raises(CorpusError, match=rf"c.tsv: line 2: talk_id must be in \[0, 2\*\*32\), got {talk_id}"):
            read_tsv(path)

    @pytest.mark.parametrize("talk_id", ["1_0", " +7 ", "+7", "\u0663"])
    def test_talk_id_must_be_ascii_digits(self, tmp_path, talk_id):
        # int() reads each as a number; write_corpus writes only plain digits
        path = tmp_path / "c.tsv"
        path.write_text(f"a\tb\tgeneral\t12\na\tb\tgeneral\t{talk_id}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"c.tsv: line 2: talk_id must be ASCII digits 0-9, got "):
            read_tsv(path)

    def test_empty_side_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("\tb\n")
        vocab = build_vocab([["a", "b"]], max_size=8)
        with pytest.raises(CorpusError):
            load_corpus(path, vocab)

    def test_write_load_round_trip(self, tmp_path):
        vocab = build_vocab([["dog", "cat", "runs"]], max_size=10)
        path = tmp_path / "c.tsv"
        path.write_text("dog runs\tcat runs\ttalks\t2\ncat\tdog\n")
        corpus = load_corpus(path, vocab)
        out = tmp_path / "out.tsv"
        write_corpus(out, corpus, vocab)
        again = load_corpus(out, vocab)
        assert again.pairs == corpus.pairs

    def test_corpus_token_lists_covers_both_sides(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a b\tc\n")
        lists = corpus_token_lists(path)
        assert ["a", "b"] in lists and ["c"] in lists

    def test_encode_text_uses_tokenizer(self):
        vocab = build_vocab([["hi", ","]], max_size=8)
        sent = encode_text(vocab, "hi, hi")
        assert sent.token_ids == tuple(vocab.encode(["hi", ",", "hi"]))

    def test_unknown_tokens_become_unk_ids(self, tmp_path):
        vocab = build_vocab([["a"]], max_size=8)
        path = tmp_path / "c.tsv"
        path.write_text("a mystery\ta\n")
        corpus = load_corpus(path, vocab)
        assert corpus.pairs[0].source.token_ids[1] == UNK_ID
