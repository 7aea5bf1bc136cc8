"""Vocabulary, tokenization, and corpus containers shared by all modules."""

from __future__ import annotations

import functools
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<s>", "</s>", "<unk>")
TALK_ID_LIMIT = 2**32  # talk ids are stored as uint32


class CorpusError(ValueError):
    """Malformed corpus file or inconsistent corpus arguments."""


def check_file_size(path: str | Path, actual: int, expected: int, at_least: bool = False) -> None:
    """Refuse a binary file of `actual` bytes whose header implies
    `expected` (with `at_least`, a lower bound known before the rest is
    read): a truncated file or one with trailing bytes is not loaded."""
    if actual < expected or (actual != expected and not at_least):
        bound = "at least " if at_least else ""
        raise ValueError(f"{path}: header implies {bound}{expected} bytes, file has {actual}")


def check_finite(arr: np.ndarray, what: str) -> None:
    """Refuse an array that holds a NaN or an infinity. Its min and max
    carry a NaN through and show an infinity, so no temporary of the
    array's size is made."""
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{what} must be finite")


def read_array(fh: BinaryIO, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """The next array of `shape` in an open binary file, read straight into
    its own memory. Check with check_file_size first that the file holds it."""
    arr = np.empty(shape, dtype=dtype)
    if fh.readinto(arr) != arr.nbytes:
        raise ValueError(f"{fh.name}: file ended while being read")
    return arr


def _text_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, streamed; bytes that are not UTF-8
    raise a ValueError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text") from exc


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, checked as _text_lines checks them."""
    return "".join(_text_lines(path))


def is_punctuation(token: str) -> bool:
    """True if every character is in a Unicode P* category."""
    return len(token) > 0 and all(
        unicodedata.category(ch).startswith("P") for ch in token
    )


def tokenize(text: str) -> list[str]:
    """Split on whitespace, then detach leading/trailing punctuation characters
    as separate tokens. No lowercasing; deterministic; empty text gives []."""
    tokens: list[str] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens


@functools.lru_cache(maxsize=1 << 16)
def _split_chunk(chunk: str) -> tuple[str, ...]:
    """One whitespace chunk's tokens. Cached: a corpus repeats its words, so
    most chunks are split once."""
    lead: list[str] = []
    trail: list[str] = []
    while chunk and unicodedata.category(chunk[0]).startswith("P"):
        lead.append(chunk[0])
        chunk = chunk[1:]
    while chunk and unicodedata.category(chunk[-1]).startswith("P"):
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    if chunk:
        lead.append(chunk)
    return (*lead, *reversed(trail))


@dataclass(frozen=True)
class Vocab:
    """Token table with fixed reserved ids 0-3 (PAD, BOS, EOS, UNK)."""

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tokens[: len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens")
        ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(self.tokens)

    def token_to_id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def id_to_token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self._ids.get(tok, UNK_ID) for tok in tokens]

    def decode(self, token_ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in token_ids]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        return cls(tuple(read_text(path).splitlines()))


def build_vocab(corpus: Sequence[Sequence[str]], max_size: int) -> Vocab:
    """Reserved tokens first, then corpus tokens by descending frequency,
    ties broken lexicographically, truncated to max_size entries."""
    if max_size < 5:
        raise ValueError(f"max_size must be >= 5, got {max_size}")
    counts: Counter[str] = Counter()
    for sent in corpus:
        counts.update(sent)
    for tok in RESERVED_TOKENS:
        counts.pop(tok, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = list(RESERVED_TOKENS) + [tok for tok, _ in ranked]
    return Vocab(tuple(tokens[:max_size]))


@dataclass(frozen=True)
class Sentence:
    """A sequence of vocabulary ids; BOS/EOS are added by consumers, not stored."""

    token_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.token_ids)


def encode_text(vocab: Vocab, text: str) -> Sentence:
    return Sentence(tuple(vocab.encode(tokenize(text))))


@dataclass(frozen=True)
class SentencePair:
    source: Sentence
    target: Sentence
    domain: str = "general"
    talk_id: int = 0

    def __post_init__(self) -> None:
        if len(self.source) == 0 or len(self.target) == 0:
            raise ValueError("sentence pair sides must be non-empty")
        if self.talk_id < 0:
            raise ValueError("talk_id must be >= 0")


@dataclass(frozen=True)
class ParallelCorpus:
    """Sentence pairs, each with its domain and talk."""

    pairs: tuple[SentencePair, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def talk_ids(self) -> list[int]:
        return sorted({p.talk_id for p in self.pairs})


def read_tsv(path: str | Path) -> list[tuple[str, str, str, int]]:
    """Parse the corpus TSV format: source<TAB>target[<TAB>domain[<TAB>talk_id]].

    Missing domain defaults to "general", missing talk_id to 0. A line with
    fewer than 2 fields, or a talk_id that is not a run of ASCII digits
    naming an integer in [0, TALK_ID_LIMIT), raises CorpusError naming the
    1-based line number.
    """
    rows: list[tuple[str, str, str, int]] = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.rstrip("\n")
        fields = line.split("\t")
        if len(fields) < 2:
            raise CorpusError(
                f"{path}: line {lineno}: expected at least 2 tab-separated fields"
            )
        source, target = fields[0], fields[1]
        domain = fields[2] if len(fields) > 2 and fields[2] else "general"
        if len(fields) > 3 and fields[3]:
            try:
                talk_id = int(fields[3])
            except ValueError as exc:
                raise CorpusError(
                    f"{path}: line {lineno}: talk_id is not an integer: {fields[3]!r}"
                ) from exc
            if not 0 <= talk_id < TALK_ID_LIMIT:
                raise CorpusError(f"{path}: line {lineno}: talk_id must be in [0, 2**32), got {talk_id}")
            if not (fields[3].isascii() and fields[3].isdigit()):  # int() also reads "1_0", " +7 ", "٣"
                raise CorpusError(f"{path}: line {lineno}: talk_id must be ASCII digits 0-9, got {fields[3]!r}")
        else:
            talk_id = 0
        rows.append((source, target, domain, talk_id))
    return rows


def load_corpus(path: str | Path, vocab: Vocab) -> ParallelCorpus:
    """Read a TSV corpus and encode both sides with `vocab`."""
    pairs = []
    for lineno, (src, tgt, domain, talk_id) in enumerate(read_tsv(path), start=1):
        source = encode_text(vocab, src)
        target = encode_text(vocab, tgt)
        if len(source) == 0 or len(target) == 0:
            raise CorpusError(f"{path}: line {lineno}: empty side after tokenization")
        pairs.append(SentencePair(source, target, domain, talk_id))
    return ParallelCorpus(tuple(pairs))


def write_corpus(path: str | Path, corpus: ParallelCorpus, vocab: Vocab) -> None:
    """Write a corpus in the TSV format, detokenizing with `vocab`."""
    with open(path, "w", encoding="utf-8") as fh:
        for pair in corpus:
            fh.write(
                "\t".join(
                    (
                        " ".join(vocab.decode(pair.source.token_ids)),
                        " ".join(vocab.decode(pair.target.token_ids)),
                        pair.domain,
                        str(pair.talk_id),
                    )
                )
                + "\n"
            )


def corpus_token_lists(path: str | Path) -> list[list[str]]:
    """Token lists of both sides of a TSV corpus, for vocabulary building."""
    lists: list[list[str]] = []
    for src, tgt, _, _ in read_tsv(path):
        lists.append(tokenize(src))
        lists.append(tokenize(tgt))
    return lists
