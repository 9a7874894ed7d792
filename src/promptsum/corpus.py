"""Tokenization, sentence segmentation, dataset ingestion, and few-shot sampling.

Text is lowercased and split into word/punctuation tokens over a
corpus-built vocabulary. Documents are kept sentence-segmented because the
inner-prompt machinery indexes tokens by sentence.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

# Word tokens keep internal apostrophes ("don't"); everything else that is
# neither whitespace nor alphanumeric becomes a single-character token.
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*|[^\sa-z0-9]")

# Sentence boundaries: terminator, whitespace, then an uppercase letter (or
# end of text). Abbreviations and single-capital initials never split.
_BOUNDARY_RE = re.compile(r"[.!?](?=\s+[A-ZÀ-Ý\"'(])")
_ABBREVIATIONS = {
    "mr.", "mrs.", "ms.", "dr.", "prof.", "st.", "no.", "vs.", "etc.",
    "jr.", "sr.", "inc.", "ltd.", "co.", "u.s.", "u.k.", "u.n.", "e.g.", "i.e.",
}
_SINGLE_INITIAL_RE = re.compile(r"(?:^|[\s\"'(])[A-Z]\.$")


class CorpusError(ValueError):
    """Base class for corpus ingestion failures."""


class EmptyDocumentError(CorpusError):
    pass


class ParseError(CorpusError):
    pass


class EmptyDatasetError(CorpusError):
    pass


class CapacityError(CorpusError):
    pass


@dataclass(frozen=True)
class Vocab:
    """Token/id bijection with four reserved ids (PAD, BOS, EOS, UNK);
    ``build_vocab`` and ``load_vocab`` make only such pairs."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(texts: list[str], min_freq: int = 1) -> Vocab:
    """Build a vocabulary from raw texts, ordered by frequency then token."""
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(_TOKEN_RE.findall(text.lower()))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq and tok not in RESERVED_TOKENS),
        key=lambda tok: (-counts[tok], tok),
    )
    id_to_token = RESERVED_TOKENS + tuple(kept)
    return Vocab({tok: i for i, tok in enumerate(id_to_token)}, id_to_token)


def save_vocab(vocab: Vocab, path) -> None:
    with atomic_open(path) as fh:
        for tok in vocab.id_to_token:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocab:
    """Read a vocabulary written by ``save_vocab``; every error names the file."""
    id_to_token = tuple(line.rstrip("\r\n") for _, line in read_lines(path))
    for i, tok in enumerate(RESERVED_TOKENS):
        if id_to_token[i : i + 1] != (tok,):
            raise CorpusError(f"{path}: line {i + 1}: id {i} must be reserved for {tok!r}")
    token_to_id: dict[str, int] = {}
    for i, tok in enumerate(id_to_token):
        if token_to_id.setdefault(tok, i) != i:
            raise CorpusError(f"{path}: line {i + 1}: token {tok!r} repeats line {token_to_id[tok] + 1}")
    return Vocab(token_to_id, id_to_token)


@dataclass(frozen=True)
class Document:
    """A sentence-segmented sequence of token ids."""

    sentences: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.sentences:
            raise EmptyDocumentError("document has no sentences")
        if any(len(s) == 0 for s in self.sentences):
            raise CorpusError("document contains an empty sentence")

    @cached_property
    def flat(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.sentences))

    @property
    def flat_length(self) -> int:
        return sum(map(len, self.sentences))

    def sentence_lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.sentences))


@dataclass(frozen=True)
class SummaryPair:
    """A (document, summary) supervision unit. Summaries end with EOS."""

    document: Document
    summary: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.summary:
            raise CorpusError("summary is empty")
        if self.summary[-1] != EOS_ID:
            raise CorpusError("encoded summary must end with EOS")

    @property
    def summary_content(self) -> tuple[int, ...]:
        """Summary ids without the trailing EOS (the form ROUGE scores)."""
        return self.summary[:-1]


@dataclass(frozen=True)
class FewShotSplit:
    train: tuple[SummaryPair, ...]
    dev: tuple[SummaryPair, ...]


def split_sentences(text: str) -> list[str]:
    """Split raw text into sentence strings.

    Boundaries occur after '.', '!' or '?' followed by whitespace and an
    uppercase letter, or at end of text; a trailing unterminated fragment is
    its own sentence. A small abbreviation list plus the rule "a period
    preceded by a lone capital letter does not split" protects initials.
    """
    text = text.strip()
    if not text:
        raise EmptyDocumentError("cannot split empty text")

    cuts = []
    for match in _BOUNDARY_RE.finditer(text):
        end = match.end()
        # Token ending at the terminator, for abbreviation checks.
        tail = text[max(0, end - 12) : end]
        last_word = tail.split()[-1] if tail.split() else tail
        if last_word.lower() in _ABBREVIATIONS:
            continue
        if _SINGLE_INITIAL_RE.search(" " + last_word):
            continue
        cuts.append(end)

    pieces = []
    start = 0
    for cut in cuts:
        piece = text[start:cut].strip()
        if piece:
            pieces.append(piece)
        start = cut
    final = text[start:].strip()
    if final:
        pieces.append(final)
    return pieces


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase and tokenize; unknown tokens map to UNK. Total on strings."""
    return list(map(vocab.token_to_id.get, _TOKEN_RE.findall(text.lower()), repeat(UNK_ID)))


def detokenize(ids, vocab: Vocab) -> str:
    """Join tokens with single spaces; PAD/BOS/EOS are dropped, UNK is kept."""
    skip = (PAD_ID, BOS_ID, EOS_ID)
    return " ".join(vocab.id_to_token[i] for i in ids if i not in skip)


def encode_document(text: str, vocab: Vocab) -> Document:
    """Sentence-split then tokenize into a Document; drops untokenizable sentences."""
    sentences = [tuple(tokenize(s, vocab)) for s in split_sentences(text)]
    sentences = [s for s in sentences if s]
    if not sentences:
        raise EmptyDocumentError("document has no tokenizable sentences")
    return Document(tuple(sentences))


def truncate_document(doc: Document, max_tokens: int) -> Document:
    """Flat-truncate to at most ``max_tokens``, keeping a shortened tail sentence."""
    if max_tokens < 1:
        raise CorpusError("max_tokens must be >= 1")
    if doc.flat_length <= max_tokens:
        return doc
    kept: list[tuple[int, ...]] = []
    budget = max_tokens
    for sent in doc.sentences:
        if budget <= 0:
            break
        if len(sent) <= budget:
            kept.append(sent)
            budget -= len(sent)
        else:
            kept.append(sent[:budget])
            budget = 0
    return Document(tuple(kept))


def encode_summary(text: str, vocab: Vocab) -> tuple[int, ...]:
    ids = tokenize(text, vocab)
    if not ids:
        raise CorpusError("summary has no tokens")
    return tuple(ids) + (EOS_ID,)


def read_lines(path):
    """(line number, text) for every line of a UTF-8 file, split at newlines only (a
    carriage return stays in the text); a line that is not UTF-8 is a ``ParseError``
    naming the file and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: not UTF-8: {exc.reason}") from None


def read_records(path):
    """(line number, record) for every non-blank JSONL line; each must be an object
    whose ``document`` and ``summary``, where present, are strings."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: invalid record: {exc}") from exc
        if not isinstance(record, dict):
            raise ParseError(f"{path}: line {lineno}: record must be a JSON object")
        for key in ("document", "summary"):
            if not isinstance(record.get(key, ""), str):
                raise ParseError(f"{path}: line {lineno}: {key!r} must be a string")
        yield lineno, record


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write ``path`` all at once or not at all.

    Yields a file opened on a temporary file beside ``path``. On a clean exit
    the file is synced and moved over ``path`` with ``os.replace``; on an
    error it is deleted and ``path`` keeps its earlier contents.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class Dataset(list):
    """The pairs of a dataset file; ``skipped`` counts the records dropped as empty, and
    ``records`` holds each pair's record number: its place among the file's non-blank
    lines, from 0, skipped records included."""

    __slots__ = ("skipped", "records")

    def __init__(self, pairs=(), skipped: int = 0, records=()) -> None:
        super().__init__(pairs)
        self.skipped = skipped
        self.records = tuple(records)


def load_dataset(path, vocab: Vocab, max_src_tokens: int = 1024) -> Dataset:
    """Load line-delimited {"document", "summary"} records.

    Documents are sentence-split, tokenized, and flat-truncated to
    ``max_src_tokens`` (sentence list re-derived after truncation). Records
    with an empty document or summary are skipped; their count is the
    returned list's ``skipped``.
    """
    pairs: list[SummaryPair] = []
    records: list[int] = []
    skipped = 0
    for record_no, (lineno, record) in enumerate(read_records(path)):
        if "document" not in record or "summary" not in record:
            raise ParseError(f"{path}: line {lineno}: record must have 'document' and 'summary'")
        doc_text = record["document"].strip()
        sum_text = record["summary"].strip()
        if not doc_text or not sum_text:
            skipped += 1
            continue
        try:
            doc = truncate_document(encode_document(doc_text, vocab), max_src_tokens)
            summary = encode_summary(sum_text, vocab)
        except EmptyDocumentError:
            skipped += 1
            continue
        pairs.append(SummaryPair(doc, summary))
        records.append(record_no)
    if not pairs:
        raise EmptyDatasetError(f"{path}: no valid records")
    return Dataset(pairs, skipped, records)


def sample_fewshot(pairs: list[SummaryPair], size: int, seed: int) -> FewShotSplit:
    """Draw disjoint train/dev samples of equal size, deterministically."""
    if size < 1:
        raise CapacityError(f"few-shot size must be >= 1, got {size}")
    if len(pairs) < 2 * size:
        raise CapacityError(f"need at least {2 * size} pairs, got {len(pairs)}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(pairs))
    train = tuple(pairs[i] for i in perm[:size])
    dev = tuple(pairs[i] for i in perm[size : 2 * size])
    return FewShotSplit(train, dev)
