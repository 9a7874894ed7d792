"""Synthetic inputs for the benchmark, drawn from a seed.

Text is made of words ``w0`` ... ``w3994`` drawn Zipf-like (probability of
rank r proportional to 1/(r+1)), so common words repeat across sentences the
way they do in news text and ROUGE overlaps are neither all-zero nor
all-one. Sentences start with a capital letter and end with ".", so the
package's sentence splitter recovers them exactly. Nothing here imports the
package under test: the program receives only the files written here.
"""

from __future__ import annotations

import json
import math

import numpy as np

RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")
# 4 reserved ids + "." + the words make a vocabulary of exactly 4000 rows.
N_WORDS = 3995

# Bench config shape (train and generate): 10 sentences of 19 words + "."
# make a 200-token source; 2 such sentences make a 40-token target.
SRC_SENTENCES = 10
SENTENCE_WORDS = 19
TGT_SENTENCES = 2

# Ingest documents: log-uniform sentence counts, so most documents are short
# and a tail reaches the long documents where leave-one-out scoring costs most.
INGEST_MIN_SENTENCES = 3
INGEST_MAX_SENTENCES = 80
INGEST_MIN_WORDS = 5
INGEST_MAX_WORDS = 19


class TextGen:
    """Seeded sentence generator; also remembers which words it emitted."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        weights = 1.0 / np.arange(1, N_WORDS + 1)
        self.cdf = np.cumsum(weights / weights.sum())
        self.cdf[-1] = 1.0
        self.used: set[int] = set()

    def sentence(self, n_words: int) -> str:
        ids = np.searchsorted(self.cdf, self.rng.random(n_words), side="right")
        self.used.update(int(i) for i in ids)
        words = [f"w{i}" for i in ids]
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def text(self, n_sentences: int, min_words: int, max_words: int) -> str:
        lengths = self.rng.integers(min_words, max_words + 1, size=n_sentences)
        return " ".join(self.sentence(int(n)) for n in lengths)


def ingest_sentence_counts(n: int) -> list[int]:
    """Sentence counts at the ``n`` midpoint quantiles of a log-uniform law.

    Every corpus of ``n`` records gets the same length mix, so rounds differ
    in their words only and round times compare like with like.
    """
    lo, hi = math.log(INGEST_MIN_SENTENCES), math.log(INGEST_MAX_SENTENCES + 1)
    return [int(math.exp(lo + (hi - lo) * (k + 0.5) / n)) for k in range(n)]


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_vocab(path: str) -> None:
    """The fixed 4000-row vocabulary the train and generate models use."""
    with open(path, "w", encoding="utf-8") as fh:
        for token in RESERVED + (".",) + tuple(f"w{i}" for i in range(N_WORDS)):
            fh.write(token + "\n")


def write_pairs(path: str, rng: np.random.Generator, n: int) -> None:
    """``n`` records with a 200-token document and a 40-token summary."""
    gen = TextGen(rng)
    records = [
        {
            "document": gen.text(SRC_SENTENCES, SENTENCE_WORDS, SENTENCE_WORDS),
            "summary": gen.text(TGT_SENTENCES, SENTENCE_WORDS, SENTENCE_WORDS),
        }
        for _ in range(n)
    ]
    _write_jsonl(path, records)


def write_ingest_corpus(path: str, rng: np.random.Generator, n: int) -> int:
    """``n`` records of mixed length; returns the number of distinct tokens.

    The count (words used plus ".") is what ``build-vocab`` must add to the
    four reserved ids.
    """
    gen = TextGen(rng)
    records = []
    for n_sent in rng.permutation(ingest_sentence_counts(n)):
        records.append(
            {
                "document": gen.text(int(n_sent), INGEST_MIN_WORDS, INGEST_MAX_WORDS),
                "summary": gen.text(1, 10, INGEST_MAX_WORDS),
            }
        )
    _write_jsonl(path, records)
    return len(gen.used) + 1


def seed_rng(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """An independent stream per input file, so adding one leaves the others."""
    tag = sum(ord(c) * 31**k for k, c in enumerate(stream)) % (2**31)
    return np.random.default_rng([seed, tag, index])
