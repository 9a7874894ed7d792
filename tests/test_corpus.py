"""Sentence splitting, tokenization, dataset loading, and few-shot sampling."""

import json

import numpy as np
import pytest

from promptsum.corpus import (
    BOS_ID,
    CapacityError,
    CorpusError,
    Document,
    EOS_ID,
    EmptyDatasetError,
    EmptyDocumentError,
    PAD_ID,
    ParseError,
    RESERVED_TOKENS,
    SummaryPair,
    UNK_ID,
    Vocab,
    atomic_open,
    build_vocab,
    detokenize,
    encode_document,
    load_dataset,
    load_vocab,
    sample_fewshot,
    save_vocab,
    split_sentences,
    tokenize,
    truncate_document,
)

from conftest import make_doc, make_lead_corpus, write_jsonl


class TestSplitSentences:
    def test_two_terminated_sentences(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_unterminated_fragment(self):
        assert split_sentences("Hello") == ["Hello"]

    def test_abbreviation_is_protected(self):
        assert split_sentences("Mr. X won. He smiled.") == ["Mr. X won.", "He smiled."]

    def test_single_initial_is_protected(self):
        assert split_sentences("John F. Kennedy spoke. We listened.") == [
            "John F. Kennedy spoke.",
            "We listened.",
        ]

    def test_question_and_exclamation(self):
        assert split_sentences("Really? Yes! Done.") == ["Really?", "Yes!", "Done."]

    def test_lowercase_after_period_does_not_split(self):
        assert split_sentences("version 2. 0 was released") == ["version 2. 0 was released"]

    def test_empty_input_raises(self):
        with pytest.raises(EmptyDocumentError):
            split_sentences("   ")

    def test_concatenation_preserves_text(self):
        text = "The cat sat. The dog ran! Did the bird fly? It did."
        parts = split_sentences(text)
        assert " ".join(parts) == text


class TestTokenize:
    def test_known_tokens(self):
        vocab = build_vocab(["the cat"])
        assert tokenize("The cat", vocab) == [vocab.id_of("the"), vocab.id_of("cat")]

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(["the cat"])
        assert tokenize("xyzzy", vocab) == [UNK_ID]

    def test_punctuation_splits(self):
        vocab = build_vocab(["a , b"])
        assert tokenize("a, b", vocab) == [
            vocab.id_of("a"),
            vocab.id_of(","),
            vocab.id_of("b"),
        ]

    def test_detokenize_round_trip(self):
        text = "The cat, the dog. And a bird!"
        vocab = build_vocab([text])
        ids = tokenize(text, vocab)
        assert tokenize(detokenize(ids, vocab), vocab) == ids

    def test_detokenize_skips_reserved(self):
        vocab = build_vocab(["a b"])
        ids = [BOS_ID, vocab.id_of("a"), PAD_ID, vocab.id_of("b"), EOS_ID]
        assert detokenize(ids, vocab) == "a b"


class TestVocab:
    def test_reserved_ids_fixed(self):
        vocab = build_vocab(["hello world"])
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert vocab.id_to_token[:4] == ("<pad>", "<bos>", "<eos>", "<unk>")

    def test_bijective(self):
        vocab = build_vocab(["a b c a b a"])
        for tok, i in vocab.token_to_id.items():
            assert vocab.id_to_token[i] == tok

    def test_file_round_trip(self, tmp_path):
        vocab = build_vocab(["the cat sat on the mat"])
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        # line number = id
        lines = path.read_text().splitlines()
        assert lines[vocab.id_of("the")] == "the"

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocab(build_vocab(["the cat sat on the mat"]), path)
        before = path.read_bytes()
        # A token that is not a string fails the write after the reserved lines.
        bad = Vocab({**build_vocab(["dog"]).token_to_id, None: 5}, RESERVED_TOKENS + ("dog", None))
        with pytest.raises(TypeError):
            save_vocab(bad, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]


class TestDocument:
    def test_flat_length_is_sum_of_sentences(self):
        doc = make_doc([4, 5], [6], [7, 8, 9])
        assert doc.flat_length == 6
        assert doc.flat == (4, 5, 6, 7, 8, 9)

    def test_flat_is_built_once(self):
        doc = make_doc([4, 5], [6])
        assert doc.flat is doc.flat
        assert doc == make_doc([4, 5], [6]) and hash(doc) == hash(make_doc([4, 5], [6]))

    def test_empty_document_rejected(self):
        with pytest.raises(EmptyDocumentError):
            Document(())

    def test_empty_sentence_rejected(self):
        with pytest.raises(CorpusError):
            Document(((4, 5), ()))

    def test_summary_must_end_with_eos(self):
        with pytest.raises(CorpusError):
            SummaryPair(make_doc([4, 5]), (4, 5))


class TestTruncation:
    def test_truncation_keeps_whole_tokens(self):
        doc = make_doc([4, 5, 6], [7, 8, 9])
        cut = truncate_document(doc, 4)
        assert cut.flat_length == 4
        assert cut.sentences == ((4, 5, 6), (7,))

    def test_truncation_noop_when_short(self):
        doc = make_doc([4, 5])
        assert truncate_document(doc, 10) is doc

    def test_truncation_never_empties(self):
        doc = make_doc([4, 5, 6])
        assert truncate_document(doc, 1).flat_length == 1

    def test_truncation_preserves_token_prefix(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            sents = [[int(v) for v in rng.integers(4, 20, size=rng.integers(1, 8))] for _ in range(n)]
            doc = make_doc(*sents)
            cut = int(rng.integers(1, doc.flat_length + 3))
            truncated = truncate_document(doc, cut)
            assert truncated.flat == doc.flat[: min(cut, doc.flat_length)]


class TestLoadDataset:
    def _write(self, tmp_path, records):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, records)
        return path

    def test_valid_file(self, tmp_path):
        records = make_lead_corpus(3, seed=0)
        vocab = build_vocab([r["document"] for r in records])
        pairs = load_dataset(self._write(tmp_path, records), vocab, 1024)
        assert len(pairs) == 3
        assert all(p.summary[-1] == EOS_ID for p in pairs)

    def test_long_document_truncated(self, tmp_path):
        words = " ".join(["word"] * 2000)
        vocab = build_vocab([words])
        path = self._write(tmp_path, [{"document": words, "summary": "word"}])
        pairs = load_dataset(path, vocab, 1024)
        assert pairs[0].document.flat_length == 1024

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"document": "a b.", "summary": "a"}) + "\n")
            fh.write(json.dumps({"document": "no summary here."}) + "\n")
        vocab = build_vocab(["a b"])
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, vocab, 1024)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"document": "a.", "summary": "a"}\nnot json\n')
        vocab = build_vocab(["a"])
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, vocab, 1024)

    def test_empty_records_skipped_and_counted(self, tmp_path):
        records = [
            {"document": "The cat sat.", "summary": "cat"},
            {"document": "", "summary": "x"},
        ]
        vocab = build_vocab(["the cat sat"])
        pairs = load_dataset(self._write(tmp_path, records), vocab, 1024)
        assert len(pairs) == 1
        assert pairs.skipped == 1

    def test_skipped_count_travels_with_the_pairs(self, tmp_path):
        records = [
            {"document": "The cat sat.", "summary": "cat"},
            {"document": "The cat sat.", "summary": "  "},
        ]
        vocab = build_vocab(["the cat sat"])
        clean = load_dataset(self._write(tmp_path, records[:1]), vocab, 1024)
        assert clean.skipped == 0
        pairs = load_dataset(self._write(tmp_path, records), vocab, 1024)
        assert pairs.skipped == 1
        assert pairs == clean
        assert sample_fewshot(pairs * 2, 1, seed=0).train == (clean[0],)

    def test_all_invalid_raises_empty_dataset(self, tmp_path):
        records = [{"document": "", "summary": ""}]
        vocab = build_vocab(["a"])
        with pytest.raises(EmptyDatasetError, match="no valid records"):
            load_dataset(self._write(tmp_path, records), vocab, 1024)


class TestSampleFewshot:
    def _pairs(self, n):
        return [
            SummaryPair(make_doc([4 + i % 5, 5]), (4, EOS_ID)) for i in range(n)
        ]

    def test_sizes_and_disjoint(self):
        pairs = self._pairs(1000)
        split = sample_fewshot(pairs, 300, seed=7)
        assert len(split.train) == 300 and len(split.dev) == 300
        train_ids = {id(p) for p in split.train}
        dev_ids = {id(p) for p in split.dev}
        assert not train_ids & dev_ids

    def test_deterministic(self):
        pairs = self._pairs(50)
        a = sample_fewshot(pairs, 10, seed=3)
        b = sample_fewshot(pairs, 10, seed=3)
        assert [id(p) for p in a.train] == [id(p) for p in b.train]
        assert [id(p) for p in a.dev] == [id(p) for p in b.dev]

    def test_different_seed_differs(self):
        pairs = self._pairs(50)
        a = sample_fewshot(pairs, 10, seed=3)
        b = sample_fewshot(pairs, 10, seed=4)
        assert [id(p) for p in a.train] != [id(p) for p in b.train]

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            sample_fewshot(self._pairs(500), 300, seed=0)


def test_encode_document_segments_and_tokenizes():
    text = "The cat sat. The dog ran."
    vocab = build_vocab([text])
    doc = encode_document(text, vocab)
    assert len(doc.sentences) == 2
    assert doc.flat_length == 8  # 3 words + '.' per sentence


def test_sentence_lengths_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        sents = [[int(v) for v in rng.integers(4, 20, size=rng.integers(1, 7))] for _ in range(n)]
        doc = make_doc(*sents)
        assert sum(doc.sentence_lengths()) == doc.flat_length


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half of a new")
            raise RuntimeError("write failed")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
