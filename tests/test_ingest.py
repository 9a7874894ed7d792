"""The ingest path (``build-vocab``, then ``build-pseudo``) against the
per-token loops it replaced, kept here as oracles, and its commands'
output bytes against digests recorded from those loops."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import promptsum
from promptsum.cli import dispatch
from promptsum.corpus import _TOKEN_RE, RESERVED_TOKENS, UNK_ID, Document, Vocab, build_vocab, tokenize
from promptsum.pseudodata import gsg_scores
from promptsum.rouge import overlap_f1

from conftest import make_doc, write_jsonl


# --------------------------------------------------------------------------
# oracles: the per-token loops as they stood before the ingest path moved
# its counting and lookups into C-level calls
# --------------------------------------------------------------------------


def oracle_tokenize(text: str, vocab: Vocab) -> list[int]:
    lookup = vocab.token_to_id.get
    return [lookup(tok, UNK_ID) for tok in _TOKEN_RE.findall(text.lower())]


def oracle_build_vocab(texts: list[str], min_freq: int = 1) -> Vocab:
    counts: dict[str, int] = {}
    for text in texts:
        for tok in _TOKEN_RE.findall(text.lower()):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq and tok not in RESERVED_TOKENS),
        key=lambda tok: (-counts[tok], tok),
    )
    id_to_token = RESERVED_TOKENS + tuple(kept)
    return Vocab({tok: i for i, tok in enumerate(id_to_token)}, id_to_token)


def oracle_gsg_scores(doc: Document) -> tuple[float, ...]:
    total = Counter(tok for sent in doc.sentences for tok in sent)
    flat_length = sum(len(s) for s in doc.sentences)
    scores = []
    for sent in doc.sentences:
        own = Counter(sent)
        overlap = sum(min(c, total[tok] - c) for tok, c in own.items())
        scores.append(overlap_f1(overlap, len(sent), flat_length - len(sent)))
    return tuple(scores)


# Upper case, apostrophes, digits, punctuation, non-ASCII letters (İ lowercases
# to two code points), tabs, the \x1c separator and non-breaking spaces, mixed
# with any character at all.
_PIECES = (
    "The", "cat", "CAT", "don't", "o'", "'tis", "2024", "3rd", "x9", ".", ",", "!?", "-", "(", '"',
    "é", "café", "ß", "STRASSE", "İ", "İstanbul", "Σ", "ΣΑΣ", "\t", "\x1c", "\xa0", " ", "\n", "  ",
)
_texts = st.lists(st.sampled_from(_PIECES) | st.characters(), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_texts, max_size=6), st.integers(1, 3))
@example(["The cat. the CAT, don't!", "café\tß\x1cİ\xa0Σ 2024"], 1)
@example(["a a b b c", "b c c"], 2)
def test_build_vocab_orders_tokens_as_the_loop_did(texts, min_freq):
    vocab, oracle = build_vocab(texts, min_freq), oracle_build_vocab(texts, min_freq)
    assert vocab.id_to_token == oracle.id_to_token
    assert vocab.token_to_id == oracle.token_to_id


@settings(max_examples=300, deadline=None)
@given(st.lists(_texts, max_size=4), _texts)
@example(["The cat sees the dog."], "THE CAT sees a Bird\t\x1cİ\xa0don't 42.")
def test_tokenize_gives_the_loops_ids(corpus, text):
    vocab = oracle_build_vocab(corpus)
    ids = tokenize(text, vocab)
    assert type(ids) is list
    assert ids == oracle_tokenize(text, vocab)


# Few distinct ids, so tokens repeat within and across sentences, and now and
# then a large one, so the per-sentence keys span a wide id range.
_ids = st.integers(0, 6) | st.integers(0, 5000)
_sentences = st.lists(_ids, min_size=1, max_size=8).map(tuple)
_documents = st.lists(_sentences, min_size=2, max_size=12).map(lambda s: Document(tuple(s)))


@settings(max_examples=300, deadline=None)
@given(_documents)
@example(make_doc([4], [4]))
@example(make_doc([7], [7, 7, 7], [8], [7, 8, 7]))
@example(make_doc([0], [4999, 0], [4999]))
def test_gsg_scores_match_the_counter_loop_bit_for_bit(doc):
    scores = gsg_scores(doc).scores
    assert [s.hex() for s in scores] == [s.hex() for s in oracle_gsg_scores(doc)]


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_flat_view_of_a_document(doc):
    assert doc.flat == tuple(tok for sent in doc.sentences for tok in sent)
    assert doc.flat_length == len(doc.flat)


# --------------------------------------------------------------------------
# the ingest commands, byte for byte
# --------------------------------------------------------------------------

_WORDS = (
    "the", "cat", "dog", "sees", "park", "river", "don't", "café", "straße", "2024",
    "bird", "finds", "a", "fox", "near", "old", "barn", "sun",
)


def _sentence(i: int, j: int) -> str:
    words = [_WORDS[(i * 7 + j * 3 + k * k) % len(_WORDS)] for k in range(3 + (i + j) % 6)]
    return " ".join(words).capitalize() + ("," if j % 4 == 3 else "") + "."


def _document(i: int, n_sentences: int) -> str:
    text = " ".join(_sentence(i, j) for j in range(n_sentences))
    return f"By Ann Lee (AP) {text}" if i % 3 == 0 else text


def _ingest_inputs(root: Path) -> None:
    # Documents of 2 to 7 sentences; record 5 has 24, past --max-src-tokens 60.
    write_jsonl(root / "data.jsonl", [
        {"document": _document(i, 24 if i == 5 else 2 + i % 6), "summary": _sentence(i, 0)} for i in range(12)
    ])
    write_jsonl(root / "fewshot.jsonl", [
        {"document": _document(100 + i, 3 + i % 4), "summary": _sentence(100 + i, 1)} for i in range(4)
    ])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Recorded from the per-token loops above, before the rewrite.
_INGEST_OUTPUTS = {
    "v/vocab.txt": "02e225c3d24fd9a3ed92ba4cb63bb433cd0f760181c652abc5d3d3bb898933c3",
    "gsg/pseudo.jsonl": "5851fa6ec483819759223901af270c0b694c39fc8b7999612be30924c333f7fb",
    "gsg/stats.json": "0ac9dcd07104da4fe0ade518240a2e18df704a070d1fdac4036200df581a6638",
    "lead/pseudo.jsonl": "01b9debfc385ba3e6f63c4d5c976fa178ba3609f8067968027ceaf9ef1c7b86f",
    "lead/stats.json": "7417808057995c6d33b27d834fc1218eb696963d371fbbf07b6050dddaa1aa5c",
}


def _ingest(root: Path, run) -> list:
    """build-vocab, then build-pseudo with gsg and the few-shot filter and with
    lead and no filter; ``run`` takes an argv and returns what it observed."""
    data, vocab = str(root / "data.jsonl"), str(root / "v" / "vocab.txt")
    pseudo = ["build-pseudo", "--vocab", vocab, "--data", data, "--max-src-tokens", "60"]
    return [
        run(["build-vocab", "--data", data, "--out", str(root / "v")]),
        run([*pseudo, "--strategy", "gsg", "--fewshot", str(root / "fewshot.jsonl"), "--out", str(root / "gsg")]),
        run([*pseudo, "--strategy", "lead", "--lead-n", "1", "--min-sum", "6", "--target-sum", "9",
             "--out", str(root / "lead")]),
    ]


def test_ingest_outputs_are_byte_identical_to_the_loops(tmp_path):
    _ingest_inputs(tmp_path)
    assert _ingest(tmp_path, dispatch) == [0, 0, 0]
    assert len(tokenize(_document(5, 24), build_vocab([]))) > 60  # the record that is cut
    assert {name: _sha256(tmp_path / name) for name in _INGEST_OUTPUTS} == _INGEST_OUTPUTS


def test_one_process_runs_commands_as_fresh_processes_do(tmp_path, capsys):
    # The parser is built once per process; an argument error and the commands
    # before it must leave nothing on it that a later command sees.
    def in_process(argv):
        rc = dispatch(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    env = dict(os.environ)
    src = str(Path(promptsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def fresh_process(argv):
        done = subprocess.run(
            [sys.executable, "-m", "promptsum", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        return done.returncode, done.stdout, done.stderr

    runs = {}
    for name, run in (("one", in_process), ("fresh", fresh_process)):
        root = tmp_path / name
        root.mkdir()
        _ingest_inputs(root)
        bad = run(["build-pseudo", "--strategy", "gsg", "--m", "two", "--out", str(root / "bad")])
        runs[name] = [bad, *_ingest(root, run)]
        assert not (root / "bad").exists()
    assert runs["one"] == runs["fresh"]
    rc, out, err = runs["one"][0]
    assert rc == 1 and not out and err.startswith("error: promptsum build-pseudo: ") and err.count("\n") == 1
    assert [rc for rc, _, _ in runs["one"][1:]] == [0, 0, 0]
    for name in _INGEST_OUTPUTS:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
