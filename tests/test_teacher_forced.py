"""One teacher-forced pass serves the training loss, sequence scoring and perplexity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum.corpus import BOS_ID, EOS_ID, PAD_ID
from promptsum.decoding import sequence_logprob
from promptsum.evaluation import perplexity
from promptsum.model import decode_logits, encode_source, teacher_forced_logits
from promptsum.training import batch_mean_nll

from conftest import make_doc, make_pair, random_document, tiny_model

VOCAB = 20
SETTINGS = settings(max_examples=15, deadline=None)
# Scored ids that hold a PAD and a BOS somewhere, as a beam may emit them.
WITH_PAD_AND_BOS = st.lists(st.integers(0, VOCAB - 1), max_size=4).flatmap(
    lambda ids: st.permutations(ids + [PAD_ID, BOS_ID])
)
# Summaries for the training loss: any ids but PAD, then EOS.
SUMMARIES = st.lists(st.integers(1, VOCAB - 1), max_size=4).map(lambda ids: ids + [EOS_ID])


def _reference_logprob(backbone, prompts, config, doc, ids) -> float:
    """Sum of per-row log-softmax values of ``ids``, one row at a time."""
    enc = encode_source(backbone, prompts, config, doc)
    logits, _ = decode_logits(backbone, prompts, config, enc, ids[:-1])
    total = 0.0
    for row, token in zip(logits.data, ids):
        z = row - row.max()
        total += z[token] - math.log(np.exp(z).sum())
    return total


def _documents(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [random_document(rng, vocab=VOCAB, max_sentences=2, max_len=4) for _ in range(n)]


@SETTINGS
@given(seed=st.integers(0, 1000), seqs=st.lists(WITH_PAD_AND_BOS, min_size=1, max_size=3))
def test_pad_and_bos_ids_are_scored(seed, seqs):
    backbone, prompts, config = tiny_model(seed=seed, vocab=VOCAB)
    pairs = list(zip(_documents(seed, len(seqs)), seqs))
    want = [_reference_logprob(backbone, prompts, config, doc, ids) for doc, ids in pairs]
    for (doc, ids), ref in zip(pairs, want):
        assert sequence_logprob(backbone, prompts, config, doc, ids) == pytest.approx(ref, rel=1e-12)
    n_tokens = sum(len(ids) for ids in seqs)
    assert perplexity(backbone, prompts, config, pairs) == pytest.approx(
        math.exp(-sum(want) / n_tokens), rel=1e-12
    )


@SETTINGS
@given(seed=st.integers(0, 1000), summaries=st.lists(SUMMARIES, min_size=1, max_size=3))
def test_the_three_scores_agree(seed, summaries):
    backbone, prompts, config = tiny_model(seed=seed, vocab=VOCAB)
    batch = [make_pair(doc, ids) for doc, ids in zip(_documents(seed, len(summaries)), summaries)]
    pairs = [(pair.document, pair.summary) for pair in batch]
    n_tokens = sum(len(ids) for ids in summaries)
    by_sequence = -sum(sequence_logprob(backbone, prompts, config, *pair) for pair in pairs) / n_tokens
    by_perplexity = math.log(perplexity(backbone, prompts, config, pairs))
    loss, n = batch_mean_nll(backbone, prompts, config, batch)
    assert n == n_tokens
    assert by_sequence == pytest.approx(by_perplexity, rel=1e-12)
    assert loss.item() == pytest.approx(by_perplexity, rel=1e-12)


def test_rows_and_targets_follow_the_pairs():
    backbone, prompts, config = tiny_model(seed=2, vocab=VOCAB)
    pairs = [(make_doc([4, 5]), [6, EOS_ID]), (make_doc([7]), (8, 9, EOS_ID))]
    logits, targets = teacher_forced_logits(backbone, prompts, config, pairs)
    assert logits.shape == (5, VOCAB)
    assert targets.tolist() == [6, EOS_ID, 8, 9, EOS_ID]
    for rows, (doc, ids) in zip((logits.data[:2], logits.data[2:]), pairs):
        enc = encode_source(backbone, prompts, config, doc)
        alone, _ = decode_logits(backbone, prompts, config, enc, list(ids)[:-1])
        np.testing.assert_array_equal(rows, alone.data)


@pytest.mark.parametrize("pairs", [[], [(make_doc([4]), [5, EOS_ID]), (make_doc([4]), [])]])
def test_nothing_to_score_is_rejected(pairs):
    backbone, prompts, config = tiny_model()
    with pytest.raises(ValueError):
        teacher_forced_logits(backbone, prompts, config, pairs)


@SETTINGS
@given(seed=st.integers(0, 1000), summaries=st.lists(SUMMARIES, min_size=2, max_size=4))
def test_a_pairs_logits_do_not_depend_on_its_batch(seed, summaries):
    # Each pair is projected onto the vocabulary by its own decode_logits call,
    # so its rows are the same bits alone as among other pairs, whatever their
    # lengths: a one-row pair (EOS alone) included.
    backbone, prompts, config = tiny_model(seed=seed, vocab=VOCAB)
    pairs = list(zip(_documents(seed, len(summaries)), summaries))
    logits, _ = teacher_forced_logits(backbone, prompts, config, pairs)
    start = 0
    for pair in pairs:
        alone, _ = teacher_forced_logits(backbone, prompts, config, [pair])
        rows = logits.data[start : start + len(pair[1])]
        assert rows.tobytes() == alone.data.tobytes()
        start += len(pair[1])
    assert start == logits.shape[0]


@pytest.mark.parametrize("ids", [[EOS_ID], [6, EOS_ID], [6, 7, 8, EOS_ID]])
def test_one_pair_is_scored_by_its_decode_logits_call(ids):
    backbone, prompts, config = tiny_model(seed=3, vocab=VOCAB)
    doc = make_doc([4, 5, 6], [7])
    logits, targets = teacher_forced_logits(backbone, prompts, config, [(doc, ids)])
    enc = encode_source(backbone, prompts, config, doc)
    alone, _ = decode_logits(backbone, prompts, config, enc, ids[:-1])
    assert logits.shape == (len(ids), VOCAB)
    assert logits.data.tobytes() == alone.data.tobytes()
    assert targets.tolist() == ids
