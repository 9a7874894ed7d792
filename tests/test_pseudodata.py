"""Lead/gap pseudo-pair construction and the quality filter."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptsum.corpus import EOS_ID, UNK_ID, Document
from promptsum.pseudodata import (
    DegenerateDocumentError,
    FilterThreshold,
    REASON_SOURCE_SHORTER,
    REASON_TOO_FEW_SENTENCES,
    Rejection,
    build_gsg_pair,
    build_lead_pair,
    clean_summary_text,
    compute_filter_threshold,
    filter_pseudo,
    gsg_scores,
)
from promptsum.rouge import ngram_counts, rouge_n_f1

from conftest import make_doc, make_pair


def _uniform_doc(n_sentences, sent_len, start=4):
    """Sentences of equal length with distinct tokens."""
    sents = []
    tok = start
    for _ in range(n_sentences):
        sents.append(tuple(range(tok, tok + sent_len)))
        tok += sent_len
    return Document(tuple(sents))


def leave_one_out_scores(doc):
    """O(n^2) reference: rebuild the rest of the document and its 1-tuple
    counts for every sentence, then take the clipped-overlap F1."""
    scores = []
    for i, sent in enumerate(doc.sentences):
        rest = tuple(tok for j, s in enumerate(doc.sentences) if j != i for tok in s)
        own = ngram_counts(sent, 1)
        other = ngram_counts(rest, 1)
        overlap = sum(min(count, other[gram]) for gram, count in own.items())
        p = overlap / len(sent)
        r = overlap / len(rest)
        scores.append(0.0 if p + r == 0 else 2.0 * p * r / (p + r))
    return tuple(scores)


# Few distinct ids (UNK among them) so tokens repeat within and across
# sentences; one-token sentences and two-sentence documents are in range.
_sentences = st.lists(st.integers(UNK_ID, UNK_ID + 4), min_size=1, max_size=7).map(tuple)
_documents = st.lists(_sentences, min_size=2, max_size=7).map(lambda s: Document(tuple(s)))


class TestLead:
    def test_long_sentences_no_augmentation(self):
        doc = _uniform_doc(10, 20)
        pair = build_lead_pair(doc, lead_n=3, min_sum=50, target_sum=70)
        assert pair.summary_content == doc.flat[:60]
        assert pair.document.sentences == doc.sentences[3:]
        assert pair.summary[-1] == EOS_ID

    def test_short_sentences_augment_then_reject(self):
        # 3 sentences = 30 tokens < 50, grows to 7 sentences (70 tokens);
        # the 3 remaining sentences (30 tokens) are shorter than the summary.
        doc = _uniform_doc(10, 10)
        result = build_lead_pair(doc, lead_n=3, min_sum=50, target_sum=70)
        assert isinstance(result, Rejection)
        assert result.reason == REASON_SOURCE_SHORTER

    def test_augmentation_stops_at_target(self):
        # 12 sentences of 10 tokens: summary grows from 30 to 70 tokens
        # (7 sentences), leaving 5 sentences = 50 tokens < 70 -> rejected;
        # with 17 sentences the remainder is 100 tokens -> kept.
        doc = _uniform_doc(17, 10)
        pair = build_lead_pair(doc, lead_n=3, min_sum=50, target_sum=70)
        assert len(pair.summary_content) == 70
        assert pair.document.flat_length == 100

    def test_too_few_sentences(self):
        result = build_lead_pair(_uniform_doc(2, 5), lead_n=3)
        assert isinstance(result, Rejection)
        assert result.reason == REASON_TOO_FEW_SENTENCES

    def test_reject_without_augmentation(self):
        # 60-token summary needs no growth, but only one 20-token sentence remains
        result = build_lead_pair(_uniform_doc(4, 20), lead_n=3, min_sum=50, target_sum=70)
        assert isinstance(result, Rejection)
        assert result.reason == REASON_SOURCE_SHORTER

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            doc = _uniform_doc(n, int(rng.integers(5, 30)))
            result = build_lead_pair(doc, lead_n=3, min_sum=50, target_sum=70)
            if isinstance(result, Rejection):
                continue
            rebuilt = result.summary_content + result.document.flat
            assert rebuilt == doc.flat


class TestGsgScores:
    def test_duplicate_sentences_score_one(self):
        doc = make_doc([4, 5, 6], [4, 5, 6])
        assert gsg_scores(doc).scores == (1.0, 1.0)

    def test_disjoint_sentences_score_zero(self):
        doc = make_doc([4, 5], [6, 7])
        assert gsg_scores(doc).scores == (0.0, 0.0)

    def test_matches_leave_one_out_rouge(self):
        doc = make_doc([4, 5], [4, 6], [7, 8])
        expected = []
        for i in range(3):
            rest = [t for j, s in enumerate(doc.sentences) if j != i for t in s]
            expected.append(rouge_n_f1(doc.sentences[i], rest, 1))
        assert gsg_scores(doc).scores == tuple(expected)

    def test_single_sentence_degenerate(self):
        with pytest.raises(DegenerateDocumentError):
            gsg_scores(make_doc([4, 5]))

    @settings(max_examples=300, deadline=None)
    @given(_documents)
    @example(make_doc([UNK_ID], [UNK_ID]))
    @example(make_doc([4], [4, 4, 5]))
    @example(make_doc([4, 4, 4], [4], [UNK_ID, 5, 4]))
    def test_equals_quadratic_reference(self, doc):
        assert gsg_scores(doc).scores == leave_one_out_scores(doc)


class TestGsgPair:
    def test_argmax_selection(self):
        # middle sentence shares both tokens with the rest
        doc = make_doc([4, 9], [4, 5], [5, 8])
        scores = gsg_scores(doc).scores
        assert scores[1] == max(scores)
        pair = build_gsg_pair(doc, m=1)
        assert pair.summary_content == (4, 5)
        assert pair.document.sentences == (doc.sentences[0], doc.sentences[2])

    def test_tie_goes_to_lower_index(self):
        doc = make_doc([4, 5], [4, 5], [8, 9])
        pair = build_gsg_pair(doc, m=1)
        assert pair.document.sentences == (doc.sentences[1], doc.sentences[2])

    def test_summary_keeps_original_order(self):
        # highest score sits at index 3, second pick ties back to index 0;
        # the summary must still concatenate in document order (0 then 3)
        doc = make_doc([5, 6], [5, 7], [4, 9], [4, 5])
        scores = gsg_scores(doc).scores
        assert scores[3] == max(scores)
        pair = build_gsg_pair(doc, m=2)
        assert pair.summary_content == (5, 6, 4, 5)
        assert pair.document.sentences == (doc.sentences[1], doc.sentences[2])

    def test_too_few_sentences_rejected(self):
        result = build_gsg_pair(make_doc([4, 5], [6, 7]), m=2)
        assert isinstance(result, Rejection)
        assert result.reason == REASON_TOO_FEW_SENTENCES

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            sents = [tuple(int(v) for v in rng.integers(4, 10, size=rng.integers(1, 5))) for _ in range(n)]
            doc = Document(tuple(sents))
            m = int(rng.integers(1, n))
            pair = build_gsg_pair(doc, m=m)
            if isinstance(pair, Rejection):
                continue
            assert len(pair.document.sentences) == n - m
            # every sentence lands on exactly one side
            summary_len = len(pair.summary_content)
            assert summary_len + pair.document.flat_length == doc.flat_length

    def test_exhaustive_top_m_oracle(self):
        from promptsum.pseudodata import select_gsg_indices

        pool = [(4, 5), (4, 6), (5, 6, 7), (8,)]
        for n in range(2, 6):
            for sents in itertools.product(pool, repeat=n):
                doc = Document(sents)
                scores = [
                    rouge_n_f1(
                        sents[i],
                        [t for j, s in enumerate(sents) if j != i for t in s],
                        1,
                    )
                    for i in range(n)
                ]
                for m in range(1, n):
                    # repeated argmax with lower-index ties
                    remaining = list(range(n))
                    expected = []
                    for _ in range(m):
                        best = max(remaining, key=lambda i: (scores[i], -i))
                        expected.append(best)
                        remaining.remove(best)
                    assert select_gsg_indices(doc, m) == sorted(expected)


class TestFilterThreshold:
    def test_zero_variance(self):
        doc = make_doc([4, 5, 6, 7, 8])
        pair = make_pair(doc, (4, 5))  # R = 2*(2/2)*(2/5)/(2/2+2/5)
        threshold = compute_filter_threshold([pair, pair, pair])
        assert threshold.sigma2 == 0.0
        assert threshold.threshold == threshold.epsilon

    def test_hand_arithmetic(self):
        # Ri = {0.2, 0.6}: epsilon 0.4, sigma2 0.04, threshold 0.36
        # build pairs with exactly those F1s: ref doc of 4 distinct tokens;
        # candidate of 6 tokens sharing 1 -> P=1/6, R=1/4, F1=0.2
        doc = make_doc([4, 5, 6, 7])
        low = make_pair(doc, (4, 30, 31, 32, 33, 34))
        assert rouge_n_f1(low.summary_content, doc.flat, 1) == pytest.approx(0.2)
        # candidate of 1 token shared -> P=1, R=1/4 ... F1 = 0.4; need 0.6:
        # 2 shared of candidate len 2 and ref len 4: P=1, R=1/2 -> 2/3. Use
        # candidate len 3 sharing 3: P=1, R=3/4 -> 6/7. Simplest: 0.6 from
        # P=3/5, R=3/5? shared 3, cand 5, ref 5 -> needs 5-token doc.
        doc5 = make_doc([4, 5, 6, 7, 8])
        high = make_pair(doc5, (4, 5, 6, 30, 31))
        assert rouge_n_f1(high.summary_content, doc5.flat, 1) == pytest.approx(0.6)
        threshold = compute_filter_threshold([low, high])
        assert threshold.epsilon == pytest.approx(0.4, abs=1e-12)
        assert threshold.sigma2 == pytest.approx(0.04, abs=1e-12)
        assert threshold.threshold == pytest.approx(0.36, abs=1e-12)

    def test_single_pair(self):
        doc = make_doc([4, 5])
        pair = make_pair(doc, (4, 5))
        threshold = compute_filter_threshold([pair])
        assert threshold.threshold == threshold.epsilon
        assert threshold.sigma2 == 0.0

    def test_threshold_never_exceeds_epsilon(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pairs = []
            for _ in range(int(rng.integers(1, 6))):
                doc = make_doc([int(v) for v in rng.integers(4, 10, size=5)])
                pairs.append(make_pair(doc, [int(v) for v in rng.integers(4, 10, size=3)]))
            t = compute_filter_threshold(pairs)
            assert t.threshold <= t.epsilon

    def test_empty_input(self):
        with pytest.raises(ValueError):
            compute_filter_threshold([])


class TestFilterPseudo:
    def test_boundary_is_kept(self):
        doc = make_doc([4, 5])
        pair = make_pair(doc, (4, 5))  # F1 = 1.0
        kept = filter_pseudo([pair], FilterThreshold(epsilon=1.0, sigma2=0.0))
        assert kept == [pair]

    def test_disjoint_dropped(self):
        doc = make_doc([4, 5])
        pair = make_pair(doc, (8, 9))
        assert filter_pseudo([pair], FilterThreshold(epsilon=0.5, sigma2=0.0)) == []

    def test_mixed_batch_matches_recomputation(self):
        rng = np.random.default_rng(3)
        pairs = []
        for _ in range(5):
            doc = make_doc([int(v) for v in rng.integers(4, 9, size=6)])
            pairs.append(make_pair(doc, [int(v) for v in rng.integers(4, 9, size=4)]))
        threshold = FilterThreshold(epsilon=0.5, sigma2=0.1)
        kept = filter_pseudo(pairs, threshold)
        expected = [
            p
            for p in pairs
            if rouge_n_f1(p.summary_content, p.document.flat, 1) >= 0.4
        ]
        assert kept == expected

    def test_output_is_subsequence(self):
        rng = np.random.default_rng(4)
        pairs = []
        for _ in range(10):
            doc = make_doc([int(v) for v in rng.integers(4, 8, size=5)])
            pairs.append(make_pair(doc, [int(v) for v in rng.integers(4, 8, size=3)]))
        kept = filter_pseudo(pairs, FilterThreshold(epsilon=0.4, sigma2=0.0))
        it = iter(pairs)
        assert all(k in it for k in kept)


class TestCleaning:
    def test_byline_removed(self):
        assert clean_summary_text("By John Smith the markets rose") == "the markets rose"

    def test_agency_tag_removed(self):
        assert clean_summary_text("markets rose (Reuters) today") == "markets rose today"

    def test_leading_date_removed(self):
        assert clean_summary_text("2021-03-04 markets rose") == "markets rose"

    def test_clean_can_empty_a_sentence(self):
        assert clean_summary_text("By Jane Doe (AP)") == ""
