"""ROUGE scoring against hand counts and exhaustive brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptsum.corpus import UNK_ID
from promptsum.rouge import lcs_length, ngram_counts, rouge_l_f1, rouge_n_f1, rouge_score


def oracle_lcs(a, b):
    """Exponential oracle: longest subsequence of a that is also one of b."""

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        if len(sub) > best and is_subsequence(sub, b):
            best = len(sub)
    return best


def oracle_rouge_n(cand, ref, n):
    """Clipped overlap by explicit removal from the reference n-gram pool."""
    cgrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    rgrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    if not cgrams or not rgrams:
        return 0.0
    pool = list(rgrams)
    overlap = 0
    for gram in cgrams:
        if gram in pool:
            pool.remove(gram)
            overlap += 1
    p = overlap / len(cgrams)
    r = overlap / len(rgrams)
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def tuple_rouge1(cand, ref):
    """ROUGE-1 F1 counted on ``ngram_counts``' 1-tuple keys."""
    c = ngram_counts(cand, 1)
    r = ngram_counts(ref, 1)
    n_c = sum(c.values())
    n_r = sum(r.values())
    if n_c == 0 or n_r == 0:
        return 0.0
    overlap = sum(min(count, r[gram]) for gram, count in c.items())
    p = overlap / n_c
    rec = overlap / n_r
    return 0.0 if p + rec == 0 else 2.0 * p * rec / (p + rec)


def oracle_rouge_l(cand, ref):
    if not cand or not ref:
        return 0.0
    lcs = oracle_lcs(cand, ref)
    p = lcs / len(cand)
    r = lcs / len(ref)
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


class TestNgramCounts:
    def test_unigrams(self):
        assert ngram_counts([7, 8, 7], 1) == {(7,): 2, (8,): 1}

    def test_bigrams(self):
        assert ngram_counts([7, 8, 9], 2) == {(7, 8): 1, (8, 9): 1}

    def test_shorter_than_n(self):
        assert ngram_counts([7], 2) == {}

    def test_total_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            toks = list(rng.integers(0, 4, size=rng.integers(0, 10)))
            n = int(rng.integers(1, 4))
            assert sum(ngram_counts(toks, n).values()) == max(0, len(toks) - n + 1)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngram_counts([1, 2], 0)


class TestRougeN:
    def test_hand_counted_example(self):
        # "the cat sat" vs "the cat": overlap 2, P = 2/3, R = 1 -> F1 = 0.8
        assert rouge_n_f1([10, 11, 12], [10, 11], 1) == pytest.approx(0.8)

    def test_identical(self):
        assert rouge_n_f1([4, 5, 6], [4, 5, 6], 1) == 1.0

    def test_disjoint(self):
        assert rouge_n_f1([4, 5], [6, 7], 1) == 0.0

    def test_empty_sides(self):
        assert rouge_n_f1([], [4], 1) == 0.0
        assert rouge_n_f1([4], [], 1) == 0.0

    def test_clipping(self):
        # candidate repeats a token 3 times, reference has it once
        assert rouge_n_f1([4, 4, 4], [4], 1) == pytest.approx(2 * (1 / 3) * 1 / (1 / 3 + 1))


class TestLcs:
    def test_hand_example(self):
        assert lcs_length([4, 5, 6, 7], [4, 6, 5, 7]) == 3

    def test_identity(self):
        x = [4, 5, 6, 7, 8]
        assert lcs_length(x, x) == len(x)

    def test_empty(self):
        assert lcs_length([4, 5], []) == 0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            l = lcs_length(a, b)
            assert l == lcs_length(b, a)
            assert l <= min(len(a), len(b))

    def test_matches_exponential_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            assert lcs_length(a, b) == oracle_lcs(a, b)

    def test_additivity_over_disjoint_alphabets(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = list(rng.integers(0, 4, size=rng.integers(1, 6)))
            b = list(rng.integers(0, 4, size=rng.integers(1, 6)))
            suffix = list(rng.integers(10, 14, size=rng.integers(1, 5)))
            assert lcs_length(a + suffix, b + suffix) == lcs_length(a, b) + len(suffix)


class TestRougeL:
    def test_hand_example(self):
        assert rouge_l_f1([4, 5, 6, 7], [4, 6, 5, 7]) == pytest.approx(0.75)

    def test_identical(self):
        assert rouge_l_f1([4, 5, 6], [4, 5, 6]) == 1.0

    def test_empty_candidate(self):
        assert rouge_l_f1([], [4, 5]) == 0.0


class TestProperties:
    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            s = rouge_score(a, b)
            for v in (s.r1_f1, s.r2_f1, s.rl_f1):
                assert 0.0 <= v <= 1.0

    def test_rouge1_invariant_under_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = list(rng.integers(0, 6, size=8))
            b = list(rng.integers(0, 6, size=8))
            shuffled = list(a)
            rng.shuffle(shuffled)
            assert rouge_n_f1(a, b, 1) == pytest.approx(rouge_n_f1(shuffled, b, 1))

    def test_all_three_match_oracles_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
            assert rouge_n_f1(a, b, 1) == oracle_rouge_n(a, b, 1)
            assert rouge_n_f1(a, b, 2) == oracle_rouge_n(a, b, 2)
            assert rouge_l_f1(a, b) == oracle_rouge_l(a, b)


# A small alphabet that includes UNK, so tokens repeat within and across sides.
_token_lists = st.lists(st.integers(UNK_ID, UNK_ID + 5), max_size=12)


class TestUnigramPath:
    @settings(max_examples=300, deadline=None)
    @given(_token_lists, _token_lists)
    @example([], [])
    @example([UNK_ID], [UNK_ID, UNK_ID])
    @example([4, 4, 4], [4])
    def test_equals_tuple_formula(self, a, b):
        assert rouge_n_f1(a, b, 1) == tuple_rouge1(a, b)
