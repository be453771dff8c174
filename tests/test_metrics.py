import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab.errors import DegenerateInputError, InvalidInputError
from collapse_lab.metrics import (
    aggregate_scores,
    avg_text_length,
    bleu,
    cosine_diversity,
    gaussianity_aic,
    kl_entropy,
    knn_cosine_diversity,
    lean_bins,
    pca_2d,
    self_bleu,
    tokenize,
    type_token_ratio,
    word_entropy,
)


class TestCosineDiversity:
    def test_identical_vectors(self):
        emb = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert cosine_diversity(emb) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cosine_diversity(emb) == pytest.approx(1.0, abs=1e-12)

    def test_three_point_fixture(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        # pairwise distances 1, 2, 1
        assert cosine_diversity(emb) == pytest.approx(4 / 3, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine_diversity(np.array([[0.0, 0.0], [1.0, 0.0]]))

    @given(st.integers(0, 6), st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_row_scale_invariance(self, row, factor):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(7, 5))
        scaled = emb.copy()
        scaled[row] *= factor
        assert cosine_diversity(scaled) == pytest.approx(cosine_diversity(emb), abs=1e-10)


class TestKnnCosineDiversity:
    def test_identical_points(self):
        emb = np.tile([1.0, 1.0], (6, 1))
        assert knn_cosine_diversity(emb, 3) == pytest.approx(0.0, abs=1e-12)

    def test_full_neighborhood_matches_pairwise(self):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(40, 8))
        full = knn_cosine_diversity(emb, 39)
        assert full == pytest.approx(cosine_diversity(emb), abs=1e-12)

    def test_two_clusters_small_k(self):
        rng = np.random.default_rng(6)
        a = np.array([1.0, 0.0]) + rng.normal(scale=1e-3, size=(20, 2))
        b = np.array([0.0, 1.0]) + rng.normal(scale=1e-3, size=(20, 2))
        emb = np.vstack([a, b])
        local = knn_cosine_diversity(emb, 5)
        assert local < cosine_diversity(emb)
        assert local < 1e-4

    def test_k_out_of_range(self):
        emb = np.eye(4)
        with pytest.raises(InvalidInputError):
            knn_cosine_diversity(emb, 4)


class TestBleu:
    def test_exact_match(self):
        assert bleu("the cat sat".split(), ["the cat sat".split()]) == pytest.approx(1.0)

    def test_brevity_penalty_case(self):
        score = bleu("the cat sat".split(),
                     ["the cat sat on the mat".split()], max_n=3)
        assert score == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_disjoint_vocabulary(self):
        cand = "aa bb cc".split()
        refs = ["xx yy zz".split()]
        assert bleu(cand, refs, smoothing="none") == 0.0
        assert bleu(cand, refs, smoothing="add1") < 0.05

    def test_short_candidate_caps_order(self):
        assert bleu(["hello"], [["hello"]], max_n=4) == pytest.approx(1.0)

    def test_empty_candidate_rejected(self):
        with pytest.raises(InvalidInputError):
            bleu([], [["a"]])


class TestSelfBleu:
    def test_identical_texts(self):
        assert self_bleu(["same text here"] * 5) == pytest.approx(1.0)

    def test_disjoint_texts(self):
        texts = ["aa bb cc dd", "ee ff gg hh", "ii jj kk ll"]
        assert self_bleu(texts) < 0.05

    def test_two_thirds_fixture(self):
        texts = ["a b c d", "a b c d", "w x y z"]
        assert self_bleu(texts, max_n=2) == pytest.approx(2 / 3, abs=1e-9)

    def test_permutation_invariance(self):
        texts = ["the quick brown fox", "lazy dogs sleep here",
                 "the quick red fox", "dogs sleep a lot"]
        a = self_bleu(texts)
        b = self_bleu(texts[::-1])
        assert a == pytest.approx(b, abs=1e-12)

    def test_needs_two_texts(self):
        with pytest.raises(InvalidInputError):
            self_bleu(["one"])

    @pytest.mark.parametrize("texts", [["", ""], ["...", "!!", "word"], ["a b", "?!"]])
    def test_no_scorable_texts(self, texts):
        with pytest.raises(InvalidInputError, match="no scorable texts"):
            self_bleu(texts)

    def test_unknown_smoothing(self):
        with pytest.raises(InvalidInputError, match="unknown smoothing"):
            self_bleu(["a b", "b c"], smoothing="add2")


def _pairwise_self_bleu(texts, max_n=4, smoothing="add1", tokenizer=tokenize,
                        max_texts=250, seed=0):
    """Brute-force SelfBLEU: ``bleu`` of each text against all the others."""
    if len(texts) < 2:
        raise InvalidInputError("self-BLEU needs at least 2 texts")
    if len(texts) > max_texts:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(texts), size=max_texts, replace=False)
        texts = [texts[i] for i in sorted(idx)]
    token_lists = [tokenizer(t) for t in texts]
    scores = []
    for i, cand in enumerate(token_lists):
        refs = [tok for j, tok in enumerate(token_lists) if j != i and tok]
        if cand and refs:
            scores.append(bleu(cand, refs, max_n=max_n, smoothing=smoothing))
    if not scores:
        raise InvalidInputError("no scorable texts after tokenization")
    return float(np.mean(scores))


# Few words and short texts, so n-grams repeat within and across texts, top
# counts tie, texts fall below max_n and reference lengths tie; "!" and "..."
# tokenize to nothing.
_WORDS = ["a", "b", "c", "d", "a.", "!", "..."]
_TEXT = st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join)
# Drawing a batch from a smaller pool of texts makes duplicate texts common.
_BATCH = st.lists(_TEXT, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=9))


class TestSelfBleuOracle:
    @given(_BATCH, st.sampled_from([1, 2, 4]), st.sampled_from(["none", "add1"]),
           st.sampled_from([tokenize, str.split, list]), st.integers(2, 10),
           st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_equals_pairwise_bleu(self, texts, max_n, smoothing, tokenizer,
                                  max_texts, seed):
        kw = dict(max_n=max_n, smoothing=smoothing, tokenizer=tokenizer,
                  max_texts=max_texts, seed=seed)
        try:
            expected = _pairwise_self_bleu(texts, **kw)
        except InvalidInputError:
            with pytest.raises(InvalidInputError):
                self_bleu(texts, **kw)
            return
        assert self_bleu(texts, **kw) == expected

    def test_duplicates_share_the_top_count(self):
        texts = ["a b a b", "a b a b", "a b c", "c c c"]
        for max_n in (1, 2, 4):
            for smoothing in ("none", "add1"):
                assert (self_bleu(texts, max_n=max_n, smoothing=smoothing)
                        == _pairwise_self_bleu(texts, max_n=max_n, smoothing=smoothing))

    def test_subsampled_batch(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 12))) for _ in range(60)]
        for seed in (0, 1):
            assert (self_bleu(texts, max_texts=25, seed=seed)
                    == _pairwise_self_bleu(texts, max_texts=25, seed=seed))


class TestWordEntropy:
    def test_single_type(self):
        assert word_entropy(["a a a"]) == 0.0

    def test_two_types(self):
        assert word_entropy(["a b"]) == pytest.approx(1.0)

    def test_pooled_frequencies(self):
        # p = {1/3, 1/2, 1/6}
        expected = -(2 / 6 * math.log2(2 / 6) + 3 / 6 * math.log2(3 / 6)
                     + 1 / 6 * math.log2(1 / 6))
        assert word_entropy(["a a b b b c"]) == pytest.approx(expected, abs=1e-12)
        assert word_entropy(["a a b b b c"]) == pytest.approx(1.4591, abs=1e-4)

    def test_no_tokens_rejected(self):
        with pytest.raises(InvalidInputError):
            word_entropy(["..."])


class TestTypeTokenRatio:
    def test_simple(self):
        assert type_token_ratio(["the cat the dog"]) == pytest.approx(0.75)

    def test_all_distinct(self):
        assert type_token_ratio(["one two three four"]) == 1.0

    def test_truncation(self):
        text = "x " * 150  # 300 chars; first 200 hold 100 tokens
        assert type_token_ratio([text]) == pytest.approx(1 / 100)

    def test_tokenizer_strips_punctuation(self):
        assert tokenize("The cat, the DOG!") == ["the", "cat", "the", "dog"]


class TestAvgTextLength:
    def test_examples(self):
        assert avg_text_length(["ab"]) == 2.0
        assert avg_text_length(["a", "abc"]) == 2.0
        assert avg_text_length(["x" * 100] * 250) == 100.0


class TestKlEntropy:
    def test_uniform_unit_square(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(size=(10_000, 2))
        assert kl_entropy(pts, k=50) == pytest.approx(0.0, abs=0.1)

    def test_standard_normal(self):
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(10_000, 2))
        assert kl_entropy(pts, k=50) == pytest.approx(math.log(2 * math.pi * math.e), abs=0.1)

    def test_scaling_law(self):
        rng = np.random.default_rng(44)
        pts = rng.normal(size=(10_000, 2))
        h1 = kl_entropy(pts, k=50)
        h2 = kl_entropy(2.0 * pts, k=50)
        assert h2 - h1 == pytest.approx(2 * math.log(2), abs=0.02)

    def test_translation_invariance(self):
        rng = np.random.default_rng(45)
        pts = rng.normal(size=(500, 2))
        assert kl_entropy(pts + 37.5, k=10) == pytest.approx(kl_entropy(pts, k=10), abs=1e-9)

    def test_duplicates_jittered(self):
        pts = np.vstack([np.zeros((5, 2)), np.random.default_rng(1).normal(size=(50, 2))])
        value = kl_entropy(pts, k=3)
        assert np.isfinite(value)


class TestGaussianityAic:
    def test_degenerate_cloud_rejected(self):
        with pytest.raises(DegenerateInputError):
            gaussianity_aic(np.tile([1.0, 2.0], (10, 1)))

    def test_standard_normal_per_point(self):
        rng = np.random.default_rng(46)
        pts = rng.normal(size=(20_000, 2))
        report = gaussianity_aic(pts)
        # -lnL/n converges to the differential entropy ln(2*pi*e)
        assert report["aic_per_point"] == pytest.approx(2 * math.log(2 * math.pi * math.e),
                                                        abs=0.05)

    def test_bimodal_scores_worse(self):
        rng = np.random.default_rng(47)
        n = 1000
        single = rng.normal(size=(2 * n, 2))
        bimodal = np.vstack([
            rng.normal(loc=(-8, 0), size=(n, 2)),
            rng.normal(loc=(8, 0), size=(n, 2)),
        ])
        assert gaussianity_aic(single)["aic"] < gaussianity_aic(bimodal)["aic"]


class TestAggregateScores:
    def test_quality_mean(self):
        recs = [{"quality": 40}, {"quality": 60}]
        agg = aggregate_scores(recs, "quality")
        assert agg["mean"] == 50.0
        assert agg["count"] == 2

    def test_lean_excludes_non_political(self):
        recs = [{"lean": 0}, {"lean": 100}, {"lean": 50}, {"lean": -1}]
        agg = aggregate_scores(recs, "lean")
        assert agg["mean"] == 50.0
        assert agg["count"] == 3
        assert agg["non_political_count"] == 1

    def test_positivity_zero(self):
        recs = [{"positivity": 0.0}] * 4
        assert aggregate_scores(recs, "positivity")["mean"] == 0.0

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate_scores([{"quality": 10}], "lean")


class TestLeanBins:
    def test_all_neutral(self):
        out = lean_bins([50, 50])
        assert out["neutral_fraction"] == 1.0

    def test_extremes(self):
        out = lean_bins([0, 100])
        assert out["proportions"][0] == 0.5
        assert out["proportions"][-1] == 0.5

    def test_non_political_fraction(self):
        out = lean_bins([-1, -1, 25, 75])
        assert out["non_political_fraction"] == 0.5
        assert out["proportions"][2] == 0.5  # 25 lands in [25, 37.5)
        assert out["proportions"][6] == 0.5  # 75 lands in [75, 87.5)

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 101, size=500).tolist() + [-1] * 20
        out = lean_bins(scores)
        assert sum(out["proportions"]) == pytest.approx(1.0, abs=1e-9)

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            lean_bins([101])
        with pytest.raises(InvalidInputError):
            lean_bins([-2])


class TestPca2d:
    def test_axis_aligned_2d_identity(self):
        rng = np.random.default_rng(48)
        pts = rng.normal(size=(200, 2))
        pts -= pts.mean(axis=0)
        # exactly decorrelate, then scale so the sample covariance is diagonal
        pts[:, 1] -= pts[:, 0] * (pts[:, 0] @ pts[:, 1]) / (pts[:, 0] @ pts[:, 0])
        pts *= np.array([5.0, 1.0]) / pts.std(axis=0, ddof=0)
        proj = pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        # same up to per-axis sign
        for axis in range(2):
            col = proj[:, axis]
            ref = centered[:, axis]
            assert (np.allclose(col, ref, atol=1e-8)
                    or np.allclose(col, -ref, atol=1e-8))

    def test_rank_one_rejected(self):
        line = np.outer(np.arange(10.0), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            pca_2d(line)

    def test_projected_variance_matches_eigenvalues(self):
        rng = np.random.default_rng(49)
        pts = rng.normal(size=(5000, 3)) * np.array([3.0, 2.0, 1.0])
        proj = pca_2d(pts)
        cov = np.cov(pts, rowvar=False, ddof=0)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        proj_var = proj.var(axis=0, ddof=0)
        np.testing.assert_allclose(proj_var, eig[:2], rtol=1e-9)
