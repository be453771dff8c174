"""Data-property and outcome metrics over text batches, embeddings and 2-D
projections: cosine diversity (full and k-NN), BLEU / SelfBLEU, word entropy,
type-token ratio, text length, Kozachenko-Leonenko entropy, Gaussian-fit AIC,
score aggregation and political-lean binning.
"""

from __future__ import annotations

import math
import string
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .errors import DegenerateInputError, InvalidInputError

__all__ = [
    "MetricReport",
    "tokenize",
    "cosine_diversity",
    "knn_cosine_diversity",
    "bleu",
    "self_bleu",
    "word_entropy",
    "type_token_ratio",
    "avg_text_length",
    "kl_entropy",
    "gaussianity_aic",
    "aggregate_scores",
    "lean_bins",
    "pca_2d",
]

_PUNCT = string.punctuation + "‘’“”…"


@dataclass
class MetricReport:
    """Named metric values for one evaluated batch, with parameterization."""

    values: dict = field(default_factory=dict)
    sample_size: int = 0
    params: dict = field(default_factory=dict)

    def add(self, name: str, value, **params):
        self.values[name] = value
        for k, v in params.items():
            self.params[f"{name}.{k}"] = v


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip leading/trailing punctuation."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


# ---------------------------------------------------------------------------
# embedding-space diversity


def _validate_embeddings(emb: np.ndarray, min_rows: int = 1) -> np.ndarray:
    emb = np.asarray(emb, dtype=float)
    if emb.ndim != 2 or emb.shape[0] < min_rows or emb.shape[1] < 1:
        raise InvalidInputError(f"embedding matrix must be 2-D with >= {min_rows} rows")
    if not np.all(np.isfinite(emb)):
        raise InvalidInputError("embedding matrix contains non-finite entries")
    return emb


def _unit_rows(emb: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0):
        raise InvalidInputError("embedding matrix contains zero-norm rows")
    return emb / norms[:, None]


def cosine_diversity(emb) -> float:
    """Mean over all unordered pairs of (1 - cosine similarity)."""
    emb = _validate_embeddings(emb, min_rows=2)
    unit = _unit_rows(emb)
    n = unit.shape[0]
    gram = unit @ unit.T
    iu = np.triu_indices(n, k=1)
    return float(np.mean(1.0 - gram[iu]))


def knn_cosine_diversity(emb, k: int) -> float:
    """Mean over points of the mean cosine distance to each point's k nearest
    neighbors (by cosine distance, self excluded)."""
    emb = _validate_embeddings(emb, min_rows=2)
    n = emb.shape[0]
    if k < 1 or k >= n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= n-1 (n={n}, k={k})")
    unit = _unit_rows(emb)
    dist = 1.0 - unit @ unit.T
    np.fill_diagonal(dist, np.inf)
    part = np.partition(dist, k - 1, axis=1)[:, :k]
    return float(part.mean())


# ---------------------------------------------------------------------------
# BLEU / SelfBLEU


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


def bleu(candidate: list[str], references: list[list[str]], max_n: int = 4,
         smoothing: str = "add1") -> float:
    """Sentence BLEU: geometric mean of modified n-gram precisions times the
    brevity penalty.

    ``smoothing="add1"`` replaces zero precisions with 1/(denominator+1) for
    n >= 2; the unigram precision is never smoothed. For candidates shorter
    than ``max_n`` tokens, n is capped at the candidate length.
    """
    if not candidate:
        raise InvalidInputError("candidate must be non-empty")
    references = [r for r in references if r]
    if not references:
        raise InvalidInputError("at least one non-empty reference is required")
    if smoothing not in ("none", "add1"):
        raise InvalidInputError(f"unknown smoothing {smoothing!r}")

    c = len(candidate)
    max_n = min(max_n, c)

    log_sum = 0.0
    for n in range(1, max_n + 1):
        counts = _ngram_counts(candidate, n)
        total = sum(counts.values())
        max_ref = Counter()
        for ref in references:
            ref_counts = _ngram_counts(ref, n)
            for ngram in counts:
                max_ref[ngram] = max(max_ref[ngram], ref_counts.get(ngram, 0))
        clipped = sum(min(cnt, max_ref[ng]) for ng, cnt in counts.items())
        if clipped == 0:
            if n == 1 or smoothing == "none":
                return 0.0
            p = 1.0 / (total + 1)
        else:
            p = clipped / total
        log_sum += math.log(p) / max_n

    ref_lens = [len(r) for r in references]
    r = min(ref_lens, key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def self_bleu(texts: list[str], max_n: int = 4, smoothing: str = "add1",
              tokenizer=tokenize, max_texts: int = 250, seed: int = 0) -> float:
    """Mean BLEU of each text against all the others as references. High
    values mean low lexical diversity. Texts with no tokens are neither
    scored nor used as references.

    The value is bit-identical to calling ``bleu`` on each text with the
    others as references, but each text's n-gram counts are built once. Per
    n-gram the largest count over the batch, the text holding it and the
    second-largest count are kept. Every other text's count is at most the
    largest, so against the others a text loses clipped counts only on the
    n-grams it holds the largest count of, down to the second-largest. The
    cost is linear in the batch's tokens. Batches larger than ``max_texts``
    are subsampled (seeded), which bounds that cost and fixes the size of the
    reference set the score depends on.
    """
    if len(texts) < 2:
        raise InvalidInputError("self-BLEU needs at least 2 texts")
    if len(texts) > max_texts:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(texts), size=max_texts, replace=False)
        texts = [texts[i] for i in sorted(idx)]
    token_lists = [tokens for tokens in map(tokenizer, texts) if tokens]
    if len(token_lists) < 2:
        raise InvalidInputError("no scorable texts after tokenization")
    if smoothing not in ("none", "add1"):
        raise InvalidInputError(f"unknown smoothing {smoothing!r}")

    # best[n - 1][ngram] = [largest count, text holding it, second-largest count]
    best = [{} for _ in range(max_n)]
    for i, tokens in enumerate(token_lists):
        for n, table in enumerate(best, start=1):
            for ngram, cnt in _ngram_counts(tokens, n).items():
                slot = table.get(ngram)
                if slot is None:
                    table[ngram] = [cnt, i, 0]
                elif cnt > slot[0]:
                    slot[:] = [cnt, i, slot[0]]
                elif cnt > slot[2]:
                    slot[2] = cnt
    # lost[i][n - 1]: text i's n-gram count minus its clipped count
    lost = [[0] * max_n for _ in token_lists]
    for n, table in enumerate(best):
        for top, owner, second in table.values():
            lost[owner][n] += top - second

    lengths = Counter(map(len, token_lists))
    scores = []
    for i, cand in enumerate(token_lists):
        c = len(cand)
        r = min((L for L, k in lengths.items() if L != c or k > 1),
                key=lambda L: (abs(L - c), L))
        scores.append(_bleu_from_clips(c, r, lost[i], max_n, smoothing))
    return float(np.mean(scores))


def _bleu_from_clips(c: int, r: int, lost: list[int], max_n: int, smoothing: str) -> float:
    """``bleu`` of a c-token candidate, with the same operation order, given
    its closest reference length r and, per n, its n-gram count minus its
    clipped count."""
    order = min(max_n, c)
    log_sum = 0.0
    for n in range(1, order + 1):
        total = c - n + 1
        clipped = total - lost[n - 1]
        if clipped == 0:
            if n == 1 or smoothing == "none":
                return 0.0
            p = 1.0 / (total + 1)
        else:
            p = clipped / total
        log_sum += math.log(p) / order
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


# ---------------------------------------------------------------------------
# lexical statistics


def word_entropy(texts: list[str], tokenizer=tokenize) -> float:
    """Shannon entropy (bits) of the pooled unigram frequency distribution."""
    counts = Counter()
    for t in texts:
        counts.update(tokenizer(t))
    total = sum(counts.values())
    if total == 0:
        raise InvalidInputError("no tokens after tokenization")
    p = np.array(list(counts.values()), dtype=float) / total
    return float(-(p * np.log2(p)).sum())


def type_token_ratio(texts: list[str], tokenizer=tokenize, prefix_chars: int = 200) -> float:
    """Mean over texts of unique/total tokens within the first
    ``prefix_chars`` characters. Texts empty after truncation and
    tokenization are excluded with a warning."""
    if not texts:
        raise InvalidInputError("at least one text is required")
    if any(not t for t in texts):
        raise InvalidInputError("texts must be non-empty")
    ratios = []
    skipped = 0
    for t in texts:
        toks = tokenizer(t[:prefix_chars])
        if not toks:
            skipped += 1
            continue
        ratios.append(len(set(toks)) / len(toks))
    if not ratios:
        raise InvalidInputError("every text was empty after truncation and tokenization")
    if skipped:
        warnings.warn(f"type_token_ratio: excluded {skipped} texts with no tokens")
    return float(np.mean(ratios))


def avg_text_length(texts: list[str]) -> float:
    """Arithmetic mean of character counts."""
    if not texts:
        raise InvalidInputError("at least one text is required")
    return float(np.mean([len(t) for t in texts]))


# ---------------------------------------------------------------------------
# projection-space metrics


def _validate_projection(points: np.ndarray, min_rows: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise InvalidInputError("projection must be an (n, 2) array")
    if points.shape[0] < min_rows:
        raise InvalidInputError(f"projection needs at least {min_rows} points")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("projection contains non-finite coordinates")
    return points


def kl_entropy(points, k: int, jitter_seed: int = 0) -> float:
    """Kozachenko-Leonenko differential entropy estimate (nats) for 2-D points:
    psi(n) - psi(k) + ln(pi) + (2/n) * sum_i ln eps_i, with eps_i the distance
    to the k-th nearest neighbor.

    Duplicate points get a seeded uniform jitter of 1e-9 scale before the
    distance queries; remaining zero distances are an error.
    """
    points = _validate_projection(points, min_rows=2)
    n = points.shape[0]
    if k < 1 or k >= n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= n-1 (n={n}, k={k})")

    work = points
    if len(np.unique(points, axis=0)) < n:
        rng = np.random.default_rng(jitter_seed)
        work = points + rng.uniform(-1e-9, 1e-9, size=points.shape)
    tree = cKDTree(work)
    dist, _ = tree.query(work, k=k + 1)
    eps = dist[:, k]
    if np.any(eps == 0):
        raise DegenerateInputError("zero k-NN distances remain after jitter")
    return float(digamma(n) - digamma(k) + np.log(np.pi) + 2.0 * np.mean(np.log(eps)))


def gaussianity_aic(points) -> dict:
    """AIC of a maximum-likelihood 2-D Gaussian fit (K = 5 parameters).

    Returns {"aic", "aic_per_point", "log_likelihood", "n"}; lower AIC at a
    fixed n means the cloud looks more Gaussian.
    """
    points = _validate_projection(points, min_rows=4)
    n = points.shape[0]
    mean = points.mean(axis=0)
    centered = points - mean
    cov = centered.T @ centered / n
    det = np.linalg.det(cov)
    if not np.isfinite(det) or det <= 0:
        raise DegenerateInputError("sample covariance is singular")
    # at the MLE the Mahalanobis sum equals n*d
    log_likelihood = -0.5 * n * (2.0 * np.log(2.0 * np.pi) + np.log(det) + 2.0)
    aic = 2.0 * 5 - 2.0 * log_likelihood
    return {
        "aic": float(aic),
        "aic_per_point": float(aic / n),
        "log_likelihood": float(log_likelihood),
        "n": n,
    }


def pca_2d(emb) -> np.ndarray:
    """Deterministic projection onto the top-2 principal components.

    Sign convention: within each component the largest-magnitude loading is
    made positive.
    """
    emb = _validate_embeddings(emb, min_rows=3)
    if emb.shape[1] < 2:
        raise InvalidInputError("need at least 2 feature dimensions")
    centered = emb - emb.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s.size < 2 or s[1] <= s[0] * 1e-12:
        raise DegenerateInputError("data rank < 2; no 2-D projection exists")
    comps = vt[:2]
    for i in range(2):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


# ---------------------------------------------------------------------------
# score aggregation


def aggregate_scores(records, key: str) -> dict:
    """Mean, count and a 10-bin histogram of an annotation score over records.

    ``records`` may be TextRecord-like objects with an ``annotations`` dict or
    plain dicts. For ``key="lean"``, scores of -1 (non-political) are excluded
    from the mean and histogram but counted separately.
    """
    if key not in ("quality", "lean", "positivity"):
        raise InvalidInputError(f"unknown score key {key!r}")
    scores = []
    for rec in records:
        ann = rec.get("annotations") if isinstance(rec, dict) else getattr(rec, "annotations", None)
        if ann is None and isinstance(rec, dict):
            ann = rec
        if ann and key in ann and ann[key] is not None:
            scores.append(float(ann[key]))
    if not scores:
        raise InvalidInputError(f"no record carries the score {key!r}")
    scores = np.array(scores)

    non_political = 0
    if key == "lean":
        non_political = int((scores == -1).sum())
        scores = scores[scores != -1]

    lo, hi = {"quality": (0, 100), "lean": (0, 100), "positivity": (-1.0, 1.0)}[key]
    result = {
        "count": int(scores.size),
        "mean": float(scores.mean()) if scores.size else float("nan"),
        "histogram": None,
    }
    if scores.size:
        hist, edges = np.histogram(scores, bins=10, range=(lo, hi))
        result["histogram"] = {"counts": hist.tolist(), "edges": edges.tolist()}
    if key == "lean":
        result["non_political_count"] = non_political
    return result


def lean_bins(scores, bins: int = 8) -> dict:
    """Eight equal-width bins over [0, 100] (last bin closed), plus the
    exact-50 neutral fraction (over political scores) and the -1 non-political
    fraction (over all scores)."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise InvalidInputError("at least one score is required")
    valid = (scores == -1) | ((scores >= 0) & (scores <= 100))
    if not np.all(valid):
        raise InvalidInputError("lean scores must be -1 or in [0, 100]")

    non_political = scores == -1
    political = scores[~non_political]
    out = {
        "non_political_fraction": float(non_political.mean()),
        "neutral_fraction": float("nan"),
        "proportions": None,
        "edges": np.linspace(0.0, 100.0, bins + 1).tolist(),
    }
    if political.size == 0:
        return out
    out["neutral_fraction"] = float((political == 50).mean())
    edges = np.linspace(0.0, 100.0, bins + 1)
    idx = np.minimum((political // (100.0 / bins)).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    out["proportions"] = (counts / political.size).tolist()
    return out
