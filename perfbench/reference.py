"""Independent reference values for the chain workload's evaluation metrics.

The benchmark's texts are lowercase words joined by single spaces, so a text's
tokens are ``text.split()``. Each function follows the package's documented
definition with the same floating-point operation order, so a correct program
matches it bit for bit. ``self_bleu`` builds each text's n-gram counts once
and keeps the two largest counts per n-gram, so leaving a text out of its own
references costs O(1) instead of rebuilding every reference's counts.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


def self_bleu(texts: list[str], max_n: int = 4) -> float:
    """Mean add-1-smoothed sentence BLEU of each text against all others."""
    toks = [t.split() for t in texts]
    counts = [[_ngrams(t, n) for n in range(1, max_n + 1)] for t in toks]
    best: list[dict] = [{} for _ in range(max_n)]  # ngram -> [top, owner, second]
    for i, per_n in enumerate(counts):
        for n in range(max_n):
            table = best[n]
            for gram, c in per_n[n].items():
                slot = table.get(gram)
                if slot is None:
                    table[gram] = [c, i, 0]
                elif c > slot[0]:
                    slot[2], slot[0], slot[1] = slot[0], c, i
                elif c > slot[2]:
                    slot[2] = c
    lengths = Counter(len(t) for t in toks)
    scores = []
    for i, cand in enumerate(toks):
        c = len(cand)
        order = min(max_n, c)
        log_sum = 0.0
        score = None
        for n in range(order):
            total = c - n
            clipped = 0
            for gram, cnt in counts[i][n].items():
                top, owner, second = best[n][gram]
                clipped += min(cnt, second if owner == i else top)
            if clipped == 0:
                if n == 0:
                    score = 0.0
                    break
                p = 1.0 / (total + 1)
            else:
                p = clipped / total
            log_sum += math.log(p) / order
        if score is None:
            others = [L for L, k in lengths.items() if L != c or k > 1]
            r = min(others, key=lambda L: (abs(L - c), L))
            bp = 1.0 if c > r else math.exp(1.0 - r / c)
            score = bp * math.exp(log_sum)
        scores.append(score)
    return float(np.mean(scores))


def word_entropy(texts: list[str]) -> float:
    counts = Counter()
    for t in texts:
        counts.update(t.split())
    p = np.array(list(counts.values()), dtype=float) / sum(counts.values())
    return float(-(p * np.log2(p)).sum())


def type_token_ratio(texts: list[str], prefix_chars: int = 200) -> float:
    ratios = []
    for t in texts:
        toks = t[:prefix_chars].split()
        ratios.append(len(set(toks)) / len(toks))
    return float(np.mean(ratios))


def avg_text_length(texts: list[str]) -> float:
    return float(np.mean([len(t) for t in texts]))


def chain_report(texts: list[str]) -> dict:
    """The chain's default evaluation metrics over one evaluation batch."""
    return {
        "distinct_count": len(set(texts)),
        "word_entropy": word_entropy(texts),
        "type_token_ratio": type_token_ratio(texts),
        "avg_text_length": avg_text_length(texts),
        "self_bleu": self_bleu(texts),
    }
