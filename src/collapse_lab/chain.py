"""The iterative chain: an accumulation pool is grown generation by generation
with a mix of freshly sampled human texts and texts produced by generators
trained on samples from the pool. Fresh generator instances every generation,
seeded rotation over generator kinds, multi-domain balancing, per-generation
evaluation and relative (final / generation-0) metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics as M
from .errors import (
    DataExhaustedError,
    InvalidConfigError,
    InvalidInputError,
    InvalidTraceError,
)
from .io import HUMAN

__all__ = [
    "DataPool",
    "HumanCorpus",
    "ChainConfig",
    "ChainTrace",
    "advance_generation",
    "run_chain",
    "relative_metrics",
    "evaluate_batch",
]

# evaluate_batch's metrics, name -> f(texts, seed); each looks its function up
# on metrics when called, and self_bleu is None for a batch of one text
_EVALUATORS = {
    "distinct_count": lambda texts, seed: len(set(texts)),
    "word_entropy": lambda texts, seed: M.word_entropy(texts),
    "type_token_ratio": lambda texts, seed: M.type_token_ratio(texts),
    "avg_text_length": lambda texts, seed: M.avg_text_length(texts),
    "self_bleu": lambda texts, seed: M.self_bleu(texts, seed=seed) if len(texts) >= 2 else None,
}
EVAL_METRICS = tuple(_EVALUATORS)


class DataPool:
    """Texts and their domains in insertion order, with per-generation
    markers. A generation adds its synthetic texts before its human ones."""

    def __init__(self):
        self._texts: list[str] = []
        self._domains: list = []
        self._markers: list[tuple[int, int, int]] = []  # (generation, end offset, synthetic)

    def __len__(self) -> int:
        return len(self._texts)

    def add_generation(self, generation: int, texts: list, domains: list, synthetic: int) -> None:
        """Append one generation's texts, the first ``synthetic`` of them generated."""
        self._texts.extend(texts)
        self._domains.extend(domains)
        self._markers.append((generation, len(self._texts), synthetic))

    def counts_for(self, generation: int) -> dict:
        start = 0
        for gen, end, synthetic in self._markers:
            if gen == generation:
                return {"total": end - start, "synthetic": synthetic,
                        "human": end - start - synthetic}
            start = end
        raise InvalidInputError(f"no insertion marker for generation {generation}")

    def sample(self, n: int, rng: np.random.Generator) -> tuple[list[str], list]:
        if n > len(self._texts):
            raise InvalidInputError(
                f"pool underflow: asked for {n} of {len(self._texts)} texts")
        idx = rng.choice(len(self._texts), size=n, replace=False).tolist()
        return [self._texts[i] for i in idx], [self._domains[i] for i in idx]


def record_columns(records: list) -> tuple[list, list, list]:
    """The texts, sources and domains of ``records``. A grid's job carries its
    corpus this way: the lists pickle about ten times faster than the records."""
    return ([r.text for r in records], [r.source for r in records],
            [r.domain for r in records])


class HumanCorpus:
    """Sequential sampler over a seeded shuffle of a human record list, so
    freshly sampled texts never repeat within a chain."""

    def __init__(self, records: list, seed: int = 0):
        self._shuffle(*record_columns(records), seed)

    @classmethod
    def from_columns(cls, texts: list, sources: list, domains: list,
                     seed: int = 0) -> "HumanCorpus":
        """The corpus of the records whose ``record_columns`` these are."""
        corpus = cls.__new__(cls)
        corpus._shuffle(texts, sources, domains, seed)
        return corpus

    def _shuffle(self, texts: list, sources: list, domains: list, seed: int) -> None:
        if any(source != HUMAN for source in sources):
            raise InvalidInputError("corpus must contain human records only")
        order = np.random.default_rng(seed).permutation(len(texts)).tolist()
        self._texts = [texts[i] for i in order]
        self._domains = [domains[i] for i in order]
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._texts) - self._cursor

    def draw(self, n: int, generation: int) -> tuple[list[str], list]:
        if n > self.remaining:
            raise DataExhaustedError(generation, n, self.remaining)
        lo = self._cursor
        self._cursor += n
        return self._texts[lo:self._cursor], self._domains[lo:self._cursor]


@dataclass
class ChainConfig:
    ratio: float
    generations: int = 20
    initial_human: int = 8000
    per_gen_total: int = 4000
    eval_sample: int = 250
    models_per_generation: int = 1
    generator_kinds: tuple = ("resampler",)
    domains: tuple = (None,)
    seed: int = 0
    eval_metrics: tuple = EVAL_METRICS

    def validate(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise InvalidConfigError("ratio must lie in [0, 1]")
        if self.generations < 1 or self.per_gen_total < 1 or self.initial_human < 1:
            raise InvalidConfigError("counts must be positive")
        if self.eval_sample < 1:
            raise InvalidConfigError("eval_sample must be >= 1")
        if self.models_per_generation < 1:
            raise InvalidConfigError("models_per_generation must be >= 1")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        if not self.generator_kinds:
            raise InvalidConfigError("at least one generator kind is required")
        if not self.domains:
            raise InvalidConfigError("at least one domain tag is required")
        if len(set(self.domains)) != len(self.domains):
            raise InvalidConfigError(f"domain tags must be distinct, got {list(self.domains)}")
        if not set(self.eval_metrics) <= set(EVAL_METRICS):
            raise InvalidConfigError(f"eval_metrics must be drawn from {list(EVAL_METRICS)}")
        if len(self.domains) > 1 and self.per_gen_total % len(self.domains) != 0:
            raise InvalidConfigError("per_gen_total must be divisible by the domain count")
        n_syn = self.synthetic_per_generation
        if self.ratio > 0 and n_syn and self.eval_sample > n_syn:
            raise InvalidConfigError(
                f"eval_sample ({self.eval_sample}) exceeds the per-generation "
                f"synthetic count ({n_syn})")

    @property
    def synthetic_per_generation(self) -> int:
        return int(np.floor(self.per_gen_total * self.ratio))


@dataclass
class ChainTrace:
    config: ChainConfig
    # reports[generation][domain] -> MetricReport or None when evaluation skipped
    reports: list[dict] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    eval_batches: list[dict] = field(default_factory=list)
    pool_sizes: list[int] = field(default_factory=list)


def _split_counts(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` shares differing by at most 1, the
    remainder going to the earliest shares."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def evaluate_batch(texts: list[str], which: tuple, seed: int = 0) -> M.MetricReport:
    """Cheap text metrics over an evaluation batch, in ``which`` order; an
    unknown name raises InvalidInputError."""
    report = M.MetricReport(sample_size=len(texts))
    for name in which:
        if name not in _EVALUATORS:
            raise InvalidInputError(f"unknown evaluation metric {name!r}")
        value = _EVALUATORS[name](texts, seed)
        if value is not None:
            report.values[name] = value
    return report


def advance_generation(pool: DataPool, corpus: HumanCorpus, generators: list,
                       cfg: ChainConfig, g: int, rng: np.random.Generator):
    """Train, generate, and grow the pool for one generation. Returns the
    generated batch as {domain: [texts]}."""
    if g == 0:
        texts, domains = corpus.draw(cfg.initial_human, generation=g)
    else:
        texts, domains = pool.sample(cfg.per_gen_total, rng)

    for gen_model in generators:
        gen_model.train(texts, domains)

    n_syn = cfg.synthetic_per_generation
    batch: dict = {d: [] for d in cfg.domains}
    if n_syn:
        domain_shares = _split_counts(n_syn, len(cfg.domains))
        for domain, share in zip(cfg.domains, domain_shares):
            per_model = _split_counts(share, len(generators))
            for gen_model, quota in zip(generators, per_model):
                if quota:
                    batch[domain].extend(gen_model.generate(quota, domain=domain))

    synthetic = [t for d in cfg.domains for t in batch[d]]
    human_texts, human_domains = corpus.draw(cfg.per_gen_total - n_syn, generation=g)
    pool.add_generation(g, synthetic + human_texts,
                        [d for d in cfg.domains for _ in batch[d]] + human_domains,
                        synthetic=len(synthetic))
    return batch


def run_chain(cfg: ChainConfig, corpus: HumanCorpus, generator_factory) -> ChainTrace:
    """Run the full chain. ``generator_factory(kind, seed)`` must return a
    fresh generator, with ``train(texts, domains)`` (two aligned lists) and
    ``generate(n, domain)``, which returns exactly n strings, deterministic
    for the seed; no generator state survives a generation. Each generation
    draws its generator kind from ``cfg.generator_kinds``."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    pool = DataPool()
    trace = ChainTrace(config=cfg)

    for g in range(cfg.generations):
        kind = cfg.generator_kinds[int(rng.integers(len(cfg.generator_kinds)))]
        trace.kinds.append(kind)
        generators = [
            generator_factory(kind, int(rng.integers(2**31)))
            for _ in range(cfg.models_per_generation)
        ]

        batch = advance_generation(pool, corpus, generators, cfg, g, rng)
        trace.pool_sizes.append(len(pool))

        gen_reports: dict = {}
        gen_batches: dict = {}
        for domain in cfg.domains:
            texts = batch[domain]
            if not texts:
                gen_reports[domain] = None  # evaluation skipped, explicit marker
                gen_batches[domain] = []
                continue
            if len(texts) >= cfg.eval_sample:
                idx = rng.choice(len(texts), size=cfg.eval_sample, replace=False)
                sample = [texts[i] for i in idx]
                truncated = False
            else:
                sample = list(texts)
                truncated = True
            report = evaluate_batch(sample, cfg.eval_metrics, seed=cfg.seed)
            report.whole_batch = truncated
            gen_reports[domain] = report
            gen_batches[domain] = sample
        trace.reports.append(gen_reports)
        trace.eval_batches.append(gen_batches)

    return trace


def relative_metrics(trace: ChainTrace) -> dict:
    """Final-generation metric values divided by generation-0 values, per
    domain. A zero generation-0 value yields None (explicit undefined marker)."""
    if len(trace.reports) < 2:
        raise InvalidTraceError("need at least 2 evaluated generations")
    first, last = trace.reports[0], trace.reports[-1]
    out: dict = {}
    for domain in trace.config.domains:
        r0, r1 = first.get(domain), last.get(domain)
        if r0 is None:
            raise InvalidTraceError(f"generation 0 was not evaluated for domain {domain!r}")
        if r1 is None:
            raise InvalidTraceError(f"final generation was not evaluated for domain {domain!r}")
        rel = {}
        for name, v0 in r0.values.items():
            v1 = r1.values.get(name)
            if v1 is None:
                continue
            rel[name] = None if v0 == 0 else v1 / v0
        out[domain] = rel
    return out

