"""The iterative chain: an accumulation pool is grown generation by generation
with a mix of freshly sampled human records and records produced by generators
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
from .io import HUMAN, SYNTHETIC, TextRecord

__all__ = [
    "TextRecord",
    "DataPool",
    "HumanCorpus",
    "ChainConfig",
    "ChainTrace",
    "advance_generation",
    "run_chain",
    "relative_metrics",
    "evaluate_batch",
]

# the metrics evaluate_batch computes
EVAL_METRICS = ("distinct_count", "word_entropy", "type_token_ratio", "avg_text_length",
                "self_bleu")


class DataPool:
    """Ordered record store with per-generation insertion markers."""

    def __init__(self):
        self._records: list[TextRecord] = []
        self._markers: list[tuple[int, int]] = []  # (generation, end offset)

    def __len__(self) -> int:
        return len(self._records)

    def add_generation(self, generation: int, records: list[TextRecord]) -> None:
        self._records.extend(records)
        self._markers.append((generation, len(self._records)))

    def counts_for(self, generation: int) -> dict:
        start = 0
        for gen, end in self._markers:
            if gen == generation:
                chunk = self._records[start:end]
                return {
                    "total": len(chunk),
                    "synthetic": sum(1 for r in chunk if r.source == SYNTHETIC),
                    "human": sum(1 for r in chunk if r.source == HUMAN),
                }
            start = end
        raise InvalidInputError(f"no insertion marker for generation {generation}")

    def sample(self, n: int, rng: np.random.Generator) -> list[TextRecord]:
        if n > len(self._records):
            raise InvalidInputError(
                f"pool underflow: asked for {n} of {len(self._records)} records")
        idx = rng.choice(len(self._records), size=n, replace=False)
        return [self._records[i] for i in idx]


class HumanCorpus:
    """Sequential sampler over a seeded shuffle of a human record list, so
    freshly sampled records never repeat within a chain."""

    def __init__(self, records: list[TextRecord], seed: int = 0):
        for r in records:
            if r.source != HUMAN:
                raise InvalidInputError("corpus must contain human records only")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(records))
        self._records = [records[i] for i in order]
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._records) - self._cursor

    def draw(self, n: int, generation: int) -> list[TextRecord]:
        if n > self.remaining:
            raise DataExhaustedError(generation, n, self.remaining)
        out = self._records[self._cursor:self._cursor + n]
        self._cursor += n
        return out


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
        if not self.generator_kinds:
            raise InvalidConfigError("at least one generator kind is required")
        if not self.domains:
            raise InvalidConfigError("at least one domain tag is required")
        if not set(self.eval_metrics) <= set(EVAL_METRICS):
            raise InvalidConfigError(f"eval_metrics must be drawn from {list(EVAL_METRICS)}")
        if len(self.domains) > 1 and self.per_gen_total % len(self.domains) != 0:
            raise InvalidConfigError("per_gen_total must be divisible by the domain count")
        n_syn = int(np.floor(self.per_gen_total * self.ratio))
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
    """Cheap text metrics over an evaluation batch."""
    report = M.MetricReport(sample_size=len(texts))
    for name in which:
        if name == "distinct_count":
            report.values[name] = len(set(texts))
        elif name == "word_entropy":
            report.values[name] = M.word_entropy(texts)
        elif name == "type_token_ratio":
            report.values[name] = M.type_token_ratio(texts)
        elif name == "avg_text_length":
            report.values[name] = M.avg_text_length(texts)
        elif name == "self_bleu":
            if len(texts) >= 2:
                report.values[name] = M.self_bleu(texts, seed=seed)
        else:
            raise InvalidInputError(f"unknown evaluation metric {name!r}")
    return report


def advance_generation(pool: DataPool, corpus: HumanCorpus, generators: list,
                       cfg: ChainConfig, g: int, rng: np.random.Generator):
    """Train, generate, and grow the pool for one generation. Returns the
    generated batch as {domain: [texts]}."""
    if g == 0:
        training = corpus.draw(cfg.initial_human, generation=g)
    else:
        training = pool.sample(cfg.per_gen_total, rng)

    for gen_model in generators:
        gen_model.train(training)

    n_syn = cfg.synthetic_per_generation
    batch: dict = {d: [] for d in cfg.domains}
    if n_syn:
        domain_shares = _split_counts(n_syn, len(cfg.domains))
        for domain, share in zip(cfg.domains, domain_shares):
            per_model = _split_counts(share, len(generators))
            for gen_model, quota in zip(generators, per_model):
                if quota:
                    batch[domain].extend(gen_model.generate(quota, domain=domain))

    synthetic_records = [
        TextRecord(text=t, source=SYNTHETIC, generation=g, domain=d)
        for d in cfg.domains for t in batch[d]
    ]
    n_hum = cfg.per_gen_total - n_syn
    human_records = corpus.draw(n_hum, generation=g) if n_hum else []
    pool.add_generation(g, synthetic_records + human_records)
    return batch


def run_chain(cfg: ChainConfig, corpus: HumanCorpus, generator_factory) -> ChainTrace:
    """Run the full chain. ``generator_factory(kind, seed)`` must return a
    fresh generator instance; no generator state survives a generation. Each
    generation draws its generator kind from ``cfg.generator_kinds``."""
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

