"""Histogram toy model of recursive training with a multiplicative sampling bias.

A learner is a normalized histogram over the integers {0..N}. Each step it is
refit on a mixture of its own samples and fresh draws from the true
distribution, with the histogram multiplied by a bias vector (favoring indices
divisible by ``bias_period``) before normalization. Diversity of the fitted
distribution is tracked per step.

The chain only ever looks at the histogram of its samples, so it draws counts
rather than samples. ``Generator.choice(..., p=probs)`` maps ``rng.random(k)``
through ``cdf.searchsorted(u, side="right")``; counting how many of the same
uniforms, sorted, fall below each CDF value gives that histogram without
building the draws, scattering them with ``np.bincount`` or re-concatenating
the pool. The chain consumes exactly the random stream the sample-based loop
did, so its traces (and the CSVs written from them) are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .io import write_csv

__all__ = [
    "DiscreteDistribution",
    "ToyConfig",
    "ToyTrace",
    "make_true_distribution",
    "fit_biased_histogram",
    "sample_discrete",
    "discrete_diversity",
    "run_toy_chain",
    "write_trace_csv",
    "write_aggregate_csv",
]


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over the integer support {0..N}."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 1:
            raise InvalidInputError("probs must be a non-empty 1-D vector")
        if np.any(probs < 0):
            raise InvalidInputError("probabilities must be non-negative")
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-9:  # also rejects NaN
            raise InvalidInputError(f"probabilities must sum to 1 (got {total!r})")

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities, built as ``Generator.choice`` builds them."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        return cdf

    @property
    def support_size(self) -> int:
        return self.probs.size

    def __len__(self) -> int:
        return self.probs.size


def make_true_distribution(n: int, exclude_period: int | None = None) -> DiscreteDistribution:
    """Uniform distribution over {0..n}, optionally excluding indices divisible
    by ``exclude_period`` (those get mass exactly 0)."""
    if n < 1:
        raise InvalidConfigError("support parameter must be >= 1")
    mass = np.ones(n + 1)
    if exclude_period is not None:
        if exclude_period < 1:
            raise InvalidConfigError("exclude_period must be a positive integer")
        mass[::exclude_period] = 0.0
    total = mass.sum()
    if total == 0:
        raise InvalidConfigError("exclusion leaves an empty support")
    return DiscreteDistribution(mass / total)


def fit_biased_histogram(
    samples, n: int, bias_period: int, bias_strength: float
) -> DiscreteDistribution:
    """Histogram of ``samples`` over {0..n}, multiplied by the bias vector
    (``bias_strength`` on indices divisible by ``bias_period``, 1 elsewhere),
    then renormalized."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise InvalidInputError("cannot fit a histogram to an empty sample")
    if bias_strength <= 0:
        raise InvalidInputError("bias_strength must be > 0")
    if bias_period < 1:
        raise InvalidInputError("bias_period must be a positive integer")
    if samples.min() < 0 or samples.max() > n:
        raise InvalidInputError(f"samples must lie in [0, {n}]")
    return _biased_histogram(np.bincount(samples, minlength=n + 1), bias_period, bias_strength)


def _biased_histogram(counts: np.ndarray, bias_period: int,
                      bias_strength: float) -> DiscreteDistribution:
    """Integer counts over {0..n} times the bias vector, renormalized."""
    weighted = counts.astype(float)
    weighted[::bias_period] *= bias_strength
    return DiscreteDistribution(weighted / weighted.sum())


def sample_discrete(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from ``dist``; deterministic given the rng state.

    The same draws as ``rng.choice(dist.support_size, size=n, p=dist.probs)``,
    leaving ``rng`` in the same state."""
    if n < 1:
        raise InvalidInputError("sample size must be >= 1")
    return dist.cdf.searchsorted(rng.random(n), side="right")


def _draw_counts(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """``np.bincount(sample_discrete(dist, n, rng), minlength=dist.support_size)``,
    consuming the same random stream."""
    u = rng.random(n)
    # sorted keys keep searchsorted's branches predictable
    u.sort()
    below = u.searchsorted(dist.cdf, side="left")  # draws below each CDF value
    counts = below.copy()
    counts[1:] -= below[:-1]
    return counts


def discrete_diversity(x, support_size: int | None = None) -> dict:
    """Support fraction and Shannon entropy (nats) of a distribution or of the
    empirical histogram of an integer sample.

    For raw samples, ``support_size`` (N+1) must be given so the support
    fraction has a denominator.
    """
    if isinstance(x, DiscreteDistribution):
        probs = x.probs
    else:
        samples = np.asarray(x)
        if samples.size == 0:
            raise InvalidInputError("diversity of an empty sample is undefined")
        if support_size is None:
            raise InvalidInputError("support_size is required for raw samples")
        counts = np.bincount(samples, minlength=support_size).astype(float)
        probs = counts / counts.sum()
    nz = probs[probs > 0]
    return {
        "support_fraction": float(nz.size / probs.size),
        "shannon_entropy": float(-(nz * np.log(nz)).sum()),
    }


@dataclass
class ToyConfig:
    """Parameters of one toy chain experiment.

    ``generation_prior`` is an extension beyond the plain histogram learner:
    when True, the learner's generative step aligns its samples with the bias
    prior by emitting, for each draw, the nearest index divisible by
    ``bias_period`` (at or below the draw). With the default (False) the model
    samples its fitted histogram verbatim.
    """

    ratio: float
    support_size: int = 1000
    steps: int = 20
    runs: int = 50
    bias_period: int = 2
    bias_strength: float = 4.0
    overlap: bool = True
    accumulate: bool = True
    seed: int = 0
    generation_prior: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise InvalidConfigError("ratio must lie in [0, 1]")
        if self.support_size < 1:
            raise InvalidConfigError("support_size must be >= 1")
        if self.steps < 1 or self.runs < 1:
            raise InvalidConfigError("steps and runs must be >= 1")
        if self.bias_period < 1:
            raise InvalidConfigError("bias_period must be >= 1")
        if self.bias_strength <= 0:
            raise InvalidConfigError("bias_strength must be > 0")
        if self.support_size < self.bias_period:
            raise InvalidConfigError("support_size must be >= bias_period")


@dataclass
class ToyTrace:
    """Per-(run, step) diversity records plus run-averaged curves."""

    config: ToyConfig
    # arrays of shape (runs, steps)
    support_fraction: np.ndarray = field(repr=False, default=None)
    shannon_entropy: np.ndarray = field(repr=False, default=None)

    @property
    def mean_support_fraction(self) -> np.ndarray:
        return self.support_fraction.mean(axis=0)

    @property
    def mean_shannon_entropy(self) -> np.ndarray:
        return self.shannon_entropy.mean(axis=0)

    def final_entropy_stats(self) -> tuple[float, float]:
        """Run mean and standard error of the final-step entropy."""
        final = self.shannon_entropy[:, -1]
        se = final.std(ddof=1) / np.sqrt(final.size) if final.size > 1 else 0.0
        return float(final.mean()), float(se)


def _run_single(cfg: ToyConfig, run_index: int,
                true: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([cfg.seed, run_index])
    n = cfg.support_size
    period, strength = cfg.bias_period, cfg.bias_strength

    n_syn = int(np.floor(cfg.ratio * n))
    n_hum = n - n_syn
    # the generation prior maps draw i to i - i % period
    lattice = np.arange(0, n + 1, period)

    support = np.empty(cfg.steps)
    entropy = np.empty(cfg.steps)

    pool = _draw_counts(true, n, rng)
    model = _biased_histogram(pool, period, strength)
    d = discrete_diversity(model)
    support[0], entropy[0] = d["support_fraction"], d["shannon_entropy"]

    for step in range(1, cfg.steps):
        new = np.zeros(n + 1, dtype=np.intp)
        if n_syn:
            syn = _draw_counts(model, n_syn, rng)
            if cfg.generation_prior:
                new[lattice] = np.add.reduceat(syn, lattice)
            else:
                new += syn
        if n_hum:
            new += _draw_counts(true, n_hum, rng)
        if cfg.accumulate:
            pool += new
        else:
            pool = new
        model = _biased_histogram(pool, period, strength)
        d = discrete_diversity(model)
        support[step], entropy[step] = d["support_fraction"], d["shannon_entropy"]

    return support, entropy


def run_toy_chain(cfg: ToyConfig) -> ToyTrace:
    """Run ``cfg.runs`` independent chains and record per-step diversity of the
    fitted model. Step 0 fits on N true draws; step t >= 1 fits on
    floor(r*N) model draws plus the human remainder, over the accumulated
    union (accumulate) or the current step only (replace)."""
    cfg.validate()
    true = make_true_distribution(cfg.support_size, None if cfg.overlap else cfg.bias_period)
    support = np.empty((cfg.runs, cfg.steps))
    entropy = np.empty((cfg.runs, cfg.steps))
    for run in range(cfg.runs):
        support[run], entropy[run] = _run_single(cfg, run, true)
    return ToyTrace(config=cfg, support_fraction=support, shannon_entropy=entropy)


TRACE_HEADER = ["run", "step", "r", "support_fraction", "shannon_entropy"]
AGGREGATE_HEADER = ["r", "step", "mean_support_fraction", "mean_shannon_entropy"]


def trace_rows(traces: list[ToyTrace]) -> list[list]:
    """One row per (ratio, run, step), in the order of ``TRACE_HEADER``."""
    rows = []
    for trace in traces:
        ratio = float(trace.config.ratio)
        support, entropy = trace.support_fraction.tolist(), trace.shannon_entropy.tolist()
        for run in range(trace.config.runs):
            for step in range(trace.config.steps):
                rows.append([run, step, ratio, support[run][step], entropy[run][step]])
    return rows


def aggregate_rows(traces: list[ToyTrace]) -> list[list]:
    """Run-averaged curves, one row per (ratio, step), in the order of
    ``AGGREGATE_HEADER``."""
    rows = []
    for trace in traces:
        ratio = float(trace.config.ratio)
        support = trace.mean_support_fraction.tolist()
        entropy = trace.mean_shannon_entropy.tolist()
        for step in range(trace.config.steps):
            rows.append([ratio, step, support[step], entropy[step]])
    return rows


def write_trace_csv(trace: ToyTrace, path) -> None:
    """One row per (run, step): run,step,r,support_fraction,shannon_entropy."""
    write_csv(path, TRACE_HEADER, trace_rows([trace]))


def write_aggregate_csv(traces: list[ToyTrace], path) -> None:
    """Run-averaged curves, one row per (r, step)."""
    write_csv(path, AGGREGATE_HEADER, aggregate_rows(traces))
