"""Histogram toy model of recursive training with a multiplicative sampling bias.

A learner is a normalized histogram over the integers {0..N}. Each step it is
refit on a mixture of its own samples and fresh draws from the true
distribution, with the histogram multiplied by a bias vector (favoring indices
divisible by ``bias_period``) before normalization. Diversity of the fitted
distribution is tracked per step.

The chain only ever looks at the histogram of its samples, and ``run_toy_chain``
advances all of its runs together, one step at a time. Each run keeps its own
generator and draws as ``Generator.choice(..., p=probs)`` does: ``rng.random(k)``
looked up in the run's CDF with ``cdf.searchsorted(u, side="right")`` (the
uniforms sorted first, which keeps the lookups' branches predictable). One
``np.bincount`` over bins offset by ``run * (N + 1)`` then counts every run's
draws, and the biased fit, its checks and the support fraction are computed on
the ``(runs, N + 1)`` matrix. Counts are integers and each entropy is summed
over its own row's nonzero entries, so the traces (and the CSVs written from
them) are bit-identical to a sample-based loop over one run at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

__all__ = [
    "DiscreteDistribution",
    "ToyConfig",
    "ToyTrace",
    "make_true_distribution",
    "fit_biased_histogram",
    "sample_discrete",
    "discrete_diversity",
    "run_toy_chain",
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
        _check_rows(probs)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative probabilities, built as ``Generator.choice`` builds them."""
        return _cdf_rows(self.probs)

    @property
    def support_size(self) -> int:
        return self.probs.size


def _check_rows(probs: np.ndarray) -> None:
    """Each row (last axis) of ``probs`` is non-negative and sums to 1."""
    if np.any(probs < 0):
        raise InvalidInputError("probabilities must be non-negative")
    totals = probs.sum(axis=-1)
    bad = ~(np.abs(totals - 1.0) <= 1e-9)  # also rejects NaN
    if bad.any():
        raise InvalidInputError(f"probabilities must sum to 1 (got {totals[bad][0]!r})")


def _cdf_rows(probs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities of each row, built as ``Generator.choice``
    builds them."""
    cdf = probs.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


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
    return DiscreteDistribution(
        _biased_rows(np.bincount(samples, minlength=n + 1), bias_period, bias_strength))


def _biased_rows(counts: np.ndarray, bias_period: int, bias_strength: float) -> np.ndarray:
    """Each row (last axis) of integer counts over {0..n} times the bias
    vector, renormalized."""
    weighted = counts.astype(float)
    weighted[..., ::bias_period] *= bias_strength
    return weighted / weighted.sum(axis=-1, keepdims=True)


def sample_discrete(dist: DiscreteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from ``dist``; deterministic given the rng state.

    The same draws as ``rng.choice(dist.support_size, size=n, p=dist.probs)``,
    leaving ``rng`` in the same state."""
    if n < 1:
        raise InvalidInputError("sample size must be >= 1")
    return dist.cdf.searchsorted(rng.random(n), side="right")


def discrete_diversity(dist: DiscreteDistribution) -> dict:
    """Support fraction and Shannon entropy (nats) of a distribution."""
    probs = dist.probs
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
        if not 0 < self.bias_strength < math.inf:  # also rejects NaN
            raise InvalidConfigError("bias_strength must be finite and > 0")
        if self.support_size < self.bias_period:
            raise InvalidConfigError("support_size must be >= bias_period")
        if not self.overlap and self.bias_period == 1:
            # every index is divisible by 1: the true distribution has no mass
            raise InvalidConfigError("overlap=False with bias_period 1 leaves an empty support")


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


def _draw(cdf: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_discrete``'s k draws from the distribution with this CDF, in
    ascending order."""
    u = rng.random(k)
    # sorted keys keep searchsorted's branches predictable
    u.sort()
    return cdf.searchsorted(u, side="right")


# the most values a group's (runs, N + 1) matrices hold; further runs form further groups
_GROUP_VALUES = 1 << 18


def _histograms(bins: np.ndarray, width: int) -> np.ndarray:
    """Each row's counts of its bin indices, which lie in [0, width)."""
    rows = bins.shape[0]
    flat = bins + np.arange(0, rows * width, width)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * width).reshape(rows, width)


def _run_group(cfg: ToyConfig, runs: range,
               true: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Support fraction and entropy, each of shape (len(runs), steps), of the
    given runs, advanced together one step at a time."""
    rngs = [np.random.default_rng([cfg.seed, run]) for run in runs]
    n, period = cfg.support_size, cfg.bias_period
    n_syn = int(np.floor(cfg.ratio * n))
    n_hum = n - n_syn

    support = np.empty((len(rngs), cfg.steps))
    entropy = np.empty((len(rngs), cfg.steps))
    drawn = np.empty((len(rngs), n), dtype=np.intp)

    for rng, row in zip(rngs, drawn):
        row[:] = _draw(true.cdf, n, rng)
    pool = _histograms(drawn, n + 1)
    for step in range(cfg.steps):
        if step:
            # a run's stream gives its synthetic draws first, then its human ones
            for rng, row, cdf in zip(rngs, drawn, cdfs):
                if n_syn:
                    row[:n_syn] = _draw(cdf, n_syn, rng)
                if n_hum:
                    row[n_syn:] = _draw(true.cdf, n_hum, rng)
            if cfg.generation_prior:
                syn = drawn[:, :n_syn]
                syn -= syn % period
            new = _histograms(drawn, n + 1)
            if cfg.accumulate:
                pool += new
            else:
                pool = new
        probs = _biased_rows(pool, period, cfg.bias_strength)
        _check_rows(probs)
        cdfs = _cdf_rows(probs)
        mask = probs > 0
        support[:, step] = mask.sum(axis=1) / probs.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = probs * np.log(probs)
        # summed over each row's own nonzero entries, as discrete_diversity sums
        entropy[:, step] = [-(row[nz]).sum() for row, nz in zip(plogp, mask)]

    return support, entropy


def run_toy_chain(cfg: ToyConfig) -> ToyTrace:
    """Run ``cfg.runs`` independent chains and record per-step diversity of the
    fitted model. Step 0 fits on N true draws; step t >= 1 fits on
    floor(r*N) model draws plus the human remainder, over the accumulated
    union (accumulate) or the current step only (replace). Each run's rows
    depend on its own seed only, not on how many runs there are."""
    cfg.validate()
    true = make_true_distribution(cfg.support_size, None if cfg.overlap else cfg.bias_period)
    support = np.empty((cfg.runs, cfg.steps))
    entropy = np.empty((cfg.runs, cfg.steps))
    group = max(1, _GROUP_VALUES // (cfg.support_size + 1))
    for first in range(0, cfg.runs, group):
        rows = slice(first, first + group)
        support[rows], entropy[rows] = _run_group(cfg, range(cfg.runs)[rows], true)
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

