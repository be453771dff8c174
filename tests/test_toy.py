import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collapse_lab.errors import InvalidConfigError, InvalidInputError
from collapse_lab.toy import (
    DiscreteDistribution,
    ToyConfig,
    discrete_diversity,
    fit_biased_histogram,
    make_true_distribution,
    run_toy_chain,
    sample_discrete,
)


class TestDiscreteDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidInputError):
            DiscreteDistribution(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidInputError):
            DiscreteDistribution(np.array([0.5, 0.4]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            DiscreteDistribution(np.array([np.nan, 1.0]))

    def test_accepts_valid(self):
        d = DiscreteDistribution(np.array([0.25, 0.75]))
        assert d.support_size == 2


class TestMakeTrueDistribution:
    def test_uniform(self):
        d = make_true_distribution(3)
        np.testing.assert_allclose(d.probs, [0.25, 0.25, 0.25, 0.25])

    def test_excludes_multiples(self):
        d = make_true_distribution(3, exclude_period=2)
        np.testing.assert_allclose(d.probs, [0.0, 0.5, 0.0, 0.5])

    def test_exclusion_period_five(self):
        # only index 0 of {0..4} is divisible by 5
        d = make_true_distribution(4, exclude_period=5)
        np.testing.assert_allclose(d.probs, [0.0, 0.25, 0.25, 0.25, 0.25])

    def test_empty_support_is_an_error(self):
        with pytest.raises(InvalidConfigError):
            make_true_distribution(3, exclude_period=1)


class TestFitBiasedHistogram:
    def test_uniform_counts_biased(self):
        d = fit_biased_histogram([0, 1, 2, 3], 3, bias_period=2, bias_strength=2.0)
        np.testing.assert_allclose(d.probs, [1 / 3, 1 / 6, 1 / 3, 1 / 6])

    def test_zero_counts_stay_zero(self):
        d = fit_biased_histogram([1, 1, 3], 3, bias_period=2, bias_strength=2.0)
        np.testing.assert_allclose(d.probs, [0.0, 2 / 3, 0.0, 1 / 3])

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_biased_histogram([], 3, 2, 2.0)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200),
           st.integers(1, 7), st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_output_is_a_distribution(self, samples, period, strength):
        d = fit_biased_histogram(samples, 20, period, strength)
        assert np.all(d.probs >= 0)
        assert abs(d.probs.sum() - 1.0) < 1e-9

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_strength_one_is_plain_histogram(self, samples, period):
        biased = fit_biased_histogram(samples, 20, period, 1.0)
        counts = np.bincount(samples, minlength=21)
        np.testing.assert_allclose(biased.probs, counts / counts.sum(), atol=1e-12)


class TestSampleDiscrete:
    def test_point_mass(self):
        probs = np.zeros(8)
        probs[5] = 1.0
        draws = sample_discrete(DiscreteDistribution(probs), 3, np.random.default_rng(0))
        assert draws.tolist() == [5, 5, 5]

    def test_uniform_frequencies(self):
        d = make_true_distribution(9)
        draws = sample_discrete(d, 10_000, np.random.default_rng(7))
        freqs = np.bincount(draws, minlength=10) / 10_000
        assert np.all(np.abs(freqs - 0.1) < 0.02)

    def test_seed_determinism(self):
        d = make_true_distribution(50)
        a = sample_discrete(d, 100, np.random.default_rng(3))
        b = sample_discrete(d, 100, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_zero_draws_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_discrete(make_true_distribution(3), 0, np.random.default_rng(0))

    @given(st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.1, 1.0, 3.0, 7.5]), min_size=1,
                    max_size=30).filter(lambda w: sum(w) > 0),
           st.integers(1, 500), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_rng_choice(self, weights, n, seed):
        w = np.array(weights)
        dist = DiscreteDistribution(w / w.sum())
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_discrete(dist, n, ours)
        want = theirs.choice(dist.support_size, size=n, p=dist.probs)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestDiscreteDiversity:
    def test_point_mass(self):
        probs = np.zeros(10)
        probs[4] = 1.0
        d = discrete_diversity(DiscreteDistribution(probs))
        assert d["support_fraction"] == pytest.approx(1 / 10)
        assert d["shannon_entropy"] == 0.0

    def test_uniform_four(self):
        d = discrete_diversity(make_true_distribution(3))
        assert d["support_fraction"] == 1.0
        assert d["shannon_entropy"] == pytest.approx(np.log(4), abs=1e-12)

    def test_half_support(self):
        d = discrete_diversity(DiscreteDistribution(np.array([0.0, 0.5, 0.0, 0.5])))
        assert d["support_fraction"] == 0.5
        assert d["shannon_entropy"] == pytest.approx(np.log(2), abs=1e-12)

    def test_samples_need_support_size(self):
        with pytest.raises(InvalidInputError):
            discrete_diversity([1, 2, 3])

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            discrete_diversity([], support_size=4)


class TestRunToyChain:
    def test_ratio_zero_keeps_support(self):
        cfg = ToyConfig(ratio=0.0, support_size=300, steps=10, runs=30,
                        bias_strength=4.0, overlap=False, accumulate=True, seed=1)
        trace = run_toy_chain(cfg)
        first = trace.mean_support_fraction[0]
        last = trace.mean_support_fraction[-1]
        # no synthetic data enters, human draws keep refreshing the support
        assert last >= first - 0.02

    def test_pure_resampling_entropy_non_increasing(self):
        cfg = ToyConfig(ratio=1.0, support_size=400, steps=12, runs=50,
                        bias_strength=1.0, overlap=True, accumulate=False, seed=2)
        trace = run_toy_chain(cfg)
        diffs = np.diff(trace.mean_shannon_entropy)
        assert np.all(diffs <= 1e-3)

    def test_bit_identical_reruns(self):
        cfg = ToyConfig(ratio=0.5, support_size=200, steps=6, runs=5, seed=9,
                        overlap=False)
        a = run_toy_chain(cfg)
        b = run_toy_chain(cfg)
        assert np.array_equal(a.shannon_entropy, b.shannon_entropy)
        assert np.array_equal(a.support_fraction, b.support_fraction)

    def test_overlap_true_monotone_non_increasing_in_ratio(self):
        # overlap neutralizes the bias: no U-shape in the final entropy
        ratios = [1 / 16, 1 / 4, 1 / 2, 3 / 4, 15 / 16]
        stats = []
        for r in ratios:
            cfg = ToyConfig(ratio=r, support_size=400, steps=10, runs=30,
                            bias_strength=4.0, overlap=True, accumulate=True, seed=3)
            stats.append(run_toy_chain(cfg).final_entropy_stats())
        violations = 0
        for (m0, s0), (m1, s1) in zip(stats, stats[1:]):
            if m1 > m0:
                violations += 1
                assert m1 - m0 < np.hypot(s0, s1), "increase beyond one standard error"
        assert violations <= 1

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            run_toy_chain(ToyConfig(ratio=1.5))
        with pytest.raises(InvalidConfigError):
            run_toy_chain(ToyConfig(ratio=0.5, support_size=1, bias_period=2))

    def test_exclusion_leaving_no_support_rejected(self):
        # every index is divisible by 1, so the true distribution has no mass
        with pytest.raises(InvalidConfigError, match="empty support"):
            run_toy_chain(ToyConfig(ratio=0.5, support_size=50, bias_period=1, overlap=False))


def _reference_single(cfg: ToyConfig, run_index: int):
    """The sample-based chain: draws with ``rng.choice``, concatenates the
    pool and refits its histogram each step."""
    def fit(samples):
        counts = np.bincount(samples, minlength=n + 1).astype(float)
        weighted = counts.copy()
        weighted[::cfg.bias_period] *= cfg.bias_strength
        return DiscreteDistribution(weighted / weighted.sum())

    def sample(dist, k):
        return rng.choice(dist.support_size, size=k, p=dist.probs)

    rng = np.random.default_rng([cfg.seed, run_index])
    n = cfg.support_size
    true = make_true_distribution(n, None if cfg.overlap else cfg.bias_period)

    n_syn = int(np.floor(cfg.ratio * n))
    n_hum = n - n_syn

    support = np.empty(cfg.steps)
    entropy = np.empty(cfg.steps)

    draws = sample(true, n)
    pool = [draws]
    model = fit(draws)
    d = discrete_diversity(model)
    support[0], entropy[0] = d["support_fraction"], d["shannon_entropy"]

    for step in range(1, cfg.steps):
        parts = []
        if n_syn:
            syn = sample(model, n_syn)
            if cfg.generation_prior:
                syn = syn - (syn % cfg.bias_period)
            parts.append(syn)
        if n_hum:
            parts.append(sample(true, n_hum))
        new = np.concatenate(parts)
        pool.append(new)
        fit_data = np.concatenate(pool) if cfg.accumulate else new
        model = fit(fit_data)
        d = discrete_diversity(model)
        support[step], entropy[step] = d["support_fraction"], d["shannon_entropy"]

    return support, entropy


class TestRunToyChainOracle:
    @given(ratio=st.one_of(st.sampled_from([0.0, 1 / 16, 1 / 2, 15 / 16, 1.0]),
                           st.floats(0.0, 1.0)),
           support_size=st.sampled_from([7, 100]),
           bias_period=st.sampled_from([1, 2, 3]),
           bias_strength=st.sampled_from([0.5, 4.0]),
           overlap=st.booleans(), accumulate=st.booleans(),
           generation_prior=st.booleans(),
           steps=st.integers(1, 6), runs=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_equals_sample_based_chain(self, **params):
        cfg = ToyConfig(**params)
        assume(cfg.overlap or cfg.bias_period > 1)
        trace = run_toy_chain(cfg)
        for run in range(cfg.runs):
            support, entropy = _reference_single(cfg, run)
            assert np.array_equal(trace.support_fraction[run], support)
            assert np.array_equal(trace.shannon_entropy[run], entropy)


class TestCsvEmission:
    def test_trace_csv_rows(self, tmp_path):
        from collapse_lab.experiments import ExperimentSpec, run_experiment
        from collapse_lab.toy import write_aggregate_csv, write_trace_csv

        cfg = ToyConfig(ratio=0.25, support_size=100, steps=4, runs=3, seed=0)
        trace = run_toy_chain(cfg)
        trace_path = tmp_path / "trace.csv"
        write_trace_csv(trace, trace_path)
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "run,step,r,support_fraction,shannon_entropy"
        assert len(lines) == 1 + cfg.runs * cfg.steps

        agg_path = tmp_path / "agg.csv"
        write_aggregate_csv([trace], agg_path)
        lines = agg_path.read_text().strip().splitlines()
        assert len(lines) == 1 + cfg.steps

        # the experiment runner writes the same rows
        run_experiment(ExperimentSpec(
            kind="toy", ratios=[cfg.ratio], seeds=[0], out_dir=str(tmp_path / "run"),
            params={"toy": {"support_size": 100, "steps": 4, "runs": 3, "seed": 0}}))
        assert (tmp_path / "run" / "toy_trace.csv").read_bytes() == trace_path.read_bytes()
        assert (tmp_path / "run" / "toy_aggregate.csv").read_bytes() == agg_path.read_bytes()
