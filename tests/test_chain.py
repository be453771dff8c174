import hashlib
import json
import socket

import numpy as np
import pytest
from conftest import http_ok, raw_server

from collapse_lab import chain as chain_mod
from collapse_lab import metrics
from collapse_lab.chain import (
    EVAL_METRICS,
    ChainConfig,
    DataPool,
    HumanCorpus,
    evaluate_batch,
    record_columns,
    relative_metrics,
    run_chain,
)
from collapse_lab.errors import (
    DataExhaustedError,
    InvalidConfigError,
    InvalidInputError,
    InvalidTraceError,
    ProtocolError,
    TransportError,
)
from collapse_lab.generators import (
    ExternalGenerator,
    GeneratorEndpointConfig,
    ResamplerGenerator,
    default_factory,
)
from collapse_lab.io import TextRecord


def corpus_text(i, prefix="human"):
    return f"{prefix} text number {i} with some words"


def make_corpus(n, seed=0, prefix="human", domains=(None,)):
    records = []
    for i in range(n):
        records.append(TextRecord(text=corpus_text(i, prefix), domain=domains[i % len(domains)]))
    return HumanCorpus(records, seed=seed)


def run_counting(monkeypatch, cfg, corpus, factory=default_factory):
    """run_chain, returning the pool's counts_for(g) taken after each generation g."""
    counts = []
    original = chain_mod.advance_generation

    def spy(pool, corpus_, generators, cfg_, g, rng):
        out = original(pool, corpus_, generators, cfg_, g, rng)
        counts.append(pool.counts_for(g))
        return out

    monkeypatch.setattr(chain_mod, "advance_generation", spy)
    run_chain(cfg, corpus, factory)
    return counts


def small_config(**overrides):
    defaults = dict(ratio=0.5, generations=4, initial_human=80, per_gen_total=40,
                    eval_sample=10, generator_kinds=("resampler",), seed=0,
                    eval_metrics=("distinct_count", "avg_text_length"))
    defaults.update(overrides)
    return ChainConfig(**defaults)


class TestTextRecord:
    def test_human_generation_must_be_minus_one(self):
        with pytest.raises(InvalidInputError):
            TextRecord(text="x", source="human", generation=3)

    def test_synthetic_generation_non_negative(self):
        with pytest.raises(InvalidInputError):
            TextRecord(text="x", source="synthetic", generation=-1)


class TestPoolAccounting:
    @pytest.mark.parametrize("ratio", [0.0, 0.125, 0.5, 1.0])
    @pytest.mark.parametrize("models", [1, 4])
    def test_pool_size_law_and_ratio_accounting(self, ratio, models):
        cfg = small_config(ratio=ratio, models_per_generation=models,
                           eval_sample=1 if ratio else 10)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)
        trace = run_chain(cfg, corpus, default_factory)
        for g in range(cfg.generations):
            assert trace.pool_sizes[g] == cfg.per_gen_total * (g + 1)
        # the law holds on a rerun with a fresh corpus too
        corpus2 = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)
        trace2 = run_chain(cfg, corpus2, default_factory)
        assert trace2.pool_sizes == trace.pool_sizes

    @pytest.mark.parametrize("domains, models", [((None,), 1), (("a", "b"), 2)])
    def test_per_generation_synthetic_counts(self, monkeypatch, domains, models):
        cfg = small_config(ratio=0.33, eval_sample=5, domains=domains,
                           models_per_generation=models)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total,
                             domains=domains)
        pools = run_counting(monkeypatch, cfg, corpus)

        n_syn = int(np.floor(cfg.per_gen_total * cfg.ratio))
        assert len(pools) == cfg.generations
        for counts in pools:
            assert counts["synthetic"] == n_syn
            assert counts["human"] == cfg.per_gen_total - n_syn
            assert counts["total"] == cfg.per_gen_total


class TestPoolAndCorpus:
    def test_sample_underflow(self):
        pool = DataPool()
        pool.add_generation(0, ["a", "b"], [None, None], synthetic=1)
        with pytest.raises(InvalidInputError, match="asked for 3 of 2 texts"):
            pool.sample(3, np.random.default_rng(0))

    def test_counts_for_unknown_generation(self):
        pool = DataPool()
        pool.add_generation(0, ["a", "b", "c"], ["x", "x", "y"], synthetic=1)
        assert pool.counts_for(0) == {"total": 3, "synthetic": 1, "human": 2}
        with pytest.raises(InvalidInputError, match="no insertion marker for generation 1"):
            pool.counts_for(1)

    def test_draw_keeps_texts_and_domains_aligned(self):
        records = [TextRecord(text=f"t{i}", domain=f"d{i}") for i in range(50)]
        corpus = HumanCorpus(records, seed=3)
        texts, domains = corpus.draw(30, generation=0)
        more_texts, more_domains = corpus.draw(20, generation=1)
        texts, domains = texts + more_texts, domains + more_domains
        assert texts != [r.text for r in records]  # shuffled
        assert sorted(texts) == sorted(r.text for r in records)  # each text once
        assert domains == [t.replace("t", "d") for t in texts]
        assert corpus.remaining == 0

    def test_corpus_rejects_synthetic_records(self):
        with pytest.raises(InvalidInputError, match="human records only"):
            HumanCorpus([TextRecord(text="x", source="synthetic", generation=0)])

    def test_record_columns_name_the_first_synthetic_record(self):
        records = [TextRecord(text="a", domain="d"),
                   TextRecord(text="b", source="synthetic", generation=0),
                   TextRecord(text="c", source="synthetic", generation=1)]
        for make in (record_columns, HumanCorpus):
            with pytest.raises(InvalidInputError, match="^corpus must contain human records "
                                                        "only; record 1 is synthetic$"):
                make(records)
        assert record_columns(records[:1]) == (["a"], ["d"])


class TestRunChain:
    def test_eval_sample_invariant(self):
        with pytest.raises(InvalidConfigError):
            small_config(ratio=0.1, per_gen_total=40, eval_sample=10)

    def test_repeated_domain_tags_rejected(self):
        """A repeated tag would add its synthetic batch once per repetition."""
        with pytest.raises(InvalidConfigError, match="domain tags must be distinct"):
            small_config(domains=("a", "a"))

    def test_fresh_generator_every_generation(self):
        cfg = small_config()
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)
        instances = []

        def factory(kind, seed):
            gen = default_factory(kind, seed)
            instances.append(gen)
            return gen

        run_chain(cfg, corpus, factory)
        assert len(instances) == cfg.generations * cfg.models_per_generation
        assert len(set(map(id, instances))) == len(instances)

    def test_seed_determinism_including_rotation(self):
        cfg = small_config(generator_kinds=("resampler", "resampler:0.5"), seed=13)
        n = cfg.initial_human + cfg.generations * cfg.per_gen_total
        t1 = run_chain(cfg, make_corpus(n), default_factory)
        t2 = run_chain(cfg, make_corpus(n), default_factory)
        assert t1.kinds == t2.kinds
        for r1, r2 in zip(t1.reports, t2.reports):
            for domain in r1:
                if r1[domain] is None:
                    assert r2[domain] is None
                else:
                    assert r1[domain].values == r2[domain].values

    # sha256 of every generation's metric values in the paper-size cell below
    PAPER_CELL = "835a8a14d0dfc2a5dcb927c2ca465795577c1fd6c6805aa5fff0a79ff4b65e55"

    def test_paper_size_cell(self):
        """ChainConfig's defaults are the paper's sizes: 20 generations, 8000
        initial human texts, 4000 per generation, and a 250-text evaluation
        batch, drawn from each generation's 2000 synthetic texts, with
        self-BLEU. The corpus holds the 48,000 human texts the chain draws:
        Zipf-distributed words, 4-24 per text."""
        rng = np.random.default_rng(2024)
        words = np.array([f"w{i}" for i in range(400)] + ["the,", "a.", "(of)", "..."])
        weights = 1 / np.arange(1, words.size + 1)
        sizes = rng.integers(4, 25, size=48_000)
        drawn = words[rng.choice(words.size, size=sizes.sum(), p=weights / weights.sum())]
        texts = [" ".join(chunk) for chunk in np.split(drawn, np.cumsum(sizes)[:-1])]
        cfg = ChainConfig(ratio=0.5, seed=0)
        trace = run_chain(cfg, HumanCorpus([TextRecord(text=t) for t in texts], seed=0),
                          default_factory)
        values = [report.values for per_domain in trace.reports for report in per_domain.values()]
        assert len(values) == cfg.generations and "self_bleu" in values[0]
        blob = json.dumps(values, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PAPER_CELL

    def test_ratio_zero_trains_on_humans_only(self, monkeypatch):
        cfg = small_config(ratio=0.0, eval_sample=1)
        n = cfg.initial_human + cfg.generations * cfg.per_gen_total
        seen = []

        class SpyGenerator(ResamplerGenerator):
            def train(self, texts, domains):
                seen.extend(texts)
                super().train(texts, domains)

            def generate(self, n, domain=None):
                return ["generated"] * n

        counts = run_counting(monkeypatch, cfg, make_corpus(n),
                              lambda kind, seed: SpyGenerator(seed=seed))
        assert [c["synthetic"] for c in counts] == [0] * cfg.generations
        assert seen and set(seen) <= {corpus_text(i) for i in range(n)}

    def test_ratio_zero_skips_evaluation_with_marker(self):
        cfg = small_config(ratio=0.0, eval_sample=1)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)
        trace = run_chain(cfg, corpus, default_factory)
        assert all(report[None] is None for report in trace.reports)

    def test_multi_domain_balance(self):
        cfg = small_config(ratio=0.5, per_gen_total=42, initial_human=84,
                           domains=("a", "b", "c"), eval_sample=7)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total,
                             domains=("a", "b", "c"))
        trace = run_chain(cfg, corpus, default_factory)
        for batches in trace.eval_batches:
            sizes = [len(v) for v in batches.values()]
            assert max(sizes) - min(sizes) <= 1

    def test_undersized_batch_is_evaluated_whole(self):
        """A domain whose synthetic share (7) is below ``eval_sample`` (8) is
        evaluated on its whole batch, and the report says so."""
        cfg = small_config(per_gen_total=42, initial_human=84, domains=("a", "b", "c"),
                           eval_sample=8)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total,
                             domains=("a", "b", "c"))
        reports = [r for gen in run_chain(cfg, corpus, default_factory).reports
                   for r in gen.values()]
        assert len(reports) == cfg.generations * 3
        assert {(r.whole_batch, r.sample_size) for r in reports} == {(True, 7)}

    def test_corpus_exhaustion_names_generation(self):
        cfg = small_config(ratio=0.0, eval_sample=1)
        corpus = make_corpus(cfg.initial_human + cfg.per_gen_total)  # one generation's worth
        with pytest.raises(DataExhaustedError) as err:
            run_chain(cfg, corpus, default_factory)
        assert err.value.generation == 1

    def test_generation_zero_trains_on_initial_human(self):
        cfg = small_config()
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)
        sizes = []

        class SpyGenerator(ResamplerGenerator):
            def train(self, texts, domains):
                sizes.append(len(texts))
                super().train(texts, domains)

        run_chain(cfg, corpus, lambda kind, seed: SpyGenerator(seed=seed))
        assert sizes[0] == cfg.initial_human
        assert all(s == cfg.per_gen_total for s in sizes[1:])


class TestEvaluateBatch:
    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown evaluation metric 'perplexity'"):
            evaluate_batch(["a text", "another text"], ("word_entropy", "perplexity"))

    def test_one_text_leaves_self_bleu_out(self):
        report = evaluate_batch(["one lone text"], EVAL_METRICS)
        assert list(report.values) == [m for m in EVAL_METRICS if m != "self_bleu"]
        assert report.sample_size == 1

    def test_metrics_are_looked_up_when_called(self, monkeypatch):
        """Each metric is read off ``collapse_lab.metrics`` when it runs, so a
        wrapper put there, as the benchmark's spans are, sees every call."""
        calls = []
        monkeypatch.setattr(metrics, "word_entropy", lambda texts: calls.append(texts) or 1.5)
        texts = ["a b", "c d"]
        assert evaluate_batch(texts, ("word_entropy",)).values == {"word_entropy": 1.5}
        assert calls == [texts]


class TestRelativeMetrics:
    @staticmethod
    def _trace_with(first: dict, last: dict):
        from collapse_lab.metrics import MetricReport

        cfg = small_config()
        trace_first = MetricReport(values=first)
        trace_last = MetricReport(values=last)
        from collapse_lab.chain import ChainTrace

        return ChainTrace(config=cfg, reports=[{None: trace_first}, {None: trace_last}])

    def test_simple_ratio(self):
        trace = self._trace_with({"diversity": 0.4}, {"diversity": 0.3})
        assert relative_metrics(trace)[None]["diversity"] == pytest.approx(0.75)

    def test_identity(self):
        trace = self._trace_with({"a": 2.0, "b": 5.0}, {"a": 2.0, "b": 5.0})
        rel = relative_metrics(trace)[None]
        assert rel == {"a": 1.0, "b": 1.0}

    def test_zero_denominator_marker(self):
        trace = self._trace_with({"quality": 0.0}, {"quality": 3.0})
        assert relative_metrics(trace)[None]["quality"] is None

    def test_missing_generation_zero(self):
        from collapse_lab.chain import ChainTrace
        from collapse_lab.metrics import MetricReport

        trace = ChainTrace(config=small_config(),
                           reports=[{None: None}, {None: MetricReport(values={"a": 1.0})}])
        with pytest.raises(InvalidTraceError):
            relative_metrics(trace)


class TestResamplerGenerator:
    def test_generate_before_train(self):
        with pytest.raises(InvalidInputError):
            ResamplerGenerator(seed=0).generate(3)

    def test_draws_from_training_set(self):
        gen = ResamplerGenerator(seed=1)
        gen.train(["a", "b"], [None, None])
        out = gen.generate(40)
        assert set(out) <= {"a", "b"}
        assert len(out) == 40

    def test_determinism(self):
        out = []
        for _ in range(2):
            gen = ResamplerGenerator(seed=5)
            gen.train([f"t{i}" for i in range(20)], [None] * 20)
            out.append(gen.generate(30))
        assert out[0] == out[1]

    def test_domain_filtering(self):
        gen = ResamplerGenerator(seed=2)
        gen.train(["aa", "bb"], ["x", "y"])
        assert set(gen.generate(10, domain="x")) == {"aa"}
        assert set(gen.generate(10, domain="y")) == {"bb"}

    def test_misaligned_domains_rejected(self):
        with pytest.raises(ValueError):
            ResamplerGenerator(seed=2).train(["aa", "bb"], ["x"])

    def test_smoothing_perturbs(self):
        gen = ResamplerGenerator(seed=3, smoothing=1.0)
        gen.train(["one two three four five six seven eight"], [None])
        outs = set(gen.generate(20))
        assert len(outs) > 1  # dropout produced variants


class TestExternalGenerator:
    @pytest.fixture
    def endpoint(self):
        """(url, payloads) of a loopback generation endpoint. It answers a
        request for n texts with t0, t1, ..., except for the domain "short",
        which gets one text, and "html", which gets a body that is not JSON;
        ``payloads`` lists the request bodies it received."""
        payloads = []

        def respond(body):
            payloads.append(json.loads(body))
            if payloads[-1]["domain"] == "html":
                return http_ok(b"<html>busy</html>")
            n = 1 if payloads[-1]["domain"] == "short" else payloads[-1]["n"]
            return http_ok(json.dumps({"texts": [f"t{i}" for i in range(n)]}).encode())

        with raw_server(respond) as server:
            yield f"http://127.0.0.1:{server.server_address[1]}/gen", payloads

    @staticmethod
    def _generator(url, **kw):
        return ExternalGenerator(GeneratorEndpointConfig(endpoint=url, model="m", batch_size=2,
                                                         **kw))

    def test_batches_requests(self, endpoint):
        url, payloads = endpoint
        gen = self._generator(url)
        gen.train([], [])
        assert gen.generate(3, domain="news") == ["t0", "t1", "t0"]
        assert [p["n"] for p in payloads] == [2, 1]

    def test_transport_error_propagates(self):
        with socket.socket() as sock:  # bound, never listening: connections are refused
            sock.bind(("127.0.0.1", 0))
            gen = self._generator(f"http://127.0.0.1:{sock.getsockname()[1]}/gen")
            with pytest.raises(TransportError, match="^generation request failed: "):
                gen.generate(1)

    def test_malformed_response(self, endpoint):
        url, _ = endpoint
        gen = self._generator(url)
        with pytest.raises(ProtocolError, match=r"malformed batch \(wanted 2 texts\)"):
            gen.generate(2, domain="short")
        with pytest.raises(ProtocolError, match="malformed body"):
            gen.generate(1, domain="html")

    def test_zero_requests_for_zero_texts(self, endpoint):
        url, payloads = endpoint
        assert self._generator(url).generate(0) == []
        assert payloads == []

    def test_passthrough_sampling_fields(self, endpoint):
        url, payloads = endpoint
        self._generator(url, temperature=0.7, min_p=0.05).generate(1)
        assert payloads == [{"model": "m", "n": 1, "domain": None,
                             "temperature": 0.7, "min_p": 0.05}]
