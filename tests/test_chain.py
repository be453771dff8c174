import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from collapse_lab.chain import (
    ChainConfig,
    HumanCorpus,
    TextRecord,
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


def make_corpus(n, seed=0, prefix="human", domains=(None,)):
    records = []
    for i in range(n):
        records.append(TextRecord(text=f"{prefix} text number {i} with some words",
                                  domain=domains[i % len(domains)]))
    return HumanCorpus(records, seed=seed)


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

    def test_per_generation_synthetic_counts(self):
        cfg = small_config(ratio=0.33, eval_sample=5)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)

        pools = []

        from collapse_lab import chain as chain_mod

        original = chain_mod.advance_generation

        def spy(pool, corpus, generators, cfg_, g, rng):
            out = original(pool, corpus, generators, cfg_, g, rng)
            pools.append(pool.counts_for(g))
            return out

        chain_mod.advance_generation = spy
        try:
            run_chain(cfg, corpus, default_factory)
        finally:
            chain_mod.advance_generation = original

        n_syn = int(np.floor(cfg.per_gen_total * cfg.ratio))
        for counts in pools:
            assert counts["synthetic"] == n_syn
            assert counts["human"] == cfg.per_gen_total - n_syn
            assert counts["total"] == cfg.per_gen_total


class TestRunChain:
    def test_eval_sample_invariant(self):
        with pytest.raises(InvalidConfigError):
            small_config(ratio=0.1, per_gen_total=40, eval_sample=10).validate()

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

    def test_ratio_zero_trains_on_humans_only(self):
        cfg = small_config(ratio=0.0, eval_sample=1)
        corpus = make_corpus(cfg.initial_human + cfg.generations * cfg.per_gen_total)
        seen_sources = []

        class SpyGenerator(ResamplerGenerator):
            def train(self, records):
                seen_sources.extend(r.source for r in records)
                super().train(records)

        run_chain(cfg, corpus, lambda kind, seed: SpyGenerator(seed=seed))
        assert seen_sources and all(s == "human" for s in seen_sources)

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
            def train(self, records):
                sizes.append(len(records))
                super().train(records)

        run_chain(cfg, corpus, lambda kind, seed: SpyGenerator(seed=seed))
        assert sizes[0] == cfg.initial_human
        assert all(s == cfg.per_gen_total for s in sizes[1:])


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
        gen.train([TextRecord(text="a"), TextRecord(text="b")])
        out = gen.generate(40)
        assert set(out) <= {"a", "b"}
        assert len(out) == 40

    def test_determinism(self):
        out = []
        for _ in range(2):
            gen = ResamplerGenerator(seed=5)
            gen.train([TextRecord(text=f"t{i}") for i in range(20)])
            out.append(gen.generate(30))
        assert out[0] == out[1]

    def test_domain_filtering(self):
        gen = ResamplerGenerator(seed=2)
        gen.train([TextRecord(text="aa", domain="x"), TextRecord(text="bb", domain="y")])
        assert set(gen.generate(10, domain="x")) == {"aa"}

    def test_smoothing_perturbs(self):
        gen = ResamplerGenerator(seed=3, smoothing=1.0)
        gen.train([TextRecord(text="one two three four five six seven eight")])
        outs = set(gen.generate(20))
        assert len(outs) > 1  # dropout produced variants


class TestExternalGenerator:
    @staticmethod
    def _config(**kw):
        return GeneratorEndpointConfig(endpoint="http://test.invalid/gen",
                                       model="m", batch_size=kw.pop("batch_size", 2))

    def test_echo_transport(self):
        calls = []

        def transport(url, payload, timeout):
            calls.append(payload)
            return {"texts": ["x"] * payload["n"]}

        gen = ExternalGenerator(self._config(), transport=transport)
        gen.train([])
        assert gen.generate(3) == ["x", "x", "x"]
        assert [c["n"] for c in calls] == [2, 1]  # batched

    def test_transport_error_propagates(self):
        def transport(url, payload, timeout):
            raise OSError("connection refused")

        gen = ExternalGenerator(self._config(), transport=transport)
        with pytest.raises(TransportError):
            gen.generate(1)

    def test_malformed_response(self):
        gen = ExternalGenerator(self._config(),
                                transport=lambda u, p, t: {"texts": ["only-one"]})
        with pytest.raises(ProtocolError):
            gen.generate(2)

    def test_zero_requests_for_zero_texts(self):
        calls = []
        gen = ExternalGenerator(self._config(),
                                transport=lambda u, p, t: calls.append(p) or {"texts": []})
        assert gen.generate(0) == []
        assert calls == []

    def test_passthrough_sampling_fields(self):
        seen = {}

        def transport(url, payload, timeout):
            seen.update(payload)
            return {"texts": ["y"] * payload["n"]}

        cfg = GeneratorEndpointConfig(endpoint="http://test.invalid", model="m",
                                      temperature=1.5, min_p=0.2)
        ExternalGenerator(cfg, transport=transport).generate(1)
        assert seen["temperature"] == 1.5
        assert seen["min_p"] == 0.2

    def test_default_transport_against_local_server(self):
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                if payload["domain"] == "html":
                    out = b"<html>busy</html>"
                else:
                    out = json.dumps({"texts": [f"t{i}" for i in range(payload["n"])]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            cfg = GeneratorEndpointConfig(endpoint=f"http://127.0.0.1:{server.server_address[1]}",
                                          model="m", batch_size=2)
            gen = ExternalGenerator(cfg)
            assert gen.generate(3, domain="news") == ["t0", "t1", "t0"]
            with pytest.raises(ProtocolError):
                gen.generate(1, domain="html")
        finally:
            server.shutdown()
            server.server_close()
