import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from collapse_lab.errors import InvalidInputError
from collapse_lab.judge import (
    LEAN_PROMPT,
    QUALITY_PROMPT,
    Annotation,
    JudgeConfig,
    annotate_lean,
    annotate_quality,
    build_lean_mixture,
    partition_by_lean,
)


def cfg(**kw):
    return JudgeConfig(endpoint="http://test.invalid/v1/chat", model="judge-model", **kw)


def scripted(responses):
    """Transport returning queued responses per call; records payloads."""
    calls = []

    def transport(url, payload, timeout, token):
        calls.append(payload)
        item = responses[min(len(calls) - 1, len(responses) - 1)]
        if isinstance(item, Exception):
            raise item
        return item

    transport.calls = calls
    return transport


class TestAnnotateQuality:
    def test_parses_integer(self):
        result = annotate_quality(["hello"], cfg(), transport=scripted(["85"]))
        assert result.scores == [85]

    def test_whitespace_tolerated(self):
        result = annotate_quality(["hello"], cfg(), transport=scripted(["  42\n"]))
        assert result.scores == [42]

    def test_parse_failure_isolated(self):
        transport = scripted(["eighty"])

        result = annotate_quality(["bad", "good"], cfg(max_retries=2),
                                  transport=lambda u, p, t, tok:
                                  "eighty" if "bad" in p["messages"][0]["content"] else "70")
        assert result.scores[0] is None
        assert result.scores[1] == 70
        assert "parse" in result.failures[0].error

    def test_out_of_range_rejected(self):
        result = annotate_quality(["x"], cfg(max_retries=0), transport=scripted(["101"]))
        assert result.scores == [None]

    def test_transport_retry_then_success(self):
        transport = scripted([OSError("down"), OSError("down"), "55"])
        result = annotate_quality(["x"], cfg(max_retries=3), transport=transport)
        assert result.scores == [55]
        assert len(transport.calls) == 3

    def test_prompt_bytes_golden(self):
        transport = scripted(["10"])
        annotate_quality(["THE TEXT"], cfg(), transport=transport)
        sent = transport.calls[0]["messages"][0]["content"]
        assert sent == QUALITY_PROMPT.format(text="THE TEXT")
        # the template appears verbatim around the substitution
        head, tail = QUALITY_PROMPT.split("{text}")
        assert sent.startswith(head) and sent.endswith(tail)
        assert sent[len(head):len(sent) - len(tail)] == "THE TEXT"

    def test_request_shape(self):
        transport = scripted(["10"])
        annotate_quality(["t"], cfg(), transport=transport)
        payload = transport.calls[0]
        assert payload["model"] == "judge-model"
        assert payload["temperature"] == 0
        assert payload["messages"][0]["role"] == "user"


class TestAnnotateLean:
    def test_non_political(self):
        result = annotate_lean(["x"], cfg(), transport=scripted(["-1"]))
        assert result.scores == [-1]

    def test_neutral(self):
        result = annotate_lean(["x"], cfg(), transport=scripted(["50"]))
        assert result.scores == [50]

    def test_out_of_range(self):
        result = annotate_lean(["x"], cfg(max_retries=0), transport=scripted(["101"]))
        assert result.scores == [None]

    def test_lean_prompt_golden(self):
        transport = scripted(["-1"])
        annotate_lean(["SOME POST"], cfg(), transport=transport)
        sent = transport.calls[0]["messages"][0]["content"]
        assert sent == LEAN_PROMPT.format(text="SOME POST")


class TestCache:
    def test_second_call_hits_cache(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        transport = scripted(["60"])
        c = cfg(cache_path=path)
        first = annotate_quality(["same text"], c, transport=transport)
        second = annotate_quality(["same text"], c, transport=transport)
        assert len(transport.calls) == 1
        assert first.scores == second.scores == [60]

    def test_cache_survives_restart(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        transport = scripted(["33"])
        annotate_quality(["text a"], cfg(cache_path=path), transport=transport)

        def failing(url, payload, timeout, token):
            raise AssertionError("network must not be touched")

        again = annotate_quality(["text a"], cfg(cache_path=path), transport=failing)
        assert again.scores == [33]

    def test_kinds_do_not_collide(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        annotate_quality(["t"], cfg(cache_path=path), transport=scripted(["10"]))
        lean = annotate_lean(["t"], cfg(cache_path=path), transport=scripted(["90"]))
        assert lean.scores == [90]

    @staticmethod
    def _no_network(url, payload, timeout, token):
        raise AssertionError("network must not be touched")

    def test_torn_last_row_is_ignored_then_cut(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        annotate_quality(["kept", "torn"], cfg(cache_path=str(path), concurrency=1),
                         transport=scripted(["11", "22"]))
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # a crash mid-append of the second row

        transport = scripted(["33"])
        result = annotate_quality(["kept", "torn"], cfg(cache_path=str(path)),
                                  transport=transport)
        assert len(transport.calls) == 1
        assert result.scores[1] == 33

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["score"] for line in lines] == [result.scores[0], 33]
        again = annotate_quality(["kept", "torn"], cfg(cache_path=str(path)),
                                 transport=self._no_network)
        assert again.scores == result.scores

    def test_row_missing_only_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        annotate_quality(["first"], cfg(cache_path=str(path)), transport=scripted(["44"]))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))

        annotate_quality(["second"], cfg(cache_path=str(path)), transport=scripted(["55"]))
        lines = path.read_text().splitlines()
        assert [json.loads(line)["score"] for line in lines] == [44, 55]
        again = annotate_quality(["first", "second"], cfg(cache_path=str(path)),
                                 transport=self._no_network)
        assert again.scores == [44, 55]

    def test_corrupt_inner_row_still_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"key": \n{"key": "k"}\n')
        with pytest.raises(json.JSONDecodeError):
            annotate_quality(["x"], cfg(cache_path=str(path)), transport=scripted(["1"]))


class TestTransportFaults:
    def test_value_error_is_retried(self):
        transport = scripted([json.JSONDecodeError("Expecting value", "<html>", 0),
                              ValueError("response carries no text field"), "70"])
        result = annotate_quality(["x"], cfg(max_retries=2), transport=transport)
        assert result.scores == [70]
        assert len(transport.calls) == 3

    def test_value_error_fails_only_its_text(self):
        def transport(url, payload, timeout, token):
            if "bad" in payload["messages"][0]["content"]:
                raise ValueError("response carries no text field")
            return "12"

        result = annotate_quality(["ok 1", "bad", "ok 2"], cfg(max_retries=1),
                                  transport=transport)
        assert result.scores == [12, None, 12]
        [failure] = result.failures
        assert failure.error == "transport: response carries no text field"


class TestConcurrency:
    def test_in_flight_cap(self):
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def transport(url, payload, timeout, token):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            threading.Event().wait(0.01)
            with lock:
                state["now"] -= 1
            return "50"

        annotate_quality([f"text {i}" for i in range(24)], cfg(concurrency=3),
                         transport=transport)
        assert state["peak"] <= 3

    def test_order_stable(self):
        def transport(url, payload, timeout, token):
            text = payload["messages"][0]["content"].rsplit(" ", 1)[-1].rstrip(".")
            return text

        texts = [f"{i}" for i in (5, 9, 1, 70)]
        result = annotate_lean(texts, cfg(concurrency=4), transport=transport)
        assert result.scores == [5, 9, 1, 70]


class TestDefaultTransportHttp:
    def test_end_to_end_against_local_server(self):
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                assert body["messages"][0]["role"] == "user"
                out = json.dumps({"text": "77"}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            c = JudgeConfig(endpoint=f"http://127.0.0.1:{port}/chat", model="m")
            result = annotate_quality(["hello"], c)
            assert result.scores == [77]
        finally:
            server.shutdown()

    def test_malformed_bodies_become_failures(self):
        bodies = {"post-html": b"<html>busy</html>", "post-empty": b'{"choices": []}',
                  "post-ok": b'{"text": "64"}'}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
                out = next(b for key, b in bodies.items() if key in prompt)
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
            port = server.server_address[1]
            c = JudgeConfig(endpoint=f"http://127.0.0.1:{port}/chat", model="m",
                            max_retries=1, concurrency=1)
            result = annotate_quality(list(bodies), c)
        finally:
            server.shutdown()
            server.server_close()
        assert result.scores == [None, None, 64]
        assert [f.error.split(":")[0] for f in result.failures] == ["transport"] * 2


class TestAnnotationValidation:
    def test_score_range_enforced(self):
        with pytest.raises(InvalidInputError):
            Annotation(text_hash="h", kind="quality", score=-1,
                       raw_response="-1", timestamp=0.0)
        Annotation(text_hash="h", kind="lean", score=-1, raw_response="-1", timestamp=0.0)


class TestLeanMixture:
    @staticmethod
    def _partitions(n=400):
        left = [{"lean": 10, "id": f"L{i}"} for i in range(n)]
        right = [{"lean": 90, "id": f"R{i}"} for i in range(n)]
        return left, right

    def test_all_left(self):
        left, right = self._partitions()
        mix = build_lean_mixture(left, right, 1.0, 100, seed=0)
        assert all(r["lean"] == 10 for r in mix)

    def test_half_and_half(self):
        left, right = self._partitions()
        mix = build_lean_mixture(left, right, 0.5, 100, seed=0)
        assert sum(r["lean"] == 10 for r in mix) == 50
        assert sum(r["lean"] == 90 for r in mix) == 50

    def test_quarter_composition_reproducible(self):
        left, right = self._partitions(1000)
        a = build_lean_mixture(left, right, 0.25, 1000, seed=3)
        b = build_lean_mixture(left, right, 0.25, 1000, seed=3)
        assert sum(r["lean"] == 10 for r in a) == 250
        assert sum(r["lean"] == 90 for r in a) == 750
        assert [r["id"] for r in a] == [r["id"] for r in b]

    def test_shortfall(self):
        left, right = self._partitions(10)
        with pytest.raises(InvalidInputError):
            build_lean_mixture(left, right, 0.5, 100)

    def test_fraction_whitelist(self):
        left, right = self._partitions()
        with pytest.raises(InvalidInputError):
            build_lean_mixture(left, right, 0.3, 10)

    def test_partition_rule(self):
        records = [{"lean": v} for v in (0, 49, 50, 51, 100, -1)]
        left, right = partition_by_lean(records)
        assert [r["lean"] for r in left] == [0, 49]
        assert [r["lean"] for r in right] == [51, 100]
