import contextlib
import gc
import json
import os
import socket
import socketserver
import ssl
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from collapse_lab import judge
from collapse_lab.errors import InvalidConfigError, InvalidInputError, TransportError
from collapse_lab.generators import ExternalGenerator, GeneratorEndpointConfig
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


def by_text(reply):
    """Thread-safe transport answering ``reply(text)`` for the text in the
    prompt; records each text it was asked about."""
    calls, lock = [], threading.Lock()

    def transport(url, payload, timeout, token):
        head, tail = QUALITY_PROMPT.split("{text}")
        text = payload["messages"][0]["content"][len(head):-len(tail)]
        with lock:
            calls.append(text)
        return reply(text)

    transport.calls = calls
    return transport


class _RawHandler(socketserver.StreamRequestHandler):
    def handle(self):
        head = [self.rfile.readline()]
        length = 0
        for line in iter(self.rfile.readline, b"\r\n"):
            head.append(line)
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        body = self.rfile.read(length)
        self.server.request_lines.append(head[0].decode().strip())
        self.server.requests.append(b"".join(head) + b"\r\n" + body)
        reply = self.server.respond(body)
        if reply is None:  # no reply: note whether the client gives up and closes
            self.connection.settimeout(10)
            self.server.closed_unanswered.append(self.connection.recv(1) == b"")
            return
        self.wfile.write(reply)


@contextlib.contextmanager
def raw_server(respond, server_class=socketserver.TCPServer):
    """Loopback server that answers each request with the raw bytes
    ``respond(body)`` returns and then closes the connection; when
    ``respond`` returns None it sends nothing and waits for the client to
    close. Yields the server: ``server.request_lines`` lists the request
    lines it read, ``server.requests`` each whole request, and
    ``server.closed_unanswered`` whether the client closed each unanswered
    connection (read once the block has ended and the server has stopped)."""
    server = server_class(("127.0.0.1", 0), _RawHandler)
    server.respond, server.request_lines, server.requests = respond, [], []
    server.closed_unanswered = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def http_ok(body: bytes) -> bytes:
    return b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


CHUNKED = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"


class _Connected(socket.socket):
    """One end of a socket pair standing in for a TCP connection: its
    connect succeeds at once, and when a fake TLS context hands it back as
    the wrapped socket, its handshake does nothing."""

    def connect_ex(self, address):
        return 0

    def do_handshake(self):
        pass


def paired_sockets(monkeypatch, replies):
    """Patch the judge loop's address lookup and socket creation, with no
    network: each socket it makes is one end of a socket pair whose other
    end already holds the next of ``replies``. Returns the lookups made,
    the sockets made and every pair, for the caller to close."""
    lookups, made = [], []
    pairs = [socket.socketpair() for _ in replies]  # before socket.socket is patched
    for (_, theirs), reply in zip(pairs, replies):
        theirs.sendall(reply)

    def getaddrinfo(host, port, *args):
        lookups.append((host, port))
        return [(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "", ("192.0.2.1", port))]

    def make_socket(family, type_, proto):
        made.append(_Connected(fileno=pairs[len(made)][0].detach()))
        return made[-1]

    monkeypatch.setattr(judge.socket, "getaddrinfo", getaddrinfo)
    monkeypatch.setattr(judge.socket, "socket", make_socket)
    return lookups, made, pairs


def _certdata():
    """CPython's test certificate directory, or None where the interpreter
    ships without its ``test`` package."""
    try:
        import test
    except ImportError:
        return None
    path = os.path.join(os.path.dirname(test.__file__), "certdata")
    return path if os.path.exists(os.path.join(path, "keycert3.pem")) else None


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

    def test_cache_key_bytes_pinned(self, tmp_path):
        """The cache key is the template hash's first 16 hex digits, the
        text's hash and the model, so caches written before stay valid."""
        path = tmp_path / "cache.jsonl"
        annotate_quality(["THE TEXT"], cfg(cache_path=str(path)), transport=scripted(["10"]))
        [row] = [json.loads(line) for line in path.read_text().splitlines()]
        text_hash = "b3e3c1080eae5a442e92c17f34aa5d9f46e25447e3d730eb5b8c4012ab9a65db"
        assert row["key"] == f"f8b1132cc0b88125:{text_hash}:judge-model"
        assert row["text_hash"] == text_hash

    def test_each_text_hashed_once(self, monkeypatch):
        """A cold batch hashes the template once and each text once."""
        hashed, sha = [], judge._sha
        monkeypatch.setattr(judge, "_sha", lambda data: hashed.append(data) or sha(data))
        annotate_quality(["a", "b", "c"], cfg(), transport=scripted(["10"]))
        assert sorted(hashed) == sorted([QUALITY_PROMPT, "a", "b", "c"])

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
        with pytest.raises(InvalidInputError, match=f"^{path}:1: invalid JSON: "):
            annotate_quality(["x"], cfg(cache_path=str(path)), transport=scripted(["1"]))

    @pytest.mark.parametrize("row", ['5', '{"score": 1}', '{"key": 3}', '["key"]'])
    def test_inner_row_without_a_key_raises(self, tmp_path, row):
        path = tmp_path / "cache.jsonl"
        path.write_text(f'{{"key": "k"}}\n\n{row}\n{{"key": "j"}}\n')
        with pytest.raises(InvalidInputError, match=f"^{path}:3: not an object with a key$"):
            annotate_quality(["x"], cfg(cache_path=str(path)), transport=scripted(["1"]))

    @pytest.mark.parametrize("bad", [{"score": 500}, {"score": "60"}, {"kind": "tone"},
                                     {"timestamp": None}])
    def test_invalid_cached_row_is_a_miss(self, tmp_path, bad):
        """Only the text whose row does not make an Annotation (a None in
        ``bad`` drops that field) is asked again, and its fresh row wins when
        the cache is next loaded."""
        path = tmp_path / "cache.jsonl"
        annotate_quality(["good", "bad"], cfg(cache_path=str(path), concurrency=1),
                         transport=scripted(["11", "22"]))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[1] = {k: v for k, v in {**rows[1], **bad}.items() if v is not None}
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

        transport = scripted(["33"])
        result = annotate_quality(["good", "bad"], cfg(cache_path=str(path)),
                                  transport=transport)
        assert result.scores == [11, 33]
        assert (result.cache_hits, len(transport.calls)) == (1, 1)
        again = annotate_quality(["good", "bad"], cfg(cache_path=str(path)),
                                 transport=self._no_network)
        assert again.scores == [11, 33] and again.cache_hits == 2


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

    def test_shared_cache_handle_under_thread_switches(self, tmp_path):
        """Eight helper threads answer while the batch's thread appends
        through one cache handle: every row lands whole, once, and a fresh
        batch serves them all."""
        path = tmp_path / "cache.jsonl"
        texts = [f"text {i}" for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first = annotate_quality(texts, cfg(cache_path=str(path), concurrency=8),
                                     transport=by_text(lambda text: text.split()[1][-1]))
        finally:
            sys.setswitchinterval(interval)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert sorted(row["score"] for row in rows) == sorted(first.scores)
        assert len({row["key"] for row in rows}) == len(texts)
        again = annotate_quality(texts, cfg(cache_path=str(path)),
                                 transport=TestCache._no_network)
        assert again.cache_hits == len(texts) and again.scores == first.scores

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_loop_keeps_concurrency_requests_in_flight(self, monkeypatch, concurrency):
        """The default transport keeps exactly ``concurrency`` requests in
        flight: the server holds each reply until that many requests have
        arrived (or 2 s pass), and counts the client sockets open whenever a
        request arrives."""
        client_sockets, make = [], socket.socket

        def make_socket(*args, **kwargs):  # an accept passes ``fileno``; the client does not
            sock = make(*args, **kwargs)
            if "fileno" not in kwargs:
                client_sockets.append(sock)
            return sock

        peak, barrier = [], threading.Barrier(concurrency, timeout=2)

        def respond(body):
            peak.append(sum(sock.fileno() != -1 for sock in client_sockets))
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return http_ok(b'{"text": "7"}')

        texts = [f"text {i}" for i in range(4 * concurrency)]
        with raw_server(respond, socketserver.ThreadingTCPServer) as server:
            monkeypatch.setattr(judge.socket, "socket", make_socket)
            c = JudgeConfig(endpoint=f"http://127.0.0.1:{server.server_address[1]}/chat",
                            model="m", concurrency=concurrency)
            result = annotate_quality(texts, c)
            monkeypatch.undo()
        assert result.scores == [7] * len(texts)
        assert max(peak) == concurrency and len(client_sockets) == len(texts)
        assert not barrier.broken

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
            server.server_close()

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


    def test_malformed_http_fails_only_its_text(self):
        """Each framing the client reads (chunked with an extension, no
        length, a 100 Continue first) annotates its text; a garbled status
        line, a truncated body, a non-2xx status, a bad chunk size, an
        over-long header line or a close mid-chunk is a transport failure of
        its own text, and the rest of the batch is annotated."""
        replies = {
            b"garbled": b"GARBAGE\r\n\r\n",
            b"truncated": b"HTTP/1.0 200 OK\r\nContent-Length: 40\r\n\r\n{\"text\"",
            b"unavailable": b"HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
            b"extension": CHUNKED + b'4;x=y\r\n{"te\r\na\r\nxt": "64"}\r\n0\r\n\r\n',
            b"no length": b'HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{"text": "64"}',
            b"interim": b"HTTP/1.1 100 Continue\r\n\r\n" + http_ok(b'{"text": "64"}'),
            b"chunk size": CHUNKED + b'zz\r\n{"text": "64"}\r\n0\r\n\r\n',
            b"long header": b"HTTP/1.0 200 OK\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n{}",
            b"mid-chunk": CHUNKED + b'4\r\n{"te\r\na\r\nxt',  # then the server closes
        }

        def respond(body):
            return next((raw for key, raw in replies.items() if key in body),
                        http_ok(b'{"text": "64"}'))

        texts = ["fine one", "garbled", "truncated", "unavailable", "chunk extension",
                 "no length", "interim", "bad chunk size", "long header", "mid-chunk",
                 "fine two"]
        with raw_server(respond) as server:
            c = JudgeConfig(endpoint=f"http://127.0.0.1:{server.server_address[1]}/chat",
                            model="m", max_retries=1)
            result = annotate_quality(texts, c)
        assert result.scores == [64, None, None, None, 64, 64, 64, None, None, None, 64]
        assert [f.error for f in result.failures] == [
            "transport: BadStatusLine: GARBAGE\r\n",
            "transport: IncompleteRead: IncompleteRead(7 bytes read, 33 more expected)",
            "transport: HTTP Error 503: Service Unavailable",
            "transport: IncompleteRead: IncompleteRead(0 bytes read)",
            "transport: LineTooLong: got more than 65536 bytes when reading header line",
            "transport: IncompleteRead: IncompleteRead(4 bytes read)"]
        assert result.transport_failures == 12 and result.requests == 17

    def test_silent_server_times_out_only_its_text(self):
        """A connection that is accepted and never answered fails its text
        with ``transport: timed out`` after ``timeout`` seconds on each
        attempt, while the rest of the batch is annotated; the client closes
        each timed-out socket."""
        def respond(body):
            return None if b"silent" in body else http_ok(b'{"text": "64"}')

        with raw_server(respond, socketserver.ThreadingTCPServer) as server:
            c = JudgeConfig(endpoint=f"http://127.0.0.1:{server.server_address[1]}/chat",
                            model="m", timeout=0.3, max_retries=1, concurrency=2)
            result = annotate_quality(["one", "silent", "two", "three"], c)
            gc.collect()
        assert result.scores == [64, None, 64, 64]
        assert [f.error for f in result.failures] == ["transport: timed out"]
        assert (result.requests, result.transport_failures) == (5, 2)
        assert server.closed_unanswered == [True, True]

    def test_unexpected_error_closes_requests_in_flight(self, monkeypatch):
        """An error that is not a transport or parse fault propagates from
        the loop at once, and the request still in flight is closed first."""
        parse = judge._parse_score

        def parse_or_fail(raw, kind):
            if raw == "boom":
                raise RuntimeError("judge client bug")
            return parse(raw, kind)

        def respond(body):
            return None if b"held" in body else http_ok(b'{"text": "boom"}')

        monkeypatch.setattr(judge, "_parse_score", parse_or_fail)
        with raw_server(respond, socketserver.ThreadingTCPServer) as server:
            c = JudgeConfig(endpoint=f"http://127.0.0.1:{server.server_address[1]}/chat",
                            model="m", timeout=30.0, concurrency=2)
            # ``raised`` keeps the batch's frames alive, so only an explicit
            # close, not garbage collection, can close the held socket
            with pytest.raises(RuntimeError, match="judge client bug") as raised:
                annotate_quality(["held", "fails"], c)
        assert server.closed_unanswered == [True]
        assert raised.traceback

    @pytest.mark.parametrize("token, auth", [(None, b""),
                                             ("tok", b"Authorization: Bearer tok\r\n")])
    def test_request_bytes_pinned(self, token, auth):
        """The exact bytes of a post, with and without a bearer token."""
        with raw_server(lambda body: http_ok(b'{"text": "1"}')) as server:
            port = server.server_address[1]
            payload = {"model": "m", "messages": [{"role": "user", "content": "caf\u00e9"}],
                       "temperature": 0}
            assert judge.post_json(f"http://127.0.0.1:{port}/v1/chat?x=1", payload, 5.0,
                                   token) == {"text": "1"}
        assert server.requests == [
            b"POST /v1/chat?x=1 HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
            b"Accept-Encoding: identity\r\nContent-Length: 88\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"User-Agent: collapse-lab\r\n%s\r\n"
            b'{"model": "m", "messages": [{"role": "user", "content": "caf\\u00e9"}], '
            b'"temperature": 0}' % (port, auth)]

    def test_malformed_http_is_a_generator_transport_error(self):
        """A garbled status line or a bad chunk size is a TransportError, not
        a ProtocolError."""
        for reply, error in [(b"GARBAGE\r\n\r\n", "BadStatusLine"),
                             (CHUNKED + b'zz\r\n{"text": "x"}\r\n0\r\n\r\n', "IncompleteRead")]:
            with raw_server(lambda body: reply) as server:
                gen = ExternalGenerator(GeneratorEndpointConfig(
                    endpoint=f"http://127.0.0.1:{server.server_address[1]}/gen", model="m"))
                with pytest.raises(TransportError, match=error):
                    gen.generate(1)

    @pytest.mark.parametrize("url, token, error", [
        ("http://127.0.0.1:9/a b", None, "InvalidURL"),
        ("http://127.0.0.1:x/chat", None, "InvalidURL"),
        ("http://127.0.0.1:9/chat", "t\r\nX-Injected: 1", "HTTPException"),
        ("http://127.0.0.1:9/chat", "\u20ac", "HTTPException")])
    def test_malformed_request_fails_before_connecting(self, monkeypatch, url, token, error):
        """A request target that is not visible ASCII, a port that is not a
        number or a header value with a line break or a character beyond
        Latin-1 is an OSError, and no connection is made."""
        monkeypatch.setattr(judge.socket, "getaddrinfo",
                            lambda *args: pytest.fail("an address was looked up"))
        monkeypatch.setattr(judge.socket, "socket", lambda *args: pytest.fail("a socket was made"))
        monkeypatch.setattr(judge, "_proxy_opener", lambda: ({}, None))
        with pytest.raises(OSError, match=f"^{error}: "):
            judge.post_json(url, {}, 1.0, token)

    @pytest.mark.parametrize("endpoint, error", [
        ("ftp://judge.invalid/chat", "transport: not an http(s) URL: 'ftp://judge.invalid/chat'"),
        ("http://[::1/chat", "transport: Invalid IPv6 URL")])
    def test_bad_endpoint_fails_every_attempt_before_connecting(self, monkeypatch, endpoint,
                                                                error):
        """An endpoint the default transport cannot post to fails every
        attempt of every text with the same error, and no connection is made."""
        monkeypatch.setattr(judge.socket, "getaddrinfo",
                            lambda *args: pytest.fail("an address was looked up"))
        monkeypatch.setattr(judge.socket, "socket", lambda *args: pytest.fail("a socket was made"))
        monkeypatch.setattr(judge, "_proxy_opener", lambda: ({}, None))
        result = annotate_quality(["a", "b"], JudgeConfig(endpoint=endpoint, model="m",
                                                          max_retries=1))
        assert [f.error for f in result.failures] == [error] * 2
        assert (result.requests, result.transport_failures) == (4, 4)

    def test_proxy_from_environment(self, monkeypatch):
        """An endpoint that http_proxy covers is requested through the proxy,
        in absolute form."""
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        try:
            with raw_server(lambda body: http_ok(b'{"text": "61"}')) as proxy:
                monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{proxy.server_address[1]}")
                judge._proxy_opener.cache_clear()
                c = JudgeConfig(endpoint="http://127.0.0.1:9/v1/chat", model="m", max_retries=0)
                result = annotate_quality(["via the proxy"], c)
        finally:
            judge._proxy_opener.cache_clear()
        assert result.scores == [61]
        assert proxy.request_lines == ["POST http://127.0.0.1:9/v1/chat HTTP/1.1"]

    def test_https_posts_share_one_tls_context(self, monkeypatch):
        """Two HTTPS posts make one TLS context, and each wraps its socket
        with it for the URL's host (no network: the connection is one end of
        a socket pair whose other end holds the reply)."""
        made, wrapped = [], []
        make = ssl._create_default_https_context

        def make_context():
            context = make()
            context.wrap_socket = lambda sock, server_hostname, do_handshake_on_connect: (
                wrapped.append((context, server_hostname)) or sock)
            made.append(context)
            return context

        monkeypatch.setattr(ssl, "_create_default_https_context", make_context)
        monkeypatch.setattr(judge, "_proxy_opener", lambda: ({}, None))
        lookups, sockets, pairs = paired_sockets(monkeypatch, [http_ok(b'{"text": "5"}')] * 2)
        judge._tls_context.cache_clear()
        try:
            for _ in range(2):
                assert judge.post_json("https://judge.invalid/v1/chat", {}, 1.0) == {"text": "5"}
        finally:
            judge._tls_context.cache_clear()
            for pair in pairs:
                for end in pair:
                    end.close()
        assert len(made) == 1
        assert wrapped == [(made[0], "judge.invalid")] * 2
        assert lookups == [("judge.invalid", 443)] * 2
        assert [sock.fileno() for sock in sockets] == [-1, -1]

    def test_failed_tls_wrap_closes_the_socket(self, monkeypatch):
        """A TLS wrap that fails before it takes the socket over is an error
        of that request, and the socket is closed."""
        class Context:
            def wrap_socket(self, sock, server_hostname, do_handshake_on_connect):
                raise ssl.SSLError("handshake failed")

        monkeypatch.setattr(judge, "_tls_context", Context)
        monkeypatch.setattr(judge, "_proxy_opener", lambda: ({}, None))
        _, sockets, pairs = paired_sockets(monkeypatch, [b""])
        try:
            with pytest.raises(ssl.SSLError, match="handshake failed"):
                judge.post_json("https://judge.invalid/v1/chat", {}, 1.0)
            assert sockets[0].fileno() == -1
        finally:
            for end in pairs[0]:
                end.close()

    @pytest.mark.skipif(_certdata() is None,
                        reason="CPython's test certificates (the test package) are not installed")
    def test_https_round_trip_on_loopback(self, monkeypatch):
        """A real TLS handshake against a loopback server whose certificate
        the test CA signed, answering with a chunked body."""
        certdata = _certdata()
        server_context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        server_context.load_cert_chain(os.path.join(certdata, "keycert3.pem"))

        class TLSServer(socketserver.TCPServer):
            def get_request(self):
                sock, address = super().get_request()
                return server_context.wrap_socket(sock, server_side=True), address

        monkeypatch.setattr(ssl, "_create_default_https_context", lambda: ssl.create_default_context(
            cafile=os.path.join(certdata, "pycacert.pem")))
        monkeypatch.setattr(judge, "_proxy_opener", lambda: ({}, None))
        judge._tls_context.cache_clear()
        try:
            reply = CHUNKED + b'4\r\n{"te\r\na\r\nxt": "42"}\r\n0\r\n\r\n'
            with raw_server(lambda body: reply, TLSServer) as server:
                url = f"https://localhost:{server.server_address[1]}/v1/chat"
                assert judge.post_json(url, {"q": 1}, 5.0) == {"text": "42"}
        finally:
            judge._tls_context.cache_clear()
        assert server.request_lines == ["POST /v1/chat HTTP/1.1"]


class TestBatch:
    def test_duplicates_requested_once(self):
        transport = by_text(lambda text: {"a": "10", "b": "20"}[text])
        result = annotate_quality(["a", "a", "b"], cfg(), transport=transport)
        assert sorted(transport.calls) == ["a", "b"]
        assert result.scores == [10, 10, 20]
        assert result.entries[0] is result.entries[1]

    def test_failing_duplicate_retried_once(self):
        transport = by_text(lambda text: "nope" if text == "a" else "30")
        result = annotate_quality(["a", "b", "a"], cfg(max_retries=2), transport=transport)
        assert transport.calls.count("a") == 3
        assert result.scores == [None, 30, None]
        assert len(result.failures) == 2

    def test_counters(self, tmp_path):
        c = cfg(cache_path=str(tmp_path / "cache.jsonl"), max_retries=2, concurrency=1)
        transport = scripted([OSError("down"), "eighty", "55", "bad", "bad", "bad"])
        first = annotate_quality(["x", "y", "x"], c, transport=transport)
        assert first.scores == [55, None, 55]
        assert (first.cache_hits, first.requests) == (0, 6)
        assert (first.parse_failures, first.transport_failures) == (4, 1)
        again = annotate_quality(["x", "y", "x"], c, transport=scripted([OSError("down")]))
        assert again.scores == [55, None, 55]
        assert (again.cache_hits, again.requests) == (2, 3)
        assert (again.parse_failures, again.transport_failures) == (0, 3)

    def test_unexpected_error_propagates_and_closes_the_cache(self, tmp_path):
        """An error outside the transport contract is not a text failure; the
        batch's cache handle is closed on the way out (a leaked one would
        raise ResourceWarning, an error in this suite)."""
        def transport(url, payload, timeout, token):
            if "boom" in payload["messages"][0]["content"]:
                raise RuntimeError("judge client bug")
            return "50"

        path = tmp_path / "cache.jsonl"
        with pytest.raises(RuntimeError, match="judge client bug"):
            annotate_quality(["fine", "boom"], cfg(cache_path=str(path), concurrency=1),
                             transport=transport)
        gc.collect()
        assert [json.loads(line)["score"] for line in path.read_text().splitlines()] == [50]


class TestConfigValidation:
    @pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf"), "5"])
    def test_bad_timeout_rejected(self, timeout):
        """A timeout that is not a positive finite number would fail every
        request alike, so it is a config error."""
        with pytest.raises(InvalidConfigError, match="^timeout must be a positive finite number"):
            cfg(timeout=timeout)
        with pytest.raises(InvalidConfigError, match="^timeout must be a positive finite number"):
            GeneratorEndpointConfig(endpoint="http://test.invalid/gen", model="m",
                                    timeout=timeout)


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
