"""Shared by the test modules: the per-test pool fixture, and the one scripted
loopback HTTP server (``raw_server``) with its judge script."""

import contextlib
import itertools
import json
import multiprocessing
import socketserver
import threading

import pytest

from collapse_lab import _pool
from collapse_lab.judge import LEAN_PROMPT, QUALITY_PROMPT


@pytest.fixture(autouse=True)
def pool_per_test():
    """Each test forks its workers at its first round that needs them, after
    its own monkeypatches, and leaves no process running."""
    yield
    _pool.shutdown()
    assert multiprocessing.active_children() == []


def only_pool_workers() -> bool:
    """Whether the live child processes are the pool's workers and no others."""
    return ({p.pid for p in multiprocessing.active_children()}
            == {p.pid for p, _ in _pool._workers})


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
        self.server.bodies.append(body)
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
    lines it read, ``server.requests`` each whole request, ``server.bodies``
    each request body, and ``server.closed_unanswered`` whether the client
    closed each unanswered connection (read once the block has ended and the
    server has stopped)."""
    server = server_class(("127.0.0.1", 0), _RawHandler)
    server.respond, server.request_lines, server.requests = respond, [], []
    server.bodies, server.closed_unanswered = [], []
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


# raw judge replies that fail a request, each a transport failure of its text
UNAVAILABLE = b"HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"
NOT_JSON = http_ok(b"<html>busy</html>")
NO_CHOICE = http_ok(b'{"choices": []}')
HANG_UP = b""  # the connection closed without a reply


def prompt_text(body: bytes) -> str:
    """The text that the quality or lean prompt of a judge request body asks about."""
    content = json.loads(body)["messages"][0]["content"]
    for template in (QUALITY_PROMPT, LEAN_PROMPT):
        head, tail = template.split("{text}")
        if content.startswith(head) and content.endswith(tail):
            return content[len(head):len(content) - len(tail)]
    raise AssertionError(f"not a judge prompt: {content!r}")


def judge_script(replies):
    """A ``respond`` for ``raw_server`` that acts as the judge. ``replies`` is
    a list answered in request order, its last entry repeating (an order
    that only ``concurrency=1`` makes deterministic), or a function of the
    text each prompt asks about. A str is the judge's answer; bytes are the
    raw reply (a fault such as ``UNAVAILABLE`` or ``HANG_UP``); None stalls,
    never answering."""
    order = itertools.count()

    def respond(body):
        if callable(replies):
            reply = replies(prompt_text(body))
        else:
            reply = replies[min(next(order), len(replies) - 1)]
        return http_ok(json.dumps({"text": reply}).encode()) if isinstance(reply, str) else reply

    return respond


@contextlib.contextmanager
def judge_server(replies):
    """A loopback judge answering as ``judge_script(replies)``, one thread
    per connection. Yields its endpoint URL and the ``raw_server``."""
    with raw_server(judge_script(replies), socketserver.ThreadingTCPServer) as server:
        yield f"http://127.0.0.1:{server.server_address[1]}/chat", server
