"""Chat-completion judge client for quality and political-lean annotation:
fixed prompt templates, strict integer parsing, an append-only JSONL cache,
bounded-concurrency request issuance and per-text failure isolation.
"""

from __future__ import annotations

import base64
import errno
import functools
import hashlib
import http.client
import io
import json
import math
import os
import re
import selectors
import socket
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from urllib.parse import unquote

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

__all__ = [
    "QUALITY_PROMPT",
    "LEAN_PROMPT",
    "LEAN_LEFT_FRACTIONS",
    "JudgeConfig",
    "Annotation",
    "AnnotationFailure",
    "BatchResult",
    "annotate_quality",
    "annotate_lean",
    "build_lean_mixture",
    "partition_by_lean",
]

QUALITY_PROMPT = (
    "On a scale of 0 to 100, evaluate the post.  A score of 0 indicates that "
    "the post is of very low quality, semantically meaningless, and contains "
    "broken-off or repetitive text,  while a score of 100 means that the post "
    "is of very high quality, addressing a complex topic with advanced "
    "vocabulary, phrasing, and style.\n"
    "\n"
    "Post:\n"
    "{text}\n"
    "\n"
    "Reply ONLY with the integer score (0-100). DO NOT reply with text."
)

LEAN_PROMPT = (
    "Score the following post on a continual scale from 0 (left-wing) to 100 "
    "(right-wing) where a score of 0 means \"The post reflects radical "
    "left-wing ideology\" and a score of 100 means \"The post reflects "
    "radical right-wing ideology\", and a score of 50 means \"The post "
    "reflects a neutral ideology\". Reply with -1 if the post is not "
    "political. Reply ONLY with the integer score (0-100 or -1). DO NOT reply "
    "with text.  Here is the text: {text}"
)

_RANGES = {"quality": (0, 100, False), "lean": (0, 100, True)}
# the left-wing shares a lean mixture may take
LEAN_LEFT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class JudgeConfig:
    """Where and how a batch asks the judge. Each text gets up to
    ``max_retries`` more attempts after a failed one. ``timeout`` bounds, in
    seconds, each step of a request (connect, send, each read) with no
    progress. Up to ``concurrency`` requests are in flight at once, proxied
    or not, on one selector loop on the calling thread; an injected
    transport ignores it and runs one call at a time. ``cache_path`` names
    the JSONL annotation cache, none when None; ``auth_token`` is sent as a
    bearer token."""

    endpoint: str
    model: str
    max_retries: int = 3
    timeout: float = 60.0
    cache_path: str | None = None
    concurrency: int = 4
    auth_token: str | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise InvalidConfigError("max_retries must be >= 0")
        if self.concurrency < 1:
            raise InvalidConfigError("concurrency must be >= 1")
        if not (isinstance(self.timeout, (int, float)) and 0 < self.timeout < math.inf):
            raise InvalidConfigError("timeout must be a positive finite number of seconds")


@dataclass(frozen=True)
class Annotation:
    text_hash: str
    kind: str
    score: int
    raw_response: str
    timestamp: float

    def __post_init__(self):
        lo, hi, allow_minus_one = _RANGES[self.kind]
        ok = lo <= self.score <= hi or (allow_minus_one and self.score == -1)
        if not ok:
            raise InvalidInputError(f"{self.kind} score {self.score} out of range")


@dataclass(frozen=True)
class AnnotationFailure:
    text_hash: str
    kind: str
    error: str


@dataclass
class BatchResult:
    """Per-input results, order-stable with the input text list, and the
    batch's judge counters. ``cache_hits`` counts entries served from the
    cache; every request either annotates its text or adds one to
    ``parse_failures`` or ``transport_failures``."""

    entries: list = field(default_factory=list)  # Annotation | AnnotationFailure
    cache_hits: int = 0
    requests: int = 0
    parse_failures: int = 0
    transport_failures: int = 0

    @property
    def annotations(self) -> list[Annotation]:
        return [e for e in self.entries if isinstance(e, Annotation)]

    @property
    def failures(self) -> list[AnnotationFailure]:
        return [e for e in self.entries if isinstance(e, AnnotationFailure)]

    @property
    def scores(self) -> list[int | None]:
        return [e.score if isinstance(e, Annotation) else None for e in self.entries]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


class _Cache:
    """Append-only JSONL cache of annotations keyed on
    (prompt-template hash, text hash, model id).

    A crash mid-append can leave the last row without its newline. If that
    row still parses it is kept, and the next append starts a new line; if
    it does not, it is ignored, and the next append cuts it off first. Any
    other line that is not an object with a string ``key`` raises
    InvalidInputError naming ``path:line``. A row that does not make a valid
    Annotation is a miss, so a later row under its key replaces it.

    The first append opens the file; each row is flushed as it is written,
    and ``close`` closes the file.
    """

    def __init__(self, path: str | None):
        self._path = path
        self._fh = None
        self._mem: dict = {}
        self._torn_at = None  # byte offset of an unparsable unfinished last row
        self._lead = ""  # what the next append writes before its row
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            *lines, tail = data.split(b"\n")
            rows = []
            for lineno, line in enumerate(lines, 1):
                if line.strip():
                    try:
                        rows.append((lineno, json.loads(line)))
                    except ValueError as exc:
                        raise InvalidInputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if tail.strip():
                try:
                    rows.append((len(lines) + 1, json.loads(tail)))
                    self._lead = "\n"
                except ValueError:
                    self._torn_at = len(data) - len(tail)
            for lineno, row in rows:
                if not (isinstance(row, dict) and isinstance(row.get("key"), str)):
                    raise InvalidInputError(f"{path}:{lineno}: not an object with a key")
                self._mem[row["key"]] = row

    def get(self, key: str) -> Annotation | None:
        """The annotation cached under ``key``, or None when there is none or
        its row does not make a valid one."""
        row = self._mem.get(key)
        if row is None:
            return None
        try:
            return Annotation(text_hash=row["text_hash"], kind=row["kind"], score=row["score"],
                              raw_response=row["raw_response"], timestamp=row["timestamp"])
        except (KeyError, TypeError, InvalidInputError):
            return None

    def put(self, key: str, annotation: Annotation) -> None:
        row = {
            "key": key,
            "text_hash": annotation.text_hash,
            "kind": annotation.kind,
            "score": annotation.score,
            "raw_response": annotation.raw_response,
            "timestamp": annotation.timestamp,
        }
        self._mem[key] = row
        if self._path:
            if self._fh is None:
                self._fh = open(self._path, "a")
                if self._torn_at is not None:
                    self._fh.truncate(self._torn_at)
            self._fh.write(self._lead + json.dumps(row, sort_keys=True) + "\n")
            self._fh.flush()
            self._torn_at, self._lead = None, ""

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@functools.cache
def _proxies() -> dict:
    """The environment's proxy map, read once per process as ``urlopen``'s
    default opener reads it."""
    return urllib.request.getproxies()


@functools.cache
def _tls_context():
    """One TLS context per process, made as HTTPSConnection makes its own
    when given none. Making one loads the CA store, about 45 ms of CPU, which
    would otherwise be paid on every HTTPS request."""
    import ssl

    context = ssl._create_default_https_context()  # the hook http.client honours
    context.set_alpn_protocols(["http/1.1"])
    if context.post_handshake_auth is not None:
        context.post_handshake_auth = True
    return context


_SCORE = re.compile("[+-]?[0-9]+")
_MAX_LINE = 65536  # http.client's limits on a response line and header count
_MAX_HEADERS = 100
_HEX = re.compile(rb"[0-9A-Fa-f]+")
_NOT_URL_CHAR = re.compile("[^\x21-\x7e]")  # a request target is visible ASCII
_NOT_HEADER_CHAR = re.compile("[^\t\x20-\x7e\x80-\xff]")  # a header value is Latin-1 text
_IN_PROGRESS = (errno.EINPROGRESS, errno.EWOULDBLOCK)  # a non-blocking connect under way
_RECV_SIZE = 65536


def _readline(fp, what: str) -> bytes:
    line = fp.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_exact(fp, n: int) -> bytes:
    data = fp.read(n)
    if len(data) < n:
        raise http.client.IncompleteRead(data, n - len(data))
    return data


def _read_headers(fp) -> dict:
    """The header block's fields up to the blank line, names lowercased; the
    first of repeated fields wins."""
    headers: dict = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _readline(fp, "header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.partition(b":")
        headers.setdefault(name.strip().lower(), value.strip())
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_chunked(fp) -> bytes:
    chunks = []
    try:
        while True:
            size = _readline(fp, "chunk size").split(b";", 1)[0].strip()
            if not _HEX.fullmatch(size):
                raise http.client.IncompleteRead(b"")
            size = int(size, 16)
            if size == 0:
                break
            chunks.append(_read_exact(fp, size))
            _read_exact(fp, 2)  # the CRLF that ends the chunk
    except http.client.IncompleteRead as exc:  # counted, as http.client counts, in whole chunks
        raise http.client.IncompleteRead(b"".join(chunks)) from exc
    while _readline(fp, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _read_status(fp) -> tuple[int, str]:
    """The status code and reason of the status line read from ``fp``."""
    line = _readline(fp, "status line")
    if not line:
        raise http.client.RemoteDisconnected("Remote end closed connection without response")
    text = line.decode("iso-8859-1")
    version, status, reason = (text.split(None, 2) + ["", ""])[:3]
    status = int(status) if status.isascii() and status.isdigit() else 0
    if not version.startswith("HTTP/") or not 100 <= status <= 999:
        raise http.client.BadStatusLine(text)
    return status, reason.strip()


def _read_tunnel(fp) -> None:
    """A proxy's reply to CONNECT read from ``fp``: only a 200 opens the tunnel."""
    status, reason = _read_status(fp)
    if status != 200:
        raise OSError(f"Tunnel connection failed: {status} {reason}")
    _read_headers(fp)


def _read_response(fp) -> bytes:
    """The body of a 2xx response read from ``fp``, after any 1xx interim
    responses; framing faults raise http.client's exceptions."""
    while True:
        status, reason = _read_status(fp)
        headers = _read_headers(fp)
        if status >= 200:
            break
    if not 200 <= status < 300:
        raise OSError(f"HTTP Error {status}: {reason}")
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return _read_chunked(fp)
    length = headers.get(b"content-length", b"")
    if length.isdigit():
        return _read_exact(fp, int(length))
    return fp.read()  # until the server closes


def _as_oserror(exc: http.client.HTTPException) -> OSError:
    """http.client's framing or request fault as the OSError callers catch."""
    error = OSError(f"{type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


class _Endpoint:
    """A URL that the default transport posts to, split and checked once:
    where to connect, the host a TLS handshake names (``tls_host``), the
    CONNECT request that opens a tunnel first (``tunnel``) and the request
    head around its Content-Length value. A proxy that the environment
    names for the URL is used as urllib's ProxyHandler uses it. A URL or
    header fault raises OSError (ValueError for a URL that does not split)
    before any connection."""

    def __init__(self, url: str, token: str | None):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise OSError(f"not an http(s) URL: {url!r}")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        tls, proxy = parts.scheme == "https", _proxies().get(parts.scheme)
        fields = ("Content-Type: application/json\r\nConnection: close\r\nUser-Agent: "
                  "collapse-lab\r\n" + (f"Authorization: Bearer {token}\r\n" if token else ""))
        self.hostname, self.tls_host, self.tunnel = parts.hostname, tls and parts.hostname, None
        try:
            self.port = parts.port or (443 if tls else 80)
            # as http.client sends a non-ASCII host
            host = parts.netloc.encode("idna").decode("ascii")
            if proxy and not urllib.request.proxy_bypass(parts.netloc):
                kind, user, password, hostport = urllib.request._parse_proxy(proxy)
                kind, via = kind or parts.scheme, urllib.parse.urlsplit("//" + unquote(hostport))
                if kind not in ("http", "https") or not via.hostname:
                    raise OSError(f"not an http(s) proxy: {proxy!r}")
                auth = ""
                if user and password:
                    creds = f"{unquote(user)}:{unquote(password)}".encode()
                    auth = f"Proxy-Authorization: Basic {base64.b64encode(creds).decode()}\r\n"
                if tls:  # the bytes http.client sends to open a tunnel
                    name = parts.hostname.encode("idna").decode("ascii")
                    self.tunnel = f"CONNECT {name}:{self.port} HTTP/1.0\r\n{auth}\r\n".encode()
                else:
                    target, fields = f"http://{host}{target}", fields + auth
                    self.tls_host = kind == "https" and via.hostname
                # a proxy without a port: the one http.client's connection defaults to
                self.hostname = via.hostname
                self.port = via.port or (443 if tls or kind == "https" else 80)
        except ValueError as exc:
            raise _as_oserror(http.client.InvalidURL(str(exc))) from exc
        if _NOT_URL_CHAR.search(target):
            raise _as_oserror(
                http.client.InvalidURL(f"request target {target!r} is not visible ASCII"))
        if any(_NOT_HEADER_CHAR.search(value) for value in (host, token or "")):
            raise _as_oserror(http.client.HTTPException(
                "a header value holds a control or non-Latin-1 character"))
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
                      "Accept-Encoding: identity\r\nContent-Length: ").encode("latin-1")
        self._tail = f"\r\n{fields}\r\n".encode("latin-1")
        self._addresses = None

    def request(self, data: bytes) -> bytes:
        """The whole HTTP/1.1 request that posts ``data``."""
        return b"%s%d%s%s" % (self._head, len(data), self._tail, data)

    def addresses(self) -> list:
        """The host's addresses, from one ``getaddrinfo`` on first use; a
        lookup that fails is tried again on the next use."""
        if self._addresses is None:
            self._addresses = socket.getaddrinfo(self.hostname, self.port, 0, socket.SOCK_STREAM)
        return self._addresses


class _Received(io.BytesIO):
    """The response bytes received so far. ``short`` is set when a read ran
    past their end, so a parse that used it may need more bytes."""

    short = False

    def read(self, size=-1):
        data = super().read(size)
        if size < 0 or len(data) < size:
            self.short = True
        return data

    def readline(self, size=-1):
        line = super().readline(size)
        if not line.endswith(b"\n") and (size < 0 or len(line) < size):
            self.short = True
        return line


def _connect(addresses: list):
    """A non-blocking socket connected to the first of ``addresses`` that
    accepts, tried in order as ``socket.create_connection`` tries them. A
    step of an ``_exchange``: a TimeoutError thrown in at the wait fails
    only the address being tried."""
    error = OSError("getaddrinfo returns an empty list")
    for family, type_, proto, _, address in addresses:
        sock = None
        try:
            sock = socket.socket(family, type_, proto)
            sock.setblocking(False)
            code = sock.connect_ex(address)
            if code in _IN_PROGRESS:
                yield sock, selectors.EVENT_WRITE
                code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if not code:
                connected, sock = sock, None
                return connected
            error = OSError(code, os.strerror(code))
        except OSError as exc:
            error = exc
        finally:
            if sock is not None:
                sock.close()
    raise error


def _handshake(sock):
    """The TLS handshake of a non-blocking socket, as a step of an ``_exchange``."""
    import ssl

    while True:
        try:
            return sock.do_handshake()
        except ssl.SSLWantReadError:
            yield sock, selectors.EVENT_READ
        except ssl.SSLWantWriteError:
            yield sock, selectors.EVENT_WRITE


def _round_trip(sock, data: bytes, parse, want_read, want_write):
    """Send ``data``, then return what ``parse`` makes of the bytes received
    once it parses them without running past their end (or, after the
    server closes, whatever it makes of them); a step of an ``_exchange``.
    ``want_read`` and ``want_write`` are what the socket raises to wait."""
    unsent = memoryview(data)
    while unsent:
        try:
            unsent = unsent[sock.send(unsent):]
        except (BlockingIOError, want_write):
            yield sock, selectors.EVENT_WRITE
        except want_read:
            yield sock, selectors.EVENT_READ
    received = b""
    while True:
        yield sock, selectors.EVENT_READ
        # read until the socket would block: a TLS socket may hold
        # decrypted bytes that do not wake the selector
        while True:
            try:
                data = sock.recv(_RECV_SIZE)
            except (BlockingIOError, want_read):
                break
            except want_write:
                yield sock, selectors.EVENT_WRITE
                continue
            received += data
            fp = _Received(received)
            try:
                parsed = parse(fp)
            except (http.client.HTTPException, OSError):
                if data and fp.short:
                    continue
                raise
            if not (data and fp.short):
                return parsed


def _exchange(endpoint: _Endpoint, request: bytes):
    """One request over a socket of its own, as a generator that a _Loop
    drives: it yields ``(socket, event)`` to wait for that event, and
    returns the response body. Through a proxy's tunnel it first sends the
    CONNECT request and reads the reply. The socket is closed however the
    exchange ends; framing faults raise OSError."""
    want = BlockingIOError, BlockingIOError  # what the socket raises to wait to read, to write
    try:
        raw = yield from _connect(endpoint.addresses())
        with raw:  # a wrap that succeeds detaches ``raw``, so closing it then is a no-op
            if endpoint.tunnel:
                yield from _round_trip(raw, endpoint.tunnel, _read_tunnel, *want)
            sock = raw
            if endpoint.tls_host:
                import ssl

                want = ssl.SSLWantReadError, ssl.SSLWantWriteError
                sock = _tls_context().wrap_socket(raw, server_hostname=endpoint.tls_host,
                                                  do_handshake_on_connect=False)
            with sock:
                if endpoint.tls_host:
                    yield from _handshake(sock)
                return (yield from _round_trip(sock, request, _read_response, *want))
    except http.client.HTTPException as exc:
        raise _as_oserror(exc) from exc


class _Loop:
    """Requests to one endpoint, each an exchange over a non-blocking socket
    of its own, driven on the calling thread by one selector. ``start``
    begins one and returns its handle; ``wait`` blocks until at least one
    has ended and returns each as (handle, outcome): the response body
    passed through ``decode``, or the OSError or ValueError it failed with.
    An exchange fails with TimeoutError after ``timeout`` seconds without
    progress. A URL fault fails every request before it connects. An
    injected ``transport(url, payload, timeout, token)`` is called at
    ``start`` in place of an exchange, and what it returns or raises is the
    outcome; an exception other than OSError or ValueError propagates."""

    def __init__(self, url: str, token: str | None, timeout: float, decode, transport=None):
        self._timeout, self._decode = timeout, decode
        self._selector = selectors.DefaultSelector()
        self._waits: dict = {}  # exchange -> (socket, fd, event, deadline) of its wait
        self._ended: list = []
        self._call = transport and (lambda payload: transport(url, payload, timeout, token))
        self._endpoint = self._error = None
        if transport is None:
            try:
                self._endpoint = _Endpoint(url, token)
            except (OSError, ValueError) as exc:
                self._error = exc

    def start(self, payload: dict):
        if self._endpoint is None:
            handle = object()
            try:
                outcome = self._error or self._call(payload)
            except (OSError, ValueError) as exc:
                outcome = exc
            self._ended.append((handle, outcome))
            return handle
        exchange = _exchange(self._endpoint, self._endpoint.request(json.dumps(payload).encode()))
        self._advance(exchange)
        return exchange

    def wait(self) -> list:
        while not self._ended:
            deadline = min(wait[3] for wait in self._waits.values())
            for key, _ in self._selector.select(max(deadline - time.monotonic(), 0.0)):
                self._advance(key.data)
            now = time.monotonic()
            for exchange in [e for e, wait in self._waits.items() if wait[3] <= now]:
                self._advance(exchange, TimeoutError("timed out"))
        ended, self._ended = self._ended, []
        return ended

    def _advance(self, exchange, error: Exception | None = None) -> None:
        """Run ``exchange`` to its next wait, throwing ``error`` in first if
        given, and watch its socket for that wait; or record how it ended."""
        wait = self._waits.pop(exchange, None)  # (socket, fd, event, deadline) of its last wait
        try:
            sock, event = exchange.throw(error) if error else exchange.send(None)
        except StopIteration as stop:
            try:
                outcome = self._decode(stop.value)
            except (OSError, ValueError) as exc:
                outcome = exc
        except (OSError, ValueError) as exc:
            outcome = exc
        else:
            if wait is not None and wait[0] is sock:
                if wait[2] != event:
                    self._selector.modify(wait[1], event, exchange)
            else:
                if wait is not None:  # a new socket: the last one is closed or wrapped
                    self._selector.unregister(wait[1])
                self._selector.register(sock.fileno(), event, exchange)
            self._waits[exchange] = (sock, sock.fileno(), event, time.monotonic() + self._timeout)
            return
        if wait is not None:
            self._selector.unregister(wait[1])
        self._ended.append((exchange, outcome))

    def close(self) -> None:
        """Close every exchange still in flight, and its socket."""
        for exchange in self._waits:
            exchange.close()
        self._waits.clear()
        self._selector.close()


def _json_body(body: bytes):
    return json.loads(body.decode())


def _reply_text(body) -> str:
    """The reply text of a parsed chat-completion response body."""
    if isinstance(body, dict):
        if isinstance(body.get("text"), str):
            return body["text"]
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            pass
    raise ValueError("response carries no text field")


def post_json(url: str, payload: dict, timeout: float, token: str | None = None):
    """POST ``payload`` as JSON over a connection of its own (HTTP/1.1,
    ``Connection: close``) and return the parsed response body, sending a
    bearer header only when ``token`` is given. The exchange runs on the
    same selector loop that ``annotate_quality`` runs its batches on, with
    ``timeout`` seconds allowed for each step (connect, send, each read).
    The response body is framed by ``Transfer-Encoding: chunked``, else by
    ``Content-Length``, else by the server closing the connection; 1xx
    interim responses are skipped. An endpoint that the environment's proxy
    settings cover is reached through the proxy on the same loop. A failed
    request, a framing fault (a garbled status line, an over-long line, a
    truncated body), a proxy's refusal to open a tunnel or a non-2xx status
    raises OSError; a body that is not JSON raises ValueError."""
    loop = _Loop(url, token, timeout, _json_body)
    try:
        loop.start(payload)
        [(_, outcome)] = loop.wait()
    finally:
        loop.close()
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _default_transport(url: str, payload: dict, timeout: float, token: str | None) -> str:
    return _reply_text(post_json(url, payload, timeout, token))


def _parse_score(raw: str, kind: str) -> int:
    """The score in ``raw``: an optional sign and ASCII digits, with
    whitespace around them, in the ``kind``'s range; anything else raises
    ValueError."""
    lo, hi, allow_minus_one = _RANGES[kind]
    stripped = raw.strip()
    if not _SCORE.fullmatch(stripped):
        raise ValueError(f"non-integer response {raw!r}")
    value = int(stripped)
    if lo <= value <= hi or (allow_minus_one and value == -1):
        return value
    raise ValueError(f"score {value} outside the {kind} range")


def _annotate(texts: list[str], cfg: JudgeConfig, kind: str, template: str,
              transport=None) -> BatchResult:
    """Serve each text from the cache, and ask the judge once per distinct
    uncached text, in text order, on one ``_Loop``: up to ``cfg.concurrency``
    requests in flight, or one call at a time of an injected ``transport``.
    A failed attempt is retried at once in the same slot. An error that is
    not a transport or parse fault propagates once every request in flight
    and the cache are closed. The cache key is the template's hash prefix,
    the text's hash and the model; each is hashed once."""
    if not texts:
        raise InvalidInputError("at least one text is required")
    template_hash = _sha(template)[:16]
    result = BatchResult(entries=[None] * len(texts))
    pending: dict = {}  # uncached text -> (its hash, its key, its positions in ``texts``)
    cache = _Cache(cfg.cache_path)
    runner = _Loop(cfg.endpoint, cfg.auth_token, cfg.timeout,
                   lambda body: _reply_text(_json_body(body)), transport)
    try:
        for i, text in enumerate(texts):
            text_hash = _sha(text)
            key = f"{template_hash}:{text_hash}:{cfg.model}"
            hit = cache.get(key)
            if hit is None:
                pending.setdefault(text, (text_hash, key, []))[2].append(i)
                continue
            result.entries[i] = hit
            result.cache_hits += 1
        if not pending:
            return result
        queue = iter(pending)
        in_flight: dict = {}  # handle -> (text, payload, attempt number from 0)

        def start(text: str, payload: dict, attempt: int) -> None:
            result.requests += 1
            in_flight[runner.start(payload)] = (text, payload, attempt)

        def start_next() -> None:
            text = next(queue, None)
            if text is not None:
                start(text, {"model": cfg.model,
                             "messages": [{"role": "user", "content": template.format(text=text)}],
                             "temperature": 0}, 0)

        for _ in range(cfg.concurrency):
            start_next()
        while in_flight:
            for handle, outcome in runner.wait():
                text, payload, attempt = in_flight.pop(handle)
                text_hash, key, positions = pending[text]
                error = None
                if isinstance(outcome, BaseException):  # OSError or ValueError
                    error = f"transport: {outcome}"
                    result.transport_failures += 1
                else:
                    try:
                        score = _parse_score(outcome, kind)
                    except ValueError as exc:
                        error = f"parse: {exc}"
                        result.parse_failures += 1
                if error is None:
                    entry = Annotation(text_hash=text_hash, kind=kind, score=score,
                                       raw_response=outcome, timestamp=time.time())
                    cache.put(key, entry)
                elif attempt < cfg.max_retries:
                    start(text, payload, attempt + 1)  # at once, in the same slot
                    continue
                else:
                    entry = AnnotationFailure(text_hash=text_hash, kind=kind, error=error)
                for i in positions:
                    result.entries[i] = entry
                start_next()
    finally:
        runner.close()
        cache.close()
    return result


def annotate_quality(texts: list[str], cfg: JudgeConfig, transport=None) -> BatchResult:
    """Judge each text's quality on 0..100 with the fixed quality prompt."""
    return _annotate(texts, cfg, "quality", QUALITY_PROMPT, transport)


def annotate_lean(texts: list[str], cfg: JudgeConfig, transport=None) -> BatchResult:
    """Judge each text's political lean on 0..100, -1 for non-political."""
    return _annotate(texts, cfg, "lean", LEAN_PROMPT, transport)


# ---------------------------------------------------------------------------
# lean-mixture dataset construction


def partition_by_lean(records) -> tuple[list, list]:
    """Left wing = lean < 50, right wing = lean > 50. Exact-50 and
    non-political (-1) records belong to neither partition."""
    left, right = [], []
    for rec in records:
        ann = rec.annotations if hasattr(rec, "annotations") else rec
        lean = None if not ann else ann.get("lean")
        if lean is None or lean == -1 or lean == 50:
            continue
        (left if lean < 50 else right).append(rec)
    return left, right


def build_lean_mixture(left: list, right: list, left_fraction: float,
                       size: int, seed: int = 0) -> list:
    """Seeded sample of size*left_fraction records from the left partition and
    the remainder from the right, shuffled together."""
    if left_fraction not in LEAN_LEFT_FRACTIONS:
        raise InvalidInputError(f"left_fraction must be one of {list(LEAN_LEFT_FRACTIONS)}")
    if size < 1:
        raise InvalidInputError("size must be >= 1")
    n_left = round(size * left_fraction)
    n_right = size - n_left
    if n_left > len(left):
        raise InvalidInputError(
            f"left partition too small: need {n_left}, have {len(left)}")
    if n_right > len(right):
        raise InvalidInputError(
            f"right partition too small: need {n_right}, have {len(right)}")
    rng = np.random.default_rng(seed)
    picks = []
    if n_left:
        picks.extend(left[i] for i in rng.choice(len(left), size=n_left, replace=False))
    if n_right:
        picks.extend(right[i] for i in rng.choice(len(right), size=n_right, replace=False))
    rng.shuffle(picks)
    return picks
