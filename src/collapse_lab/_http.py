"""The HTTP/1.1 client that the judge and the external generator post
with: one POST per connection (``Connection: close``), non-blocking
sockets driven by one selector loop on the calling thread, TLS, the
environment's proxies and CONNECT tunnels, and a response reader that
frames bodies as ``http.client`` does wherever it follows RFC 9112.
"""

from __future__ import annotations

import base64
import errno
import functools
import http.client
import io
import json
import os
import re
import selectors
import socket
import ssl
import time
import urllib.parse
import urllib.request
from urllib.parse import unquote


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
    context = ssl._create_default_https_context()  # the hook http.client honours
    context.set_alpn_protocols(["http/1.1"])
    if context.post_handshake_auth is not None:
        context.post_handshake_auth = True
    return context


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
    first of repeated fields wins, and a line without a colon is no field.
    A Content-Length repeated with another value is a framing fault (RFC
    9110 §8.6)."""
    headers: dict = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _readline(fp, "header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.partition(b":")
        if colon:
            name, value = name.strip().lower(), value.strip()
            first = headers.setdefault(name, value)
            if name == b"content-length" and first != value:
                raise http.client.HTTPException(
                    f"conflicting Content-Length {first.decode('latin-1')!r} "
                    f"and {value.decode('latin-1')!r}")
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
    responses, framed as RFC 9112 §6.3 says; framing faults raise
    http.client's exceptions."""
    while True:
        status, reason = _read_status(fp)
        headers = _read_headers(fp)
        if status >= 200:
            break
    if not 200 <= status < 300:
        raise OSError(f"HTTP Error {status}: {reason}")
    if status == 204:  # bodiless (rule 1), so nothing to wait for
        return b""
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return _read_chunked(fp)
    length = headers.get(b"content-length")
    if length is None:
        return fp.read()  # until the server closes
    if not length.isdigit():  # an invalid length is a framing fault (rule 5)
        raise http.client.HTTPException(f"invalid Content-Length {length.decode('latin-1')!r}")
    return _read_exact(fp, int(length))


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
    header fault, userinfo in the URL among them, raises OSError (ValueError
    for a URL that does not split) before any connection."""

    def __init__(self, url: str, token: str | None):
        parts = urllib.parse.urlsplit(url)
        if "@" in parts.netloc:  # Host carries no userinfo (RFC 9110 §7.2)
            raise _as_oserror(http.client.InvalidURL("the URL holds userinfo"))
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
                if kind not in ("http", "https") or not via.hostname:  # no credentials echoed
                    raise OSError(f"not an http(s) proxy: {f'{kind}://{hostport}'!r}")
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
    while True:
        try:
            return sock.do_handshake()
        except ssl.SSLWantReadError:
            yield sock, selectors.EVENT_READ
        except ssl.SSLWantWriteError:
            yield sock, selectors.EVENT_WRITE


def _round_trip(sock, data: bytes, parse):
    """Send ``data``, then return what ``parse`` makes of the bytes received
    once it parses them without running past their end (or, after the
    server closes, whatever it makes of them); a step of an ``_exchange``.
    A TLS socket may need to read to send, or to write to receive."""
    unsent = memoryview(data)
    while unsent:
        try:
            unsent = unsent[sock.send(unsent):]
        except (BlockingIOError, ssl.SSLWantWriteError):
            yield sock, selectors.EVENT_WRITE
        except ssl.SSLWantReadError:
            yield sock, selectors.EVENT_READ
    received = b""
    while True:
        yield sock, selectors.EVENT_READ
        # read until the socket would block: a TLS socket may hold
        # decrypted bytes that do not wake the selector
        while True:
            try:
                data = sock.recv(_RECV_SIZE)
            except (BlockingIOError, ssl.SSLWantReadError):
                break
            except ssl.SSLWantWriteError:
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
    try:
        raw = yield from _connect(endpoint.addresses())
        with raw:  # a wrap that succeeds detaches ``raw``, so closing it then is a no-op
            if endpoint.tunnel:
                yield from _round_trip(raw, endpoint.tunnel, _read_tunnel)
            sock = raw
            if endpoint.tls_host:
                sock = _tls_context().wrap_socket(raw, server_hostname=endpoint.tls_host,
                                                  do_handshake_on_connect=False)
            with sock:
                if endpoint.tls_host:
                    yield from _handshake(sock)
                return (yield from _round_trip(sock, request, _read_response))
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


def post_json(url: str, payload: dict, timeout: float, token: str | None = None):
    """POST ``payload`` as JSON over a connection of its own (HTTP/1.1,
    ``Connection: close``) and return the parsed response body, sending a
    bearer header only when ``token`` is given. The exchange runs on the
    same selector loop that ``annotate_quality`` runs its batches on, with
    ``timeout`` seconds allowed for each step (connect, send, each read).
    The response body is framed by ``Transfer-Encoding: chunked``, else by
    ``Content-Length``, else by the server closing the connection; a 204
    has none, and 1xx interim responses are skipped. An endpoint that the
    environment's proxy settings cover is reached through the proxy on the
    same loop. A URL with userinfo, a failed request, a framing fault (a
    garbled status line, an over-long line, a Content-Length that is not
    digits or is repeated with another value, a truncated body), a proxy's
    refusal to open a tunnel or a non-2xx status raises OSError; a body that
    is not JSON raises ValueError."""
    loop = _Loop(url, token, timeout, _json_body)
    try:
        loop.start(payload)
        [(_, outcome)] = loop.wait()
    finally:
        loop.close()
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome
