"""Chat-completion judge client for quality and political-lean annotation:
fixed prompt templates, strict integer parsing, an append-only JSONL cache,
bounded-concurrency request issuance and per-text failure isolation.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import os
import re
import socket
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
        self._lock = threading.Lock()
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
        with self._lock:
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
def _proxy_opener():
    """The environment's proxy map and a urllib opener that uses it, read once
    per process as ``urlopen``'s default opener reads it."""
    proxies = urllib.request.getproxies()
    return proxies, urllib.request.build_opener(urllib.request.ProxyHandler(proxies))


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


_MAX_LINE = 65536  # http.client's limits on a response line and header count
_MAX_HEADERS = 100
_HEX = re.compile(rb"[0-9A-Fa-f]+")
_NOT_URL_CHAR = re.compile("[^\x21-\x7e]")  # a request target is visible ASCII
_NOT_HEADER_CHAR = re.compile("[^\t\x20-\x7e\x80-\xff]")  # a header value is Latin-1 text


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


def _read_response(fp) -> bytes:
    """The body of a 2xx response read from ``fp``, after any 1xx interim
    responses; framing faults raise http.client's exceptions."""
    while True:
        line = _readline(fp, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        text = line.decode("iso-8859-1")
        version, status, reason = (text.split(None, 2) + ["", ""])[:3]
        status = int(status) if status.isascii() and status.isdigit() else 0
        if not version.startswith("HTTP/") or not 100 <= status <= 999:
            raise http.client.BadStatusLine(text)
        headers = _read_headers(fp)
        if status >= 200:
            break
    if not 200 <= status < 300:
        raise OSError(f"HTTP Error {status}: {reason.strip()}")
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return _read_chunked(fp)
    length = headers.get(b"content-length", b"")
    if length.isdigit():
        return _read_exact(fp, int(length))
    return fp.read()  # until the server closes


def _post(url: str, data: bytes, headers: dict, timeout: float) -> bytes:
    parts = urllib.parse.urlsplit(url)
    proxies, opener = _proxy_opener()
    if parts.scheme in proxies and not urllib.request.proxy_bypass(parts.netloc):
        with opener.open(urllib.request.Request(url, data=data, headers=headers),
                         timeout=timeout) as resp:
            return resp.read()
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise OSError(f"not an http(s) URL: {url!r}")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if _NOT_URL_CHAR.search(target):
        raise http.client.InvalidURL(f"request target {target!r} is not visible ASCII")
    try:
        port = parts.port or (443 if parts.scheme == "https" else 80)
        host = parts.netloc.encode("idna").decode("ascii")  # as http.client sends a non-ASCII host
    except ValueError as exc:
        raise http.client.InvalidURL(str(exc)) from exc
    fields = {"Host": host, "Accept-Encoding": "identity",
              "Content-Length": str(len(data)), **headers}
    if any(_NOT_HEADER_CHAR.search(value) for value in fields.values()):
        raise http.client.HTTPException("a header value holds a control or non-Latin-1 character")
    head = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
    request = f"POST {target} HTTP/1.1\r\n{head}\r\n".encode("latin-1") + data
    # a wrap that succeeds detaches ``raw``, so closing it then is a no-op
    with socket.create_connection((parts.hostname, port), timeout) as raw:
        sock = (_tls_context().wrap_socket(raw, server_hostname=parts.hostname)
                if parts.scheme == "https" else raw)
        with sock, sock.makefile("rb") as fp:
            sock.sendall(request)
            return _read_response(fp)


def post_json(url: str, payload: dict, timeout: float, token: str | None = None):
    """POST ``payload`` as JSON over a connection of its own (HTTP/1.1,
    ``Connection: close``) and return the parsed response body, sending a
    bearer header only when ``token`` is given. The response body is framed
    by ``Transfer-Encoding: chunked``, else by ``Content-Length``, else by
    the server closing the connection; 1xx interim responses are skipped.
    An endpoint that the environment's proxy settings cover is reached
    through urllib, the one path that speaks to proxies. A failed request, a
    framing fault (a garbled status line, an over-long line, a truncated
    body) or a non-2xx status raises OSError; a body that is not JSON raises
    ValueError."""
    headers = {"Content-Type": "application/json", "Connection": "close",
               "User-Agent": "collapse-lab"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        body = _post(url, json.dumps(payload).encode(), headers, timeout)
    except http.client.HTTPException as exc:
        raise OSError(f"{type(exc).__name__}: {exc}") from exc
    return json.loads(body.decode())


def _default_transport(url: str, payload: dict, timeout: float, token: str | None) -> str:
    body = post_json(url, payload, timeout, token)
    if isinstance(body, dict):
        if isinstance(body.get("text"), str):
            return body["text"]
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            pass
    raise ValueError("response carries no text field")


def _parse_score(raw: str, kind: str) -> int:
    lo, hi, allow_minus_one = _RANGES[kind]
    stripped = raw.strip()
    try:
        value = int(stripped)
    except ValueError as exc:
        raise ValueError(f"non-integer response {raw!r}") from exc
    if lo <= value <= hi or (allow_minus_one and value == -1):
        return value
    raise ValueError(f"score {value} outside the {kind} range")


def _annotate(texts: list[str], cfg: JudgeConfig, kind: str, template: str,
              transport=None) -> BatchResult:
    """Serve each text from the cache in the calling thread, and ask the judge
    once per distinct uncached text, on up to ``cfg.concurrency`` threads.
    The cache key is the template's hash prefix, the text's hash and the
    model; each is hashed once."""
    if not texts:
        raise InvalidInputError("at least one text is required")
    transport = transport or _default_transport
    template_hash = _sha(template)[:16]

    def ask(text: str):
        """The text's entry and the counts of its requests and failures."""
        text_hash, key, _ = pending[text]
        prompt = template.format(text=text)
        payload = {
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        last_error = "no attempt made"
        counts = {"requests": 0, "parse": 0, "transport": 0}
        for _ in range(cfg.max_retries + 1):
            counts["requests"] += 1
            try:
                raw = transport(cfg.endpoint, payload, cfg.timeout, cfg.auth_token)
            except (OSError, ValueError) as exc:  # ValueError: a non-JSON or textless body
                last_error = f"transport: {exc}"
                counts["transport"] += 1
                continue
            try:
                score = _parse_score(raw, kind)
            except ValueError as exc:
                last_error = f"parse: {exc}"
                counts["parse"] += 1
                continue
            ann = Annotation(text_hash=text_hash, kind=kind, score=score,
                             raw_response=raw, timestamp=time.time())
            cache.put(key, ann)
            return ann, counts
        return AnnotationFailure(text_hash=text_hash, kind=kind, error=last_error), counts

    result = BatchResult(entries=[None] * len(texts))
    pending: dict = {}  # uncached text -> (its hash, its key, its positions in ``texts``)
    cache = _Cache(cfg.cache_path)
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
        with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
            for (*_, positions), (entry, counts) in zip(pending.values(), pool.map(ask, pending)):
                for i in positions:
                    result.entries[i] = entry
                result.requests += counts["requests"]
                result.parse_failures += counts["parse"]
                result.transport_failures += counts["transport"]
    finally:
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
