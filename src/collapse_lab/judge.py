"""Chat-completion judge client for quality and political-lean annotation:
fixed prompt templates, strict integer parsing, an append-only JSONL cache,
bounded-concurrency request issuance and per-text failure isolation. The
requests ride ``_http``'s selector loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._http import _json_body, _Loop, post_json
from .errors import InvalidConfigError, InvalidInputError
from .io import _open_input, _score_in_range

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

_SCORE = re.compile("[+-]?[0-9]+")
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


@dataclass(frozen=True, slots=True)
class Annotation:
    text_hash: str
    kind: str
    score: int
    raw_response: str
    timestamp: float

    def __post_init__(self):
        # a cache row is checked here too: one that fails is a miss
        if not all(isinstance(v, str) for v in (self.text_hash, self.kind, self.raw_response)):
            raise InvalidInputError("text_hash, kind and raw_response must be strings")
        if not (isinstance(self.timestamp, (int, float)) and not isinstance(self.timestamp, bool)
                and math.isfinite(self.timestamp)):
            raise InvalidInputError(f"timestamp {self.timestamp!r} is not a finite number")
        if not isinstance(self.score, int) or isinstance(self.score, bool):
            raise InvalidInputError(f"{self.kind} score {self.score!r} is not an integer")
        if not _score_in_range(self.kind, self.score):
            raise InvalidInputError(f"{self.kind} score {self.score} out of range")


@dataclass(frozen=True, slots=True)
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


def _cached(row: dict) -> Annotation | None:
    """The Annotation a cache row makes, or None when it makes none. Its
    ``kind`` is interned, so every cached annotation shares one string."""
    try:
        return Annotation(text_hash=row["text_hash"], kind=sys.intern(row["kind"]),
                          score=row["score"], raw_response=row["raw_response"],
                          timestamp=row["timestamp"])
    except (KeyError, TypeError, InvalidInputError):
        return None


class _Cache:
    """Append-only JSONL cache of annotations keyed on
    (prompt-template hash, text hash, model id), read a line at a time into
    one Annotation per key: that of the key's last row, or None (a miss)
    when that row does not make a valid one.

    A crash mid-append can leave the last row without its newline. If that
    row still parses it is kept, and the next append starts a new line; if
    it does not, it is ignored, and the next append cuts it off first. Any
    other line that is not an object with a string ``key`` raises
    InvalidInputError naming the first such ``path:line``, and an unreadable
    file one naming ``path``.

    The first append opens the file; each row is flushed as it is written,
    and ``close`` closes the file.
    """

    def __init__(self, path: str | None):
        self._path = path
        self._fh = None
        self._mem: dict = {}  # key -> Annotation | None
        self._torn_at = None  # byte offset of an unparsable unfinished last row
        self._lead = ""  # what the next append writes before its row
        if path and os.path.exists(path):
            with _open_input(path, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    unfinished = not line.endswith(b"\n")  # only the last line can be
                    if line.strip():
                        try:
                            row = json.loads(line)
                        except ValueError as exc:
                            if not unfinished:
                                raise InvalidInputError(
                                    f"{path}:{lineno}: invalid JSON: {exc}") from exc
                            self._torn_at = fh.tell() - len(line)
                            break
                        if not (isinstance(row, dict) and isinstance(row.get("key"), str)):
                            raise InvalidInputError(f"{path}:{lineno}: not an object with a key")
                        self._mem[row["key"]] = _cached(row)
                        if unfinished:
                            self._lead = "\n"

    def get(self, key: str) -> Annotation | None:
        """The annotation cached under ``key``, or None when there is none or
        its row does not make a valid one."""
        return self._mem.get(key)

    def put(self, key: str, annotation: Annotation) -> None:
        self._mem[key] = annotation
        if self._path:
            row = {"key": key, "text_hash": annotation.text_hash, "kind": annotation.kind,
                   "score": annotation.score, "raw_response": annotation.raw_response,
                   "timestamp": annotation.timestamp}
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


def _default_transport(url: str, payload: dict, timeout: float, token: str | None) -> str:
    return _reply_text(post_json(url, payload, timeout, token))


def _parse_score(raw: str, kind: str) -> int:
    """The score in ``raw``: an optional sign and ASCII digits, with
    whitespace around them, in the ``kind``'s range; anything else raises
    ValueError."""
    stripped = raw.strip()
    if not _SCORE.fullmatch(stripped):
        raise ValueError(f"non-integer response {raw!r}")
    value = int(stripped)
    if _score_in_range(kind, value):
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
