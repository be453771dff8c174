"""Chat-completion judge client for quality and political-lean annotation:
fixed prompt templates, strict integer parsing, an append-only JSONL cache,
bounded-concurrency request issuance and per-text failure isolation.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

__all__ = [
    "QUALITY_PROMPT",
    "LEAN_PROMPT",
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
    """Per-input results, order-stable with the input text list."""

    entries: list = field(default_factory=list)  # Annotation | AnnotationFailure

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


def _cache_key(template: str, text: str, model: str) -> str:
    return f"{_sha(template)[:16]}:{_sha(text)}:{model}"


class _Cache:
    """Append-only JSONL cache of annotations keyed on
    (prompt-template hash, text hash, model id).

    A crash mid-append can leave the last row without its newline. If that
    row still parses it is kept, and the next append starts a new line; if
    it does not, it is ignored, and the next append cuts it off first.
    """

    def __init__(self, path: str | None):
        self._path = path
        self._lock = threading.Lock()
        self._mem: dict = {}
        self._torn_at = None  # byte offset of an unparsable unfinished last row
        self._lead = ""  # what the next append writes before its row
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            end = data.rfind(b"\n") + 1
            rows = [json.loads(line) for line in data[:end].splitlines() if line.strip()]
            if data[end:].strip():
                try:
                    rows.append(json.loads(data[end:]))
                    self._lead = "\n"
                except ValueError:
                    self._torn_at = end
            self._mem = {row["key"]: row for row in rows}

    def get(self, key: str):
        return self._mem.get(key)

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
                with open(self._path, "a") as fh:
                    if self._torn_at is not None:
                        fh.truncate(self._torn_at)
                    fh.write(self._lead + json.dumps(row, sort_keys=True) + "\n")
                self._torn_at, self._lead = None, ""


def _default_transport(url: str, payload: dict, timeout: float, token: str | None) -> str:
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    req = urllib.request.Request(url, data=json.dumps(payload).encode(), headers=headers)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        body = json.loads(resp.read().decode())
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
    if not texts:
        raise InvalidInputError("at least one text is required")
    transport = transport or _default_transport
    cache = _Cache(cfg.cache_path)

    def one(text: str):
        key = _cache_key(template, text, cfg.model)
        hit = cache.get(key)
        if hit is not None:
            return Annotation(text_hash=hit["text_hash"], kind=hit["kind"],
                              score=hit["score"], raw_response=hit["raw_response"],
                              timestamp=hit["timestamp"])
        prompt = template.format(text=text)
        payload = {
            "model": cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        last_error = "no attempt made"
        for _ in range(cfg.max_retries + 1):
            try:
                raw = transport(cfg.endpoint, payload, cfg.timeout, cfg.auth_token)
            except (OSError, ValueError) as exc:  # ValueError: a non-JSON or textless body
                last_error = f"transport: {exc}"
                continue
            try:
                score = _parse_score(raw, kind)
            except ValueError as exc:
                last_error = f"parse: {exc}"
                continue
            ann = Annotation(text_hash=_sha(text), kind=kind, score=score,
                             raw_response=raw, timestamp=time.time())
            cache.put(key, ann)
            return ann
        return AnnotationFailure(text_hash=_sha(text), kind=kind, error=last_error)

    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        entries = list(pool.map(one, texts))
    return BatchResult(entries=entries)


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
    if left_fraction not in (0.0, 0.25, 0.5, 0.75, 1.0):
        raise InvalidInputError("left_fraction must be one of 0, 0.25, 0.5, 0.75, 1.0")
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
