"""Trainable generator backends for the chain: a desk-scale resampler and an
adapter for remote text-generation endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, ProtocolError, TransportError
from ._http import post_json

__all__ = [
    "ResamplerGenerator",
    "GeneratorEndpointConfig",
    "ExternalGenerator",
    "default_factory",
]

_DROPOUT_RATE = 0.2


class ResamplerGenerator:
    """``train(texts, domains)`` stores the texts by domain; ``generate(n,
    domain)`` returns exactly n strings, drawn uniformly with replacement from
    that domain's texts (from all texts for an unseen domain). With
    ``smoothing`` > 0, each is perturbed with that probability by token
    dropout (each token dropped with probability 0.2, at least one kept)."""

    def __init__(self, seed: int = 0, smoothing: float = 0.0):
        if not 0.0 <= smoothing <= 1.0:
            raise InvalidConfigError("smoothing must lie in [0, 1]")
        self._rng = np.random.default_rng(seed)
        self._smoothing = smoothing
        self._texts: list[str] | None = None
        self._by_domain: dict | None = None

    def train(self, texts: list[str], domains: list) -> None:
        if not texts:
            raise InvalidInputError("cannot train on an empty text list")
        by_domain: dict = {}
        for text, domain in zip(texts, domains, strict=True):
            by_domain.setdefault(domain, []).append(text)
        self._texts = texts
        self._by_domain = by_domain

    def _perturb(self, text: str) -> str:
        tokens = text.split()
        if len(tokens) <= 1:
            return text
        keep = self._rng.random(len(tokens)) >= _DROPOUT_RATE
        if not keep.any():
            keep[self._rng.integers(len(tokens))] = True
        return " ".join(t for t, k in zip(tokens, keep) if k)

    def generate(self, n: int, domain: str | None = None) -> list[str]:
        if self._texts is None:
            raise InvalidInputError("generate called before train")
        if n == 0:
            return []
        source = self._by_domain.get(domain) or self._texts
        idx = self._rng.integers(len(source), size=n)
        out = []
        for i in idx:
            text = source[int(i)]
            if self._smoothing > 0 and self._rng.random() < self._smoothing:
                text = self._perturb(text)
            out.append(text)
        return out


@dataclass
class GeneratorEndpointConfig:
    """Remote generation endpoint. ``temperature`` and ``min_p`` are
    pass-through sampling fields forwarded verbatim to the backend."""

    endpoint: str
    model: str
    temperature: float = 1.5
    min_p: float = 0.2
    timeout: float = 60.0
    batch_size: int = 32

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidConfigError("temperature must be > 0")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1")
        if not (isinstance(self.timeout, (int, float)) and 0 < self.timeout < math.inf):
            raise InvalidConfigError("timeout must be a positive finite number of seconds")


class ExternalGenerator:
    """Adapter that turns a remote text-generation service into a chain
    generator. ``train(texts, domains)`` is a no-op; ``generate(n, domain)``
    posts JSON requests {"model", "n", "domain", "temperature", "min_p"} and
    expects a JSON response {"texts": [...]} with exactly the requested count,
    so it returns exactly n strings.

    ``transport(url, payload, timeout) -> dict`` may be injected for testing;
    the default posts over HTTP with ``_http.post_json``.
    """

    def __init__(self, cfg: GeneratorEndpointConfig, transport=None):
        self._cfg = cfg
        self._transport = transport or post_json

    def train(self, texts: list[str], domains: list) -> None:  # remote state is the backend's
        return None

    def generate(self, n: int, domain: str | None = None) -> list[str]:
        if n == 0:
            return []
        cfg = self._cfg
        out: list[str] = []
        remaining = n
        while remaining > 0:
            count = min(remaining, cfg.batch_size)
            payload = {
                "model": cfg.model,
                "n": count,
                "domain": domain,
                "temperature": cfg.temperature,
                "min_p": cfg.min_p,
            }
            try:
                response = self._transport(cfg.endpoint, payload, cfg.timeout)
            except OSError as exc:
                raise TransportError(f"generation request failed: {exc}") from exc
            except ValueError as exc:  # a body that is not JSON
                raise ProtocolError(f"endpoint returned a malformed body: {exc}") from exc
            texts = response.get("texts") if isinstance(response, dict) else None
            if not isinstance(texts, list) or len(texts) != count \
                    or not all(isinstance(t, str) for t in texts):
                raise ProtocolError(
                    f"endpoint returned a malformed batch (wanted {count} texts)")
            out.extend(texts)
            remaining -= count
        return out


def default_factory(kind: str, seed: int) -> ResamplerGenerator:
    """Factory for the built-in generator kinds. Names of the form
    ``resampler`` or ``resampler:<smoothing>`` map to resamplers; anything
    else is rejected (external endpoints need their own factory closure)."""
    if kind == "resampler":
        return ResamplerGenerator(seed=seed)
    if isinstance(kind, str) and kind.startswith("resampler:"):
        try:
            smoothing = float(kind.split(":", 1)[1])
        except ValueError:
            raise InvalidConfigError(
                f"generator kind {kind!r}: smoothing is not a number") from None
        return ResamplerGenerator(seed=seed, smoothing=smoothing)
    raise InvalidConfigError(f"unknown generator kind {kind!r}")
