"""Trainable generator backends for the chain: a desk-scale resampler and an
adapter for remote text-generation endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, ProtocolError, TransportError
from .judge import post_json

__all__ = [
    "GeneratorModel",
    "ResamplerGenerator",
    "GeneratorEndpointConfig",
    "ExternalGenerator",
    "default_factory",
]


class GeneratorModel:
    """Behavior contract: train(records) fits state, generate(n, domain)
    returns exactly n strings, deterministic given the instance's seed."""

    def train(self, records) -> None:
        raise NotImplementedError

    def generate(self, n: int, domain: str | None = None) -> list[str]:
        raise NotImplementedError


class ResamplerGenerator(GeneratorModel):
    """Stores its training texts and generates by sampling them uniformly with
    replacement. With ``smoothing`` > 0, each generated text is perturbed with
    that probability by token dropout (each token dropped with the dropout
    rate, at least one token kept)."""

    def __init__(self, seed: int = 0, smoothing: float = 0.0, dropout_rate: float = 0.2):
        if not 0.0 <= smoothing <= 1.0:
            raise InvalidConfigError("smoothing must lie in [0, 1]")
        self._rng = np.random.default_rng(seed)
        self._smoothing = smoothing
        self._dropout = dropout_rate
        self._texts: list[str] | None = None
        self._by_domain: dict | None = None

    def train(self, records) -> None:
        texts = []
        by_domain: dict = {}
        for r in records:
            text = r.text if hasattr(r, "text") else str(r)
            domain = getattr(r, "domain", None)
            texts.append(text)
            by_domain.setdefault(domain, []).append(text)
        if not texts:
            raise InvalidInputError("cannot train on an empty record list")
        self._texts = texts
        self._by_domain = by_domain

    def _perturb(self, text: str) -> str:
        tokens = text.split()
        if len(tokens) <= 1:
            return text
        keep = self._rng.random(len(tokens)) >= self._dropout
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


class ExternalGenerator(GeneratorModel):
    """Adapter that turns a remote text-generation service into a
    GeneratorModel. Training is a no-op; generation posts JSON requests
    {"model", "n", "domain", "temperature", "min_p"} and expects a JSON
    response {"texts": [...]} with exactly the requested count.

    ``transport(url, payload, timeout) -> dict`` may be injected for testing;
    the default posts over HTTP with ``judge.post_json``.
    """

    def __init__(self, cfg: GeneratorEndpointConfig, transport=None):
        self._cfg = cfg
        self._transport = transport or post_json

    def train(self, records) -> None:  # remote backends manage their own state
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


def default_factory(kind: str, seed: int) -> GeneratorModel:
    """Factory for the built-in generator kinds. Names of the form
    ``resampler`` or ``resampler:<smoothing>`` map to resamplers; anything
    else is rejected (external endpoints need their own factory closure)."""
    if kind == "resampler":
        return ResamplerGenerator(seed=seed)
    if kind.startswith("resampler:"):
        return ResamplerGenerator(seed=seed, smoothing=float(kind.split(":", 1)[1]))
    raise InvalidConfigError(f"unknown generator kind {kind!r}")
