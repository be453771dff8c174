"""Calibration units: fixed work owned by the benchmark, timed between a run's
operations to track the host's speed.

A shared host's speed drifts: the same deterministic operation takes 30-60%
longer for minutes at a time, in CPU time as well as wall time. A run
therefore also times calibration units, interleaved with its operations, and
reports the operation time over the calibration unit time (``norm_wall_s``).
The program's own changes move the operations and not the units; the host's
drift moves both.

Each workload's unit mirrors the kind of work its operation does, because
the drift slows pure-Python loops more than large numpy kernels. Units never
call the program. ``REF_S`` is each unit's time on the 2-core x86-64
container the benchmark was built on, at its faster level; it only scales
``norm_wall_s`` into seconds.
"""

from __future__ import annotations

import json
import math
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import inputs
import reference

REF_S = {"python_text": 0.08, "numpy_small": 0.07, "numpy_blocks": 0.2, "loopback": 0.16}

_TEXTS = inputs.make_texts(600, np.random.default_rng(20250401))
_REFS = np.random.default_rng(1).normal(scale=30.0, size=(1500, 2))
_QUERIES = np.random.default_rng(2).normal(scale=30.0, size=(3000, 2))


def python_text() -> None:
    """Pure-Python n-gram counting and scoring, like the program's metrics."""
    for start in range(0, len(_TEXTS), 100):
        reference.self_bleu(_TEXTS[start:start + 100])
        reference.word_entropy(_TEXTS[start:start + 100])


def numpy_small() -> float:
    """Many small numpy calls driven from Python, like the toy chains."""
    rng = np.random.default_rng(7)
    probs = np.full(101, 1.0 / 101)
    for _ in range(2000):
        draws = rng.choice(101, size=101, p=probs)
        hist = np.bincount(draws, minlength=101).astype(float)
        probs = (hist + 0.5) / (hist.sum() + 50.5)
        entropy = -np.sum(probs * np.log(probs))
    return entropy


def numpy_blocks() -> None:
    """Blocked nearest-reference search and k-means steps on 2-D points, like
    the clustering primitives."""
    for start in range(0, len(_QUERIES), 500):
        chunk = _QUERIES[start:start + 500]
        ((chunk[:, None, :] - _REFS[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    centres = _REFS[:16].copy()
    for _ in range(10):
        labels = ((_REFS[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        for k in range(len(centres)):
            members = _REFS[labels == k]
            if len(members):
                centres[k] = members.mean(axis=0)


def loopback(url: str):
    """Small JSON requests to the judge stub's ``/ping`` over fresh loopback
    connections from two threads, like the judge's client."""
    def one(_):
        with urllib.request.urlopen(url + "ping", timeout=30) as resp:
            return json.loads(resp.read())["ok"]

    def unit() -> None:
        with ThreadPoolExecutor(max_workers=2) as pool:
            if not all(pool.map(one, range(300))):
                raise RuntimeError("judge stub did not answer /ping")
    return unit


def mix(*units):
    def unit() -> None:
        for u in units:
            u()
    return unit


def ref_s(*names: str) -> float:
    """Reference time of the units ``names`` run one after another."""
    return math.fsum(REF_S[n] for n in names)
