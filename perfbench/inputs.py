"""Seeded synthetic inputs for the benchmark workloads.

Everything the program reads is made here from the workload seed and written
to files: JSONL corpora, an EMB1 projection, a cluster manifest and an
experiment spec. The writers below produce the documented file formats
directly, so input synthesis does not run program code.
"""

from __future__ import annotations

import json
import struct

import numpy as np

VOCAB_SIZE = 2000
ZIPF_EXPONENT = 1.0
MIN_WORDS, MAX_WORDS = 15, 45

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def vocabulary() -> list[str]:
    """2000 distinct lowercase words without punctuation, so the program's
    tokenizer splits a text exactly on its spaces."""
    n = len(_SYLLABLES)
    return [_SYLLABLES[i % n] + _SYLLABLES[i // n] + ("r" if i % 3 == 0 else "")
            for i in range(VOCAB_SIZE)]


def make_texts(n: int, rng: np.random.Generator) -> list[str]:
    """n texts of 15-45 words drawn from the Zipf-weighted vocabulary."""
    words = np.array(vocabulary())
    weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
    lengths = rng.integers(MIN_WORDS, MAX_WORDS + 1, size=n)
    tokens = words[rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=weights / weights.sum())]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [" ".join(tokens[bounds[i]:bounds[i + 1]]) for i in range(n)]


def blob_layout(blobs: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Centres spread over a 100 x 100 square, and scales, of equally
    weighted Gaussian blobs."""
    return rng.uniform(0.0, 100.0, size=(blobs, 2)), rng.uniform(1.0, 3.0, size=blobs)


def make_projection(n: int, layout: tuple[np.ndarray, np.ndarray],
                    rng: np.random.Generator) -> np.ndarray:
    """n 2-D points from the mixture of Gaussian blobs ``layout``."""
    centres, scales = layout
    which = rng.integers(len(centres), size=n)
    return centres[which] + rng.standard_normal((n, 2)) * scales[which, None]


def write_records(path, texts: list[str]) -> None:
    with open(path, "w") as fh:
        for t in texts:
            fh.write(json.dumps({"text": t}) + "\n")


def write_emb1(path, matrix: np.ndarray) -> None:
    """EMB1 container: magic, u32 n, u32 d, n*d little-endian float32."""
    n, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def write_manifest(path, clusters: list[list[int]]) -> None:
    """Cluster manifest JSONL: one {"cluster_id", "record_indices"} per line."""
    with open(path, "w") as fh:
        for cid, idx in enumerate(clusters):
            fh.write(json.dumps({"cluster_id": cid, "record_indices": idx}) + "\n")
