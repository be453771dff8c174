"""File formats: JSONL rows and record corpora, the EMB1 binary embedding
container, CSV embeddings, and tidy CSV reading, rendering and writing with
round-trip float formatting. The corpus record type lives here, so that
reading files loads no numpy until embeddings are read or written.
"""

from __future__ import annotations

import csv
import json
import struct
import sys
from dataclasses import dataclass
from io import StringIO
from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "read_jsonl",
    "write_jsonl",
    "read_records_jsonl",
    "write_records_jsonl",
    "read_embeddings",
    "write_embeddings_emb1",
    "read_csv",
    "csv_text",
    "write_csv",
]

HUMAN = "human"
SYNTHETIC = "synthetic"
# the annotation scores a record may carry
SCORE_KEYS = ("quality", "lean", "positivity")
# (lo, hi, -1 allowed) of each judge score: a lean judge replies -1 for a text
# that is not political
_SCORE_RANGES = {"quality": (0, 100, False), "lean": (0, 100, True)}


@dataclass(frozen=True)
class TextRecord:
    text: str
    source: str = HUMAN
    generation: int = -1
    domain: str | None = None
    annotations: dict | None = None

    def __post_init__(self):
        if self.source not in (HUMAN, SYNTHETIC):
            raise InvalidInputError(f"unknown source {self.source!r}")
        if self.source == HUMAN and self.generation != -1:
            raise InvalidInputError("human records must have generation -1")
        if self.source == SYNTHETIC and self.generation < 0:
            raise InvalidInputError("synthetic records must have generation >= 0")


_EMB1_MAGIC = b"EMB1"
_OPTIONAL_NUMBER = (int, float, type(None))
# the types a record row's fields may hold
_RECORD_TYPES = {"text": str, "source": str, "generation": int, "domain": (str, type(None)),
                 **dict.fromkeys(SCORE_KEYS, _OPTIONAL_NUMBER)}


def _not_utf8(where, exc: UnicodeDecodeError) -> InvalidInputError:
    return InvalidInputError(f"{where}: not UTF-8 text ({exc.reason})")


def _open_input(path, mode="r", **kwargs):
    """``open(path, mode)`` of an input file, a missing or unreadable one
    raised as InvalidInputError naming it."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"required file missing: {path}") from exc
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read ({exc.strerror})") from exc


def _jsonl_rows(path, required):
    """(line number, value) of each non-blank line; see ``read_jsonl``."""
    with _open_input(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise _not_utf8(f"{path}:{lineno}", exc) from exc
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if required and not (isinstance(row, dict) and all(k in row for k in required)):
                raise InvalidInputError(
                    f"{path}:{lineno}: not an object with {', '.join(required)}")
            yield lineno, row


def read_jsonl(path, required=()) -> list:
    """One JSON value per non-blank line of UTF-8 text. A line that is not
    UTF-8 or not JSON, or not an object holding every ``required`` key,
    raises InvalidInputError naming ``path:line``, and a missing or
    unreadable file one naming ``path``."""
    return [row for _, row in _jsonl_rows(path, required)]


def write_jsonl(path, rows) -> None:
    """One JSON object per line, keys sorted, so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _score_in_range(kind: str, value) -> bool:
    """Whether a number lies in the ``kind`` judge's range; a kind without
    one raises KeyError."""
    lo, hi, allow_minus_one = _SCORE_RANGES[kind]
    return lo <= value <= hi or (allow_minus_one and value == -1)


def read_records_jsonl(path) -> list[TextRecord]:
    """One record per line: {"text": str, "source"?: str, "generation"?: int,
    "domain"?: str, "quality"?, "lean"?, "positivity"?: number or null}. A
    field of another type (a bool is not a number), a quality or lean score
    out of its judge's range (a lean may be -1), a positivity score that is
    not a finite float, or an invalid TextRecord raises InvalidInputError
    naming ``path:line``."""
    records = []
    for lineno, row in _jsonl_rows(path, required=("text",)):
        for key, value in row.items():
            if key in _RECORD_TYPES and (isinstance(value, bool)
                                         or not isinstance(value, _RECORD_TYPES[key])):
                raise InvalidInputError(f"{path}:{lineno}: {key} of the wrong type: {value!r}")
        annotations = {k: row[k] for k in SCORE_KEYS if k in row}
        for key, value in annotations.items():
            if value is not None and not (_score_in_range(key, value) if key in _SCORE_RANGES
                                          else abs(value) <= sys.float_info.max):
                raise InvalidInputError(f"{path}:{lineno}: {key} score out of range: {value!r}")
        source = row.get("source", HUMAN)
        try:
            records.append(TextRecord(
                text=row["text"], source=source,
                generation=row.get("generation", -1 if source == HUMAN else 0),
                domain=row.get("domain"), annotations=annotations or None))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_records_jsonl(records, path) -> None:
    rows = []
    for r in records:
        row = {"text": r.text}
        if r.source != HUMAN:
            row["source"] = r.source
            row["generation"] = r.generation
        if r.domain is not None:
            row["domain"] = r.domain
        for k in SCORE_KEYS:
            if r.annotations and k in r.annotations:
                row[k] = r.annotations[k]
        rows.append(row)
    write_jsonl(path, rows)


def write_embeddings_emb1(matrix: np.ndarray, path) -> None:
    """Binary container: magic "EMB1", u32 n, u32 d, then n*d little-endian
    float32 values row-major."""
    import numpy as np

    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise InvalidInputError("embedding matrix must be 2-D")
    n, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_EMB1_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(matrix.astype("<f4").tobytes(order="C"))


def read_embeddings(path) -> np.ndarray:
    """Read an embedding matrix from an EMB1 binary file or a CSV with an id
    column (first column) followed by the vector components. The CSV's first
    row is a header when its id cell is empty (as pandas writes one) or its
    last cell is not a number. A missing, unreadable or malformed file raises
    InvalidInputError naming the path, and for a malformed CSV the line; a
    CSV that is not UTF-8 names only the path."""
    import numpy as np

    with _open_input(path, "rb") as fh:
        head = fh.read(4)
        if head == _EMB1_MAGIC:
            shape = fh.read(8)
            if len(shape) != 8:
                raise InvalidInputError(f"{path}: truncated EMB1 header")
            n, d = struct.unpack("<II", shape)
            data = np.frombuffer(fh.read(4 * n * d), dtype="<f4")
            if data.size != n * d:
                raise InvalidInputError(f"{path}: truncated EMB1 payload")
            payload_end = fh.tell()
            extra = fh.seek(0, 2) - payload_end
            if extra:
                raise InvalidInputError(
                    f"{path}: {extra} bytes after the EMB1 payload of {n} x {d} values")
            return data.reshape(n, d).astype(float)
    rows = []
    with _open_input(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = True  # the first non-blank row may be a header line
            for row in reader:
                if not row:
                    continue
                if first:
                    first = False
                    if not row[0] or not _is_float(row[-1]):
                        continue
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from exc
                if len(rows[-1]) != len(rows[0]):
                    raise InvalidInputError(f"{path}:{reader.line_num}: {len(rows[-1])} "
                                            f"components, the first row has {len(rows[0])}")
        except UnicodeDecodeError as exc:  # decoded a block at a time: the line is not known
            raise _not_utf8(path, exc) from exc
    if not rows:
        raise InvalidInputError(f"{path}: no embedding rows found")
    return np.asarray(rows, dtype=float)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def read_csv(path) -> list[dict]:
    """Rows of a UTF-8 CSV with a header line, as dicts of strings. A missing
    or unreadable file, or one that is not UTF-8, raises InvalidInputError."""
    try:
        with _open_input(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def csv_text(rows) -> str:
    """CSV rows rendered as ``write_csv`` writes them, with shortest
    round-trip float formatting so reruns are byte-identical: ``csv`` writes
    a float, numpy's included, as its ``str``, which is that form."""
    out = StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def write_csv(path, header: list[str], blocks) -> None:
    """Write a tidy CSV: the header line, then blocks of rows that
    ``csv_text`` rendered, one at a time (a joined copy would raise peak
    memory). Every CSV file is written here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text([header]))
        fh.writelines(blocks)
