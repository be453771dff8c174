"""Property tests for the records and cluster-manifest readers: a file that
its writer made reads back equal, and a file with one field mutated either
reads as a value the writer could have written or raises InvalidInputError
naming the path and line, never another exception."""

import json
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab.errors import InvalidInputError
from collapse_lab.experiments import _read_cluster_manifest
from collapse_lab.io import (
    HUMAN,
    SCORE_KEYS,
    SYNTHETIC,
    TextRecord,
    read_records_jsonl,
    write_jsonl,
    write_records_jsonl,
)

# the values a mutated field takes: of the wrong type, not finite, out of
# range (10**400 is past any float), null, or a bool for a number
_BAD = ["x", 7, 1.5, [1], {"a": 1}, math.nan, math.inf, -math.inf, -5, -2, -1, 101, 10**9,
        10**400, True, False, None]
_MUTATION = st.one_of(st.just("delete"), st.sampled_from(_BAD))
_TEXT = st.text(max_size=12)
_SCORES = {
    "quality": st.one_of(st.none(), st.integers(0, 100), st.floats(0, 100)),
    "lean": st.one_of(st.none(), st.just(-1), st.integers(0, 100), st.floats(0, 100)),
    "positivity": st.one_of(st.none(), st.integers(-10**6, 10**6),
                            st.floats(allow_nan=False, allow_infinity=False)),
}
_RECORD_FIELDS = ("text", "source", "generation", "domain", *SCORE_KEYS)


@st.composite
def _records(draw) -> list[TextRecord]:
    records = []
    for _ in range(draw(st.integers(1, 4))):
        synthetic = draw(st.booleans())
        keys = draw(st.lists(st.sampled_from(SCORE_KEYS), unique=True))
        records.append(TextRecord(
            text=draw(_TEXT), source=SYNTHETIC if synthetic else HUMAN,
            generation=draw(st.integers(0, 50)) if synthetic else -1,
            domain=draw(st.one_of(st.none(), _TEXT)),
            annotations={k: draw(_SCORES[k]) for k in keys} or None))
    return records


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _writable_record(r) -> bool:
    """Whether the records writer could have written ``r``: a TextRecord of
    the documented types, its scores in range."""
    ann = r.annotations
    scores_ok = ann is None or (ann and set(ann) <= set(SCORE_KEYS) and all(
        v is None or (_is_number(v) and {"quality": 0 <= v <= 100,
                                         "lean": v == -1 or 0 <= v <= 100,
                                         "positivity": math.isfinite(v)}[k])
        for k, v in ann.items()))
    return (isinstance(r, TextRecord) and isinstance(r.text, str)
            and (r.domain is None or isinstance(r.domain, str))
            and isinstance(r.generation, int) and not isinstance(r.generation, bool)
            and (r.generation == -1) == (r.source == HUMAN) and r.generation >= -1
            and r.source in (HUMAN, SYNTHETIC) and bool(scores_ok))


def _raised_at(exc: InvalidInputError, path, lineno: int) -> bool:
    return str(exc).startswith(f"{path}:{lineno}: ")


@given(_records())
@settings(max_examples=60, deadline=None)
def test_records_read_back_equal(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    write_records_jsonl(records, path)
    assert read_records_jsonl(path) == records


@given(_records(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_mutated_record_reads_as_writable_or_fails_at_its_line(tmp_path_factory, records,
                                                                   data):
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    write_records_jsonl(records, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    at = data.draw(st.integers(0, len(rows) - 1))
    key, mutation = data.draw(st.sampled_from(_RECORD_FIELDS)), data.draw(_MUTATION)
    if mutation == "delete":
        rows[at].pop(key, None)
    else:
        rows[at][key] = mutation
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    try:
        back = read_records_jsonl(path)
    except InvalidInputError as exc:
        assert _raised_at(exc, path, at + 1), exc
        return
    assert len(back) == len(rows) and all(_writable_record(r) for r in back)


@st.composite
def _manifests(draw) -> tuple[int, dict]:
    """A corpus size, and the manifest of clusters ``collapse-lab cluster``
    writes over it: record indices by cluster id, the ids all integers or
    all strings."""
    n = draw(st.integers(1, 30))
    ids = st.integers(-5, 10**6) if draw(st.booleans()) else _TEXT
    cids = draw(st.lists(ids, min_size=0, max_size=4, unique=True))
    return n, {cid: draw(st.lists(st.integers(0, n - 1), unique=True)) for cid in cids}


def _write_manifest(path, clusters: dict) -> None:
    write_jsonl(path, [{"cluster_id": cid, "method": "kmeans", "params": {},
                        "record_indices": members} for cid, members in clusters.items()])


@given(_manifests())
@settings(max_examples=60, deadline=None)
def test_manifest_reads_back_equal(tmp_path_factory, manifest):
    n, clusters = manifest
    path = tmp_path_factory.mktemp("manifest") / "clusters.jsonl"
    _write_manifest(path, clusters)
    assert _read_cluster_manifest(path, n) == clusters


@given(_manifests().filter(lambda m: m[1]), st.data())
@settings(max_examples=150, deadline=None)
def test_a_mutated_manifest_reads_as_writable_or_fails_at_a_line(tmp_path_factory, manifest,
                                                                   data):
    n, clusters = manifest
    path = tmp_path_factory.mktemp("manifest") / "clusters.jsonl"
    _write_manifest(path, clusters)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    mutation = data.draw(_MUTATION)
    key = data.draw(st.sampled_from(["cluster_id", "record_indices"]
                                    + ["a record index"] * bool(row["record_indices"])))
    if key == "a record index":
        members = row["record_indices"]
        members[data.draw(st.integers(0, len(members) - 1))] = (
            data.draw(st.sampled_from(_BAD)) if mutation == "delete" else mutation)
    elif mutation == "delete":
        del row[key]
    else:
        row[key] = mutation
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    try:
        back = _read_cluster_manifest(path, n)
    except InvalidInputError as exc:
        line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert line and 1 <= int(line.group(1)) <= len(rows), exc
        return
    assert len({type(cid) for cid in back}) <= 1
    for cid, members in back.items():
        assert isinstance(cid, str) or (isinstance(cid, int) and not isinstance(cid, bool))
        assert all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n
                   for i in members)
        assert len(set(members)) == len(members)
