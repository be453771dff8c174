"""The HTTP client's response reader against ``http.client``: generated
responses, handed to ``_round_trip`` in random pieces, read as
``http.client.HTTPResponse`` reads the same bytes, apart from the
differences RFC 9110 and RFC 9112 allow, each written down where it is
applied."""

import http.client
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab import _http

REASONS = {100: b"Continue", 103: b"Early Hints", 200: b"OK", 204: b"No Content",
           304: b"Not Modified", 404: b"Not Found"}


class _Pieces:
    """A non-blocking socket that takes whatever is sent and hands out
    ``pieces`` one per wait, with a BlockingIOError between them, then
    ``b""`` as a server's close does when ``close`` is set."""

    def __init__(self, pieces, close=True):
        self._pieces, self._close, self._blocked = list(pieces), close, False

    def send(self, data):
        return len(data)

    def recv(self, size):
        assert self._pieces or self._close, "read past the last piece"
        if self._blocked:
            self._blocked = False
            raise BlockingIOError
        self._blocked = True
        if not self._pieces:
            self._close = False  # a closed socket is not read again
            return b""
        return self._pieces.pop(0)


def _round_trip(pieces, close=True):
    """What ``_round_trip`` makes of a response received in ``pieces``:
    the body, or OSError for any fault."""
    trip = _http._round_trip(_Pieces(pieces, close), b"POST / HTTP/1.1\r\n\r\n",
                             _http._read_response)
    try:
        while True:
            next(trip)
    except StopIteration as stop:
        return stop.value
    except (http.client.HTTPException, OSError):
        return OSError


class _Sock:
    def __init__(self, data):
        self._data = data

    def makefile(self, mode):
        return io.BytesIO(self._data)


def _http_client(raw):
    """What the reader must make of ``raw``: the body that
    ``http.client.HTTPResponse`` reads from it, or OSError for a non-2xx
    status or any exception, with these allowed differences."""
    response = http.client.HTTPResponse(_Sock(raw), method="POST")
    try:
        response.begin()
        if not 200 <= response.status < 300:
            return OSError
        if response.status == 204:
            # RFC 9112 §6.3 rule 1: a 204 ends at its header block; http.client
            # reads a chunked body after one
            return b""
        length = response.headers.get("content-length")
        if not response.chunked and length is not None \
                and not re.fullmatch("[0-9]+", length.strip()):
            # RFC 9112 §6.3 rule 5, RFC 9110 §8.6 (Content-Length = 1*DIGIT,
            # and a recipient may reject a list such as "3, 3"): an invalid
            # length is a framing fault; http.client reads int(value) bytes
            # of a "+3" and reads a "-1" or a "3, 3" to the close
            return OSError
        return response.read()
    except (http.client.HTTPException, OSError):
        return OSError


def _fields(draw, names):
    return b"".join(b"%s:%s%s\r\n" % (name, draw(st.sampled_from([b" ", b"", b"  "])), value)
                    for name, value in draw(st.lists(st.sampled_from(names), max_size=3)))


EXTRA = [(b"Content-Type", b"application/json"), (b"Server", b"stub"), (b"X-Pad", b"a;b, c")]


@st.composite
def _chunked(draw, body):
    """``body`` chunked, as (the reader's bytes, http.client's bytes)."""
    cuts = sorted(draw(st.sets(st.integers(1, max(len(body) - 1, 1)), max_size=3)))
    ours = theirs = b""
    for start, end in zip([0, *cuts], [*cuts, len(body)]):
        if start >= len(body):
            break
        size = draw(st.sampled_from([b"%x", b"%X", b"00%x", b"0x%x"])) % (end - start)
        ext = draw(st.sampled_from([b"", b";ext", b";a=b", b' ; n="v;w"']))
        ours += b"%s%s\r\n%s\r\n" % (size, ext, body[start:end])
        # RFC 9112 §7.1: chunk-size = 1*HEXDIG, so the reader rejects a 0x
        # prefix that http.client's int(size, 16) takes; http.client is given
        # a size of the same length that it rejects too
        theirs += b"%s%s\r\n%s\r\n" % (size.replace(b"0x", b"0g"), ext, body[start:end])
    end = b"%s%s\r\n%s\r\n" % (draw(st.sampled_from([b"0", b"000"])),
                               draw(st.sampled_from([b"", b";last"])),
                               _fields(draw, [(b"Trailer-One", b"1"), (b"Expires", b"0")]))
    return ours + end, theirs + end


@st.composite
def _responses(draw):
    """A response (1xx interims, then a final response, then perhaps bytes
    of another) as (the reader's bytes, http.client's bytes, where the two
    read it differently), cut short at a random point or not."""
    version = draw(st.sampled_from([b"HTTP/1.0", b"HTTP/1.1"]))
    ours = theirs = b""
    for status in draw(st.lists(st.sampled_from([100, 103]), max_size=2)):
        head = b"%s %d %s\r\n%s\r\n" % (version, status, REASONS[status],
                                         _fields(draw, [(b"Link", b"</a.css>; rel=preload")]))
        ours += head
        # RFC 9110 §15.2: a client reads any 1xx before the final response;
        # http.client skips only a 100, so it is given each 103 as a 100
        theirs += head.replace(b" 103 ", b" 100 ", 1)
    status = draw(st.sampled_from([200, 204, 304, 404]))
    reason = draw(st.sampled_from([b" " + REASONS[status], b"", b" "]))
    body = draw(st.binary(max_size=48))
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    fields = _fields(draw, EXTRA)
    if framing == "length":
        n = len(body)
        value = draw(st.sampled_from([b"%d", b"0%d", b"+%d", b"%d, %d", b"-1", b"%d"]))
        value = value % ((n,) * value.count(b"%")) if b"%" in value else value
        if draw(st.booleans()):
            value = b"%d" % draw(st.integers(0, 2 * n + 2))  # too few or too many bytes
        name = draw(st.sampled_from([b"Content-Length", b"content-length", b"CONTENT-LENGTH"]))
        fields += b"%s: %s\r\n" % (name, value)
        payload = (body, body)
    elif framing == "chunked":
        fields += b"Transfer-Encoding: %s\r\n" % draw(st.sampled_from([b"chunked", b"Chunked"]))
        payload = draw(_chunked(body))
    else:
        payload = (body, body)
    head = b"%s %d%s\r\n%s\r\n" % (version, status, reason, fields)
    after = draw(st.sampled_from([b"", b"NEXT", b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"]))
    ours += head + payload[0] + after
    theirs += head + payload[1] + after
    assert len(ours) == len(theirs)
    end = draw(st.one_of(st.none(), st.integers(0, len(ours))))
    return ours[:end], theirs[:end]


@given(_responses(), st.data())
@settings(max_examples=600, deadline=None)
def test_reader_matches_http_client(response, data):
    ours, theirs = response
    cuts = sorted(data.draw(st.sets(st.integers(1, max(len(ours) - 1, 1)), max_size=8)))
    pieces = [piece for i, j in zip([0, *cuts], [*cuts, len(ours)]) if (piece := ours[i:j])]
    assert _round_trip(pieces) == _http_client(theirs)


def test_204_body_is_empty_without_waiting_for_a_close():
    """A 204 ends at its header block (RFC 9112 §6.3 rule 1): what follows
    is not read as its body, and the socket is not read again."""
    raw = b"HTTP/1.1 204 No Content\r\n\r\nNEXT"
    assert _round_trip([raw], close=False) == b""
    assert _http._read_response(io.BytesIO(raw)) == b""


@pytest.mark.parametrize("length", [b"+3", b"-1", b"3, 3", b"3a", b""])
def test_invalid_content_length_is_a_framing_fault(length):
    """A Content-Length that is not digits only (RFC 9110 §8.6) is a
    framing fault (RFC 9112 §6.3 rule 5), not a cue to read to the close."""
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\nabcdef" % length
    with pytest.raises(http.client.HTTPException,
                       match=re.escape(f"invalid Content-Length {length.decode()!r}")):
        _http._read_response(io.BytesIO(raw))


@pytest.mark.parametrize("first, second", [(b"3", b"5"), (b"5", b"3")])
def test_conflicting_content_lengths_are_a_framing_fault(first, second):
    """A Content-Length repeated with another value is a framing fault (RFC
    9110 §8.6), where http.client reads by the first."""
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\ncontent-length: %s\r\n\r\nabcde" % (
        first, second)
    with pytest.raises(http.client.HTTPException, match=re.escape(
            f"conflicting Content-Length {first.decode()!r} and {second.decode()!r}")):
        _http._read_response(io.BytesIO(raw))
    assert _round_trip([raw]) is OSError


def test_identical_content_lengths_frame_the_body():
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabcde"
    assert _http._read_response(io.BytesIO(raw)) == b"abc"
