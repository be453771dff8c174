"""Loopback chat-completion stub for the annotate workloads.

Run as ``python3 judge_stub.py``: it binds 127.0.0.1 on a free port, prints
the port on its first stdout line, and serves until its stdin closes, so it
ends with the process that started it. Requests are served one at a time,
one per connection.

``POST /`` answers a chat-completion request with ``reply(prompt)``.
``GET /log`` returns {prompt sha256: request count} since the last ``/log``
and clears it, so a client can check which prompts reached the stub.
``GET /ping`` returns {"ok": true}; the benchmark's calibration units use it.

The judge's default transport opens a connection per request, over 2000 per
annotate operation. A server that closes first leaves each one in TIME_WAIT
for a minute; back-to-back runs then fill most of the ephemeral port range,
and operations stall, their wall time far above their CPU time. So the stub
waits for the client to close, then resets its end: no connection lingers.
It parses only the request line and ``Content-Length``, so its cost per
request stays small beside the client's.
"""

from __future__ import annotations

import hashlib
import json
import socket
import socketserver
import struct
import sys
import threading
from collections import Counter

BAD_ONE_IN = 50


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode()).hexdigest()


def reply(prompt: str) -> str:
    """Deterministic reply: an integer score 0..100 from the prompt's hash,
    except that about one prompt in 50 always gets a non-integer reply."""
    digest = hashlib.sha256(prompt.encode()).digest()
    score = int.from_bytes(digest[4:8], "big") % 101
    if int.from_bytes(digest[:4], "big") % BAD_ONE_IN == 0:
        return f"{score}.5"
    return str(score)


def expected_score(prompt: str) -> int | None:
    """The score a correct client records for ``prompt``; None when every
    attempt gets a non-integer reply."""
    raw = reply(prompt)
    return None if "." in raw else int(raw)


class _Handler(socketserver.StreamRequestHandler):
    timeout = 30

    def handle(self):
        method, _, rest = self.rfile.readline().partition(b" ")
        path = rest.split(b" ", 1)[0]
        length = 0
        for line in iter(self.rfile.readline, b"\r\n"):
            if not line:
                return
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        if method == b"POST":
            prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
            self.server.log[prompt_hash(prompt)] += 1
            obj = {"choices": [{"message": {"role": "assistant", "content": reply(prompt)}}]}
        elif path == b"/ping":
            obj = {"ok": True}
        else:
            log, self.server.log = self.server.log, Counter()
            obj = dict(log)
        data = json.dumps(obj).encode()
        self.wfile.write(b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(data), data))
        self.wfile.flush()
        self.connection.recv(1)  # the client has read the reply when it closes
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


class _Server(socketserver.TCPServer):
    def shutdown_request(self, request):
        self.close_request(request)  # no shutdown(SHUT_WR): the reset replaces the FIN


def main() -> int:
    server = _Server(("127.0.0.1", 0), _Handler)
    server.log = Counter()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
