"""Loopback stand-in for the three annotator services.

:class:`StubProcess` runs this module as a child process, so the stub's JSON
work stays off the measured process's GIL. It serves the wire protocol of
``bookcoref.remote`` on 127.0.0.1 with HTTP/1.1 keep-alive and adds
``LATENCY_S`` to every request:

    POST /link    answers from pattern_match results precomputed by the caller,
                  looked up by doc_id (file given with --links)
    POST /judge   "No" iff sha256(prompt) % 10 == 0, "Yes" otherwise
    POST /expand  echoes the seeds

Each response goes out in one socket write: a keep-alive server that writes
headers and body separately meets Nagle's algorithm plus delayed ACKs and
stalls every request by tens of milliseconds.

The stub counts requests per route, bytes in and out, non-2xx replies, the
peak number of requests in flight and the time spent serving them.
``GET /_stats`` returns the counters, ``GET /_reset`` zeroes them; neither is
counted. The first line on stdout is ``PORT <n>``. The stub exits when its
stdin closes, so it never outlives the process that started it.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ROUTES = ("link", "judge", "expand")
#: Added to every service request.
LATENCY_S = 0.002


def judge_answer(prompt: str) -> str:
    """The stub's verdict rule, shared with the local reference judge."""
    digest = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest(), 16)
    return "No" if digest % 10 == 0 else "Yes"


class StubStats:
    """Request counters shared by the handler threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = {route: 0 for route in ROUTES}
            self.attempts = 0
            self.non_2xx = 0
            self.bytes_in = 0
            self.bytes_out = 0
            self.inflight = 0
            self.max_inflight = 0
            self.service_s = 0.0

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def leave(self, route: str, status: int, n_in: int, n_out: int, seconds: float) -> None:
        with self._lock:
            self.inflight -= 1
            self.attempts += 1
            if route in self.requests:
                self.requests[route] += 1
            if not 200 <= status < 300:
                self.non_2xx += 1
            self.bytes_in += n_in
            self.bytes_out += n_out
            self.service_s += seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "attempts": self.attempts,
                "non_2xx": self.non_2xx,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "max_inflight": self.max_inflight,
                "service_s": self.service_s,
            }


def answer(route: str, body: dict, links: dict) -> tuple[int, dict]:
    """Status and JSON reply for one service request."""
    if route == "link":
        clusters = links.get(body.get("doc_id"))
        if clusters is None:
            return 404, {"error": f"no link answer for doc_id {body.get('doc_id')!r}"}
        return 200, {"clusters": clusters}
    if route == "judge":
        return 200, {"answer": judge_answer(body["prompt"])}
    if route == "expand":
        return 200, {"clusters": body["seeds"]}
    return 404, {"error": f"unknown route /{route}"}


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def _reply(self, status: int, obj: dict) -> int:
        body = json.dumps(obj, separators=(",", ":")).encode()
        reason = http.client.responses.get(status, "")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)
        return len(head) + len(body)

    def do_GET(self) -> None:
        stats: StubStats = self.server.stats
        if self.path == "/_stats":
            self._reply(200, stats.snapshot())
        elif self.path == "/_reset":
            stats.reset()
            self._reply(200, {})
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        stats: StubStats = self.server.stats
        started = time.perf_counter()
        stats.enter()
        route = self.path.lstrip("/")
        status, n_in, n_out = 500, 0, 0
        try:
            n_in = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(n_in)
            time.sleep(LATENCY_S)
            try:
                status, out = answer(route, json.loads(raw), self.server.links)
            except (ValueError, KeyError, TypeError) as e:
                status, out = 400, {"error": f"bad request: {e}"}
            n_out = self._reply(status, out)
        finally:
            stats.leave(route, status, n_in, n_out, time.perf_counter() - started)


def serve(links_path: str) -> None:
    with open(links_path, encoding="utf-8") as f:
        links = json.load(f)
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.daemon_threads = True
    server.links = links
    server.stats = StubStats()

    def watch_parent() -> None:
        sys.stdin.read()  # returns at EOF, i.e. when the parent is gone
        server.shutdown()

    threading.Thread(target=watch_parent, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


class StubProcess:
    """Parent-side handle: start the stub, read its counters, stop it."""

    def __init__(self, links_path: str, log_path: str):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--links", links_path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError(f"stub failed to start; see {log_path}")
        self.port = int(line[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def _get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return json.loads(resp.read())
        finally:
            conn.close()

    def stats(self) -> dict:
        return self._get("/_stats")

    def reset(self) -> None:
        self._get("/_reset")

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # the stub shuts down at EOF
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5)
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "StubProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", required=True, help="JSON file: doc_id -> /link clusters")
    serve(parser.parse_args().links)
