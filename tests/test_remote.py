import base64
import hashlib
import json
import os
import select
import shutil
import socket
import sqlite3
import ssl
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from bookcoref.errors import CacheError, ConfigError, ContractError, FinalTransportError, StageError, TransportError
from bookcoref.model import ClusterSet, Document, Mention
from bookcoref.pipeline import (
    AcceptAllJudge,
    ExpandRequest,
    IdentityExpander,
    JudgeRequest,
    PatternMatchLinker,
    PipelineConfig,
    refine,
    run,
)
from bookcoref.remote import CACHE_FILE, DECODING, HttpExpander, HttpJudge, HttpLinker, ServiceClient, Transport

from helpers import drop_timings


class MockAnnotatorHandler(BaseHTTPRequestHandler):
    """Wire-protocol stand-in: exact-name linking, a judge that rejects
    mentions starting with 'bad', and an echo expander."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.path, body))
        self.server.headers.append(self.headers)
        failures = self.server.fail_next.get(self.path, 0)
        if failures > 0:
            self.server.fail_next[self.path] = failures - 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path == "/link":
            tokens, characters = body["tokens"], body["characters"]
            clusters = {}
            for name in characters:
                toks = name.split()
                spans = [
                    [i, i + len(toks) - 1]
                    for i in range(len(tokens) - len(toks) + 1)
                    if tokens[i : i + len(toks)] == toks
                ]
                clusters[name] = spans
            out = {"clusters": clusters}
        elif self.path == "/judge":
            assert body["decoding"] == DECODING
            mention = body["prompt"].rsplit("Does the mention [", 1)[1].split("]")[0]
            out = {"answer": "No" if mention.startswith("bad") else "Yes"}
        elif self.path == "/expand":
            out = {"clusters": body["seeds"]}
        elif self.path == "/garbage":
            out = {"answer": "maybe"}
        else:
            self.send_response(404)
            self.end_headers()
            return
        payload = json.dumps(out).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def service():
    server = HTTPServer(("127.0.0.1", 0), MockAnnotatorHandler)
    server.requests = []
    server.headers = []
    server.fail_next = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


DOC = Document("wire", ("Ann", "met", "Ben", "and", "bad", "Ann", "left"), ("Ann", "Ben"))


def client_for(url, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    kwargs.setdefault("cache_dir", "")
    return ServiceClient(url, **kwargs)


def stored_rows(cache_dir):
    """The response cache's rows, (digest, body), read with a separate connection."""
    db = sqlite3.connect(os.path.join(cache_dir, CACHE_FILE))
    try:
        return db.execute("SELECT digest, body FROM responses ORDER BY digest").fetchall()
    finally:
        db.close()


JUDGE_PAYLOAD = {"prompt": "Does the mention [Ann] correspond to the character Ann? (Yes/No)", "decoding": DECODING}


class TestWireComponents:
    def test_link_roundtrip(self, service):
        _, url = service
        linker = HttpLinker(client_for(url))
        cs = linker.link(DOC)
        assert cs.stage == "initialized"
        assert cs.clusters["Ann"] == (Mention(0, 0), Mention(5, 5))
        assert cs.clusters["Ben"] == (Mention(2, 2),)

    def test_judge_yes_no(self, service):
        server, url = service
        judge = HttpJudge(client_for(url))
        yes = JudgeRequest(DOC, Mention(0, 0), "Ann")  # brackets [Ann]
        no = JudgeRequest(DOC, Mention(4, 4), "Ann")  # brackets [bad]
        assert judge.judge(yes) is True
        assert judge.judge(no) is False
        assert [body["prompt"] for _, body in server.requests] == [yes.prompt, no.prompt]

    def test_judge_rejects_garbage_answer(self, service):
        _, url = service
        client = client_for(url)
        judge = HttpJudge(client)
        judge.client.post = lambda route, payload: {"answer": "maybe"}
        with pytest.raises(ContractError, match="expected 'Yes' or 'No'"):
            judge.judge(JudgeRequest(DOC, Mention(0, 0), "Ann"))

    def test_expand_refuses_seed_keys_that_print_alike(self, service):
        server, url = service
        expander = HttpExpander(client_for(url))
        request = ExpandRequest("wire", 0, 7, DOC.tokens, {1: (Mention(0, 0),), "1": (Mention(2, 2),)})
        with pytest.raises(ContractError, match=r"^/expand: cluster keys 1 and '1' both print as '1'"):
            expander.expand(request)
        assert server.requests == []

    def test_expand_echoes_seeds_and_maps_keys(self, service):
        _, url = service
        expander = HttpExpander(client_for(url))
        request = ExpandRequest("wire", 0, 7, DOC.tokens, {"Ann": (Mention(0, 0),), "Ben": ()})
        out = expander.expand(request)
        assert set(out) == {"Ann", "Ben"}
        assert list(out["Ann"]) == [Mention(0, 0)]

    def test_expand_sends_window_offsets_and_returns_book_offsets(self, service):
        _, url = service
        client = client_for(url)
        sent = []
        post = client.transport.post

        def recording_post(route, body):
            sent.append(body)
            return post(route, body)

        client.transport.post = recording_post
        # the window [2, 6) of DOC: seeds in book offsets, tokens[i] is book token 2 + i
        request = ExpandRequest("wire", 2, 6, DOC.tokens[2:6], {"Ann": (Mention(5, 5),), "Ben": (Mention(2, 2),)})
        out = HttpExpander(client).expand(request)
        body = b'{"seeds":{"Ann":[[3,3]],"Ben":[[0,0]]},"tokens":["Ben","and","bad","Ann"]}'
        assert sent == [body]
        assert client.log[0]["request"] == hashlib.sha256(b"/expand\n" + body).hexdigest()
        # the echo service replies in window offsets; the expander answers in book offsets
        assert {key: list(ms) for key, ms in out.items()} == {"Ann": [Mention(5, 5)], "Ben": [Mention(2, 2)]}

    def test_retry_recovers_from_transient_500(self, service):
        server, url = service
        server.fail_next["/link"] = 1
        linker = HttpLinker(client_for(url, retries=2))
        cs = linker.link(DOC)
        assert cs.clusters["Ben"] == (Mention(2, 2),)
        assert len([r for r in server.requests if r[0] == "/link"]) == 2

    def test_log_accounts_for_every_attempt_and_byte(self, service, tmp_path):
        server, url = service
        server.fail_next["/link"] = 2
        server.fail_next["/judge"] = 1
        client = client_for(url, retries=2, cache_dir=str(tmp_path))
        HttpLinker(client).link(DOC)
        HttpJudge(client).judge(JudgeRequest(DOC, Mention(0, 0), "Ann"))
        HttpLinker(client).link(DOC)  # a cache hit puts nothing on the wire
        assert [(e["route"], e["cached"], e["attempts"]) for e in client.log] == [
            ("/link", False, 3),
            ("/judge", False, 2),
            ("/link", True, 0),
        ]
        assert sum(e["attempts"] for e in client.log) == len(server.requests) == 5
        link_body = json.dumps(server.requests[0][1], sort_keys=True, separators=(",", ":")).encode()
        assert client.log[0]["bytes_out"] == len(link_body)
        assert client.log[0]["bytes_in"] == len(json.dumps({"clusters": {"Ann": [[0, 0], [5, 5]], "Ben": [[2, 2]]}}))
        assert (client.log[2]["bytes_out"], client.log[2]["bytes_in"]) == (0, 0)

    def test_transport_error_after_exhausted_retries(self, service):
        server, url = service
        server.fail_next["/judge"] = 10
        judge = HttpJudge(client_for(url, retries=1))
        with pytest.raises(TransportError, match="unreachable after 2 attempts"):
            judge.judge(JudgeRequest(DOC, Mention(0, 0), "Ann"))

    def test_unreachable_host_is_transport_error(self):
        client = ServiceClient("http://127.0.0.1:1", retries=0, backoff=0.0, cache_dir="")
        with pytest.raises(TransportError):
            client.post("/link", {})

    def test_response_cache_replays_without_hitting_service(self, service, tmp_path):
        server, url = service
        client = client_for(url, cache_dir=str(tmp_path))
        first = client.post("/link", {"doc_id": "wire", "tokens": list(DOC.tokens), "characters": ["Ann"]})
        n_requests = len(server.requests)
        second = client.post("/link", {"doc_id": "wire", "tokens": list(DOC.tokens), "characters": ["Ann"]})
        assert first == second
        assert len(server.requests) == n_requests
        assert client.log[-1]["cached"] is True

    def test_cache_dir_from_environment(self, service, tmp_path, monkeypatch):
        server, url = service
        monkeypatch.setenv("BOOKCOREF_CACHE_DIR", str(tmp_path))
        client = ServiceClient(url, backoff=0.0)
        client.post("/judge", JUDGE_PAYLOAD)
        client.close()
        ((digest, body),) = stored_rows(tmp_path)
        assert digest == client.log[-1]["request"]
        assert json.loads(body) == {"answer": "Yes"}


class TestEndToEndOverHttp:
    def test_http_pipeline_matches_local_components(self, service):
        _, url = service
        client = client_for(url)
        config = PipelineConfig(window_len=4, group_size=2)
        remote_final, _ = run(DOC, config, HttpLinker(client), HttpJudge(client), HttpExpander(client))
        local_final, _ = run(DOC, config, PatternMatchLinker(), AcceptAllJudge(), IdentityExpander())
        assert remote_final == local_final

    def test_cached_rerun_is_bit_identical_offline(self, service, tmp_path):
        server, url = service
        client = client_for(url, cache_dir=str(tmp_path))
        config = PipelineConfig(window_len=4, group_size=2)
        args = (HttpLinker(client), HttpJudge(client), HttpExpander(client))
        first, _ = run(DOC, config, *args)
        server.shutdown()  # replay must not need the service at all
        second, _ = run(DOC, config, *args)
        assert first == second

    def test_cli_pipeline_over_http_records_service_log(self, keep_alive_service, tmp_path, monkeypatch):
        """The CLI closes the client it made before it returns. The
        keep-alive server leaves each connection open after its reply, and
        the client is kept alive here, so that only its ``close()`` can have
        closed its socket and its cache handle. (A client that is dropped
        unclosed warns about nothing: each thread's connection is closed
        when its holder is collected.)"""
        from bookcoref import cli
        from bookcoref.cli import main
        from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl
        from bookcoref.model import ClusterSet
        from bookcoref.remote import ResponseCache

        clients, connections, dbs = [], [], []

        class KeptClient(ServiceClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                clients.append(self)

        def recording(made, connect):
            def wrapper(self):
                made.append(connect(self))
                return made[-1]

            return wrapper

        monkeypatch.setattr(cli, "ServiceClient", KeptClient)
        monkeypatch.setattr(Transport, "_connect", recording(connections, Transport._connect))
        monkeypatch.setattr(ResponseCache, "_connect", recording(dbs, ResponseCache._connect))
        _, url = keep_alive_service
        gold = ClusterSet.build("wire", "gold", {"Ann": [(0, 0), (5, 5)], "Ben": [(2, 2)]})
        src = tmp_path / "in.jsonl"
        write_jsonl(CorpusFile([DocumentRecord(DOC, {"gold": gold})]), str(src))
        pred = tmp_path / "pred.jsonl"
        out = tmp_path / "run.json"
        code = main(
            [
                "pipeline", "run", str(src), str(pred),
                "--linker", "http", "--judge", "http", "--expander", "http",
                "--endpoint", url, "--window-len", "4", "--group-size", "2",
                "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["timings"]["service_log"]
        assert {entry["route"] for entry in payload["timings"]["service_log"]} == {"/link", "/judge", "/expand"}
        assert payload["invocation"]["endpoint"] == url
        assert payload["invocation_hash"]
        assert len(clients) == 1 and connections and dbs
        assert all(conn.sock is None for conn in connections)
        for db in dbs:
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                db.execute("SELECT 1")

    def test_cli_cached_rerun_equals_the_first_run_outside_timings(self, service, tmp_path, capsys):
        """``pipeline run --json`` twice with one cache: the rerun sends no
        request, and its payload differs from the first only under
        ``timings``, where the service log says which calls were cached."""
        from bookcoref.cli import main
        from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl

        server, url = service
        src, pred = tmp_path / "in.jsonl", tmp_path / "pred.jsonl"
        gold = ClusterSet.build("wire", "gold", {"Ann": [(0, 0), (5, 5)], "Ben": [(2, 2)]})
        write_jsonl(CorpusFile([DocumentRecord(DOC, {"gold": gold})]), str(src))
        argv = [
            "--jobs", "2", "pipeline", "run", str(src), str(pred),
            "--linker", "http", "--judge", "http", "--expander", "http",
            "--endpoint", url, "--window-len", "2", "--group-size", "2",
            "--cache-dir", str(tmp_path / "cache"), "--json",
        ]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            out = capsys.readouterr().out
            runs.append((json.loads(out[out.index("\n{") + 1 :]), pred.read_bytes(), len(server.requests)))
        (first, pred1, sent1), (second, pred2, sent2) = runs
        assert sent1 > 0 and sent2 == sent1
        assert not any(entry["cached"] for entry in first["timings"]["service_log"])
        assert all(entry["cached"] for entry in second["timings"]["service_log"])
        assert pred1 == pred2
        assert json.dumps(drop_timings(first), indent=2, sort_keys=True) == json.dumps(
            drop_timings(second), indent=2, sort_keys=True
        )


class TestOneExecutorPerRun:
    def test_run_opens_one_connection_per_worker(self, service, monkeypatch):
        """The stages of one run share its pool, so a run at jobs=2 opens at
        most two connections however many passes and calls it makes (the
        linker here is local; it would run on the calling thread)."""
        server, url = service
        connects = []
        connect = Transport._connect

        def counting(self):
            connects.append(threading.current_thread().name)
            return connect(self)

        monkeypatch.setattr(Transport, "_connect", counting)
        client = client_for(url)
        config = PipelineConfig(window_len=2, group_size=2, jobs=2)
        final, _ = run(DOC, config, PatternMatchLinker(), HttpJudge(client), HttpExpander(client))
        local_final, _ = run(DOC, config, PatternMatchLinker(), AcceptAllJudge(), IdentityExpander())
        assert final == local_final
        assert {route for route, _ in server.requests} == {"/judge", "/expand"}
        assert len(server.requests) > 4
        assert 0 < len(connects) <= 2

    def test_cli_corpus_opens_jobs_plus_one_connections(self, service, tmp_path, monkeypatch):
        """``pipeline run`` shares one pool across the books of a corpus, so
        two books at --jobs 2 open the two workers' connections and the
        linker's on the calling thread, not two per book; the output is that
        of --jobs 1."""
        from bookcoref.cli import main
        from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl

        server, url = service
        other = Document("wire2", ("Ben", "saw", "Ann", ".", "Ann", "and", "Ben"), ("Ann", "Ben"))
        src = tmp_path / "in.jsonl"
        records = [
            DocumentRecord(DOC, {"gold": ClusterSet.build("wire", "gold", {"Ann": [(0, 0), (5, 5)], "Ben": [(2, 2)]})}),
            DocumentRecord(other, {"gold": ClusterSet.build("wire2", "gold", {"Ann": [(2, 2), (4, 4)], "Ben": [(0, 0), (6, 6)]})}),
        ]
        write_jsonl(CorpusFile(records), str(src))
        connects = []
        connect = Transport._connect

        def counting(self):
            connects.append(threading.current_thread().name)
            return connect(self)

        monkeypatch.setattr(Transport, "_connect", counting)
        outputs = {}
        for jobs in (2, 1):
            connects.clear()
            pred, out = tmp_path / f"pred{jobs}.jsonl", tmp_path / f"run{jobs}.json"
            argv = [
                "--jobs", str(jobs), "pipeline", "run", str(src), str(pred),
                "--linker", "http", "--judge", "http", "--expander", "http",
                "--endpoint", url, "--window-len", "2", "--group-size", "2",
                "--cache-dir", "", "--out", str(out),
            ]
            assert main(argv) == 0
            payload = drop_timings(json.loads(out.read_text()))
            assert set(payload["traces"]) == {"wire", "wire2"}
            assert all(trace["window_records"] for trace in payload["traces"].values())
            outputs[jobs] = (pred.read_bytes(), payload["traces"], len(connects))
        assert {route for route, _ in server.requests} == {"/link", "/judge", "/expand"}
        assert 0 < outputs[2][2] <= 2 + 1
        assert outputs[1][2] == 1
        assert outputs[2][:2] == outputs[1][:2]


class TestOneRetryLayer:
    def test_refine_over_dead_judge_sends_retries_plus_one_attempts(self, service):
        """Every attempt comes from the client; refine adds none."""
        server, url = service
        server.fail_next["/judge"] = 100
        judge = HttpJudge(client_for(url, retries=2))
        init = ClusterSet.build("wire", "initialized", {"Ann": [(0, 0), (5, 5)], "Ben": [(2, 2)]})
        with pytest.raises(StageError, match=r"mention \(0,0\) of 'Ann': .*unreachable after 3 attempts"):
            refine(DOC, init, judge)
        assert len([r for r in server.requests if r[0] == "/judge"]) == 3

    def test_negative_retries_rejected_before_any_request(self):
        with pytest.raises(ConfigError, match="retries must be >= 0"):
            ServiceClient("http://127.0.0.1:1", retries=-1)
        assert ServiceClient("http://127.0.0.1:1", retries=0).retries == 0

    def test_rejected_request_is_final_after_one_attempt(self, service):
        server, url = service
        with pytest.raises(FinalTransportError, match="rejected request: 404"):
            client_for(url, retries=2).post("/missing", {})
        assert len(server.requests) == 1


class TestCacheUnderConcurrency:
    def test_concurrent_writers_of_one_digest(self, service, tmp_path, monkeypatch):
        _, url = service
        n = 8
        barrier = threading.Barrier(n)
        client = client_for(url, cache_dir=str(tmp_path))
        send = client.transport.post

        def lockstep(route, body):
            """Holds every reply until all threads have one, so all writes
            of the shared digest happen together."""
            reply = send(route, body)
            barrier.wait(timeout=10)
            return reply

        monkeypatch.setattr(client.transport, "post", lockstep)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n) as pool:
                results = [f.result(timeout=30) for f in [pool.submit(client.post, "/judge", JUDGE_PAYLOAD) for _ in range(n)]]
        finally:
            sys.setswitchinterval(old_interval)
        assert results == [{"answer": "Yes"}] * n
        assert [entry["cached"] for entry in client.log] == [False] * n
        client.close()
        assert [json.loads(body) for _, body in stored_rows(tmp_path)] == [{"answer": "Yes"}]
        # with every connection closed, SQLite leaves no journal or temp file behind
        assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]

    def test_concurrent_processes_share_one_cache_file(self, service, tmp_path):
        _, url = service
        script = (
            "import sys\n"
            "from bookcoref.remote import DECODING, ServiceClient\n"
            "client = ServiceClient(sys.argv[1], backoff=0.0, cache_dir=sys.argv[2])\n"
            "for i in range(40):\n"
            "    client.post('/judge', {'prompt': f'Does the mention [Ann{i % 20}] match?', 'decoding': DECODING})\n"
            "client.close()\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        procs = [
            subprocess.Popen([sys.executable, "-c", script, url, str(tmp_path)], env=env, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err.decode()
        rows = stored_rows(tmp_path)
        assert len(rows) == 20
        assert all(json.loads(body) == {"answer": "Yes"} for _, body in rows)

    def test_corrupt_entry_is_refetched_and_overwritten(self, service, tmp_path):
        server, url = service
        client = client_for(url, cache_dir=str(tmp_path))
        payload = {"doc_id": "wire", "tokens": list(DOC.tokens), "characters": ["Ann"]}
        first = client.post("/link", payload)
        ((digest, _),) = stored_rows(tmp_path)
        # a truncated body, JSON that is not an object, and JSON nested too deeply to parse
        for n, stored in enumerate([b'{"clus', b"[1, 2]", b"null", b"[" * 100_000], start=2):
            db = sqlite3.connect(tmp_path / CACHE_FILE)
            with db:
                db.execute("UPDATE responses SET body = ? WHERE digest = ?", (stored, digest))
            db.close()
            assert client.post("/link", payload) == first
            assert len(server.requests) == n
            assert client.log[-1]["cached"] is False
            ((_, body),) = stored_rows(tmp_path)
            assert json.loads(body) == first

    def test_cache_dir_is_created_by_the_client(self, tmp_path):
        cache = tmp_path / "a" / "b"
        ServiceClient("http://127.0.0.1:1", cache_dir=str(cache))
        assert cache.is_dir()

    def test_old_per_response_files_are_not_read(self, service, tmp_path):
        server, url = service
        client = client_for(url, cache_dir=str(tmp_path))
        client.post("/judge", JUDGE_PAYLOAD)
        digest = client.log[-1]["request"]
        client.close()
        (tmp_path / CACHE_FILE).unlink()
        (tmp_path / f"{digest}.json").write_text(json.dumps({"answer": "No"}), encoding="utf-8")
        assert client_for(url, cache_dir=str(tmp_path)).post("/judge", JUDGE_PAYLOAD) == {"answer": "Yes"}
        assert len(server.requests) == 2


class TestUnusableCacheFile:
    def test_file_that_is_not_sqlite_is_cache_error_naming_it(self, tmp_path):
        path = tmp_path / CACHE_FILE
        path.write_bytes(b"not a database, " * 16)
        with pytest.raises(CacheError, match=f"response cache {path}: file is not a database"):
            ServiceClient("http://127.0.0.1:1", cache_dir=str(tmp_path))

    def test_cli_exits_2_without_traceback(self, service, tmp_path, capsys):
        from bookcoref.cli import main
        from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl

        server, url = service
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / CACHE_FILE).write_bytes(b"not a database, " * 16)
        src = tmp_path / "in.jsonl"
        gold = ClusterSet.build("wire", "gold", {"Ann": [(0, 0)], "Ben": [(2, 2)]})
        write_jsonl(CorpusFile([DocumentRecord(DOC, {"gold": gold})]), str(src))
        code = main(
            [
                "pipeline", "run", str(src), str(tmp_path / "pred.jsonl"),
                "--linker", "http", "--endpoint", url, "--cache-dir", str(cache),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"bookcoref: response cache {cache / CACHE_FILE}: file is not a database" in err
        assert "Traceback" not in err
        assert server.requests == []


MALFORMED_SPANS = [[[1]], [["x", 2]], [None], [[1, 2, 3]]]


class MalformedLinkHandler(MockAnnotatorHandler):
    """Answers /link with the body in ``server.link_body``."""

    def do_POST(self):
        if self.path != "/link":
            return super().do_POST()
        self.rfile.read(int(self.headers["Content-Length"]))
        payload = self.server.link_body
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def malformed_service():
    server = HTTPServer(("127.0.0.1", 0), MalformedLinkHandler)
    server.requests, server.headers, server.fail_next = [], [], {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


class TestWireShape:
    @pytest.mark.parametrize("spans", MALFORMED_SPANS)
    def test_malformed_span_is_contract_error(self, spans):
        client = client_for("http://127.0.0.1:1")
        client.post = lambda route, payload: {"clusters": {"Ann": spans}}
        with pytest.raises(ContractError, match=r"^/link: span .* of 'Ann'"):
            HttpLinker(client).link(DOC)

    @pytest.mark.parametrize(
        "body",
        [json.dumps({"clusters": {"Ann": spans}}).encode() for spans in MALFORMED_SPANS]
        + [b"not json", b"[1, 2]"]
        # 100,000 brackets make json raise RecursionError, not ValueError
        + [pytest.param(b"[" * 100_000, id="nested-100000")],
    )
    def test_cli_exits_1_on_malformed_response(self, malformed_service, tmp_path, capsys, body):
        from bookcoref.cli import main
        from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl

        server, url = malformed_service
        server.link_body = body
        src = tmp_path / "in.jsonl"
        gold = ClusterSet.build("wire", "gold", {"Ann": [(0, 0)], "Ben": [(2, 2)]})
        write_jsonl(CorpusFile([DocumentRecord(DOC, {"gold": gold})]), str(src))
        code = main(
            [
                "pipeline", "run", str(src), str(tmp_path / "pred.jsonl"),
                "--linker", "http", "--judge", "accept", "--expander", "identity",
                "--endpoint", url, "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 1
        assert "bookcoref: /link:" in capsys.readouterr().err


class KeepAliveHandler(MockAnnotatorHandler):
    """The mock service over HTTP/1.1 keep-alive; records each request's
    client port. With ``server.drop_idle`` it closes the connection after
    each reply without saying so, as a server dropping idle connections does."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.server.ports.append(self.client_address[1])
        super().do_POST()
        self.close_connection = self.server.drop_idle


@pytest.fixture()
def keep_alive_service():
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
    server.daemon_threads = True
    server.requests, server.headers, server.fail_next, server.ports = [], [], {}, []
    server.drop_idle = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


class TestSessions:
    def test_worker_threads_use_distinct_connections(self, keep_alive_service):
        server, url = keep_alive_service
        client = client_for(url)
        n = 4
        barrier = threading.Barrier(n)

        connections = []

        def ports_used(i):
            ports = []
            for round_ in range(2):
                client.post("/judge", dict(JUDGE_PAYLOAD, prompt=f"{JUDGE_PAYLOAD['prompt']} {i} {round_}"))
                ports.append(client.transport.connection().sock.getsockname()[1])
                barrier.wait(timeout=10)  # all threads alive at once
            connections.append(client.transport.connection())
            return ports

        with ThreadPoolExecutor(max_workers=n) as pool:
            per_thread = list(pool.map(ports_used, range(n), timeout=30))
        # the pool's threads have ended, and their connections with them
        assert len(connections) == n and all(conn.sock is None for conn in connections)
        # each thread kept its one connection open across its calls ...
        assert all(first == second for first, second in per_thread)
        # ... and no two threads shared one
        assert len({first for first, _ in per_thread}) == n
        assert sorted(server.ports) == sorted(port for ports in per_thread for port in ports)

    def test_dropped_idle_connection_is_reopened_within_one_attempt(self, keep_alive_service):
        server, url = keep_alive_service
        server.drop_idle = True
        client = client_for(url, retries=0)
        for i in range(3):
            assert client.post("/judge", dict(JUDGE_PAYLOAD, prompt=f"{JUDGE_PAYLOAD['prompt']} {i}")) == {"answer": "Yes"}
        assert [entry["attempts"] for entry in client.log] == [1, 1, 1]
        assert len(server.requests) == 3
        assert len(set(server.ports)) == 3

    def test_environment_is_read_once_when_the_client_is_built(self, service, monkeypatch):
        _, url = service
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "NETRC"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        client = client_for(url, retries=0)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        assert client.post("/garbage", {}) == {"answer": "maybe"}

    @pytest.mark.parametrize(
        ("name", "value", "message"),
        [
            ("HTTP_PROXY", "http://127.0.0.1:notaport", "Port could not be cast"),
            ("HTTP_PROXY", "socks5://127.0.0.1:1080", "only http:// proxies are supported"),
        ],
    )
    def test_unusable_proxy_is_config_error(self, monkeypatch, name, value, message):
        for var in ("http_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(var, raising=False)
            monkeypatch.delenv(var.upper(), raising=False)
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError, match=message):
            ServiceClient("http://annotator.invalid")

    @pytest.mark.parametrize("endpoint", ["annotator:8080", "ftp://annotator", "http://annotator:99999", "http://annotator/a b"])
    def test_malformed_endpoint_is_config_error(self, endpoint):
        with pytest.raises(ConfigError, match="endpoint"):
            ServiceClient(endpoint)

    def test_netrc_credentials_are_sent(self, service, monkeypatch, tmp_path):
        server, url = service
        rc = tmp_path / "netrc"
        rc.write_text("machine 127.0.0.1 login ann password s3cret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(rc))
        client_for(url).post("/garbage", {})
        assert server.headers[-1]["Authorization"] == "Basic " + base64.b64encode(b"ann:s3cret").decode()

    def test_plain_http_proxy_gets_the_absolute_url(self, service, monkeypatch):
        server, proxy_url = service
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("HTTP_PROXY", proxy_url)
        with pytest.raises(FinalTransportError, match="rejected request: 404"):
            client_for("http://annotator.invalid:8080/api").post("/judge", JUDGE_PAYLOAD)
        assert server.requests[-1][0] == "http://annotator.invalid:8080/api/judge"
        assert server.headers[-1]["Host"] == "annotator.invalid:8080"

    def test_environment_proxy_settings_still_apply(self, service, monkeypatch):
        _, url = service
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        with pytest.raises(TransportError):
            client_for(url, retries=0).post("/garbage", {})
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert client_for(url, retries=0).post("/garbage", {}) == {"answer": "maybe"}


class TunnelProxyHandler(BaseHTTPRequestHandler):
    """An HTTP proxy that serves only CONNECT tunnels; records each target."""

    def log_message(self, *args):
        pass

    def do_CONNECT(self):
        self.server.targets.append(self.path)
        host, port = self.path.rsplit(":", 1)
        upstream = socket.create_connection((host, int(port)), timeout=10)
        self.send_response(200, "Connection established")
        self.end_headers()
        ends = [self.connection, upstream]
        try:
            while True:
                readable, _, _ = select.select(ends, [], [], 10)
                if not readable:
                    return
                for end in readable:
                    data = end.recv(65536)
                    if not data:
                        return
                    (upstream if end is self.connection else self.connection).sendall(data)
        finally:
            upstream.close()
            self.close_connection = True


def serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture()
def tls_service(tmp_path):
    """The mock service over HTTPS with a self-signed certificate for 127.0.0.1."""
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
            "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
            "-keyout", str(key), "-out", str(cert),
        ],
        check=True,
        capture_output=True,
        timeout=60,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
    server.daemon_threads = True
    server.socket = context.wrap_socket(server.socket, server_side=True)
    server.requests, server.headers, server.fail_next, server.ports = [], [], {}, []
    server.drop_idle = False
    thread = serve(server)
    try:
        yield server, f"https://127.0.0.1:{server.server_address[1]}", str(cert)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl command to make a certificate")
class TestTls:
    @pytest.fixture(autouse=True)
    def no_proxy_or_bundle(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_ca_bundle_from_environment_verifies_the_service(self, tls_service, monkeypatch):
        _, url, cert = tls_service
        with pytest.raises(FinalTransportError, match="CERTIFICATE_VERIFY_FAILED"):
            client_for(url, retries=0).post("/judge", JUDGE_PAYLOAD)
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", cert)
        assert client_for(url, retries=0).post("/judge", JUDGE_PAYLOAD) == {"answer": "Yes"}

    def test_missing_ca_bundle_is_config_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CURL_CA_BUNDLE", str(tmp_path / "missing.pem"))
        with pytest.raises(ConfigError, match="CA bundle"):
            ServiceClient("https://127.0.0.1:1")

    def test_https_goes_through_a_connect_tunnel(self, tls_service, monkeypatch):
        _, url, cert = tls_service
        proxy = ThreadingHTTPServer(("127.0.0.1", 0), TunnelProxyHandler)
        proxy.daemon_threads = True
        proxy.targets = []
        thread = serve(proxy)
        try:
            monkeypatch.setenv("REQUESTS_CA_BUNDLE", cert)
            monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy.server_address[1]}")
            client = client_for(url, retries=0)
            assert client.post("/judge", JUDGE_PAYLOAD) == {"answer": "Yes"}
            client.close()
        finally:
            proxy.shutdown()
            proxy.server_close()
            thread.join(timeout=2)
        assert proxy.targets == [url.removeprefix("https://")]
