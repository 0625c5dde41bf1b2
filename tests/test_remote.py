import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from bookcoref.errors import ConfigError, ContractError, FinalTransportError, StageError, TransportError
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
from bookcoref.remote import DECODING, HttpExpander, HttpJudge, HttpLinker, ServiceClient


class MockAnnotatorHandler(BaseHTTPRequestHandler):
    """Wire-protocol stand-in: exact-name linking, a judge that rejects
    mentions starting with 'bad', and an echo expander."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.path, body))
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
    server.fail_next = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=2)


DOC = Document("wire", ("Ann", "met", "Ben", "and", "bad", "Ann", "left"), ("Ann", "Ben"))


def client_for(url, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    kwargs.setdefault("cache_dir", "")
    return ServiceClient(url, **kwargs)


class TestWireComponents:
    def test_link_roundtrip(self, service):
        _, url = service
        linker = HttpLinker(client_for(url))
        cs = linker.link(DOC)
        assert cs.stage == "initialized"
        assert cs.clusters["Ann"] == (Mention(0, 0), Mention(5, 5))
        assert cs.clusters["Ben"] == (Mention(2, 2),)

    def test_judge_yes_no(self, service):
        _, url = service
        judge = HttpJudge(client_for(url))
        yes = JudgeRequest("Book excerpt: x\n\nDoes the mention [Ann] correspond to the character Ann? (Yes/No)", "wire", Mention(0, 0), "Ann")
        no = JudgeRequest("Book excerpt: x\n\nDoes the mention [bad] correspond to the character Ann? (Yes/No)", "wire", Mention(4, 4), "Ann")
        assert judge.judge(yes) is True
        assert judge.judge(no) is False

    def test_judge_rejects_garbage_answer(self, service):
        _, url = service
        client = client_for(url)
        judge = HttpJudge(client)
        judge.client.post = lambda route, payload: {"answer": "maybe"}
        with pytest.raises(ContractError, match="expected 'Yes' or 'No'"):
            judge.judge(JudgeRequest("p", "wire", Mention(0, 0), "Ann"))

    def test_expand_echoes_seeds_and_maps_keys(self, service):
        _, url = service
        expander = HttpExpander(client_for(url))
        request = ExpandRequest("wire", 0, 7, DOC.tokens, {"Ann": (Mention(0, 0),), "Ben": ()})
        out = expander.expand(request)
        assert set(out) == {"Ann", "Ben"}
        assert list(out["Ann"]) == [Mention(0, 0)]

    def test_retry_recovers_from_transient_500(self, service):
        server, url = service
        server.fail_next["/link"] = 1
        linker = HttpLinker(client_for(url, retries=2))
        cs = linker.link(DOC)
        assert cs.clusters["Ben"] == (Mention(2, 2),)
        assert len([r for r in server.requests if r[0] == "/link"]) == 2

    def test_transport_error_after_exhausted_retries(self, service):
        server, url = service
        server.fail_next["/judge"] = 10
        judge = HttpJudge(client_for(url, retries=1))
        with pytest.raises(TransportError, match="unreachable after 2 attempts"):
            judge.judge(JudgeRequest("p", "wire", Mention(0, 0), "Ann"))

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
        client.post("/judge", {"prompt": "Does the mention [Ann] correspond to the character Ann? (Yes/No)", "decoding": DECODING})
        assert list(tmp_path.glob("*.json"))


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

    def test_cli_pipeline_over_http_records_service_log(self, service, tmp_path):
        from bookcoref.cli import main
        from bookcoref.formats import CorpusFile, DocumentRecord, write_jsonl
        from bookcoref.model import ClusterSet

        _, url = service
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
        assert payload["service_log"]
        assert {entry["route"] for entry in payload["service_log"]} == {"/link", "/judge", "/expand"}
        assert payload["invocation"]["endpoint"] == url
        assert payload["invocation_hash"]


class TestOneRetryLayer:
    def test_refine_over_dead_judge_sends_retries_plus_one_attempts(self, service):
        server, url = service
        server.fail_next["/judge"] = 100
        judge = HttpJudge(client_for(url, retries=2))
        init = ClusterSet.build("wire", "initialized", {"Ann": [(0, 0), (5, 5)], "Ben": [(2, 2)]})
        with pytest.raises(StageError, match=r"mention \(0,0\) of 'Ann': .*unreachable after 3 attempts"):
            refine(DOC, init, judge, retries=2)
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
    def test_concurrent_writers_of_one_digest(self, service, tmp_path):
        _, url = service
        n = 8
        barrier = threading.Barrier(n)

        class LockstepSession(requests.Session):
            """Holds every reply until all threads have one, so all writes
            of the shared digest happen together."""

            def post(self, *args, **kwargs):
                resp = super().post(*args, **kwargs)
                barrier.wait(timeout=10)
                return resp

        client = client_for(url, cache_dir=str(tmp_path), session=LockstepSession())
        payload = {"prompt": "Does the mention [Ann] correspond to the character Ann? (Yes/No)", "decoding": DECODING}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n) as pool:
                results = [f.result(timeout=30) for f in [pool.submit(client.post, "/judge", payload) for _ in range(n)]]
        finally:
            sys.setswitchinterval(old_interval)
        assert results == [{"answer": "Yes"}] * n
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json"]

    def test_corrupt_entry_is_refetched_and_overwritten(self, service, tmp_path):
        server, url = service
        client = client_for(url, cache_dir=str(tmp_path))
        payload = {"doc_id": "wire", "tokens": list(DOC.tokens), "characters": ["Ann"]}
        first = client.post("/link", payload)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(entry.read_text()[:5], encoding="utf-8")
        assert client.post("/link", payload) == first
        assert len(server.requests) == 2
        assert client.log[-1]["cached"] is False
        assert json.loads(entry.read_text()) == first

    def test_cache_dir_is_created_by_the_client(self, tmp_path):
        cache = tmp_path / "a" / "b"
        ServiceClient("http://127.0.0.1:1", cache_dir=str(cache))
        assert cache.is_dir()


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
    server.requests, server.fail_next = [], {}
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
        [json.dumps({"clusters": {"Ann": spans}}).encode() for spans in MALFORMED_SPANS] + [b"not json", b"[1, 2]"],
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


class TestSessions:
    def test_worker_threads_use_distinct_sessions(self):
        client = client_for("http://127.0.0.1:1")
        n = 4
        barrier = threading.Barrier(n)

        def sessions_seen(_):
            first = client.session
            barrier.wait(timeout=10)  # all threads alive at once
            assert client.session is first
            return first

        with ThreadPoolExecutor(max_workers=n) as pool:
            sessions = list(pool.map(sessions_seen, range(n), timeout=30))
        assert len({id(s) for s in sessions}) == n
        assert all(s.trust_env is False for s in sessions)

    def test_supplied_session_is_shared_as_is(self):
        session = requests.Session()
        client = client_for("http://127.0.0.1:1", session=session)
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert set(pool.map(lambda _: client.session, range(2))) == {session}
        assert session.trust_env is True

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
